// Every instruction-set variant of VthModel's batch kernels
// (flash/vth_kernels.h) against the baseline variant, bit for bit:
//   * seeded random wordline rows in all four (dose, retention) regimes,
//     through present_vth_batch, classify_batch, sense_first_batch and
//     resense_batch at rising doses, over row lengths that leave every
//     vector-remainder case;
//   * hand-placed cells at each read reference, one float ulp either
//     side of it and inside the crossing guard band, first sensed at dose
//     0; and the rows whose crossing entries could turn NaN (the cells of
//     CrossingKernelTest.RowEntriesAreNeverNaN);
//   * sample_program_batch (outputs and the RNG state it leaves) and
//     disturb_shift_batch, including dose 0.
// A variant the CPU cannot run is skipped with a message. The variant
// VthModel dispatches to is recorded as the test property "dispatched".
#include "flash/vth_kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "flash/params.h"
#include "flash/vth_model.h"

namespace rdsim::flash {
namespace {

using kernels::VthKernels;

const VthKernels& baseline() { return kernels::vth_kernel_variants()[0]; }

template <typename T>
auto bits(T x) {
  if constexpr (sizeof(T) == 8)
    return std::bit_cast<std::uint64_t>(x);
  else if constexpr (sizeof(T) == 4)
    return std::bit_cast<std::uint32_t>(x);
  else
    return x;
}

/// Fails at the first element whose bits differ.
template <typename T>
void expect_same_bits(const std::vector<T>& want, const std::vector<T>& got,
                      const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(bits(want[i]), bits(got[i]))
        << what << " differs at " << i << " of " << want.size()
        << ": baseline " << +want[i] << ", variant " << +got[i];
}

/// One wordline's cells as owned rows.
struct Row {
  std::vector<std::uint8_t> programmed;
  std::vector<float> v0, susceptibility, leak_rate;

  CellSoaView view() const {
    return {programmed.data(), v0.data(), susceptibility.data(),
            leak_rate.data(), v0.size()};
  }
};

/// The first sense and a run of re-senses at rising doses, as one variant
/// computes them: every crossing row and state row along the way.
struct SenseTrace {
  std::vector<float> cross;
  std::vector<std::uint8_t> states;
};

class VthKernelsTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    if (!variant().supported())
      GTEST_SKIP() << "this CPU cannot run the " << variant().name
                   << " variant";
  }

  const VthKernels& variant() const {
    return kernels::vth_kernel_variants()[GetParam()];
  }

  /// A seeded random wordline, sampled the way a block programs one,
  /// with a few cells pushed next to each read reference.
  Row random_row(std::size_t n, std::uint64_t seed) const {
    Row row;
    Rng rng(seed);
    row.programmed.resize(n);
    for (auto& s : row.programmed)
      s = static_cast<std::uint8_t>(rng.uniform_u64(4));
    row.v0.resize(n);
    row.susceptibility.resize(n);
    row.leak_rate.resize(n);
    VthModel::ProgramSampleScratch scratch;
    model_.sample_program_batch(row.programmed.data(), n, 8000.0, rng,
                                scratch, row.v0.data(),
                                row.susceptibility.data(),
                                row.leak_rate.data());
    const double refs[] = {params_.vref_a, params_.vref_b, params_.vref_c};
    for (std::size_t i = 0; i < n; i += 7)
      row.v0[i] = static_cast<float>(refs[i % 3] + rng.uniform(-0.05, 0.05));
    return row;
  }

  /// sense_first at `doses[0]`, then resense at each later dose.
  static std::vector<SenseTrace> sense_trace(const VthKernels& k,
                                             const VthModel& model,
                                             const Row& row, double days,
                                             const std::vector<double>& doses) {
    const std::size_t n = row.v0.size();
    SenseTrace step{std::vector<float>(n), std::vector<std::uint8_t>(n)};
    std::vector<SenseTrace> trace;
    k.sense_first_batch(model, row.view(),
                        model.sense_coeffs(doses[0], days, 8000.0),
                        step.cross.data(), step.states.data());
    trace.push_back(step);
    for (std::size_t d = 1; d < doses.size(); ++d) {
      k.resense_batch(model, row.view(),
                      model.sense_coeffs(doses[d], days, 8000.0),
                      step.cross.data(), step.states.data());
      trace.push_back(step);
    }
    return trace;
  }

  void expect_same_senses(const Row& row, double days,
                          const std::vector<double>& doses,
                          const std::string& what) const {
    const auto want = sense_trace(baseline(), model_, row, days, doses);
    const auto got = sense_trace(variant(), model_, row, days, doses);
    for (std::size_t d = 0; d < doses.size(); ++d) {
      const std::string at =
          what + " days " + std::to_string(days) + " dose " +
          std::to_string(doses[d]) + (d == 0 ? " (first)" : " (resense)");
      expect_same_bits(want[d].cross, got[d].cross, "crossing row, " + at);
      expect_same_bits(want[d].states, got[d].states, "states, " + at);
    }
  }

  FlashModelParams params_ = FlashModelParams::default_2ynm();
  VthModel model_{params_};
};

TEST_P(VthKernelsTest, RandomRowsInEveryRegime) {
  // Lengths around the 2/4/8-wide vector bodies and their remainders,
  // up to a full wordline.
  for (const std::size_t n : {1, 3, 7, 8, 15, 17, 63, 1021, 8192}) {
    const Row row = random_row(n, 1000 + n);
    for (const double days : {0.0, 0.3, 400.0}) {
      for (const double dose : {0.0, 1.0, 3e4, 2e6}) {
        const std::string what =
            "n " + std::to_string(n) + " days " + std::to_string(days) +
            " dose " + std::to_string(dose);
        const auto c = model_.sense_coeffs(dose, days, 8000.0);
        std::vector<double> want(n), got(n);
        baseline().present_vth_batch(model_, row.view(), c, want.data());
        variant().present_vth_batch(model_, row.view(), c, got.data());
        expect_same_bits(want, got, "present Vth, " + what);

        std::vector<std::uint8_t> want_s(n), got_s(n);
        baseline().classify_batch(want.data(), n, params_.vref_a,
                                  params_.vref_b, params_.vref_c,
                                  want_s.data());
        variant().classify_batch(want.data(), n, params_.vref_a,
                                 params_.vref_b, params_.vref_c,
                                 got_s.data());
        expect_same_bits(want_s, got_s, "classify, " + what);
      }
      expect_same_senses(row, days, {0.0, 1e3, 1e5, 1e5, 3e5, 2e6, 5e7},
                         "n " + std::to_string(n));
      expect_same_senses(row, days, {1e4, 1e4 * (1 + 1e-9), 8e4, 1e9},
                         "n " + std::to_string(n));
    }
  }
}

TEST_P(VthKernelsTest, HandPlacedCellsAtTheGuardBand) {
  const double g = VthModel::kCrossingGuardVth;
  Row row;
  Rng rng(17);
  for (const double ref : {params_.vref_a, params_.vref_b, params_.vref_c}) {
    const auto r = static_cast<float>(ref);
    const auto guard = static_cast<float>(ref - g);
    for (const float v0 :
         {r, std::nextafter(r, -1e30F), std::nextafter(r, 1e30F), guard,
          std::nextafter(guard, -1e30F), std::nextafter(guard, 1e30F),
          static_cast<float>(ref - 0.5 * g), static_cast<float>(ref - 2 * g),
          static_cast<float>(ref - 0.5), static_cast<float>(ref - 40.0)}) {
      for (int k = 0; k < 3; ++k) {
        row.programmed.push_back(0);
        row.v0.push_back(v0);
        row.susceptibility.push_back(
            static_cast<float>(std::exp(rng.normal(0.0, 0.45))));
        row.leak_rate.push_back(
            static_cast<float>(std::exp(rng.normal(0.0, 0.35))));
      }
    }
  }
  for (const double days : {0.0, 2.5})
    expect_same_senses(row, days, {0.0, 1e2, 1e4, 1e6, 1e8}, "hand-placed");
}

TEST_P(VthKernelsTest, RowsThatCouldTurnNaN) {
  // A P3 cell clear of Vc (FLT_MAX, never +inf), a barely disturbable
  // cell (its crossing dose overflows float) and a cell on Vc.
  const Row row{{0, 0, 0},
                {450.0F, 40.0F, static_cast<float>(params_.vref_c)},
                {1.0F, 1e-38F, 1.0F},
                {1.0F, 1.0F, 1.0F}};
  for (const double days : {0.0, 2.5}) {
    expect_same_senses(row, days, {0.0, 1e4, 1e12}, "NaN-prone");
    expect_same_senses(row, days, {1e4, 1e30}, "NaN-prone");
    const auto trace = sense_trace(variant(), model_, row, days, {1e4});
    for (const float c : trace[0].cross) EXPECT_FALSE(std::isnan(c));
  }
}

TEST_P(VthKernelsTest, ProgramSampling) {
  for (const std::size_t n : {1, 5, 17, 1021, 8192}) {
    for (const double pe : {0.0, 8000.0, 25000.0}) {
      std::vector<std::uint8_t> intended(n);
      Rng pick(n);
      for (auto& s : intended)
        s = static_cast<std::uint8_t>(pick.uniform_u64(4));
      const auto sample = [&](const VthKernels& k, Row& row) {
        row.v0.assign(n, 0.0F);
        row.susceptibility.assign(n, 0.0F);
        row.leak_rate.assign(n, 0.0F);
        Rng rng(99 + n);
        VthModel::ProgramSampleScratch scratch;
        k.sample_program_batch(model_, intended.data(), n, pe, rng, scratch,
                               row.v0.data(), row.susceptibility.data(),
                               row.leak_rate.data());
        return rng.next();  // Where the sampler left the stream.
      };
      Row want, got;
      const std::uint64_t want_next = sample(baseline(), want);
      const std::uint64_t got_next = sample(variant(), got);
      const std::string what =
          "n " + std::to_string(n) + " pe " + std::to_string(pe);
      expect_same_bits(want.v0, got.v0, "v0, " + what);
      expect_same_bits(want.susceptibility, got.susceptibility,
                       "susceptibility, " + what);
      expect_same_bits(want.leak_rate, got.leak_rate, "leak rate, " + what);
      EXPECT_EQ(want_next, got_next) << "RNG stream position, " << what;
    }
  }
}

TEST_P(VthKernelsTest, DisturbShift) {
  std::vector<double> v;
  for (double x = -20.0; x <= 540.0; x += 0.37) v.push_back(x);
  v.push_back(params_.vref_a);
  for (const double dose : {0.0, 1.0, 3.3e4, 1e5, 2.5e6, 1e12}) {
    std::vector<double> want(v.size(), -1.0), got(v.size(), -1.0);
    baseline().disturb_shift_batch(model_, v.data(), v.size(), dose,
                                   want.data());
    variant().disturb_shift_batch(model_, v.data(), v.size(), dose,
                                  got.data());
    expect_same_bits(want, got, "disturb shift, dose " + std::to_string(dose));
  }
}

std::string variant_name(const ::testing::TestParamInfo<std::size_t>& info) {
  std::string name = kernels::vth_kernel_variants()[info.param].name;
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Variants, VthKernelsTest,
    ::testing::Range<std::size_t>(0, kernels::vth_kernel_variants().size()),
    variant_name);

TEST(VthKernelDispatch, RunsTheWidestSupportedVariant) {
  const auto variants = kernels::vth_kernel_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_STREQ(variants[0].name, "baseline");
  EXPECT_TRUE(variants[0].supported());
  const VthKernels* widest = &variants[0];
  for (const VthKernels& k : variants)
    if (k.supported()) widest = &k;
  const VthKernels& active = kernels::active_vth_kernels();
  EXPECT_EQ(&active, widest);
  ::testing::Test::RecordProperty("dispatched", active.name);
  std::string compiled;
  for (const VthKernels& k : variants)
    compiled += std::string(compiled.empty() ? "" : " ") + k.name;
  ::testing::Test::RecordProperty("compiled", compiled);
  std::printf("VthModel batch kernels: %s (compiled: %s)\n", active.name,
              compiled.c_str());
}

}  // namespace
}  // namespace rdsim::flash
