// Unit and property tests for the cell-level threshold-voltage physics —
// the paper's characterization findings must be emergent properties here.
#include "flash/vth_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "flash/vmath.h"

namespace rdsim::flash {
namespace {

class VthModelTest : public ::testing::Test {
 protected:
  FlashModelParams params_ = FlashModelParams::default_2ynm();
  VthModel model_{params_};
};

TEST_F(VthModelTest, ParamsAreSane) { EXPECT_TRUE(params_.is_sane()); }

TEST_F(VthModelTest, InsaneParamsDetected) {
  FlashModelParams bad = params_;
  bad.vref_b = bad.vref_a - 1;  // Unordered references.
  EXPECT_FALSE(bad.is_sane());
  bad = params_;
  bad.states[1].mean = bad.states[0].mean - 1;  // Unordered states.
  EXPECT_FALSE(bad.is_sane());
  bad = params_;
  bad.states[2].sd = -1;
  EXPECT_FALSE(bad.is_sane());
}

TEST_F(VthModelTest, StateMeansOrdered) {
  for (double pe : {0.0, 3000.0, 8000.0, 15000.0}) {
    double prev = -1;
    for (auto s : kAllStates) {
      EXPECT_GT(model_.state_mean(s, pe), prev);
      prev = model_.state_mean(s, pe);
    }
  }
}

TEST_F(VthModelTest, WearWidensDistributions) {
  for (auto s : kAllStates) {
    EXPECT_GT(model_.state_sd(s, 8000), model_.state_sd(s, 0));
    EXPECT_GT(model_.state_sd(s, 15000), model_.state_sd(s, 8000));
  }
}

TEST_F(VthModelTest, WearRaisesErasedMeanOnly) {
  EXPECT_GT(model_.state_mean(CellState::kEr, 8000),
            model_.state_mean(CellState::kEr, 0));
  EXPECT_DOUBLE_EQ(model_.state_mean(CellState::kP3, 8000),
                   model_.state_mean(CellState::kP3, 0));
}

TEST_F(VthModelTest, DisturbShiftMonotoneInDose) {
  double prev = 0.0;
  for (double dose : {1e3, 1e4, 1e5, 1e6, 1e7}) {
    const double shift = model_.apply_disturb(40.0, 1.0, dose) - 40.0;
    EXPECT_GT(shift, prev);
    prev = shift;
  }
}

TEST_F(VthModelTest, LowerVthShiftsMore) {
  // Paper finding: the shift is higher if the cell has a lower threshold
  // voltage.
  const double dose = 1e6;
  double prev = 1e9;
  for (double v0 : {40.0, 160.0, 280.0, 400.0}) {
    const double shift = model_.apply_disturb(v0, 1.0, dose) - v0;
    EXPECT_LT(shift, prev);
    prev = shift;
  }
}

TEST_F(VthModelTest, SusceptibilityScalesShift) {
  const double dose = 1e5;
  const double s1 = model_.apply_disturb(100.0, 1.0, dose) - 100.0;
  const double s2 = model_.apply_disturb(100.0, 2.0, dose) - 100.0;
  EXPECT_GT(s2, s1);
  EXPECT_LT(s2, 2.0 * s1 + 1e-9);  // Sub-linear once saturating.
}

TEST_F(VthModelTest, ClosedFormMatchesOdeIntegration) {
  // The closed form V(D) must agree with explicit Euler integration of
  // dV/dD = A s exp(-B V).
  const double v0 = 60.0, s = 1.3, dose = 5e5;
  double v = v0;
  const int steps = 200000;
  const double h = dose / steps;
  for (int i = 0; i < steps; ++i)
    v += params_.disturb_a * s * std::exp(-params_.disturb_b * v) * h;
  EXPECT_NEAR(model_.apply_disturb(v0, s, dose), v, 0.01);
}

TEST_F(VthModelTest, ZeroDoseIsIdentity) {
  EXPECT_DOUBLE_EQ(model_.apply_disturb(123.0, 1.0, 0.0), 123.0);
}

TEST_F(VthModelTest, DisturbShiftBatchBitIdenticalToScalar) {
  // RDR's dVref pass: every element must equal the scalar
  // apply_disturb(v, 1, dose) - v, including at zero dose.
  std::vector<double> v;
  for (double x = -20.0; x <= 540.0; x += 0.37) v.push_back(x);
  v.push_back(params_.vref_a);
  std::vector<double> out(v.size());
  for (const double dose : {0.0, 1.0, 3.3e4, 1e5, 2.5e6}) {
    model_.disturb_shift_batch(v.data(), v.size(), dose, out.data());
    for (std::size_t i = 0; i < v.size(); ++i)
      EXPECT_EQ(out[i], model_.apply_disturb(v[i], 1.0, dose) - v[i])
          << "dose=" << dose << " v=" << v[i];
  }
}

TEST_F(VthModelTest, BatchedPageErrorsMatchPerCellGrayCode) {
  // The branch-free bit extraction and the row error counters against the
  // per-cell Gray code, over every state pair and an odd-length row.
  for (const CellState s : kAllStates) {
    const auto byte = static_cast<std::uint8_t>(s);
    EXPECT_EQ(lsb_bit(byte), lsb_of(s));
    EXPECT_EQ(msb_bit(byte), msb_of(s));
  }
  Rng rng(3);
  std::vector<std::uint8_t> a(1001), b(1001);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::uint8_t>(rng.next() & 3);
    b[i] = static_cast<std::uint8_t>(rng.next() & 3);
  }
  int lsb = 0, msb = 0, both = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto sa = static_cast<CellState>(a[i]);
    const auto sb = static_cast<CellState>(b[i]);
    lsb += lsb_of(sa) != lsb_of(sb);
    msb += msb_of(sa) != msb_of(sb);
    both += bit_errors_between(sa, sb);
  }
  EXPECT_EQ(lsb_errors(a.data(), b.data(), a.size()), lsb);
  EXPECT_EQ(msb_errors(a.data(), b.data(), a.size()), msb);
  EXPECT_EQ(bit_errors(a.data(), b.data(), a.size()), both);
  EXPECT_GT(lsb, 0);
  EXPECT_GT(msb, 0);
}

TEST_F(VthModelTest, DoseComposes) {
  // Applying dose D1 then D2 equals applying D1 + D2 in one shot. The
  // disturb law's exponential carries float precision (it is the value the
  // sense kernel caches per cell), so composition holds to ~1e-6 voltage
  // units — far below the model's ~10-unit state widths.
  const double v0 = 45.0, d1 = 2e5, d2 = 7e5;
  const double two_step =
      model_.apply_disturb(model_.apply_disturb(v0, 1.0, d1), 1.0, d2);
  const double one_shot = model_.apply_disturb(v0, 1.0, d1 + d2);
  EXPECT_NEAR(two_step, one_shot, 2e-5);
}

TEST_F(VthModelTest, DisturbDoseVpassSensitivity) {
  // Lowering Vpass by 2% must divide the dose rate by ~6 (Fig. 4 fit).
  const double full = model_.disturb_dose(1e5, 512.0, 8000);
  const double relaxed = model_.disturb_dose(1e5, 512.0 * 0.98, 8000);
  EXPECT_NEAR(full / relaxed, 6.0, 0.2);
}

TEST_F(VthModelTest, DisturbDoseWearScaling) {
  const double at8k = model_.disturb_dose(1e5, 512.0, 8000);
  const double at2k = model_.disturb_dose(1e5, 512.0, 2000);
  EXPECT_NEAR(at8k / at2k, std::pow(4.0, params_.disturb_wear_exp), 1e-6);
}

TEST_F(VthModelTest, RetentionShiftNegativeAndGrowing) {
  double prev = 0.0;
  for (double days : {1.0, 7.0, 21.0, 90.0}) {
    const double shift = model_.retention_shift(400.0, days, 8000);
    EXPECT_LT(shift, 0.0);
    EXPECT_LT(shift, prev);
    prev = shift;
  }
}

TEST_F(VthModelTest, RetentionHigherStatesLeakMore) {
  const double p1 = model_.retention_shift(160.0, 7.0, 8000);
  const double p3 = model_.retention_shift(400.0, 7.0, 8000);
  EXPECT_LT(p3, p1);  // More negative.
}

TEST_F(VthModelTest, ErasedCellsDoNotLeak) {
  EXPECT_DOUBLE_EQ(model_.retention_shift(40.0, 30.0, 8000), 0.0);
  EXPECT_DOUBLE_EQ(model_.retention_shift(10.0, 30.0, 8000), 0.0);
}

TEST_F(VthModelTest, RetentionWearAcceleration) {
  EXPECT_LT(model_.retention_shift(400.0, 7.0, 12000),
            model_.retention_shift(400.0, 7.0, 2000));
}

TEST_F(VthModelTest, ClassifyAgainstReferences) {
  EXPECT_EQ(model_.classify(params_.vref_a - 1), CellState::kEr);
  EXPECT_EQ(model_.classify(params_.vref_a + 1), CellState::kP1);
  EXPECT_EQ(model_.classify(params_.vref_b + 1), CellState::kP2);
  EXPECT_EQ(model_.classify(params_.vref_c + 1), CellState::kP3);
}

TEST_F(VthModelTest, PdfIntersectionBetweenMeans) {
  for (int b = 0; b < 3; ++b) {
    const auto lower = static_cast<CellState>(b);
    const auto higher = static_cast<CellState>(b + 1);
    const double x = model_.pdf_intersection(lower, 8000, 0.0);
    EXPECT_GT(x, model_.state_mean(lower, 8000));
    EXPECT_LT(x, model_.state_mean(higher, 8000));
  }
}

TEST_F(VthModelTest, PdfIntersectionMovesUpWithDisturb) {
  const double no_dose = model_.pdf_intersection(CellState::kEr, 8000, 0.0);
  const double with_dose =
      model_.pdf_intersection(CellState::kEr, 8000, 0.0, 1e6);
  EXPECT_GT(with_dose, no_dose);
}

TEST_F(VthModelTest, SampleProgramStatistics) {
  Rng rng(3);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto cell = model_.sample_program(CellState::kP2, 0.0, rng);
    sum += cell.v0;
    sum2 += cell.v0 * cell.v0;
  }
  const double mean = sum / n;
  const double sd = std::sqrt(sum2 / n - mean * mean);
  EXPECT_NEAR(mean, params_.states[2].mean, 0.5);
  EXPECT_NEAR(sd, params_.states[2].sd, 0.5);
}

TEST_F(VthModelTest, ProgramErrorsAppearAtRate) {
  Rng rng(4);
  int mis = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const auto cell = model_.sample_program(CellState::kP1, 8000.0, rng);
    mis += cell.programmed != CellState::kP1 ? 0 : 0;
    // programmed field records the intent; mis-program shows up as a
    // landed distribution different from P1. Detect via improbable v0.
    if (std::abs(cell.v0 - params_.states[1].mean) > 60.0) ++mis;
  }
  const double expected =
      params_.program_error_rate * (1.0 + 8000.0 / params_.wear_prog_error_pe);
  EXPECT_NEAR(mis / static_cast<double>(n), expected, expected * 0.35);
}

// --- Vectorizable math + batched sense kernel ---------------------------

TEST(Vmath, ExpMatchesLibmClosely) {
  for (double x = -20.0; x <= 10.0; x += 0.00137) {
    const double want = std::exp(x);
    EXPECT_NEAR(vmath::vexp(x), want, std::abs(want) * 1e-14) << x;
  }
  EXPECT_DOUBLE_EQ(vmath::vexp(0.0), 1.0);
  EXPECT_GT(vmath::vexp(-800.0), 0.0);  // Clamped, not flushed to zero.
  EXPECT_TRUE(std::isfinite(vmath::vexp(800.0)));
}

TEST(Vmath, Log1pMatchesLibmClosely) {
  for (double x = 0.0; x <= 50.0; x += 0.00191) {
    const double want = std::log1p(x);
    EXPECT_NEAR(vmath::vlog1p(x), want, std::max(want, 1e-12) * 1e-14) << x;
  }
  EXPECT_DOUBLE_EQ(vmath::vlog1p(0.0), 0.0);
  EXPECT_DOUBLE_EQ(vmath::vlog1p(1e-300), 1e-300);  // Tiny-y correction.
}

class SenseKernelTest : public ::testing::Test {
 protected:
  SenseKernelTest() {
    Rng rng(7);
    const std::size_t n = 513;  // Odd size exercises the vector tail.
    for (std::size_t i = 0; i < n; ++i) {
      const auto cell = model_.sample_program(
          kAllStates[i % kAllStates.size()], 8000.0, rng);
      cells_.push_back(cell);
      programmed_.push_back(static_cast<std::uint8_t>(cell.programmed));
      v0_.push_back(cell.v0);
      susceptibility_.push_back(cell.susceptibility);
      leak_rate_.push_back(cell.leak_rate);
    }
  }

  CellSoaView view() const {
    return {programmed_.data(), v0_.data(), susceptibility_.data(),
            leak_rate_.data(), cells_.size()};
  }

  FlashModelParams params_ = FlashModelParams::default_2ynm();
  VthModel model_{params_};
  std::vector<CellGroundTruth> cells_;
  std::vector<std::uint8_t> programmed_;
  std::vector<float> v0_, susceptibility_, leak_rate_;
};

TEST_F(SenseKernelTest, BatchBitIdenticalToScalarInAllRegimes) {
  // The four (dose, retention) regimes must agree bit-for-bit with the
  // scalar present_vth — the batch kernel is the same arithmetic.
  for (const double dose : {0.0, 3.7e5}) {
    for (const double days : {0.0, 11.5}) {
      SCOPED_TRACE(testing::Message() << "dose=" << dose
                                      << " days=" << days);
      std::vector<double> out(cells_.size());
      model_.present_vth_batch(view(), model_.sense_coeffs(dose, days, 8000),
                               out.data());
      for (std::size_t i = 0; i < cells_.size(); ++i) {
        EXPECT_EQ(out[i], model_.present_vth(cells_[i], dose, days, 8000))
            << i;
      }
    }
  }
}

TEST_F(SenseKernelTest, PresentVthComposesRetentionAndDisturb) {
  // present_vth must stay the exact composition of its two published
  // stages, cached seed or not.
  const double dose = 1.2e5, days = 4.0, pe = 8000;
  for (const auto& cell : cells_) {
    const double retained =
        cell.v0 + cell.leak_rate * model_.retention_shift(cell.v0, days, pe);
    EXPECT_EQ(model_.present_vth(cell, dose, days, pe),
              model_.apply_disturb(retained, cell.susceptibility, dose));
  }
}

TEST_F(SenseKernelTest, ClassifyBatchMatchesScalarClassify) {
  std::vector<double> vth(cells_.size());
  model_.present_vth_batch(view(), model_.sense_coeffs(2e5, 0.0, 8000),
                           vth.data());
  // Include reference-exact voltages: the >= / < split must agree.
  vth[0] = params_.vref_a;
  vth[1] = params_.vref_b;
  vth[2] = params_.vref_c;
  std::vector<std::uint8_t> states(vth.size());
  model_.classify_batch(vth.data(), vth.size(), states.data());
  for (std::size_t i = 0; i < vth.size(); ++i) {
    EXPECT_EQ(static_cast<CellState>(states[i]), model_.classify(vth[i]))
        << i;
  }
}

TEST_F(SenseKernelTest, ClassifyBatchWithRefsMatchesIfChain) {
  // The learned-reference read: counting crossed ordered references must
  // equal the controller's if-chain, including reference-exact voltages.
  std::vector<double> vth(cells_.size());
  model_.present_vth_batch(view(), model_.sense_coeffs(2e5, 3.0, 8000),
                           vth.data());
  const double va = params_.vref_a - 7.5, vb = params_.vref_b + 3.0,
               vc = params_.vref_c - 1.25;
  vth[0] = va;
  vth[1] = vb;
  vth[2] = vc;
  std::vector<std::uint8_t> states(vth.size());
  VthModel::classify_batch(vth.data(), vth.size(), va, vb, vc, states.data());
  for (std::size_t i = 0; i < vth.size(); ++i) {
    const double v = vth[i];
    const CellState want = v < va   ? CellState::kEr
                           : v < vb ? CellState::kP1
                           : v < vc ? CellState::kP2
                                    : CellState::kP3;
    EXPECT_EQ(static_cast<CellState>(states[i]), want) << i;
  }
}

TEST_F(VthModelTest, SampleProgramBatchMatchesScalarStream) {
  // sample_program_batch consumes the generator in four documented passes
  // (mis-program uniforms, v0 normals, the two sigma-scaled lognormal
  // exponents); replaying those passes with scalar draws through
  // sample_program_from_draws must reproduce every cell bit-for-bit and
  // leave the two generators stream-aligned.
  const std::size_t n = 517;  // Odd size: Marsaglia cache crosses passes.
  std::vector<std::uint8_t> intended(n);
  for (std::size_t i = 0; i < n; ++i)
    intended[i] = static_cast<std::uint8_t>(i % 4);
  for (const double pe : {0.0, 8000.0}) {
    SCOPED_TRACE(pe);
    Rng batch_rng(33), scalar_rng(33);
    std::vector<float> v0(n), susc(n), leak(n);
    VthModel::ProgramSampleScratch scratch;
    model_.sample_program_batch(intended.data(), n, pe, batch_rng, scratch,
                                v0.data(), susc.data(), leak.data());
    std::vector<double> u(n), z0(n), zs(n), zl(n);
    scalar_rng.fill_uniform(u.data(), n);
    scalar_rng.fill_normal(z0.data(), n);
    scalar_rng.fill_normal(zs.data(), n, 0.0, params_.disturb_sigma);
    scalar_rng.fill_normal(zl.data(), n, 0.0, params_.ret_sigma);
    for (std::size_t i = 0; i < n; ++i) {
      const auto cell = model_.sample_program_from_draws(
          static_cast<CellState>(intended[i]), pe, u[i], z0[i], zs[i], zl[i]);
      ASSERT_EQ(v0[i], cell.v0) << i;
      ASSERT_EQ(susc[i], cell.susceptibility) << i;
      ASSERT_EQ(leak[i], cell.leak_rate) << i;
    }
    EXPECT_EQ(batch_rng.next(), scalar_rng.next());
  }
}

TEST_F(VthModelTest, SampleProgramScalarIsBatchOfOne) {
  // The scalar entry point is the n=1 case of the batch discipline.
  for (const auto state : kAllStates) {
    Rng a(41), b(41);
    const auto scalar = model_.sample_program(state, 8000.0, a);
    const std::uint8_t intended = static_cast<std::uint8_t>(state);
    float v0 = 0, susc = 0, leak = 0;
    VthModel::ProgramSampleScratch scratch;
    model_.sample_program_batch(&intended, 1, 8000.0, b, scratch, &v0, &susc,
                                &leak);
    EXPECT_EQ(scalar.v0, v0);
    EXPECT_EQ(scalar.susceptibility, susc);
    EXPECT_EQ(scalar.leak_rate, leak);
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST_F(VthModelTest, SusceptibilityLognormal) {
  Rng rng(5);
  double sum_log = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const auto cell = model_.sample_program(CellState::kEr, 0.0, rng);
    sum_log += std::log(cell.susceptibility);
  }
  EXPECT_NEAR(sum_log / n, 0.0, 0.02);
}

}  // namespace
}  // namespace rdsim::flash
