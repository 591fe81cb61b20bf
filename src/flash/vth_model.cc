#include "flash/vth_model.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/stats.h"
#include "flash/vmath.h"
#include "flash/vth_kernels.h"

namespace rdsim::flash {
namespace {

/// exp(-B * v) rounded to float: the disturb factor every sense path and
/// apply_disturb evaluate with this one expression, so scalar, batch and
/// incremental senses agree bit for bit.
inline double disturb_factor(double b, double v) {
  return static_cast<double>(static_cast<float>(vmath::vexp(-b * v)));
}

/// retention_shift() applied to v0, with log1p(days/tau) and the wear
/// factor hoisted into the coefficients. sqrt(max(h,0)) + select keeps the
/// erased-cell guard branch-free without ever taking sqrt of a negative.
template <bool kRet>
inline double retained_vth(const FlashModelParams& p,
                           const VthModel::SenseCoeffs& c, double v0,
                           double leak_rate) {
  if constexpr (!kRet) return v0;
  const double headroom = v0 - p.states[0].mean;
  const double shift =
      -p.ret_coeff * std::sqrt(std::max(headroom, 0.0)) * c.ret_l * c.ret_w;
  return v0 + leak_rate * (headroom > 0.0 ? shift : 0.0);
}

/// apply_disturb() of a cell at v with disturb factor e.
inline double disturbed_vth(const FlashModelParams& p,
                            const VthModel::SenseCoeffs& c, double v, double e,
                            double susceptibility) {
  const double y = p.disturb_a * susceptibility * p.disturb_b * c.dose * e;
  return v + vmath::vlog1p(y) / p.disturb_b;
}

/// Per-cell sense arithmetic shared by every scalar and batched entry
/// point. The retention/disturb stages are compile-time flags so the four
/// (dose, days) regimes each get a tight branch-free loop body; the scalar
/// wrappers dispatch to the same instantiations, which is what makes batch
/// and scalar sensing bit-identical.
template <bool kDose, bool kRet>
inline double present_cell(const FlashModelParams& p,
                           const VthModel::SenseCoeffs& c, double v0,
                           double susceptibility, double leak_rate) {
  const double v = retained_vth<kRet>(p, c, v0, leak_rate);
  if constexpr (!kDose) return v;
  return disturbed_vth(p, c, v, disturb_factor(p.disturb_b, v),
                       susceptibility);
}

template <bool kDose, bool kRet>
void present_batch(const FlashModelParams& p, const VthModel::SenseCoeffs& c,
                   const CellSoaView& cells, double* out) {
  const std::size_t n = cells.n;
  if constexpr (kDose) {
    // Two passes, the float-rounded disturb factor staged in out (exactly:
    // it is a float) and then the disturb itself. Fused, vexp and vlog1p
    // run out of vector registers and the row takes about a quarter
    // longer; the result is present_cell's bit for bit either way.
    for (std::size_t i = 0; i < n; ++i)
      out[i] = disturb_factor(p.disturb_b,
                              retained_vth<kRet>(p, c, cells.v0[i],
                                                 cells.leak_rate[i]));
    for (std::size_t i = 0; i < n; ++i)
      out[i] = disturbed_vth(
          p, c, retained_vth<kRet>(p, c, cells.v0[i], cells.leak_rate[i]),
          out[i], cells.susceptibility[i]);
  } else {
    for (std::size_t i = 0; i < n; ++i)
      out[i] = retained_vth<kRet>(p, c, cells.v0[i], cells.leak_rate[i]);
  }
}

/// The crossing computation's constants, exp(B * (R - guard)) for each
/// read reference R (VthModel::crossing_k_).
using CrossingRefs = std::array<double, 3>;

/// Senses one cell exactly (present_cell, then classify) and returns its
/// crossing-row entry. V(D) = v_r + ln(1 + A*s*B*D*e)/B reaches R - guard
/// at D = (exp(B*(R - guard))*e - 1) / (A*s*B*e) with e = exp(-B*v_r);
/// the entry is that dose for the next reference up, shrunk by the
/// relative guard. A cell within the guard of any reference (or whose
/// crossing dose is not positive) gets -FLT_MAX, so every later sense
/// re-evaluates it even at a dose that rounded down; a P3 cell that is
/// clear of Vc never crosses (FLT_MAX, not +inf: packing the state into
/// +inf's mantissa would make a NaN).
template <bool kDose, bool kRet>
inline float sense_cell(const FlashModelParams& p,
                        const VthModel::SenseCoeffs& c, const CrossingRefs& r,
                        double v0, double susceptibility, double leak_rate) {
  constexpr double kMax = std::numeric_limits<float>::max();
  const double g = VthModel::kCrossingGuardVth;
  const double vr = retained_vth<kRet>(p, c, v0, leak_rate);
  const double e = disturb_factor(p.disturb_b, vr);
  const double v = kDose ? disturbed_vth(p, c, vr, e, susceptibility) : vr;
  const std::uint32_t state = static_cast<std::uint32_t>(v >= p.vref_a) +
                              static_cast<std::uint32_t>(v >= p.vref_b) +
                              static_cast<std::uint32_t>(v >= p.vref_c);
  const double k = state == 0 ? r[0] : (state == 1 ? r[1] : r[2]);
  double dose = (k * e - 1.0) /
                (p.disturb_a * susceptibility * p.disturb_b * e) *
                (1.0 - VthModel::kCrossingGuardRel);
  dose = state == 3 ? kMax : std::min(dose, kMax);
  dose = dose > 0.0 ? dose : -kMax;  // Also catches a NaN.
  // Distance to the nearest reference as a min chain, not ||: the selects
  // stay branch-free, so the first-sense loop vectorizes.
  const double nearest = std::min(
      std::min(std::fabs(v - p.vref_a), std::fabs(v - p.vref_b)),
      std::fabs(v - p.vref_c));
  dose = nearest < g ? -kMax : dose;
  const auto bits = std::bit_cast<std::uint32_t>(static_cast<float>(dose));
  return std::bit_cast<float>((bits & ~3U) | state);
}

template <bool kDose, bool kRet>
void sense_first(const FlashModelParams& params, const CrossingRefs& refs,
                 const VthModel::SenseCoeffs& coeffs, const CellSoaView& cells,
                 float* cross, std::uint8_t* states) {
  // Local copies of everything the loop reads through a reference: the
  // byte stores to states may alias any of it, which would otherwise
  // reload it per cell and keep the loop from vectorizing.
  const FlashModelParams p = params;
  const VthModel::SenseCoeffs c = coeffs;
  const CrossingRefs r = refs;
  const std::size_t n = cells.n;
  const float* v0 = cells.v0;
  const float* susceptibility = cells.susceptibility;
  const float* leak_rate = cells.leak_rate;
  for (std::size_t i = 0; i < n; ++i) {
    cross[i] = sense_cell<kDose, kRet>(p, c, r, static_cast<double>(v0[i]),
                                       static_cast<double>(susceptibility[i]),
                                       static_cast<double>(leak_rate[i]));
    states[i] = VthModel::crossing_state(cross[i]);
  }
}

template <bool kDose, bool kRet>
void resense(const FlashModelParams& p, const CrossingRefs& r,
             const VthModel::SenseCoeffs& c, const CellSoaView& cells,
             float* cross, std::uint8_t* states) {
  // One vectorized pass: unpack every state and count the cells whose
  // crossing dose was reached; usually there are none.
  const std::size_t n = cells.n;
  std::size_t crossed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    states[i] = VthModel::crossing_state(cross[i]);
    crossed +=
        static_cast<std::size_t>(c.dose >= static_cast<double>(cross[i]));
  }
  if (crossed == 0) return;
  for (std::size_t i = 0; i < n; ++i) {
    if (!(c.dose >= static_cast<double>(cross[i]))) continue;
    cross[i] = sense_cell<kDose, kRet>(
        p, c, r, static_cast<double>(cells.v0[i]),
        static_cast<double>(cells.susceptibility[i]),
        static_cast<double>(cells.leak_rate[i]));
    states[i] = VthModel::crossing_state(cross[i]);
  }
}

/// Calls fn.template operator()<kDose, kRet>() for the coefficients'
/// regime, so each of the four gets its own branch-free instantiation.
template <typename Fn>
decltype(auto) dispatch(const VthModel::SenseCoeffs& c, Fn&& fn) {
  if (c.has_dose) {
    if (c.has_ret) return fn.template operator()<true, true>();
    return fn.template operator()<true, false>();
  }
  if (c.has_ret) return fn.template operator()<false, true>();
  return fn.template operator()<false, false>();
}

}  // namespace

bool FlashModelParams::is_sane() const {
  const bool refs_ordered = 0 < vref_a && vref_a < vref_b && vref_b < vref_c &&
                            vref_c < vpass_nominal;
  bool states_ordered = true;
  for (std::size_t i = 0; i + 1 < states.size(); ++i)
    states_ordered &= states[i].mean < states[i + 1].mean;
  bool sds_positive = true;
  for (const auto& s : states) sds_positive &= s.sd > 0.0;
  return refs_ordered && states_ordered && sds_positive && disturb_a > 0 &&
         disturb_b > 0 && disturb_c > 0 && ecc_capability_rber > 0 &&
         ecc_reserved_margin >= 0 && ecc_reserved_margin < 1;
}

VthModel::VthModel(const FlashModelParams& params) : params_(params) {
  assert(params_.is_sane());
  const double g = kCrossingGuardVth;
  crossing_k_ = {std::exp(params_.disturb_b * (params_.vref_a - g)),
                 std::exp(params_.disturb_b * (params_.vref_b - g)),
                 std::exp(params_.disturb_b * (params_.vref_c - g))};
}

double VthModel::state_mean(CellState state, double pe_cycles) const {
  const auto& s = params_.states[static_cast<std::size_t>(state)];
  if (state == CellState::kEr)
    return s.mean + params_.wear_er_shift * pe_cycles;
  return s.mean;
}

double VthModel::state_sd(CellState state, double pe_cycles) const {
  const auto& s = params_.states[static_cast<std::size_t>(state)];
  return s.sd * (1.0 + params_.wear_sd_growth * pe_cycles);
}

namespace {

/// Index of the state a cell actually lands in: with probability `perr`
/// (split by the same uniform's lower half for the direction) it is one
/// state off the intended `idx` — towards the middle for the end states.
/// Branch-free so the batch's landed pass vectorizes.
inline int landed_index(int idx, double u, double perr) {
  const int mis = u < perr ? 1 : 0;
  const int delta = idx == 0 ? 1 : (idx == 3 ? -1 : (u < 0.5 * perr ? 1 : -1));
  return idx + mis * delta;
}

}  // namespace

CellGroundTruth VthModel::sample_program_from_draws(CellState state,
                                                    double pe_cycles, double u,
                                                    double z0, double zs,
                                                    double zl) const {
  const double perr = params_.program_error_rate *
                      (1.0 + pe_cycles / params_.wear_prog_error_pe);
  const auto landed = static_cast<CellState>(
      landed_index(static_cast<int>(state), u, perr));
  CellGroundTruth cell;
  cell.programmed = state;
  cell.v0 = static_cast<float>(state_mean(landed, pe_cycles) +
                               state_sd(landed, pe_cycles) * z0);
  // vmath::vexp (not libm) so the batched wordline fill and this scalar
  // path produce identical bits for identical draws.
  cell.susceptibility = static_cast<float>(vmath::vexp(zs));
  cell.leak_rate = static_cast<float>(vmath::vexp(zl));
  return cell;
}

CellGroundTruth VthModel::sample_program(CellState state, double pe_cycles,
                                         Rng& rng) const {
  const double u = rng.uniform();
  const double z0 = rng.normal();
  const double zs = rng.normal(0.0, params_.disturb_sigma);
  const double zl = rng.normal(0.0, params_.ret_sigma);
  return sample_program_from_draws(state, pe_cycles, u, z0, zs, zl);
}

double VthModel::disturb_dose(double reads, double vpass,
                              double pe_cycles) const {
  const double vpass_factor =
      std::exp(params_.disturb_c * (vpass - params_.vpass_nominal));
  const double wear_factor =
      std::pow(std::max(pe_cycles, 1.0) / 8000.0, params_.disturb_wear_exp);
  return reads * vpass_factor * wear_factor;
}

double VthModel::apply_disturb(double v0, double susceptibility,
                               double dose) const {
  if (dose <= 0.0) return v0;
  const double b = params_.disturb_b;
  // V(D) = (1/B) ln(exp(B V0) + A B D); evaluate via the shift form to stay
  // numerically stable for large V0:
  //   V - V0 = (1/B) ln(1 + A B D exp(-B V0)).
  // The exponential carries float precision like every sense path's
  // (disturb_factor), so present_vth stays the exact composition of
  // retention_shift and this function.
  const double y = params_.disturb_a * susceptibility * b * dose *
                   disturb_factor(b, v0);
  return v0 + vmath::vlog1p(y) / b;
}

double VthModel::retention_shift(double v0, double days,
                                 double pe_cycles) const {
  if (days <= 0.0) return 0.0;
  const double er_mean_fresh = params_.states[0].mean;
  const double headroom = v0 - er_mean_fresh;
  if (headroom <= 0.0) return 0.0;  // Erased-level cells do not leak down.
  const double wear = 1.0 + pe_cycles / params_.ret_wear_pe;
  return -params_.ret_coeff * std::sqrt(headroom) *
         std::log1p(days / params_.ret_tau_days) * wear;
}

VthModel::SenseCoeffs VthModel::sense_coeffs(double dose, double days,
                                             double pe_cycles) const {
  SenseCoeffs c;
  c.dose = dose;
  c.days = days;
  c.has_dose = dose > 0.0;
  c.has_ret = days > 0.0;
  if (c.has_ret) {
    c.ret_l = std::log1p(days / params_.ret_tau_days);
    c.ret_w = 1.0 + pe_cycles / params_.ret_wear_pe;
  }
  return c;
}

double VthModel::present_vth_cell(const SenseCoeffs& coeffs, double v0,
                                  double susceptibility,
                                  double leak_rate) const {
  return dispatch(coeffs, [&]<bool kDose, bool kRet>() {
    return present_cell<kDose, kRet>(params_, coeffs, v0, susceptibility,
                                     leak_rate);
  });
}

double VthModel::present_vth(const CellGroundTruth& cell, double dose,
                             double days, double pe_cycles) const {
  return present_vth_cell(sense_coeffs(dose, days, pe_cycles),
                          static_cast<double>(cell.v0),
                          static_cast<double>(cell.susceptibility),
                          static_cast<double>(cell.leak_rate));
}

CellState VthModel::classify(double vth) const {
  if (vth < params_.vref_a) return CellState::kEr;
  if (vth < params_.vref_b) return CellState::kP1;
  if (vth < params_.vref_c) return CellState::kP2;
  return CellState::kP3;
}

// --- Batch kernels, one copy per instruction set ---------------------------
//
// The six batch entry points are bodies of VthKernelBodies, and each
// variant below is a set of [[gnu::flatten]] wrappers over them: flatten
// inlines the whole body (dispatch, the per-cell templates, vmath) into
// the wrapper, so it is compiled for the wrapper's target. Whatever stays
// out of line (libm, Rng's fills, vector growth) is the baseline build's
// one copy, so no wider code can reach a caller that did not choose it —
// which compiling this file once per -march would not ensure (inline
// functions emitted at v4 are COMDAT copies the linker may hand to
// baseline callers). -ffp-contract=off rules out FMA in every variant,
// and nothing else here lets the compiler pick a different rounding, so
// every variant returns the baseline's bits (tests/test_vth_kernels.cc).

/// The batch entry points as functions of the model.
struct VthKernelBodies {
  static void present_vth_batch(const VthModel& m, const CellSoaView& cells,
                                const VthModel::SenseCoeffs& coeffs,
                                double* out) {
    dispatch(coeffs, [&]<bool kDose, bool kRet>() {
      present_batch<kDose, kRet>(m.params_, coeffs, cells, out);
    });
  }

  static void sense_first_batch(const VthModel& m, const CellSoaView& cells,
                                const VthModel::SenseCoeffs& coeffs,
                                float* cross, std::uint8_t* states) {
    dispatch(coeffs, [&]<bool kDose, bool kRet>() {
      sense_first<kDose, kRet>(m.params_, m.crossing_k_, coeffs, cells, cross,
                               states);
    });
  }

  static void resense_batch(const VthModel& m, const CellSoaView& cells,
                            const VthModel::SenseCoeffs& coeffs, float* cross,
                            std::uint8_t* states) {
    dispatch(coeffs, [&]<bool kDose, bool kRet>() {
      resense<kDose, kRet>(m.params_, m.crossing_k_, coeffs, cells, cross,
                           states);
    });
  }

  static void disturb_shift_batch(const VthModel& m, const double* v,
                                  std::size_t n, double dose, double* out) {
    if (dose <= 0.0) {
      std::fill_n(out, n, 0.0);
      return;
    }
    // apply_disturb's arithmetic with susceptibility 1 (a * 1 == a
    // exactly) and the page-invariant product hoisted: it associates left
    // to right there too, so k * e rounds identically.
    const double b = m.params_.disturb_b;
    const double k = m.params_.disturb_a * b * dose;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = (v[i] + vmath::vlog1p(k * disturb_factor(b, v[i])) / b) - v[i];
    }
  }

  static void sample_program_batch(const VthModel& m,
                                   const std::uint8_t* intended, std::size_t n,
                                   double pe_cycles, Rng& rng,
                                   VthModel::ProgramSampleScratch& scratch,
                                   float* v0, float* susceptibility,
                                   float* leak_rate) {
    const FlashModelParams& p = m.params_;
    scratch.u.resize(n);
    scratch.z.resize(n);
    scratch.landed.resize(n);
    const double perr =
        p.program_error_rate * (1.0 + pe_cycles / p.wear_prog_error_pe);
    double mean[4], sd[4];
    for (int s = 0; s < 4; ++s) {
      mean[s] = m.state_mean(static_cast<CellState>(s), pe_cycles);
      sd[s] = m.state_sd(static_cast<CellState>(s), pe_cycles);
    }

    // Pass 1: mis-program uniforms -> landed states (branch-free).
    rng.fill_uniform(scratch.u.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      scratch.landed[i] = static_cast<std::uint8_t>(
          landed_index(intended[i], scratch.u[i], perr));

    // Pass 2: v0 = landed mean + landed sd * z.
    rng.fill_normal(scratch.z.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      v0[i] = static_cast<float>(mean[scratch.landed[i]] +
                                 sd[scratch.landed[i]] * scratch.z[i]);

    // Passes 3/4: lognormal multipliers. The normals are RNG-serial, but
    // the exponential runs as a straight-line vexp loop over the wordline.
    rng.fill_normal(scratch.z.data(), n, 0.0, p.disturb_sigma);
    for (std::size_t i = 0; i < n; ++i)
      susceptibility[i] = static_cast<float>(vmath::vexp(scratch.z[i]));
    rng.fill_normal(scratch.z.data(), n, 0.0, p.ret_sigma);
    for (std::size_t i = 0; i < n; ++i)
      leak_rate[i] = static_cast<float>(vmath::vexp(scratch.z[i]));
  }

  static void classify_batch(const double* vth, std::size_t n, double va,
                             double vb, double vc, std::uint8_t* out) {
    for (std::size_t i = 0; i < n; ++i) {
      const double v = vth[i];
      // Same result as classify(): the references are ordered, so
      // counting crossed references yields the state index.
      out[i] = static_cast<std::uint8_t>(static_cast<int>(v >= va) +
                                         static_cast<int>(v >= vb) +
                                         static_cast<int>(v >= vc));
    }
  }
};

namespace kernels {
namespace {

/// Declares the variant `name`: name<&VthKernelBodies::f>::run is f,
/// inlined whole into a function with the attributes given.
#define RDSIM_VTH_KERNEL_VARIANT(name, ...)                           \
  template <auto kBody>                                               \
  struct name;                                                        \
  template <typename... Args, void (*kBody)(Args...)>                 \
  struct name<kBody> {                                                \
    __VA_ARGS__ static void run(Args... args) { kBody(args...); }     \
  };

/// The table row of variant V.
template <template <auto> class V>
constexpr VthKernels entry(const char* name, bool (*supported)()) {
  using B = VthKernelBodies;
  return {name,
          supported,
          &V<&B::present_vth_batch>::run,
          &V<&B::sense_first_batch>::run,
          &V<&B::resense_batch>::run,
          &V<&B::disturb_shift_batch>::run,
          &V<&B::sample_program_batch>::run,
          &V<&B::classify_batch>::run};
}

bool baseline_supported() { return true; }

RDSIM_VTH_KERNEL_VARIANT(Baseline, [[gnu::flatten]])

// The wider variants exist where the compiler can target them per
// function (GCC 11 and Clang 12 know the x86-64-v3/v4 names) and the
// build's baseline does not already include them.
#if defined(__x86_64__) &&                                  \
    ((defined(__clang__) && __clang_major__ >= 12) ||       \
     (!defined(__clang__) && defined(__GNUC__) && __GNUC__ >= 11))
#if !defined(__AVX2__)
#define RDSIM_VTH_HAVE_V3 1
#endif
#if !defined(__AVX512F__)
#define RDSIM_VTH_HAVE_V4 1
#endif
#endif

#if defined(RDSIM_VTH_HAVE_V3) || defined(RDSIM_VTH_HAVE_V4)
/// x86-64-v3's vector ISA (AVX, AVX2, FMA, BMI1/2; __builtin_cpu_supports
/// checks the OS saves the wide registers). Every CPU with these also has
/// v3's F16C, LZCNT and MOVBE, which the kernels never use.
bool cpu_v3() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("bmi") && __builtin_cpu_supports("bmi2");
}
#endif

#ifdef RDSIM_VTH_HAVE_V3
RDSIM_VTH_KERNEL_VARIANT(V3, [[gnu::target("arch=x86-64-v3"), gnu::flatten]])
#endif

#ifdef RDSIM_VTH_HAVE_V4
/// x86-64-v4: v3 plus AVX-512 F, BW, CD, DQ and VL.
bool cpu_v4() {
  return cpu_v3() && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512cd") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl");
}

RDSIM_VTH_KERNEL_VARIANT(V4, [[gnu::target("arch=x86-64-v4"), gnu::flatten]])
#endif

/// Narrowest first.
constexpr VthKernels kVariants[] = {
    entry<Baseline>("baseline", baseline_supported),
#ifdef RDSIM_VTH_HAVE_V3
    entry<V3>("x86-64-v3", cpu_v3),
#endif
#ifdef RDSIM_VTH_HAVE_V4
    entry<V4>("x86-64-v4", cpu_v4),
#endif
};

#undef RDSIM_VTH_HAVE_V4
#undef RDSIM_VTH_HAVE_V3
#undef RDSIM_VTH_KERNEL_VARIANT

}  // namespace

std::span<const VthKernels> vth_kernel_variants() { return kVariants; }

const VthKernels& active_vth_kernels() {
  static const VthKernels& active = []() -> const VthKernels& {
    for (std::size_t i = std::size(kVariants); i-- > 1;)
      if (kVariants[i].supported()) return kVariants[i];
    return kVariants[0];
  }();
  return active;
}

}  // namespace kernels

void VthModel::present_vth_batch(const CellSoaView& cells,
                                 const SenseCoeffs& coeffs,
                                 double* out) const {
  kernels::active_vth_kernels().present_vth_batch(*this, cells, coeffs, out);
}

void VthModel::sense_first_batch(const CellSoaView& cells,
                                 const SenseCoeffs& coeffs, float* cross,
                                 std::uint8_t* states) const {
  kernels::active_vth_kernels().sense_first_batch(*this, cells, coeffs, cross,
                                                  states);
}

void VthModel::resense_batch(const CellSoaView& cells,
                             const SenseCoeffs& coeffs, float* cross,
                             std::uint8_t* states) const {
  kernels::active_vth_kernels().resense_batch(*this, cells, coeffs, cross,
                                              states);
}

void VthModel::disturb_shift_batch(const double* v, std::size_t n,
                                   double dose, double* out) const {
  kernels::active_vth_kernels().disturb_shift_batch(*this, v, n, dose, out);
}

void VthModel::sample_program_batch(const std::uint8_t* intended,
                                    std::size_t n, double pe_cycles, Rng& rng,
                                    ProgramSampleScratch& scratch, float* v0,
                                    float* susceptibility,
                                    float* leak_rate) const {
  kernels::active_vth_kernels().sample_program_batch(
      *this, intended, n, pe_cycles, rng, scratch, v0, susceptibility,
      leak_rate);
}

void VthModel::classify_batch(const double* vth, std::size_t n,
                              std::uint8_t* out) const {
  classify_batch(vth, n, params_.vref_a, params_.vref_b, params_.vref_c, out);
}

void VthModel::classify_batch(const double* vth, std::size_t n, double va,
                              double vb, double vc, std::uint8_t* out) {
  kernels::active_vth_kernels().classify_batch(vth, n, va, vb, vc, out);
}

double VthModel::pdf_intersection(CellState lower, double pe_cycles,
                                  double days, double dose) const {
  assert(lower != CellState::kP3);
  const auto higher = static_cast<CellState>(static_cast<int>(lower) + 1);
  // Means after retention and disturb; sds from wear. Solve for the
  // equal-density point of the two Gaussians between the two means by
  // bisection on log pdf difference (robust to unequal variances).
  auto center = [&](CellState s) {
    const double m = state_mean(s, pe_cycles);
    const double retained = m + retention_shift(m, days, pe_cycles);
    return apply_disturb(retained, 1.0, dose);
  };
  const double m1 = center(lower), m2 = center(higher);
  const double s1 = state_sd(lower, pe_cycles), s2 = state_sd(higher, pe_cycles);
  auto logpdf_diff = [&](double x) {
    const double z1 = (x - m1) / s1, z2 = (x - m2) / s2;
    return (-0.5 * z1 * z1 - std::log(s1)) - (-0.5 * z2 * z2 - std::log(s2));
  };
  double lo = m1, hi = m2;
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (logpdf_diff(mid) > 0.0)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

double VthModel::boundary_shift(CellState lower, double pe_cycles, double days,
                                double base_dose, double extra_dose) const {
  const double v = pdf_intersection(lower, pe_cycles, days);
  // Shift of a nominal (susceptibility 1) cell at the boundary when the
  // block's dose grows from base_dose to base_dose + extra_dose. Since the
  // boundary voltage is the *post-base-dose* Vth, invert the disturb law to
  // recover the equivalent v0 first.
  const double b = params_.disturb_b;
  const double a = params_.disturb_a;
  const double ebv = std::exp(b * v);
  const double ebv0 = std::max(ebv - a * b * base_dose, 1.0);
  const double v0 = std::log(ebv0) / b;
  const double after =
      apply_disturb(v0, 1.0, base_dose + extra_dose);
  return after - v;
}

}  // namespace rdsim::flash
