#include "flash/vth_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/stats.h"
#include "flash/vmath.h"

namespace rdsim::flash {
namespace {

/// Per-cell sense arithmetic shared by every scalar and batched entry
/// point. The retention/disturb stages are compile-time flags so the four
/// (dose, days) regimes each get a tight branch-free loop body; the scalar
/// wrappers dispatch to the same instantiations, which is what makes batch
/// and scalar sensing bit-identical.
template <bool kDose, bool kRet>
inline double present_cell(const FlashModelParams& p,
                           const VthModel::SenseCoeffs& c, double v0,
                           double seed, double susceptibility,
                           double leak_rate) {
  double v = v0;
  if constexpr (kRet) {
    // retention_shift(), with log1p(days/tau) and the wear factor hoisted
    // into the coefficients. sqrt(max(h,0)) + select keeps the erased-cell
    // guard branch-free without ever taking sqrt of a negative.
    const double headroom = v0 - p.states[0].mean;
    const double shift =
        -p.ret_coeff * std::sqrt(std::max(headroom, 0.0)) * c.ret_l * c.ret_w;
    v = v0 + leak_rate * (headroom > 0.0 ? shift : 0.0);
  }
  if constexpr (kDose) {
    // apply_disturb(), reusing the cached exp(-B*v0) when no retention
    // moved the cell. The exponential is float-rounded like the cache so
    // the cached and recomputed paths stay bit-identical.
    const double e =
        kRet ? static_cast<double>(
                   static_cast<float>(vmath::vexp(-p.disturb_b * v)))
             : seed;
    const double y = p.disturb_a * susceptibility * p.disturb_b * c.dose * e;
    v = v + vmath::vlog1p(y) / p.disturb_b;
  }
  return v;
}

template <bool kDose, bool kRet>
void present_batch(const FlashModelParams& p, const VthModel::SenseCoeffs& c,
                   const CellSoaView& cells, double* out) {
  for (std::size_t i = 0; i < cells.n; ++i) {
    out[i] = present_cell<kDose, kRet>(
        p, c, static_cast<double>(cells.v0[i]),
        static_cast<double>(cells.disturb_seed[i]),
        static_cast<double>(cells.susceptibility[i]),
        static_cast<double>(cells.leak_rate[i]));
  }
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

void VthModel::sample_program_batch(const std::uint8_t* intended,
                                    std::size_t n, double pe_cycles, Rng& rng,
                                    ProgramSampleScratch& scratch, float* v0,
                                    float* susceptibility,
                                    float* leak_rate) const {
  scratch.u.resize(n);
  scratch.z.resize(n);
  scratch.landed.resize(n);
  const double perr = params_.program_error_rate *
                      (1.0 + pe_cycles / params_.wear_prog_error_pe);
  double mean[4], sd[4];
  for (int s = 0; s < 4; ++s) {
    mean[s] = state_mean(static_cast<CellState>(s), pe_cycles);
    sd[s] = state_sd(static_cast<CellState>(s), pe_cycles);
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

  // Passes 3/4: lognormal multipliers. The normals are RNG-serial, but the
  // exponential runs as a straight-line vexp loop over the whole wordline.
  rng.fill_normal(scratch.z.data(), n, 0.0, params_.disturb_sigma);
  for (std::size_t i = 0; i < n; ++i)
    susceptibility[i] = static_cast<float>(vmath::vexp(scratch.z[i]));
  rng.fill_normal(scratch.z.data(), n, 0.0, params_.ret_sigma);
  for (std::size_t i = 0; i < n; ++i)
    leak_rate[i] = static_cast<float>(vmath::vexp(scratch.z[i]));
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
  // The exponential carries float precision — it is the value the sense
  // kernel caches per cell (disturb_seed), and present_vth must remain the
  // exact composition of retention_shift and this function.
  const double y = params_.disturb_a * susceptibility * b * dose *
                   static_cast<double>(disturb_seed(v0));
  return v0 + vmath::vlog1p(y) / b;
}

void VthModel::disturb_shift_batch(const double* v, std::size_t n,
                                   double dose, double* out) const {
  if (dose <= 0.0) {
    std::fill_n(out, n, 0.0);
    return;
  }
  // apply_disturb's arithmetic with susceptibility 1 (a * 1 == a exactly)
  // and the page-invariant product hoisted: it associates left to right
  // there too, so k * seed rounds identically.
  const double b = params_.disturb_b;
  const double k = params_.disturb_a * b * dose;
  for (std::size_t i = 0; i < n; ++i) {
    const double seed =
        static_cast<double>(static_cast<float>(vmath::vexp(-b * v[i])));
    out[i] = (v[i] + vmath::vlog1p(k * seed) / b) - v[i];
  }
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

float VthModel::disturb_seed(double v0) const {
  return static_cast<float>(vmath::vexp(-params_.disturb_b * v0));
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

void VthModel::present_vth_batch(const CellSoaView& cells,
                                 const SenseCoeffs& coeffs,
                                 double* out) const {
  if (coeffs.has_dose) {
    if (coeffs.has_ret)
      present_batch<true, true>(params_, coeffs, cells, out);
    else
      present_batch<true, false>(params_, coeffs, cells, out);
  } else {
    if (coeffs.has_ret)
      present_batch<false, true>(params_, coeffs, cells, out);
    else
      present_batch<false, false>(params_, coeffs, cells, out);
  }
}

double VthModel::present_vth_cached(const SenseCoeffs& coeffs, double v0,
                                    double disturb_seed, double susceptibility,
                                    double leak_rate) const {
  if (coeffs.has_dose) {
    if (coeffs.has_ret)
      return present_cell<true, true>(params_, coeffs, v0, disturb_seed,
                                      susceptibility, leak_rate);
    return present_cell<true, false>(params_, coeffs, v0, disturb_seed,
                                     susceptibility, leak_rate);
  }
  if (coeffs.has_ret)
    return present_cell<false, true>(params_, coeffs, v0, disturb_seed,
                                     susceptibility, leak_rate);
  return present_cell<false, false>(params_, coeffs, v0, disturb_seed,
                                    susceptibility, leak_rate);
}

double VthModel::present_vth(const CellGroundTruth& cell, double dose,
                             double days, double pe_cycles) const {
  const SenseCoeffs c = sense_coeffs(dose, days, pe_cycles);
  return present_vth_cached(
      c, static_cast<double>(cell.v0),
      static_cast<double>(disturb_seed(static_cast<double>(cell.v0))),
      static_cast<double>(cell.susceptibility),
      static_cast<double>(cell.leak_rate));
}

CellState VthModel::classify(double vth) const {
  if (vth < params_.vref_a) return CellState::kEr;
  if (vth < params_.vref_b) return CellState::kP1;
  if (vth < params_.vref_c) return CellState::kP2;
  return CellState::kP3;
}

void VthModel::classify_batch(const double* vth, std::size_t n,
                              std::uint8_t* out) const {
  classify_batch(vth, n, params_.vref_a, params_.vref_b, params_.vref_c, out);
}

void VthModel::classify_batch(const double* vth, std::size_t n, double va,
                              double vb, double vc, std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double v = vth[i];
    // Same result as classify(): the references are ordered, so counting
    // crossed references yields the state index.
    out[i] = static_cast<std::uint8_t>(static_cast<int>(v >= va) +
                                       static_cast<int>(v >= vb) +
                                       static_cast<int>(v >= vc));
  }
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
