// rdsim/flash/vmath.h
//
// Branch-free, inline exp/log1p for the per-cell sense hot loops.
//
// The Monte Carlo sense kernel evaluates one transcendental per cell per
// read; calling libm there has two costs: the call blocks loop
// auto-vectorization, and the result depends on the libc version. These
// routines are plain straight-line arithmetic + IEEE-754 bit
// manipulation, so the compiler can vectorize the surrounding loop and
// these functions return identical bits under every conforming compiler
// (the build disables FP contraction, so no FMA variance either). Note
// the *experiment* outputs are still tied to the host libm through the
// program-time draws (std::exp in sample_program, the log inside
// Rng::normal) — see the golden test's header for what that means for
// its checked-in hashes.
//
// Accuracy is a few ulp — far below the model's physical fidelity and the
// simulator's Monte Carlo noise. They are NOT drop-in libm replacements:
// domains are restricted to what the Vth model needs (documented per
// function), and errno/rounding-mode/NaN edge cases are out of scope.
#pragma once

#include <bit>
#include <cstdint>

namespace rdsim::flash::vmath {

/// e^x for x in [-708, 708]; inputs outside are clamped (the Vth model's
/// exponents are bounded by -B*Vth, a few units at most). ~2 ulp.
inline double vexp(double x) {
  // Clamp keeps 2^k representable as a normal double below.
  x = x < -708.0 ? -708.0 : x;
  x = x > 708.0 ? 708.0 : x;

  // Range reduction: x = k*ln2 + r, |r| <= ln2/2, via the round-to-nearest
  // shifter trick (adding 1.5*2^52 forces rounding of the low bits).
  constexpr double kInvLn2 = 1.44269504088896338700e+00;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kShift = 6755399441055744.0;  // 1.5 * 2^52
  const double kd = (x * kInvLn2 + kShift) - kShift;
  // k fits in 11 bits; int32 keeps the double->int conversion on a packed
  // SSE2 instruction so the caller's loop vectorizes in every kernel
  // variant (packed double<->int64 conversions need AVX-512DQ, which
  // only the x86-64-v4 variant has; both routes give the same k).
  const auto k = static_cast<std::int64_t>(static_cast<std::int32_t>(kd));
  const double r = (x - kd * kLn2Hi) - kd * kLn2Lo;

  // e^r by Taylor series through r^13 (|r| <= 0.3466 keeps the truncation
  // error below 1 ulp).
  double p = 1.60590438368216146e-10;    // 1/13!
  p = p * r + 2.08767569878680990e-09;   // 1/12!
  p = p * r + 2.50521083854417188e-08;   // 1/11!
  p = p * r + 2.75573192239858907e-07;   // 1/10!
  p = p * r + 2.75573192239858907e-06;   // 1/9!
  p = p * r + 2.48015873015873016e-05;   // 1/8!
  p = p * r + 1.98412698412698413e-04;   // 1/7!
  p = p * r + 1.38888888888888889e-03;   // 1/6!
  p = p * r + 8.33333333333333333e-03;   // 1/5!
  p = p * r + 4.16666666666666667e-02;   // 1/4!
  p = p * r + 1.66666666666666667e-01;   // 1/3!
  p = p * r + 0.5;
  p = p * r * r + r + 1.0;

  // Scale by 2^k through the exponent bits (k is in [-1022, 1022] after
  // the clamp, so 2^k is a normal double).
  const double scale = std::bit_cast<double>((1023 + k) << 52);
  return p * scale;
}

/// ln(1 + x) for x >= 0 (the disturb shift argument A*B*D*e^{-B*V} is
/// non-negative by construction). ~2 ulp. The x < 0 half-domain is
/// deliberately unsupported: it would need an arithmetic 64-bit shift that
/// SSE2 lacks, and the sense kernel never produces it.
inline double vlog1p(double x) {
  const double u = 1.0 + x;
  // First-order correction for the rounding of 1+x: log(1+x) =
  // log(u) + (x - (u-1))/u up to O(eps^2).
  const double c = (x - (u - 1.0)) / u;

  // Decompose u = 2^k * m with m in [sqrt(1/2), sqrt(2)); x >= 0 makes
  // u >= 1 and k >= 0, so a logical shift suffices.
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(u);
  const std::uint64_t k = (bits - 0x3fe6a09e667f3bcdULL) >> 52;
  const double m = std::bit_cast<double>(bits - (k << 52));

  // fdlibm-style core: log(m) = f - f^2/2 + s*(f^2/2 + R(s^2)),
  // s = f/(2+f), with the classic minimax coefficients (error < 2^-58).
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (3.999999999940941908e-01 +
                         w * (2.222219843214978396e-01 +
                              w * 1.531383769920937332e-01));
  const double t2 = z * (6.666666666666735130e-01 +
                         w * (2.857142874366239149e-01 +
                              w * (1.818357216161805012e-01 +
                                   w * 1.479819860511658591e-01)));
  const double rp = t1 + t2;
  const double hfsq = 0.5 * f * f;

  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  // int32 hop for the same vectorization reason as in vexp.
  const auto dk = static_cast<double>(static_cast<std::int32_t>(k));
  return dk * kLn2Hi - ((hfsq - (s * (hfsq + rp) + (dk * kLn2Lo + c))) - f);
}

}  // namespace rdsim::flash::vmath
