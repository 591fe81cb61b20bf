// rdsim/flash/vth_kernels.h
//
// Internal: the instruction-set variants of VthModel's six batch entry
// points. vth_model.cc compiles each entry point once for the build's
// baseline target (RDSIM_MARCH) and, on x86-64 with GCC or Clang, again
// for x86-64-v3 (AVX2) and x86-64-v4 (AVX-512) where the baseline does
// not already include them. VthModel's members call the variant that
// active_vth_kernels() picks once per process from CPUID: the widest one
// the CPU supports. Every variant computes the same bits; this header
// lets tests/test_vth_kernels.cc call each one by name to show it.
// Library code calls VthModel, not this table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/rng.h"
#include "flash/vth_model.h"

namespace rdsim::flash::kernels {

/// One variant. Each function does what the VthModel member of the same
/// name does on `model` (classify_batch is the static overload).
struct VthKernels {
  const char* name;     ///< "baseline", "x86-64-v3" or "x86-64-v4".
  bool (*supported)();  ///< Whether this CPU (and OS) can run it.
  void (*present_vth_batch)(const VthModel& model, const CellSoaView& cells,
                            const VthModel::SenseCoeffs& coeffs, double* out);
  void (*sense_first_batch)(const VthModel& model, const CellSoaView& cells,
                            const VthModel::SenseCoeffs& coeffs, float* cross,
                            std::uint8_t* states);
  void (*resense_batch)(const VthModel& model, const CellSoaView& cells,
                        const VthModel::SenseCoeffs& coeffs, float* cross,
                        std::uint8_t* states);
  void (*disturb_shift_batch)(const VthModel& model, const double* v,
                              std::size_t n, double dose, double* out);
  void (*sample_program_batch)(const VthModel& model,
                               const std::uint8_t* intended, std::size_t n,
                               double pe_cycles, Rng& rng,
                               VthModel::ProgramSampleScratch& scratch,
                               float* v0, float* susceptibility,
                               float* leak_rate);
  void (*classify_batch)(const double* vth, std::size_t n, double va,
                         double vb, double vc, std::uint8_t* out);
};

/// Every variant this build compiled, narrowest first; the first is the
/// baseline, which every CPU the build targets supports.
std::span<const VthKernels> vth_kernel_variants();

/// The variant VthModel runs: the last supported one of
/// vth_kernel_variants(), chosen on first use.
const VthKernels& active_vth_kernels();

}  // namespace rdsim::flash::kernels
