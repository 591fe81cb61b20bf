// rdsim/host/chip_servicer.h
//
// ChipServicer: the Monte-Carlo implementation of the host::Servicer
// shard slot — the data-movement engine behind one nand::Chip, one per
// shard of ShardedDevice (a single-chip drive is the one-shard case) —
// so the physics a queued read or write performs, and its cost
// accounting, exists exactly once.
//
// Logical layout: lpn -> (block = lpn / pages_per_block, then LSB/MSB
// pages interleaved along the wordlines: page index 2*wl + kind). Every
// block is programmed with random data at construction, like a
// characterization drive prepared for a read-disturb study. A host write
// models log-structured turnover: each page write costs tProg, and once a
// block has absorbed pages_per_block writes it is erased and reprogrammed
// (one P/E cycle, disturb state cleared) with the erase charged as the
// write's stall.
//
// Reads run the controller's escalation ladder: the normal sense's raw
// bit errors go through ecc::EccModel (kOk / kCorrected at no extra
// latency); an ECC failure escalates to a read-retry re-read with learned
// references (core::VrefOptimizer), then to the paper's §4 read-disturb
// recovery (core::ReadDisturbRecovery), and finally to kUncorrectable.
// Each escalation step charges its real flash time to the command, so
// recovery cost shows up in the tail latencies, and per-step attribution
// accumulates in error_stats(). With raw errors within ECC capability —
// the normal case — the ladder is bit-transparent: same senses, same
// latency, same chip state as a ladder-less read. An escalation senses
// the wordline once after the failed read and hands that one present-Vth
// row to the optimizer's learning sweep, the retry re-read and RDR's first
// measurement: all three see the same unchanged block state, so sharing
// the row changes no result.
//
// Both the construction-time bulk program and each turnover reprogram are
// O(bookkeeping) under the block's lazy cell materialization: a rewritten
// block resamples only the wordlines later reads actually touch, so large
// simulated drives with read-skewed workloads cost cells proportional to
// the read footprint, not the drive capacity.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/rdr.h"
#include "core/vref_optimizer.h"
#include "ecc/ecc_model.h"
#include "host/command.h"
#include "host/servicer.h"
#include "nand/chip.h"

namespace rdsim::host {

/// The read error path's provisioning: ECC strength and the tuning of the
/// two recovery steps. Defaults match the MC chip's page size (one t=40
/// codeword per 8192-bit page) and the core modules' paper-tuned options.
struct ChipErrorPath {
  ecc::EccConfig ecc = ecc::EccConfig::mc_provisioning();
  core::VrefOptimizerOptions vref;
  core::RdrOptions rdr;
};

/// Injectable faults, all derived from counter-based RNG streams of the
/// servicer's seed so outcomes are a pure function of (seed, page) —
/// byte-identical at any worker count. Defaults inject nothing.
struct ChipFaults {
  /// Probability that a (block, page, program-epoch) is latently bad:
  /// physically damaged so no recovery step can decode it. Re-rolled when
  /// the block turns over (real grown defects appear per program).
  double latent_page_prob = 0.0;
  /// Simulated day at which this chip dies wholesale (reads return
  /// kUncorrectable, writes kFailedWrite). Negative = never.
  double die_kill_day = -1.0;
};

class ChipServicer : public Servicer {
 public:
  ChipServicer(const nand::Geometry& geometry,
               const flash::FlashModelParams& params, std::uint64_t seed,
               const LatencyParams& latency,
               const ChipErrorPath& error_path = {},
               const ChipFaults& faults = {});

  nand::Chip& chip() { return chip_; }
  const nand::Chip& chip() const { return chip_; }
  nand::Chip* mc_chip() override { return &chip_; }

  /// Pages this chip exports (blocks * pages_per_block).
  std::uint64_t logical_pages() const override {
    return static_cast<std::uint64_t>(chip_.geometry().blocks) *
           chip_.geometry().pages_per_block();
  }

  /// Services one local command: each page of the range (wrapped modulo
  /// logical_pages()) through service_page, costs accumulated and statuses
  /// severity-merged in range order — the Servicer contract.
  ServiceCost service(const Command& command) override;

  /// Services one page of a command on this chip. `lpn` must be local to
  /// the chip (callers wrap / de-stripe first). Reads sense real cells and
  /// run the escalation ladder (see header comment); writes pay tProg and,
  /// on block turnover, an erase charged as stall. Trim and flush are
  /// metadata-only on a raw chip. Returns the page's cost contribution.
  ServiceCost service_page(CommandKind kind, std::uint64_t lpn);

  /// One simulated day on a raw chip is pure retention aging, which costs
  /// no flash busy time. Arms the die-kill fault once its day arrives.
  double end_of_day() override;

  /// Cumulative raw bit errors observed by queued reads' normal senses
  /// (the host-visible symptom ECC has to absorb).
  std::uint64_t read_bit_errors() const override { return read_bit_errors_; }
  /// Queued page reads / writes serviced, and blocks turned over.
  std::uint64_t pages_read() const override { return pages_read_; }
  std::uint64_t pages_written() const override { return pages_written_; }
  std::uint64_t block_rewrites() const override { return block_rewrites_; }

  /// Ladder attribution: how far down each read went, recovery seconds
  /// charged, write failures (die-kill only on a raw chip).
  ErrorStats error_stats() const override { return error_stats_; }

 private:
  nand::PageAddress page_address(std::uint64_t lpn, std::uint32_t* block)
      const;

  /// True if a page whose normal sense saw `errors` raw bit errors decodes
  /// under the provisioned ECC. Codewords are interleaved across the page
  /// (as real controllers do precisely so error bursts spread), so the
  /// per-codeword load is the ceiling split of the page total.
  bool page_decodes(int errors) const;

  /// Raw bit errors of the page at `address` when the wordline, whose
  /// present Vth is `vth`, is sensed with learned references `refs`
  /// (pass-through blocking ignored — the retry re-read is a refined
  /// sense, like the optimizer's evaluator).
  int page_errors_with_refs(std::uint32_t block,
                            const nand::PageAddress& address,
                            const core::ReadRefs& refs,
                            std::span<const double> vth) const;

  /// Raw bit errors of the page at `address` in RDR's re-labeled states.
  int page_errors_after_rdr(std::uint32_t block,
                            const nand::PageAddress& address,
                            const core::RdrResult& recovered) const;

  /// Counter-based latent-defect draw for the page (pure function of the
  /// fault seed, the page, and the block's program epoch).
  bool latent_bad(std::uint64_t lpn, std::uint32_t block) const;

  nand::Chip chip_;
  LatencyParams latency_;
  ecc::EccModel ecc_;
  core::VrefOptimizer vref_;
  core::ReadDisturbRecovery rdr_;
  ChipFaults faults_;
  std::uint64_t fault_seed_ = 0;
  double retry_charge_s_ = 0.0;  ///< Flash time of one retry learn+re-read.
  double rdr_charge_s_ = 0.0;    ///< Flash time of one RDR invocation.
  std::vector<std::uint32_t> writes_into_block_;
  std::vector<std::uint32_t> program_epoch_;  ///< Latent-draw re-roll key.
  double day_ = 0.0;
  bool dead_ = false;
  ErrorStats error_stats_;
  std::uint64_t read_bit_errors_ = 0;
  std::uint64_t pages_read_ = 0;
  std::uint64_t pages_written_ = 0;
  std::uint64_t block_rewrites_ = 0;
};

}  // namespace rdsim::host
