#include "host/chip_servicer.h"

#include <cmath>

#include "common/rng.h"
#include "flash/types.h"

namespace rdsim::host {

namespace {

/// Stream id carved out of the servicer's seed for fault draws — a fixed
/// constant so fault randomness is decorrelated from the chip's own
/// streams but still a pure function of the shard seed.
constexpr std::uint64_t kFaultStream = 0xFA017;

}  // namespace

ChipServicer::ChipServicer(const nand::Geometry& geometry,
                           const flash::FlashModelParams& params,
                           std::uint64_t seed, const LatencyParams& latency,
                           const ChipErrorPath& error_path,
                           const ChipFaults& faults)
    : chip_(geometry, params, seed),
      latency_(latency),
      ecc_(error_path.ecc),
      vref_(error_path.vref),
      rdr_(error_path.rdr),
      faults_(faults),
      fault_seed_(Rng::stream(seed, kFaultStream).next()),
      writes_into_block_(geometry.blocks, 0),
      program_epoch_(geometry.blocks, 0) {
  for (std::size_t b = 0; b < chip_.block_count(); ++b)
    chip_.block(b).program_random();
  // Pre-compute the flash time each escalation step charges. A retry
  // attempt is the optimizer's learning sweep (one read per retry level)
  // plus the corrected re-read; an RDR attempt is the §4 procedure's two
  // fine-grained measurement sweeps plus the induced disturb dose.
  const double vpass = chip_.block(0).model().params().vpass_nominal;
  const double retry_levels =
      std::floor((vpass + 8.0) / error_path.vref.scan_step) + 1.0;
  retry_charge_s_ = (retry_levels + 1.0) * latency.read_s;
  const double rdr_levels =
      std::floor((error_path.rdr.retry_hi - error_path.rdr.retry_lo) /
                 error_path.rdr.retry_step) +
      1.0;
  rdr_charge_s_ =
      (2.0 * rdr_levels + error_path.rdr.extra_reads) * latency.read_s;
}

ServiceCost ChipServicer::service(const Command& command) {
  ServiceCost cost;
  const std::uint64_t logical = logical_pages();
  for (std::uint32_t i = 0; i < command.pages; ++i) {
    const ServiceCost page =
        service_page(command.kind, (command.lpn + i) % logical);
    cost.busy_s += page.busy_s;
    cost.stall_s += page.stall_s;
    cost.status = worst_status(cost.status, page.status);
    cost.error_pages += page.error_pages;
  }
  return cost;
}

nand::PageAddress ChipServicer::page_address(std::uint64_t lpn,
                                             std::uint32_t* block) const {
  const std::uint32_t ppb = chip_.geometry().pages_per_block();
  *block = static_cast<std::uint32_t>(lpn / ppb);
  const auto page = static_cast<std::uint32_t>(lpn % ppb);
  return {page / 2,
          (page & 1) != 0 ? nand::PageKind::kMsb : nand::PageKind::kLsb};
}

bool ChipServicer::page_decodes(int errors) const {
  const int codewords = ecc_.config().codewords_per_page > 0
                            ? ecc_.config().codewords_per_page
                            : 1;
  const int per_codeword = (errors + codewords - 1) / codewords;
  return ecc_.correctable(per_codeword);
}

int ChipServicer::page_errors_with_refs(std::uint32_t block,
                                        const nand::PageAddress& address,
                                        const core::ReadRefs& refs,
                                        std::span<const double> vth) const {
  std::vector<std::uint8_t> sensed(vth.size());
  flash::VthModel::classify_batch(vth.data(), vth.size(), refs.va, refs.vb,
                                  refs.vc, sensed.data());
  return nand::page_bit_errors(
      address.kind, sensed,
      chip_.block(block).wordline_states(address.wordline));
}

int ChipServicer::page_errors_after_rdr(
    std::uint32_t block, const nand::PageAddress& address,
    const core::RdrResult& recovered) const {
  const auto& states = recovered.corrected_states;
  return nand::page_bit_errors(
      address.kind, {flash::state_bytes(states.data()), states.size()},
      chip_.block(block).wordline_states(address.wordline));
}

bool ChipServicer::latent_bad(std::uint64_t lpn, std::uint32_t block) const {
  if (faults_.latent_page_prob <= 0.0) return false;
  return Rng::at(fault_seed_, lpn, program_epoch_[block]).uniform() <
         faults_.latent_page_prob;
}

ServiceCost ChipServicer::service_page(CommandKind kind, std::uint64_t lpn) {
  ServiceCost cost;
  std::uint32_t b = 0;
  const nand::PageAddress address = page_address(lpn, &b);
  switch (kind) {
    case CommandKind::kRead: {
      ++pages_read_;
      cost.busy_s += latency_.read_s;
      if (dead_) {
        // The die is gone: the sense returns nothing usable and there is
        // no point escalating — every ladder step needs the same die.
        cost.status = Status::kUncorrectable;
        cost.error_pages = 1;
        ++error_stats_.reads_uncorrectable;
        break;
      }
      // read_page's sense-then-disturb sequence, minus the page bits the
      // servicer never looks at.
      nand::Block& block = chip_.block(b);
      const int raw_errors = block.count_errors(address);
      block.apply_reads(address.wordline, 1.0);
      read_bit_errors_ += static_cast<std::uint64_t>(raw_errors);
      const bool latent = latent_bad(lpn, b);
      if (!latent && raw_errors == 0) {
        ++error_stats_.reads_ok;
        break;
      }
      if (!latent && page_decodes(raw_errors)) {
        cost.status = Status::kCorrected;
        ++error_stats_.reads_corrected;
        break;
      }
      // Step 2: read-retry. Learn the present valleys and re-read with
      // the learned references; charge the learning sweep's reads. A
      // latently bad page is physically damaged — the controller still
      // pays for the attempt, but no reference placement can decode it.
      ++error_stats_.retry_attempts;
      error_stats_.retry_seconds += retry_charge_s_;
      cost.busy_s += retry_charge_s_;
      // One present-Vth row of the wordline serves the learning sweep,
      // the re-read and RDR's first measurement: the block does not
      // change between them (see the header comment).
      std::vector<double> vth;
      if (!latent) {
        vth = block.present_vth_page(address.wordline);
        const core::ReadRefs refs = vref_.learn(block, vth);
        // A degenerate learn (non-monotone refs from a collapsed valley
        // search) cannot be sensed with; treat the step as failed.
        if (refs.va < refs.vb && refs.vb < refs.vc) {
          const int errors = page_errors_with_refs(b, address, refs, vth);
          if (page_decodes(errors)) {
            cost.status = Status::kRecovered;
            ++error_stats_.reads_retry_recovered;
            break;
          }
        }
      }
      // Step 3: the paper's §4 read-disturb recovery. The induced extra
      // reads are real disturbs (the block mutates) and the two
      // fine-grained measurement sweeps are real senses — all charged.
      ++error_stats_.rdr_attempts;
      error_stats_.rdr_seconds += rdr_charge_s_;
      cost.busy_s += rdr_charge_s_;
      if (!latent) {
        const core::RdrResult recovered =
            rdr_.recover(block, address.wordline, vth);
        const int errors = page_errors_after_rdr(b, address, recovered);
        if (page_decodes(errors)) {
          cost.status = Status::kRecovered;
          ++error_stats_.reads_rdr_recovered;
          break;
        }
      }
      cost.status = Status::kUncorrectable;
      cost.error_pages = 1;
      ++error_stats_.reads_uncorrectable;
      break;
    }
    case CommandKind::kWrite: {
      ++pages_written_;
      cost.busy_s += latency_.program_s;
      if (dead_) {
        cost.status = Status::kFailedWrite;
        cost.error_pages = 1;
        ++error_stats_.writes_failed;
        break;
      }
      // Log-structured turnover: the block's resident (random) data
      // stands in for the host's; after a block's worth of writes it is
      // erased and reprogrammed, clearing disturb and costing one P/E.
      // The turnover is a fresh program event, so latent-defect draws
      // re-roll (grown defects appear per program, not per read).
      if (++writes_into_block_[b] >= chip_.geometry().pages_per_block()) {
        writes_into_block_[b] = 0;
        chip_.block(b).erase();
        chip_.block(b).program_random();
        ++program_epoch_[b];
        ++block_rewrites_;
        cost.stall_s += latency_.erase_s;
      }
      break;
    }
    case CommandKind::kTrim:
    case CommandKind::kFlush:
      break;  // Metadata-only on the raw chip.
  }
  return cost;
}

double ChipServicer::end_of_day() {
  chip_.advance_time(1.0);
  day_ += 1.0;
  if (faults_.die_kill_day >= 0.0 && day_ >= faults_.die_kill_day)
    dead_ = true;
  return 0.0;
}

}  // namespace rdsim::host
