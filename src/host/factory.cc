#include "host/factory.h"

#include <utility>
#include <vector>

#include "flash/params.h"
#include "host/chip_servicer.h"
#include "host/ssd_servicer.h"
#include "nand/chip.h"

namespace rdsim::host {

flash::FlashModelParams flash_params_from_spec(const cfg::DriveSpec& spec) {
  return spec.flash_model == cfg::FlashModel::k2ynm
             ? flash::FlashModelParams::default_2ynm()
             : flash::FlashModelParams::early_3d_nand();
}

ssd::SsdConfig ssd_config_from_spec(const cfg::DriveSpec& spec) {
  ssd::SsdConfig config;
  config.ftl.blocks = spec.blocks;
  config.ftl.pages_per_block = spec.pages_per_block;
  config.ftl.overprovision = spec.overprovision;
  config.ftl.gc_free_target = spec.gc_free_target;
  config.ftl.refresh_interval_days = spec.refresh_interval_days;
  config.ftl.read_reclaim_threshold = spec.read_reclaim_threshold;
  config.ftl.spare_blocks = spec.spare_blocks;
  config.ftl.program_fail_prob = spec.faults.program_fail_prob;
  config.ftl.erase_fail_prob = spec.faults.erase_fail_prob;
  config.vpass_tuning = spec.vpass_tuning;
  return config;
}

namespace {

/// The MC fault slice for one shard: latent pages everywhere, the die
/// kill only on the targeted shard (a single chip is shard 0).
ChipFaults chip_faults(const cfg::DriveSpec& spec, std::uint32_t shard) {
  ChipFaults faults;
  faults.latent_page_prob = spec.faults.latent_page_prob;
  if (spec.faults.die_kill_day >= 0.0 &&
      spec.faults.die_kill_shard == shard)
    faults.die_kill_day = spec.faults.die_kill_day;
  return faults;
}

nand::Geometry chip_geometry(const cfg::DriveSpec& spec) {
  nand::Geometry geometry;
  geometry.wordlines_per_block = spec.wordlines_per_block;
  geometry.bitlines = spec.bitlines;
  geometry.blocks = spec.blocks;
  return geometry;
}

/// Characterization pre-aging, in the order fig_qos_mc established:
/// heavy P/E wear then fresh random data, block by block
/// (O(bookkeeping) under lazy cell materialization).
void pre_wear(nand::Chip& chip, std::uint64_t pe) {
  for (std::size_t b = 0; b < chip.block_count(); ++b) {
    chip.block(b).erase();
    chip.block(b).add_wear(static_cast<std::uint32_t>(pe));
    chip.block(b).program_random();
  }
}

}  // namespace

std::unique_ptr<Device> make_device(const cfg::DriveSpec& spec,
                                    std::uint64_t seed, int workers) {
  const flash::FlashModelParams params = flash_params_from_spec(spec);
  const bool mc = !spec.is_analytic();
  const bool sharded = spec.is_sharded();
  const std::uint32_t shard_n = sharded ? spec.shards : 1;

  // A single drive or chip takes the drive seed verbatim; shard s of a
  // sharded backend derives its own, even when there is only one shard.
  std::vector<std::unique_ptr<Servicer>> shards;
  shards.reserve(shard_n);
  for (std::uint32_t s = 0; s < shard_n; ++s) {
    const std::uint64_t shard_seed =
        sharded ? Device::shard_seed(seed, s) : seed;
    if (mc)
      shards.push_back(std::make_unique<ChipServicer>(
          chip_geometry(spec), params, shard_seed, LatencyParams{},
          ChipErrorPath{}, chip_faults(spec, s)));
    else
      shards.push_back(std::make_unique<SsdServicer>(ssd_config_from_spec(spec),
                                                     params, shard_seed));
  }
  auto device =
      std::make_unique<Device>(std::move(shards), workers, spec.queue_count);
  if (mc && spec.pre_wear_pe > 0)
    for (std::uint32_t s = 0; s < device->shard_count(); ++s)
      pre_wear(device->shard_chip(s), spec.pre_wear_pe);
  return device;
}

}  // namespace rdsim::host
