// rdsim/host/factory.h
//
// host::make_device: the one place a cfg::DriveSpec becomes a live
// host::Device. Every backend comes out as the same Device; the four
// cfg::Backend names reduce to fidelity (SsdServicer for the analytic
// drive, ChipServicer for the Monte Carlo chip) times shard count
// (`analytic` and `mc_chip` are one shard, the sharded backends
// spec.shards). Experiments, the generic scenario runner, and tests share
// this one bring-up path; the golden CRCs pin its output.
//
// `seed` is the drive seed: a one-shard `analytic` / `mc_chip` drive
// hands it to its servicer verbatim, while the sharded backends derive
// shard s's seed as Device::shard_seed(seed, s). `workers` sizes
// the service pool (capped at the shard count) and never affects
// results. Monte Carlo pre-aging (spec.pre_wear_pe) is applied here, in
// the characterization order fig_qos_mc established: per shard, per
// block — erase, add_wear, program_random.
#pragma once

#include <cstdint>
#include <memory>

#include "cfg/spec.h"
#include "flash/params.h"
#include "host/device.h"
#include "ssd/ssd.h"

namespace rdsim::host {

std::unique_ptr<Device> make_device(const cfg::DriveSpec& spec,
                                    std::uint64_t seed, int workers = 1);

/// The spec -> analytic-drive mappings make_device uses internally,
/// exposed so layers that build ssd::Ssd drives directly (the fleet
/// runner) construct them identically to the factory's analytic shards.
flash::FlashModelParams flash_params_from_spec(const cfg::DriveSpec& spec);
ssd::SsdConfig ssd_config_from_spec(const cfg::DriveSpec& spec);

}  // namespace rdsim::host
