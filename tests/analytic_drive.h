// A single analytic drive as the tests build it: a one-shard
// host::Device over one ssd::Ssd (the shape make_device gives
// `backend = analytic`), with the Ssd in reach for white-box checks.
#pragma once

#include <cstdint>
#include <memory>

#include "flash/params.h"
#include "host/device.h"
#include "host/ssd_servicer.h"
#include "ssd/ssd.h"

namespace rdsim::test {

class AnalyticDrive final : public host::Device {
 public:
  AnalyticDrive(const ssd::SsdConfig& config,
                const flash::FlashModelParams& params, std::uint64_t seed,
                std::uint32_t queue_count = 1)
      : Device(std::make_unique<host::SsdServicer>(config, params, seed),
               queue_count) {}

  const ssd::Ssd& ssd() const {
    return static_cast<const host::SsdServicer&>(shard_servicer(0)).ssd();
  }
};

}  // namespace rdsim::test
