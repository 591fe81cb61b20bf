// rdsim/host/sharded_device.h
//
// Kept only for benchmark/, which includes this header and names
// host::ShardedDevice. The device is host::Device (device.h); everything
// else in the repository names it that way.
#pragma once

#include "host/device.h"

namespace rdsim::host {

using ShardedDevice = Device;

}  // namespace rdsim::host
