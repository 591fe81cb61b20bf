// rdsim/sim/runner.h
//
// Thread-pooled, deterministic experiment execution. The pool machinery
// itself lives in common/thread_pool.h (it is shared with the host
// layer's host::Device); ExperimentRunner is the experiment layer's name
// for it. Determinism contract: each shard i must depend only on its
// index (experiments seed shard randomness with Rng::stream(seed, i)),
// and map() returns results in index order — so the merged output of a
// run is byte-identical no matter how many threads executed it or how
// the OS scheduled them.
#pragma once

#include "common/thread_pool.h"

namespace rdsim::sim {

using ExperimentRunner = ::rdsim::ThreadPool;

}  // namespace rdsim::sim
