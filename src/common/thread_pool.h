// rdsim/common/thread_pool.h
//
// Deterministic fork-join thread pool (formerly sim::ExperimentRunner; it
// moved down to common so the host layer's sharded devices can use the
// same pool machinery without depending on the experiment layer above
// them). A ThreadPool owns a fixed set of worker threads; for_each()/
// map() split an index space [0, n) across the pool.
//
// Determinism contract: each shard i must depend only on its index
// (callers seed shard randomness with Rng::stream(seed, i) or own
// per-index state), and map() returns results in index order — so the
// merged output of a run is byte-identical no matter how many threads
// executed it or how the OS scheduled them. docs/ARCHITECTURE.md spells
// out the contract; sim::ExperimentRunner and host::Device are its two
// instantiations.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace rdsim {

class ThreadPool {
 public:
  /// `threads` <= 1 runs everything inline on the caller. With N > 1 the
  /// pool holds N-1 workers and the calling thread participates, so N
  /// shards execute concurrently.
  explicit ThreadPool(int threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return threads_; }

  /// Invokes fn(i) for every i in [0, n), distributing indices across the
  /// pool; blocks until all complete. If any invocation throws, the first
  /// exception is rethrown here after the batch drains. Not reentrant: a
  /// batch must not start another batch on the same pool.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Parallel map: results are placed by index, so the output order is
  /// independent of scheduling. R needs move construction only.
  template <typename R, typename Fn>
  std::vector<R> map(std::size_t n, Fn&& fn) {
    std::vector<std::optional<R>> slots(n);
    for_each(n, [&](std::size_t i) { slots[i].emplace(fn(i)); });
    std::vector<R> out;
    out.reserve(n);
    for (auto& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

 private:
  void worker_loop();
  /// Pulls shard indices from the live batch until exhausted.
  void drain_batch(const std::function<void(std::size_t)>& fn, std::size_t n);

  int threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable batch_cv_;  ///< Workers wait here for a batch.
  std::condition_variable done_cv_;   ///< for_each waits here for drain.
  bool shutdown_ = false;
  std::uint64_t batch_id_ = 0;
  const std::function<void(std::size_t)>* batch_fn_ = nullptr;
  std::size_t batch_n_ = 0;
  std::atomic<std::size_t> next_index_{0};
  int busy_workers_ = 0;
  std::exception_ptr first_error_;
};

}  // namespace rdsim
