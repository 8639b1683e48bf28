// Persistent worker pool and deterministic sharding for the slot engine.
//
// The pool executes one "batch" at a time: run_shards(k, fn) calls
// fn(0..k-1) across the workers and returns when every shard finished.
// Shards are claimed dynamically (an atomic ticket counter), which is safe
// for determinism because the engine never lets execution order leak into
// results: each shard writes only shard-local staging buffers that the
// caller merges in fixed shard order afterwards (see network.cpp).
//
// A pool of T threads is the calling thread plus T - 1 workers: wait()
// claims shards like any worker before it waits for the rest, so T
// threads keep T cores busy, not T + 1.
//
// Dispatch latency matters more than fairness here — a 128-node slot
// sweep is only a few microseconds of work — so idle workers spin briefly
// before parking on a condition variable.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/prof/pool_stats.h"
#include "util/types.h"

namespace sorn {

// A contiguous slice [begin, end) of the node index space.
struct ShardRange {
  NodeId begin = 0;
  NodeId end = 0;
};

// Split [0, n) into at most `shards` near-equal contiguous ranges (never
// an empty range; fewer ranges when n < shards). Depends only on
// (n, shards), so a given thread count always produces the same plan.
std::vector<ShardRange> shard_ranges(NodeId n, int shards);

class ThreadPool {
 public:
  // threads >= 1: the calling thread is worker 0 and the pool starts
  // threads - 1 more. A pool of 1 owns no workers, so its batches run
  // entirely on the calling thread, inside wait().
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return threads_; }

  // Publish a batch to the workers without blocking. A previous batch
  // must have been wait()ed for. fn may be called concurrently from
  // several threads with distinct shard indices.
  void begin(int shards, std::function<void(int)> fn);

  // Run unclaimed shards of the current batch on the calling thread, then
  // block until the workers finish theirs. If any shard threw, rethrows
  // the exception of the lowest-indexed throwing shard (deterministic
  // regardless of scheduling). No-op when no batch is active.
  void wait();

  // begin() + wait().
  void run_shards(int shards, const std::function<void(int)>& fn);

  // std::thread::hardware_concurrency with a floor of 1 (the standard
  // allows it to return 0).
  static int default_threads();

  // ---- Utilization accounting (obs/prof) ----
  // When enabled, each worker times its shard bodies (two clock reads per
  // shard, written to its own cache-line-padded counters with relaxed
  // atomics; the calling thread's shards count as worker 0's) and the
  // owner times how long wait() blocks once it has no shard left to
  // claim. Disabled — the default — the hot paths pay one relaxed flag
  // load. Call between batches, from the owner thread; enabling resets the
  // counters and starts the utilization window.
  void enable_profiling(bool on);
  bool profiling_enabled() const {
    return profiling_.load(std::memory_order_relaxed);
  }
  // Snapshot of the counters since enable_profiling(true). Owner thread,
  // between batches. window_ns spans enable to this call.
  PoolUtilization utilization() const;

 private:
  void worker_loop(int worker);
  // Claim and run shards of the current batch until none remain; worker
  // 0 is the thread inside wait().
  void execute_shards(int worker);
  void rethrow_first_error();

  const int threads_;
  std::vector<std::thread> workers_;  // workers 1 .. threads_ - 1

  std::mutex m_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool batch_active_ = false;  // owner-thread bookkeeping (begin/wait/dtor)

  // Batch state. Written in begin() before the ticket store releases it
  // to the workers. ticket_ is the single source of truth: it packs
  // (batch generation << kShardBits) | next shard, so one counter both
  // wakes idle workers (generation bits changed) and hands out claims
  // (fetch_add). A straggler's claim from a drained batch carries a stale
  // generation tag and is discarded, so it can never collide with — or
  // be double-executed against — a claim on the current batch.
  static constexpr int kShardBits = 20;
  std::function<void(int)> fn_;
  std::atomic<int> shards_{0};
  // remaining_ == 0 is the batch-completion signal wait() observes; it is
  // deliberately the *only* one. A boolean "done" flag set by the last
  // worker would race: the owner can exit wait() through the spin path and
  // begin() the next batch before that worker gets around to setting it,
  // leaving a stale done mark that ends the next wait() early.
  std::atomic<int> remaining_{0};
  std::atomic<std::uint64_t> ticket_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::exception_ptr> errors_;  // one slot per shard

  // Profiling counters. Per-worker entries are padded so concurrent
  // relaxed writes from different workers never share a cache line; the
  // owner-side fields (batches, wait time, window start) are touched only
  // from the owner thread.
  struct alignas(64) WorkerCounters {
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> shards{0};
  };
  std::atomic<bool> profiling_{false};
  std::vector<WorkerCounters> worker_counters_;  // sized threads_, fixed
  std::uint64_t prof_batches_ = 0;
  std::uint64_t owner_wait_ns_ = 0;
  std::uint64_t window_start_ns_ = 0;
};

}  // namespace sorn
