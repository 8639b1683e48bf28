// Worker-pool utilization counters, as plain data.
//
// Defined here (not in sim/parallel.h) so the profiler export can consume
// pool statistics without the obs layer depending on the simulator: the
// ThreadPool fills a PoolUtilization snapshot, the engine hands it to the
// Profiler, and profile_to_json renders it.
#pragma once

#include <cstdint>
#include <vector>

namespace sorn {

struct PoolWorkerStats {
  std::uint64_t busy_ns = 0;  // wall time spent inside shard bodies
  std::uint64_t shards = 0;   // shard bodies this worker executed
};

struct PoolUtilization {
  int threads = 1;
  std::uint64_t batches = 0;        // dispatches while profiling was on
  std::uint64_t shards = 0;         // total shard executions (all workers)
  // Coordinating thread blocked in wait() after it ran out of shards to
  // claim (its own shard time is worker 0's busy_ns).
  std::uint64_t owner_wait_ns = 0;
  // Wall-clock span from enable_profiling(true) to the snapshot; per-worker
  // idle time is window_ns - busy_ns (computed at export, clamped at 0).
  std::uint64_t window_ns = 0;
  // One entry per thread; entry 0 is the coordinating thread.
  std::vector<PoolWorkerStats> workers;
};

}  // namespace sorn
