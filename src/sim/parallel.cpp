#include "sim/parallel.h"

#include <algorithm>
#include <chrono>

#include "util/assert.h"

namespace sorn {

namespace {

// How long an idle worker (or the waiting caller) polls before parking on
// the condition variable. At the slot cadence of a large sweep (~10 us)
// the next batch almost always arrives well inside the spin window.
constexpr int kSpinIters = 1 << 14;

inline void cpu_relax(int spins) {
  // Yield the timeslice periodically so oversubscribed configurations
  // (more threads than cores, sanitizer runs) make progress instead of
  // burning a quantum per poll.
  if ((spins & 1023) == 0) {
    std::this_thread::yield();
    return;
  }
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

inline std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::vector<ShardRange> shard_ranges(NodeId n, int shards) {
  std::vector<ShardRange> out;
  if (n <= 0 || shards <= 0) return out;
  const NodeId k = std::min<NodeId>(n, static_cast<NodeId>(shards));
  const NodeId base = n / k;
  const NodeId rem = n % k;
  out.reserve(static_cast<std::size_t>(k));
  NodeId begin = 0;
  for (NodeId s = 0; s < k; ++s) {
    const NodeId len = base + (s < rem ? 1 : 0);
    out.push_back(ShardRange{begin, begin + len});
    begin += len;
  }
  return out;
}

ThreadPool::ThreadPool(int threads)
    : threads_(threads),
      worker_counters_(static_cast<std::size_t>(threads)) {
  SORN_ASSERT(threads >= 1, "thread pool needs at least one thread");
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int t = 1; t < threads_; ++t)
    workers_.emplace_back([this, t] { worker_loop(t); });
}

ThreadPool::~ThreadPool() {
  // Drain a batch begun but never waited for; its exceptions (if any)
  // have nowhere to go and are dropped.
  if (batch_active_) {
    try {
      wait();
    } catch (...) {
    }
  }
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_.store(true, std::memory_order_release);
    work_cv_.notify_all();
  }
  for (std::thread& w : workers_) w.join();
}

int ThreadPool::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::begin(int shards, std::function<void(int)> fn) {
  SORN_ASSERT(!batch_active_, "previous batch not waited for");
  SORN_ASSERT(shards >= 0, "negative shard count");
  // Leave headroom in the shard field: every claimant (the workers and
  // the waiting caller) can burn at most one stray ticket per batch, and
  // the shard bits must never overflow into the generation tag.
  SORN_ASSERT(shards < (1 << kShardBits) - threads_ - 1,
              "shard count exceeds ticket space");
  batch_active_ = true;
  errors_.assign(static_cast<std::size_t>(shards), nullptr);
  if (profiling_.load(std::memory_order_relaxed)) ++prof_batches_;
  {
    std::lock_guard<std::mutex> lk(m_);
    fn_ = std::move(fn);
    shards_.store(shards, std::memory_order_relaxed);
    remaining_.store(shards, std::memory_order_relaxed);
    const std::uint64_t gen =
        (ticket_.load(std::memory_order_relaxed) >> kShardBits) + 1;
    // The release store publishes fn_/shards_/errors_ to any worker whose
    // first contact with this batch is a ticket claim.
    ticket_.store(gen << kShardBits, std::memory_order_release);
    work_cv_.notify_all();
  }
}

void ThreadPool::wait() {
  if (!batch_active_) return;
  // The caller is worker 0: it drains the unclaimed shards first (all of
  // them in a pool without workers), then waits only for shards other
  // workers are still running.
  execute_shards(0);
  const bool prof = profiling_.load(std::memory_order_relaxed);
  const std::uint64_t wait_start = prof ? steady_now_ns() : 0;
  // Poll for completion inside the spin window, then park. remaining_
  // itself is the predicate: it is reset only by the owner's next begin(),
  // so unlike a done flag it cannot carry a stale completion mark from one
  // batch into the next (the finishing worker notifies under the lock, so
  // the wakeup cannot be lost either).
  bool done = false;
  for (int i = 0; i < kSpinIters; ++i) {
    if (remaining_.load(std::memory_order_acquire) == 0) {
      done = true;
      break;
    }
    cpu_relax(i);
  }
  if (!done) {
    std::unique_lock<std::mutex> lk(m_);
    done_cv_.wait(lk, [this] {
      return remaining_.load(std::memory_order_acquire) == 0;
    });
  }
  if (prof) owner_wait_ns_ += steady_now_ns() - wait_start;
  batch_active_ = false;
  rethrow_first_error();
}

void ThreadPool::run_shards(int shards, const std::function<void(int)>& fn) {
  begin(shards, fn);
  wait();
}

void ThreadPool::rethrow_first_error() {
  for (std::exception_ptr& e : errors_) {
    if (e != nullptr) {
      std::exception_ptr first = e;
      e = nullptr;
      std::rethrow_exception(first);
    }
  }
}

void ThreadPool::execute_shards(int worker) {
  for (;;) {
    const std::uint64_t t = ticket_.fetch_add(1, std::memory_order_acq_rel);
    const std::uint64_t ticket_gen = t >> kShardBits;
    const int s = static_cast<int>(t & ((1ULL << kShardBits) - 1));
    // Validate against the counter's *current* generation bits. A valid
    // claim pins its batch (remaining_ cannot hit zero, so no new batch
    // can begin, until the shard executes), hence a same-generation
    // re-read. A claim raced against a begin() reset reads the newer
    // generation and is discarded.
    if (ticket_gen != (ticket_.load(std::memory_order_acquire) >> kShardBits) ||
        s >= shards_.load(std::memory_order_acquire))
      return;
    const bool prof = profiling_.load(std::memory_order_relaxed);
    const std::uint64_t t0 = prof ? steady_now_ns() : 0;
    try {
      fn_(s);
    } catch (...) {
      errors_[static_cast<std::size_t>(s)] = std::current_exception();
    }
    if (prof) {
      WorkerCounters& wc = worker_counters_[static_cast<std::size_t>(worker)];
      wc.busy_ns.fetch_add(steady_now_ns() - t0, std::memory_order_relaxed);
      wc.shards.fetch_add(1, std::memory_order_relaxed);
    }
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Taking the lock before notifying closes the window between the
      // owner's predicate check and its park — a bare notify there could
      // be lost. If the owner already left via the spin path this notify
      // is harmless: the next wait() re-checks remaining_, which begin()
      // will have reset, so a straggler cannot signal the wrong batch.
      std::lock_guard<std::mutex> lk(m_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::worker_loop(int worker) {
  std::uint64_t seen = 0;  // generation this worker has fully drained
  const auto current_gen = [this] {
    return ticket_.load(std::memory_order_acquire) >> kShardBits;
  };
  for (;;) {
    std::uint64_t gen = current_gen();
    int spins = 0;
    while (gen == seen && !stop_.load(std::memory_order_acquire)) {
      if (++spins >= kSpinIters) {
        std::unique_lock<std::mutex> lk(m_);
        work_cv_.wait(lk, [&] {
          return current_gen() != seen ||
                 stop_.load(std::memory_order_acquire);
        });
        spins = 0;
      } else {
        cpu_relax(spins);
      }
      gen = current_gen();
    }
    if (gen == seen) return;  // stopped with no newer batch
    seen = gen;
    execute_shards(worker);
  }
}

void ThreadPool::enable_profiling(bool on) {
  SORN_ASSERT(!batch_active_, "enable_profiling during an active batch");
  if (on) {
    for (WorkerCounters& wc : worker_counters_) {
      wc.busy_ns.store(0, std::memory_order_relaxed);
      wc.shards.store(0, std::memory_order_relaxed);
    }
    prof_batches_ = 0;
    owner_wait_ns_ = 0;
    window_start_ns_ = steady_now_ns();
  }
  profiling_.store(on, std::memory_order_relaxed);
}

PoolUtilization ThreadPool::utilization() const {
  PoolUtilization u;
  u.threads = threads_;
  u.batches = prof_batches_;
  u.owner_wait_ns = owner_wait_ns_;
  u.window_ns =
      window_start_ns_ == 0 ? 0 : steady_now_ns() - window_start_ns_;
  u.workers.reserve(worker_counters_.size());
  for (const WorkerCounters& wc : worker_counters_) {
    PoolWorkerStats ws;
    ws.busy_ns = wc.busy_ns.load(std::memory_order_relaxed);
    ws.shards = wc.shards.load(std::memory_order_relaxed);
    u.shards += ws.shards;
    u.workers.push_back(ws);
  }
  return u;
}

}  // namespace sorn
