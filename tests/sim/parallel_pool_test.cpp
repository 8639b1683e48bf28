// ThreadPool and shard-plan unit tests: shard coverage and in-shard
// ordering, the caller running shards, exception propagation, and
// teardown while idle and mid-batch.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/parallel.h"

namespace sorn {
namespace {

TEST(ShardRangesTest, CoversIndexSpaceContiguously) {
  for (const NodeId n : {1, 2, 7, 8, 64, 127, 128}) {
    for (const int shards : {1, 2, 3, 4, 7, 8, 200}) {
      const auto plan = shard_ranges(n, shards);
      ASSERT_FALSE(plan.empty());
      EXPECT_LE(static_cast<int>(plan.size()), shards);
      EXPECT_LE(plan.size(), static_cast<std::size_t>(n));
      NodeId expect_begin = 0;
      for (const ShardRange& r : plan) {
        EXPECT_EQ(r.begin, expect_begin);
        EXPECT_LT(r.begin, r.end) << "empty shard";
        expect_begin = r.end;
      }
      EXPECT_EQ(expect_begin, n) << "plan does not cover [0, n)";
    }
  }
}

TEST(ShardRangesTest, DeterministicAndBalanced) {
  const auto a = shard_ranges(128, 4);
  const auto b = shard_ranges(128, 4);
  ASSERT_EQ(a.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
    EXPECT_EQ(a[i].end - a[i].begin, 32);
  }
}

TEST(ShardRangesTest, EmptyOnDegenerateInput) {
  EXPECT_TRUE(shard_ranges(0, 4).empty());
  EXPECT_TRUE(shard_ranges(16, 0).empty());
}

TEST(ThreadPoolTest, EveryShardRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kShards = 64;  // more shards than threads
  std::vector<std::atomic<int>> runs(kShards);
  for (auto& r : runs) r.store(0);
  pool.run_shards(kShards, [&](int s) { runs[s].fetch_add(1); });
  for (int s = 0; s < kShards; ++s) EXPECT_EQ(runs[s].load(), 1);
}

TEST(ThreadPoolTest, TaskOrderingWithinShardIsSequential) {
  ThreadPool pool(3);
  constexpr int kShards = 6;
  constexpr int kItemsPerShard = 50;
  std::vector<std::vector<int>> seen(kShards);
  pool.run_shards(kShards, [&](int s) {
    // Work items of one shard run on one thread, in submission order —
    // the property the engine's in-order staging buffers rely on.
    for (int k = 0; k < kItemsPerShard; ++k) seen[s].push_back(k);
  });
  for (int s = 0; s < kShards; ++s) {
    ASSERT_EQ(seen[s].size(), static_cast<std::size_t>(kItemsPerShard));
    for (int k = 0; k < kItemsPerShard; ++k) EXPECT_EQ(seen[s][k], k);
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyBatches) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int batch = 0; batch < 200; ++batch)
    pool.run_shards(5, [&](int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 1000);
}

// Regression for a stale-completion race: when wait() exits through its
// spin path, the finishing worker may only reach the mutex after the next
// batch has already begun. A completion flag set there would mark the
// *new* batch done and let its wait() return (via the cv path) while
// shards are still running. Alternate instant batches (spin-path exit)
// with slow batches (cv-path wait, forced by a shard that outlasts the
// spin window) and check no wait() ever returns before its batch drains.
TEST(ThreadPoolTest, SlowBatchAfterFastBatchWaitsForAllShards) {
  ThreadPool pool(4);
  for (int rep = 0; rep < 50; ++rep) {
    std::atomic<int> fast{0};
    pool.run_shards(4, [&](int) { fast.fetch_add(1); });
    EXPECT_EQ(fast.load(), 4);
    std::atomic<int> slow{0};
    pool.run_shards(4, [&](int s) {
      if (s == 0) std::this_thread::sleep_for(std::chrono::milliseconds(3));
      slow.fetch_add(1);
    });
    EXPECT_EQ(slow.load(), 4) << "wait() returned with shards in flight";
  }
}

TEST(ThreadPoolTest, WorkerExceptionPropagatesToWait) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_shards(8,
                               [](int s) {
                                 if (s == 5) throw std::runtime_error("s5");
                               }),
               std::runtime_error);
  // The pool stays usable after a throwing batch.
  std::atomic<int> total{0};
  pool.run_shards(8, [&](int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 8);
}

TEST(ThreadPoolTest, LowestShardExceptionWinsDeterministically) {
  ThreadPool pool(4);
  for (int rep = 0; rep < 10; ++rep) {
    try {
      pool.run_shards(8, [](int s) {
        if (s == 2 || s == 6) throw std::runtime_error("shard " +
                                                       std::to_string(s));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 2");
    }
  }
}

// A pool of T threads is the caller plus T - 1 workers. Two shards that
// each wait for the other to start can only finish if two threads run
// them at once, and a 2-thread pool has one worker, so the caller must
// run one of them inside wait().
TEST(ThreadPoolTest, CallerRunsShardsInsideWait) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::vector<std::thread::id> ran_on(2);
  pool.run_shards(2, [&](int s) {
    ran_on[static_cast<std::size_t>(s)] = std::this_thread::get_id();
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < 2 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  });
  EXPECT_EQ(started.load(), 2);
  EXPECT_NE(ran_on[0], ran_on[1]) << "the shards must have overlapped";
  EXPECT_TRUE(ran_on[0] == caller || ran_on[1] == caller)
      << "the caller ran no shard";
}

TEST(ThreadPoolTest, InlinePoolRunsAndPropagatesExceptions) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  std::vector<int> order;
  const std::thread::id caller = std::this_thread::get_id();
  pool.run_shards(4, [&](int s) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(s);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_THROW(
      pool.run_shards(2, [](int) { throw std::runtime_error("inline"); }),
      std::runtime_error);
}

TEST(ThreadPoolTest, TeardownWhileIdle) {
  auto pool = std::make_unique<ThreadPool>(4);
  pool->run_shards(4, [](int) {});
  pool.reset();  // workers parked or spinning; must join cleanly
  SUCCEED();
}

TEST(ThreadPoolTest, TeardownNeverUsed) {
  ThreadPool pool(3);
  SUCCEED();  // destructor joins workers that never saw a batch
}

TEST(ThreadPoolTest, TeardownMidBatchDrainsEveryTask) {
  std::vector<std::atomic<int>> runs(16);
  for (auto& r : runs) r.store(0);
  {
    ThreadPool pool(4);
    pool.begin(16, [&](int s) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      runs[s].fetch_add(1);
    });
    // Destroyed without wait(): the destructor must drain the in-flight
    // batch before joining, never dropping or double-running a shard.
  }
  for (int s = 0; s < 16; ++s) EXPECT_EQ(runs[s].load(), 1);
}

TEST(ThreadPoolTest, DefaultThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::default_threads(), 1);
}

}  // namespace
}  // namespace sorn
