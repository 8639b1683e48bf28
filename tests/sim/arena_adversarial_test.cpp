// Adversarial SlotArena churn: a seeded allocate/release interleave, the
// access pattern flow records see as flows open and complete. (The VOQ's
// cell storage has its own adversarial cases in voq_test.)
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/arena.h"
#include "util/rng.h"

namespace sorn {
namespace {

TEST(ArenaAdversarialTest, SlotArenaRecyclesIndicesUnderChurn) {
  // FlowRecord-style churn: allocate/release in a seeded order; released
  // indices must be recycled before the arena grows, and live slots keep
  // their contents across unrelated churn.
  SlotArena<std::vector<int>> arena;
  Rng rng(77);
  std::vector<std::uint32_t> live;
  for (int step = 0; step < 5000; ++step) {
    if (live.empty() || rng.next_below(100) < 50) {
      const std::uint32_t idx = arena.allocate();
      arena[idx].assign(3, static_cast<int>(idx));
      live.push_back(idx);
    } else {
      const std::size_t pick = rng.next_below(live.size());
      const std::uint32_t idx = live[pick];
      ASSERT_EQ(arena[idx].size(), 3u);
      ASSERT_EQ(arena[idx][0], static_cast<int>(idx));
      arena.release(idx);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(arena.live(), live.size());
  EXPECT_LE(arena.capacity(), 5000u);
}

}  // namespace
}  // namespace sorn
