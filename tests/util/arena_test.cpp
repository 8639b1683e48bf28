// SlotArena (util/arena.h): slot recycling that keeps grown capacity and
// references that survive growth.
#include "util/arena.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sorn {
namespace {

TEST(SlotArenaTest, ReleasedSlotsAreRecycled) {
  SlotArena<int> arena;
  const std::uint32_t a = arena.allocate();
  const std::uint32_t b = arena.allocate();
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.live(), 2u);
  arena.release(a);
  EXPECT_EQ(arena.live(), 1u);
  // The freed index comes back before any new slot is created.
  EXPECT_EQ(arena.allocate(), a);
  EXPECT_EQ(arena.capacity(), 2u);
}

TEST(SlotArenaTest, RecycledObjectKeepsGrownCapacity) {
  SlotArena<std::vector<int>> arena;
  const std::uint32_t i = arena.allocate();
  arena[i].resize(1000);
  const std::size_t grown = arena[i].capacity();
  arena.release(i);
  // The object is recycled, not reconstructed: its buffer survives, so
  // the next user's assign/resize within that capacity is heap-free.
  const std::uint32_t j = arena.allocate();
  EXPECT_EQ(j, i);
  EXPECT_GE(arena[j].capacity(), grown);
  // Caller responsibility: recycled contents must be re-initialized.
  arena[j].assign(10, 7);
  EXPECT_EQ(arena[j].size(), 10u);
  EXPECT_EQ(arena[j][9], 7);
}

TEST(SlotArenaTest, ReferencesSurviveGrowth) {
  SlotArena<std::string> arena;
  const std::uint32_t first = arena.allocate();
  arena[first] = "pinned";
  const std::string* addr = &arena[first];
  for (int i = 0; i < 1000; ++i) arena.allocate();
  EXPECT_EQ(&arena[first], addr) << "deque storage must not relocate slots";
  EXPECT_EQ(arena[first], "pinned");
}

TEST(SlotArenaTest, MemoryBytesTracksSlots) {
  SlotArena<std::uint64_t> arena;
  EXPECT_EQ(arena.memory_bytes(), 0u);
  for (int i = 0; i < 16; ++i) arena.allocate();
  EXPECT_GE(arena.memory_bytes(), 16 * sizeof(std::uint64_t));
}

}  // namespace
}  // namespace sorn
