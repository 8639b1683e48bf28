#include "routing/path.h"

#include <gtest/gtest.h>

#include "routing/rotor_routing.h"
#include "sim/cell.h"
#include "topo/schedule_builder.h"
#include "util/rng.h"

namespace sorn {
namespace {

TEST(PathTest, BasicConstruction) {
  const Path p = Path::of({0, 3, 7, 6});
  EXPECT_EQ(p.size(), 4);
  EXPECT_EQ(p.hop_count(), 3);
  EXPECT_EQ(p.src(), 0);
  EXPECT_EQ(p.dst(), 6);
  EXPECT_EQ(p.at(1), 3);
}

TEST(PathTest, CollapsesConsecutiveDuplicates) {
  const Path p = Path::of({0, 0, 5, 5, 2});
  EXPECT_EQ(p.size(), 3);
  EXPECT_EQ(p.at(0), 0);
  EXPECT_EQ(p.at(1), 5);
  EXPECT_EQ(p.at(2), 2);
}

TEST(PathTest, ContainsAndUsesEdge) {
  const Path p = Path::of({1, 4, 6});
  EXPECT_TRUE(p.contains(4));
  EXPECT_FALSE(p.contains(5));
  EXPECT_TRUE(p.uses_edge(1, 4));
  EXPECT_TRUE(p.uses_edge(4, 6));
  EXPECT_FALSE(p.uses_edge(6, 4));  // directed
  EXPECT_FALSE(p.uses_edge(1, 6));
}

TEST(PathTest, EqualityIsElementwise) {
  EXPECT_EQ(Path::of({1, 2, 3}), Path::of({1, 2, 3}));
  EXPECT_FALSE(Path::of({1, 2}) == Path::of({1, 2, 3}));
  EXPECT_FALSE(Path::of({1, 2, 4}) == Path::of({1, 2, 3}));
}

TEST(PathTest, HopBudgetEnforced) {
  Path p;
  for (NodeId i = 0; i < Path::kMaxNodes; ++i) p.push_back(i);
  EXPECT_DEATH(p.push_back(99), "hop budget");
}

TEST(PathTest, EmptyPathHasZeroHops) {
  const Path p;
  EXPECT_EQ(p.size(), 0);
  EXPECT_EQ(p.hop_count(), 0);
}

TEST(PathTest, SevenHopRotorPathRoundTripsThroughACell) {
  // One lane of a rotor schedule is the shift i -> i + 1 for a whole
  // dwell, so the only route from 0 to 7 is the longest path a cell
  // stores: 7 hops after the source.
  const CircuitSchedule schedule = ScheduleBuilder::rotor(16, 4);
  const RotorRouter router(&schedule, /*lanes=*/1, /*max_hops=*/7);
  Rng rng(1);
  const Path path = router.route(0, 7, 0, rng);
  ASSERT_EQ(path.hop_count(), 7);
  Cell cell(/*flow=*/1, /*seq=*/0, path, /*now=*/0);
  EXPECT_EQ(cell.hop_count(), 7);
  EXPECT_EQ(cell.dst(), 7);
  for (int hop = 0; hop < 7; ++hop) {
    ASSERT_EQ(cell.hop(), hop);
    ASSERT_FALSE(cell.at_destination());
    EXPECT_EQ(cell.next_hop(), path.at(hop + 1));
    cell.advance();
    EXPECT_EQ(cell.current(), path.at(hop + 1));
  }
  EXPECT_TRUE(cell.at_destination());
  EXPECT_FALSE(cell.ecn()) << "advancing never spills into the ECN bit";
}

}  // namespace
}  // namespace sorn
