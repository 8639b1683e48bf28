// Exact equality of two demand models, as far as any consumer can see:
// the visited nonzeros (positions and bits), every row and column sum,
// the total, and seeded sample_pair / sample_dst sequences. The sparse
// overload also compares the stored entry counts, which include the
// exact zeros a merge may store.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "traffic/demand_model.h"
#include "traffic/sparse_demand.h"
#include "util/rng.h"

namespace sorn {

inline void expect_same_demand(const DemandModel& got,
                               const DemandModel& want,
                               const std::string& what) {
  const NodeId n = want.node_count();
  ASSERT_EQ(got.node_count(), n) << what;
  using Entry = std::tuple<NodeId, NodeId, double>;
  std::vector<Entry> got_entries;
  std::vector<Entry> want_entries;
  got.for_each_nonzero([&got_entries](NodeId i, NodeId j, double d) {
    got_entries.emplace_back(i, j, d);
  });
  want.for_each_nonzero([&want_entries](NodeId i, NodeId j, double d) {
    want_entries.emplace_back(i, j, d);
  });
  // EXPECT_EQ on doubles is exact: bit identity, not tolerance.
  EXPECT_EQ(got_entries, want_entries) << what;
  EXPECT_EQ(got.total(), want.total()) << what;
  EXPECT_EQ(got.max_node_load(), want.max_node_load()) << what;
  for (NodeId i = 0; i < n; ++i) {
    EXPECT_EQ(got.row_sum(i), want.row_sum(i)) << what << " row " << i;
    EXPECT_EQ(got.col_sum(i), want.col_sum(i)) << what << " col " << i;
  }
  if (want.total() > 0.0) {
    Rng got_rng(17);
    Rng want_rng(17);
    for (int k = 0; k < 300; ++k) {
      ASSERT_EQ(got.sample_pair(got_rng), want.sample_pair(want_rng))
          << what << " draw " << k;
    }
  }
  for (NodeId src = 0; src < n; ++src) {
    if (!(want.row_sum(src) > 0.0)) continue;
    Rng got_rng(src + 5);
    Rng want_rng(src + 5);
    for (int k = 0; k < 20; ++k) {
      ASSERT_EQ(got.sample_dst(src, got_rng), want.sample_dst(src, want_rng))
          << what << " src " << src << " draw " << k;
    }
  }
}

inline void expect_same_demand(const SparseDemand& got,
                               const SparseDemand& want,
                               const std::string& what) {
  EXPECT_EQ(got.nonzero_count(), want.nonzero_count()) << what;
  expect_same_demand(static_cast<const DemandModel&>(got),
                     static_cast<const DemandModel&>(want), what);
}

}  // namespace sorn
