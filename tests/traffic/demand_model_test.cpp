// Cross-backend byte-identity: for every scenario pattern generator the
// dense, sparse and procedural backends must agree BIT-FOR-BIT on every
// entry, every statistic, and every seeded sample sequence. These are the
// golden-value tests that pin the contract demand_model.h documents — any
// fold-order or clamp-semantics regression in a backend shows up here as
// an exact-equality failure at small N.
#include "traffic/demand_model.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "topo/clique.h"
#include "topo/hierarchy.h"
#include "traffic/patterns.h"
#include "traffic/procedural_demand.h"
#include "traffic/same_demand.h"
#include "traffic/sparse_demand.h"
#include "traffic/traffic_matrix.h"

namespace sorn {
namespace {

struct BackendSet {
  std::string name;
  std::unique_ptr<DemandModel> dense;
  std::unique_ptr<DemandModel> sparse;
  std::unique_ptr<DemandModel> procedural;

  std::vector<const DemandModel*> all() const {
    return {dense.get(), sparse.get(), procedural.get()};
  }
};

// Every generator the scenario layer can select, at a small N where the
// dense reference is cheap.
std::vector<BackendSet> scenario_patterns() {
  std::vector<BackendSet> sets;
  {
    BackendSet s;
    s.name = "uniform";
    s.dense = patterns::make_uniform(24, DemandBackend::kDense);
    s.sparse = patterns::make_uniform(24, DemandBackend::kSparse);
    s.procedural = patterns::make_uniform(24, DemandBackend::kProcedural);
    sets.push_back(std::move(s));
  }
  {
    const auto cliques = CliqueAssignment::contiguous(24, 4);
    BackendSet s;
    s.name = "locality_mix";
    s.dense = patterns::make_locality_mix(cliques, 0.7, DemandBackend::kDense);
    s.sparse =
        patterns::make_locality_mix(cliques, 0.7, DemandBackend::kSparse);
    s.procedural =
        patterns::make_locality_mix(cliques, 0.7, DemandBackend::kProcedural);
    sets.push_back(std::move(s));
  }
  {
    // x = 1.0: inter demand vanishes, the sparse support is genuinely
    // sparse, and the diagonal-adjacent clamp paths differ most.
    const auto cliques = CliqueAssignment::contiguous(24, 4);
    BackendSet s;
    s.name = "locality_mix_x1";
    s.dense = patterns::make_locality_mix(cliques, 1.0, DemandBackend::kDense);
    s.sparse =
        patterns::make_locality_mix(cliques, 1.0, DemandBackend::kSparse);
    s.procedural =
        patterns::make_locality_mix(cliques, 1.0, DemandBackend::kProcedural);
    sets.push_back(std::move(s));
  }
  {
    const auto cliques = CliqueAssignment::contiguous(24, 4);
    BackendSet s;
    s.name = "clique_ring";
    s.dense = patterns::make_clique_ring(cliques, 0.5, 0.6,
                                         DemandBackend::kDense);
    s.sparse = patterns::make_clique_ring(cliques, 0.5, 0.6,
                                          DemandBackend::kSparse);
    s.procedural = patterns::make_clique_ring(cliques, 0.5, 0.6,
                                              DemandBackend::kProcedural);
    sets.push_back(std::move(s));
  }
  {
    const Hierarchy h = Hierarchy::regular(24, 2, 3);
    BackendSet s;
    s.name = "hier_locality_mix";
    s.dense =
        patterns::make_hier_locality_mix(h, 0.5, 0.3, DemandBackend::kDense);
    s.sparse =
        patterns::make_hier_locality_mix(h, 0.5, 0.3, DemandBackend::kSparse);
    s.procedural = patterns::make_hier_locality_mix(
        h, 0.5, 0.3, DemandBackend::kProcedural);
    sets.push_back(std::move(s));
  }
  return sets;
}

TEST(DemandModelGolden, FactoriesProduceTheRequestedBackend) {
  for (const BackendSet& s : scenario_patterns()) {
    EXPECT_EQ(s.dense->backend(), DemandBackend::kDense) << s.name;
    EXPECT_EQ(s.sparse->backend(), DemandBackend::kSparse) << s.name;
    EXPECT_EQ(s.procedural->backend(), DemandBackend::kProcedural) << s.name;
  }
}

TEST(DemandModelGolden, EntriesAreBitIdenticalAcrossBackends) {
  for (const BackendSet& s : scenario_patterns()) {
    const NodeId n = s.dense->node_count();
    for (const DemandModel* m : s.all()) ASSERT_EQ(m->node_count(), n);
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        const double want = s.dense->at(i, j);
        // EXPECT_EQ on doubles is exact — bit identity, not tolerance.
        EXPECT_EQ(s.sparse->at(i, j), want)
            << s.name << " sparse (" << i << "," << j << ")";
        EXPECT_EQ(s.procedural->at(i, j), want)
            << s.name << " procedural (" << i << "," << j << ")";
      }
    }
  }
}

TEST(DemandModelGolden, StatisticsAreBitIdenticalAcrossBackends) {
  const auto cliques = CliqueAssignment::contiguous(24, 4);
  const auto coarse = CliqueAssignment::contiguous(24, 2);
  for (const BackendSet& s : scenario_patterns()) {
    const NodeId n = s.dense->node_count();
    for (const DemandModel* m : {s.sparse.get(), s.procedural.get()}) {
      EXPECT_EQ(m->total(), s.dense->total()) << s.name;
      EXPECT_EQ(m->max_node_load(), s.dense->max_node_load()) << s.name;
      for (NodeId i = 0; i < n; ++i) {
        EXPECT_EQ(m->row_sum(i), s.dense->row_sum(i))
            << s.name << " row " << i;
        EXPECT_EQ(m->col_sum(i), s.dense->col_sum(i))
            << s.name << " col " << i;
      }
      // Clique-level views through both the generating assignment and a
      // coarser re-grouping (exercises the generic fold paths).
      for (const CliqueAssignment* ca : {&cliques, &coarse}) {
        EXPECT_EQ(m->locality_ratio(*ca), s.dense->locality_ratio(*ca))
            << s.name;
        EXPECT_EQ(m->aggregate(*ca), s.dense->aggregate(*ca)) << s.name;
      }
    }
  }
}

TEST(DemandModelGolden, NonzeroVisitMatchesTheDenseRowMajorWalk) {
  for (const BackendSet& s : scenario_patterns()) {
    std::vector<std::tuple<NodeId, NodeId, double>> want;
    s.dense->for_each_nonzero([&want](NodeId i, NodeId j, double d) {
      want.emplace_back(i, j, d);
    });
    for (const DemandModel* m : {s.sparse.get(), s.procedural.get()}) {
      std::vector<std::tuple<NodeId, NodeId, double>> got;
      m->for_each_nonzero([&got](NodeId i, NodeId j, double d) {
        got.emplace_back(i, j, d);
      });
      EXPECT_EQ(got, want) << s.name;
    }
  }
}

TEST(DemandModelGolden, SeededSamplePairSequencesAreIdentical) {
  constexpr int kDraws = 4000;
  for (const BackendSet& s : scenario_patterns()) {
    Rng dense_rng(42), sparse_rng(42), proc_rng(42);
    std::map<std::pair<NodeId, NodeId>, int> histogram;
    for (int k = 0; k < kDraws; ++k) {
      const auto want = s.dense->sample_pair(dense_rng);
      EXPECT_EQ(s.sparse->sample_pair(sparse_rng), want)
          << s.name << " draw " << k;
      EXPECT_EQ(s.procedural->sample_pair(proc_rng), want)
          << s.name << " draw " << k;
      ++histogram[want];
    }
    // The identical sequences imply identical histograms; sanity-check the
    // distribution actually spread over the support.
    EXPECT_GT(histogram.size(), 16u) << s.name;
    for (const auto& [pair, count] : histogram)
      EXPECT_NE(pair.first, pair.second)
          << s.name << ": diagonal pair sampled";
  }
}

TEST(DemandModelGolden, SeededSampleDstSequencesAreIdentical) {
  constexpr int kDraws = 200;
  for (const BackendSet& s : scenario_patterns()) {
    const NodeId n = s.dense->node_count();
    for (NodeId src = 0; src < n; ++src) {
      if (!(s.dense->row_sum(src) > 0.0)) continue;
      Rng dense_rng(src + 7), sparse_rng(src + 7), proc_rng(src + 7);
      for (int k = 0; k < kDraws; ++k) {
        const NodeId want = s.dense->sample_dst(src, dense_rng);
        EXPECT_EQ(s.sparse->sample_dst(src, sparse_rng), want)
            << s.name << " src " << src << " draw " << k;
        EXPECT_EQ(s.procedural->sample_dst(src, proc_rng), want)
            << s.name << " src " << src << " draw " << k;
      }
    }
  }
}

TEST(DemandModelGolden, ClonePreservesBackendAndValues) {
  for (const BackendSet& s : scenario_patterns()) {
    for (const DemandModel* m : s.all()) {
      const std::unique_ptr<DemandModel> copy = m->clone();
      EXPECT_EQ(copy->backend(), m->backend()) << s.name;
      EXPECT_EQ(copy->total(), m->total()) << s.name;
      EXPECT_EQ(copy->at(0, 1), m->at(0, 1)) << s.name;
      // Seeded sampling through the clone matches the original.
      Rng a(3), b(3);
      EXPECT_EQ(copy->sample_pair(a), m->sample_pair(b)) << s.name;
    }
  }
}

TEST(DemandModelGolden, ProceduralStateIsFarSmallerThanDense) {
  // N = 512 uniform: the dense array alone is N^2 doubles (2 MB). The
  // procedural form is O(N) even after its lazy sampling caches build.
  const auto dense = patterns::make_uniform(512, DemandBackend::kDense);
  const auto proc = patterns::make_uniform(512, DemandBackend::kProcedural);
  Rng rng(1);
  (void)proc->sample_pair(rng);
  (void)proc->sample_dst(3, rng);
  EXPECT_LT(proc->memory_bytes(), dense->memory_bytes() / 8);
}

TEST(DemandModelGolden, ProceduralFallsBackToSparseOffCanonicalLayout) {
  // Interleaved (non-contiguous) cliques are outside the procedural
  // closed form; the factory must silently produce the sparse backend
  // with the same values instead.
  std::vector<CliqueId> assign;
  for (NodeId i = 0; i < 8; ++i) assign.push_back(i % 2);
  const CliqueAssignment cliques{std::move(assign)};
  ASSERT_FALSE(ProceduralDemand::supports(cliques));
  const auto fallback =
      patterns::make_locality_mix(cliques, 0.6, DemandBackend::kProcedural);
  const auto dense =
      patterns::make_locality_mix(cliques, 0.6, DemandBackend::kDense);
  EXPECT_EQ(fallback->backend(), DemandBackend::kSparse);
  for (NodeId i = 0; i < 8; ++i)
    for (NodeId j = 0; j < 8; ++j)
      EXPECT_EQ(fallback->at(i, j), dense->at(i, j));
}

TEST(DemandModelGolden, SparseFromModelRoundTripsTheDenseMatrix) {
  // from_model appends each entry of the row-major visit straight to the
  // CSR arrays; the Builder reaches them through its dense row buffer.
  // From every backend of every generator, and from raw (unnormalized)
  // demand with empty rows, the copy must equal its source, and both
  // paths must store the same arrays with and without normalization.
  auto builder_copy = [](const DemandModel& model, bool normalize) {
    SparseDemand::Builder builder(model.node_count());
    model.for_each_nonzero(
        [&builder](NodeId i, NodeId j, double d) { builder.set(i, j, d); });
    return builder.build(normalize);
  };
  auto check = [&](const DemandModel& model, const std::string& what) {
    for (const bool normalize : {false, true}) {
      const std::string label = what + (normalize ? " normalized" : " as is");
      const auto copy = SparseDemand::from_model(model, normalize);
      expect_same_demand(*copy, *builder_copy(model, normalize), label);
      if (!normalize) expect_same_demand(*copy, model, label + " vs source");
    }
  };
  for (const BackendSet& s : scenario_patterns()) {
    check(*s.dense, s.name + " dense");
    check(*s.sparse, s.name + " sparse");
    check(*s.procedural, s.name + " procedural");
  }
  Rng rng(29);
  TrafficMatrix raw(24);
  for (NodeId i = 0; i < 24; ++i) {
    if (i % 3 == 1) continue;  // an empty row
    for (NodeId j = 0; j < 24; ++j)
      if (rng.next_double() < 0.4) raw.set(i, j, 3.0 * rng.next_double());
  }
  check(raw, "raw dense");
  check(*SparseDemand::from_model(raw), "raw sparse");
  TrafficMatrix normalized = raw;
  normalized.normalize_node_load();
  expect_same_demand(*SparseDemand::from_model(raw, /*normalize=*/true),
                     normalized, "raw normalized vs the dense normalization");
  check(TrafficMatrix(24), "all zero");

  // A CSR source is copied array by array, scaled by its own folds; the
  // overload with a map always visits. Both must store the same arrays,
  // from a CSR with no stored 0.0 and from one holding a 0.0 (a blend of
  // half a denormal with nothing: the array copy must drop it as the
  // visit skips it), written fresh or into a reused matrix whose sampling
  // caches were built.
  auto visit_copy = [](const DemandModel& model, bool normalize) {
    return SparseDemand::from_model(model, normalize,
                                    [](NodeId, NodeId, double d) { return d; });
  };
  TrafficMatrix planted = raw;
  planted.set(23, 22, std::numeric_limits<double>::denorm_min());
  const auto with_zero = SparseDemand::blend(
      0.5, *SparseDemand::from_model(planted), 0.5, SparseDemand(24));
  ASSERT_EQ(with_zero->nonzero_count(),
            SparseDemand::from_model(raw)->nonzero_count() + 1);
  const auto no_zero = SparseDemand::from_model(raw);
  for (const SparseDemand* csr : {no_zero.get(), with_zero.get()}) {
    const std::string what =
        csr == no_zero.get() ? "csr" : "csr with a stored 0.0";
    for (const bool normalize : {false, true}) {
      const std::string label = what + (normalize ? " normalized" : " as is");
      const auto want = visit_copy(*csr, normalize);
      expect_same_demand(*SparseDemand::from_model(*csr, normalize), *want,
                         label);
      auto reused = SparseDemand::from_model(normalized);
      Rng rng(3);
      (void)reused->sample_pair(rng);  // builds the sampling caches
      expect_same_demand(
          *SparseDemand::from_model(*csr, normalize, std::move(reused)), *want,
          label + " into a reused matrix");
    }
    // The failure mask's array pass against the visit whose map zeroes
    // every entry of a dropped node.
    std::vector<std::uint8_t> dropped(24, 0);
    dropped[1] = dropped[22] = 1;
    auto zero_dropped = [&dropped](NodeId i, NodeId j, double d) {
      const bool gone = dropped[static_cast<std::size_t>(i)] != 0 ||
                        dropped[static_cast<std::size_t>(j)] != 0;
      return gone ? 0.0 : d;
    };
    expect_same_demand(*csr->without_nodes(dropped),
                       *SparseDemand::from_model(*csr, false, zero_dropped),
                       what + " without nodes 1 and 22");
  }
}

}  // namespace
}  // namespace sorn
