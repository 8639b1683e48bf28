// The seven builtin designs: each factory maps a ScenarioConfig onto the
// exact construction the examples and benches used to hand-roll, so a
// scenario built through the registry is byte-for-byte the fabric those
// binaries simulated before the port.
#include <cmath>
#include <memory>
#include <utility>

#include "analysis/models.h"
#include "control/reconfig.h"
#include "routing/hier_routing.h"
#include "routing/orn_mixed_routing.h"
#include "routing/rotor_routing.h"
#include "routing/vlb.h"
#include "scenario/design.h"
#include "scenario/scenario_config.h"
#include "topo/schedule_builder.h"
#include "util/table.h"

namespace sorn {
namespace {

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

LbMode lb_mode_of(const ScenarioConfig& config) {
  return config.lb_first_available ? LbMode::kFirstAvailable : LbMode::kRandom;
}

// ---- sorn ----------------------------------------------------------------

class SornDesign final : public Design {
 public:
  std::string name() const override { return "sorn"; }
  std::string description() const override {
    return "flat SORN: clique schedule with oversubscription q = q*(x) "
           "(the paper's design)";
  }

  bool build(const ScenarioConfig& config, BuiltDesign* out,
             std::string* error) const override {
    if (config.overrides.cliques == nullptr &&
        config.nodes % config.cliques != 0) {
      return fail(error, format("sorn: nodes (%lld) must divide into %lld "
                                "equal cliques",
                                static_cast<long long>(config.nodes),
                                static_cast<long long>(config.cliques)));
    }
    if (!config.inter_clique_weights.empty() &&
        config.inter_clique_weights.size() !=
            static_cast<std::size_t>(config.cliques) *
                static_cast<std::size_t>(config.cliques)) {
      return fail(error,
                  format("sorn: inter_clique_weights must be cliques x "
                         "cliques = %lld values (got %zu)",
                         static_cast<long long>(config.cliques) *
                             static_cast<long long>(config.cliques),
                         config.inter_clique_weights.size()));
    }

    const Rational q = config.sorn_q();
    if (q.num < q.den) {
      return fail(error, format("sorn: q (%lld/%lld) must be >= 1",
                                static_cast<long long>(q.num),
                                static_cast<long long>(q.den)));
    }
    CliqueAssignment cliques =
        config.overrides.cliques != nullptr
            ? *config.overrides.cliques
            : CliqueAssignment::contiguous(config.nodes, config.cliques);
    if (cliques.node_count() != config.nodes) {
      return fail(error, format("sorn: the clique override covers %lld "
                                "nodes, not %lld",
                                static_cast<long long>(cliques.node_count()),
                                static_cast<long long>(config.nodes)));
    }
    const CliqueId nc = cliques.clique_count();
    ScheduleBuilder::WeightedOptions weighted;
    weighted.demand_alpha = config.weighted_alpha;
    if (!config.inter_clique_weights.empty()) {
      if (nc < 2 || config.nodes / nc < 2)
        return fail(error, "sorn: inter_clique_weights need at least 2 "
                           "cliques of at least 2 nodes");
      if (!(config.weighted_alpha >= 0.0 && config.weighted_alpha < 1.0))
        return fail(error, "sorn: weighted_alpha must be in [0, 1)");
      for (const double w : config.inter_clique_weights)
        if (!(w >= 0.0 && std::isfinite(w)))
          return fail(error, "sorn: inter_clique_weights must be finite "
                             "and >= 0");
    }
    // The schedule's period, checked before the builder would abort on it.
    const std::int64_t period =
        ScheduleBuilder::sorn_period(nc, config.nodes / nc, q,
                                     config.inter_clique_weights, weighted);
    if (period > ScheduleBuilder::kMaxSornPeriod) {
      return fail(error,
                  format("sorn: %lld nodes in %lld cliques at q = %lld/%lld "
                         "need a schedule period of %lld slots (cap %lld)",
                         static_cast<long long>(config.nodes),
                         static_cast<long long>(nc),
                         static_cast<long long>(q.num),
                         static_cast<long long>(q.den),
                         static_cast<long long>(period),
                         static_cast<long long>(
                             ScheduleBuilder::kMaxSornPeriod)));
    }

    auto fabric = std::make_shared<SornFabric>(
        build_sorn_fabric(std::move(cliques), q, config.inter_clique_weights,
                          lb_mode_of(config), weighted));
    out->schedule = fabric->schedule.get();
    out->router = fabric->router.get();
    out->cliques = fabric->cliques.get();
    out->predicted_throughput =
        analysis::sorn_throughput_at_q(config.locality_x, q.value());
    out->summary = format("q = %lld/%lld, period %lld slots",
                          static_cast<long long>(q.num),
                          static_cast<long long>(q.den),
                          static_cast<long long>(fabric->schedule->period()));
    out->set_failure_view = [fabric](const FailureView* view) {
      fabric->router->set_failure_view(view);
    };
    out->owner = std::move(fabric);
    return true;
  }
};

// ---- hier ----------------------------------------------------------------

class HierDesign final : public Design {
 public:
  std::string name() const override { return "hier"; }
  std::string description() const override {
    return "two-level hierarchical SORN: pods within clusters, slot shares "
           "derived from the locality split (paper Sec. 6)";
  }

  bool build(const ScenarioConfig& config, BuiltDesign* out,
             std::string* error) const override {
    const auto nodes = static_cast<long long>(config.nodes);
    const auto clusters = static_cast<long long>(config.clusters);
    const auto pods = static_cast<long long>(config.pods_per_cluster);
    if (clusters < 1 || pods < 1 || nodes % (clusters * pods) != 0) {
      return fail(error, format("hier: nodes (%lld) must divide into %lld "
                                "clusters x %lld pods",
                                nodes, clusters, pods));
    }
    const double x1 = config.pod_locality_x1;
    const double x2 = config.cluster_locality_x2;
    if (!(x1 >= 0.0 && x1 <= 1.0 && x2 >= 0.0 && x2 <= 1.0))
      return fail(error, "hier: pod_locality_x1 and cluster_locality_x2 "
                         "must be in [0, 1]");

    // The shares come from the locality split; the schedule builder would
    // abort on ones the geometry cannot take, or on too long a period.
    const auto optimal = analysis::hier_optimal_shares(x1, x2);
    const ScheduleBuilder::HierShares shares{optimal.intra, optimal.inter,
                                             optimal.global};
    const std::string problem = ScheduleBuilder::hier_problem(
        static_cast<NodeId>(nodes / (clusters * pods)),
        config.pods_per_cluster, config.clusters, shares,
        ScheduleBuilder::kMaxHierPeriod);
    if (!problem.empty()) {
      return fail(error, format("hier: %s; nodes %lld, clusters %lld, "
                                "pods_per_cluster %lld, pod_locality_x1 %g, "
                                "cluster_locality_x2 %g",
                                problem.c_str(), nodes, clusters, pods, x1,
                                x2));
    }

    struct Holder {
      Hierarchy hierarchy;
      CliqueAssignment pods;
      CircuitSchedule schedule;
      HierSornRouter router;
      Holder(Hierarchy h, ScheduleBuilder::HierShares shares, LbMode mode)
          : hierarchy(std::move(h)),
            pods(hierarchy.pods()),
            schedule(ScheduleBuilder::sorn_hierarchical(hierarchy, shares)),
            router(&schedule, &hierarchy, mode) {}
    };
    auto holder = std::make_shared<Holder>(
        Hierarchy::regular(config.nodes, config.clusters,
                           config.pods_per_cluster),
        shares, lb_mode_of(config));
    out->schedule = &holder->schedule;
    out->router = &holder->router;
    out->cliques = &holder->pods;
    out->hierarchy = &holder->hierarchy;
    out->predicted_throughput = analysis::hier_throughput(x1, x2);
    out->summary = format("shares %lld:%lld:%lld, period %lld slots",
                          static_cast<long long>(shares.intra),
                          static_cast<long long>(shares.inter),
                          static_cast<long long>(shares.global),
                          static_cast<long long>(holder->schedule.period()));
    out->set_failure_view = [holder](const FailureView* view) {
      holder->router.set_failure_view(view);
    };
    out->owner = std::move(holder);
    return true;
  }
};

// ---- vlb / rotor (round-robin schedules + VLB routing) -------------------

struct VlbHolder {
  CircuitSchedule schedule;
  VlbRouter router;
  VlbHolder(CircuitSchedule s, LbMode mode)
      : schedule(std::move(s)), router(&schedule, mode) {}
};

// rotor and opera hold each of their nodes - 1 rounds for dwell_slots:
// the builder's slot order has (nodes - 1) x dwell_slots entries, checked
// against its cap before it allocates them.
bool check_dwell(const char* design, const ScenarioConfig& config,
                 std::string* error) {
  if (config.dwell_slots < 1)
    return fail(error, format("%s: dwell_slots must be >= 1", design));
  const Slot rounds = config.nodes - 1;
  if (config.dwell_slots <= ScheduleBuilder::kMaxDwellPeriod / rounds)
    return true;
  return fail(error,
              format("%s: nodes %lld at dwell_slots %lld need a schedule "
                     "period of %.0f slots (cap %lld)",
                     design, static_cast<long long>(config.nodes),
                     static_cast<long long>(config.dwell_slots),
                     static_cast<double>(rounds) *
                         static_cast<double>(config.dwell_slots),
                     static_cast<long long>(ScheduleBuilder::kMaxDwellPeriod)));
}

void fill_vlb(std::shared_ptr<VlbHolder> holder, BuiltDesign* out) {
  out->schedule = &holder->schedule;
  out->router = &holder->router;
  out->predicted_throughput = 0.5;
  out->set_failure_view = [holder](const FailureView* view) {
    holder->router.set_failure_view(view);
  };
  out->owner = std::move(holder);
}

class VlbDesign final : public Design {
 public:
  std::string name() const override { return "vlb"; }
  std::string description() const override {
    return "flat 1D ORN: round-robin schedule + 2-hop VLB (Sirius/Shoal "
           "baseline)";
  }

  bool build(const ScenarioConfig& config, BuiltDesign* out,
             std::string* error) const override {
    (void)error;
    auto holder = std::make_shared<VlbHolder>(
        ScheduleBuilder::round_robin(config.nodes), lb_mode_of(config));
    fill_vlb(holder, out);
    out->summary = format("round robin, period %lld slots",
                          static_cast<long long>(config.nodes - 1));
    return true;
  }
};

class RotorDesign final : public Design {
 public:
  std::string name() const override { return "rotor"; }
  std::string description() const override {
    return "RotorNet-style slow rotation: cyclic shifts held for "
           "dwell_slots, 2-hop VLB routing";
  }

  bool build(const ScenarioConfig& config, BuiltDesign* out,
             std::string* error) const override {
    if (!check_dwell("rotor", config, error)) return false;
    auto holder = std::make_shared<VlbHolder>(
        ScheduleBuilder::rotor(config.nodes, config.dwell_slots),
        lb_mode_of(config));
    fill_vlb(holder, out);
    out->summary =
        format("dwell %lld slots, period %lld slots",
               static_cast<long long>(config.dwell_slots),
               static_cast<long long>(holder->schedule.period()));
    return true;
  }
};

// ---- opera ---------------------------------------------------------------

// Bulk flows wait for the direct rotation circuit (Opera's split).
class OperaBulkRouter final : public Router {
 public:
  Path route(NodeId src, NodeId dst, Slot, Rng&) const override {
    return RotorRouter::route_bulk(src, dst);
  }
  int max_hops() const override { return 1; }
};

class OperaDesign final : public Design {
 public:
  std::string name() const override { return "opera"; }
  std::string description() const override {
    return "Opera-style fabric: random 1-factorization rotation, "
           "expander multi-hop for short flows, direct circuit for bulk";
  }

  bool build(const ScenarioConfig& config, BuiltDesign* out,
             std::string* error) const override {
    if (config.nodes % 2 != 0)
      return fail(error, "opera: nodes must be even (1-factorization of "
                         "the complete graph)");
    if (!check_dwell("opera", config, error)) return false;

    struct Holder {
      CircuitSchedule schedule;
      RotorRouter short_router;
      OperaBulkRouter bulk_router;
      Holder(CircuitSchedule s, int lanes, int max_hops)
          : schedule(std::move(s)), short_router(&schedule, lanes, max_hops) {}
    };
    auto holder = std::make_shared<Holder>(
        ScheduleBuilder::rotor_random(config.nodes, config.dwell_slots,
                                      config.schedule_seed),
        config.lanes, config.max_short_hops);
    out->schedule = &holder->schedule;
    out->router = &holder->short_router;
    out->bulk_router = &holder->bulk_router;
    out->predicted_throughput = analysis::kOperaThroughput;
    out->summary =
        format("dwell %lld slots, %d lanes, short hop budget %d",
               static_cast<long long>(config.dwell_slots), config.lanes,
               config.max_short_hops);
    out->set_failure_view = [holder](const FailureView* view) {
      holder->short_router.set_failure_view(view);
      holder->bulk_router.set_failure_view(view);
    };
    out->owner = std::move(holder);
    return true;
  }
};

// ---- orn-hd / orn-mixed --------------------------------------------------

// r with r^h == n, or 0 when n is not a perfect h-th power.
NodeId hd_radix(NodeId n, int h) {
  const auto r = static_cast<NodeId>(
      std::llround(std::pow(static_cast<double>(n), 1.0 / h)));
  for (NodeId cand = r > 1 ? r - 1 : 1; cand <= r + 1; ++cand) {
    NodeId p = 1;
    for (int i = 0; i < h; ++i) p *= cand;
    if (p == n) return cand;
  }
  return 0;
}

// Both ORN designs are the mixed-radix schedule and router; orn-hd is the
// case of h equal radices.
void fill_orn(NodeId nodes, const std::vector<NodeId>& radices,
              BuiltDesign* out) {
  struct Holder {
    CircuitSchedule schedule;
    OrnMixedRouter router;
    Holder(CircuitSchedule s, NodeId n, std::vector<NodeId> r)
        : schedule(std::move(s)), router(n, std::move(r)) {}
  };
  auto holder = std::make_shared<Holder>(
      ScheduleBuilder::orn_mixed(nodes, radices), nodes, radices);
  out->schedule = &holder->schedule;
  out->router = &holder->router;
  out->predicted_throughput =
      analysis::orn_hd_throughput(static_cast<int>(radices.size()));
  out->set_failure_view = [holder](const FailureView* view) {
    holder->router.set_failure_view(view);
  };
  out->owner = std::move(holder);
}

class OrnHdDesign final : public Design {
 public:
  std::string name() const override { return "orn-hd"; }
  std::string description() const override {
    return "h-dimensional optimal ORN: nodes on an r^h grid, per-dimension "
           "round robin with VLB inside each dimension";
  }

  bool build(const ScenarioConfig& config, BuiltDesign* out,
             std::string* error) const override {
    const int h = config.orn_dims;
    if (h < 1 || h > 3)
      return fail(error, format("orn-hd: orn_dims must be in [1, 3] "
                                "(got %d; paths cap at 8 nodes)",
                                h));
    const NodeId r = hd_radix(config.nodes, h);
    if (r < 2) {
      return fail(error,
                  format("orn-hd: nodes (%lld) must be r^%d for some "
                         "radix r >= 2",
                         static_cast<long long>(config.nodes), h));
    }
    fill_orn(config.nodes, std::vector<NodeId>(static_cast<std::size_t>(h), r),
             out);
    out->summary = format("%dD grid, radix %lld, period %lld slots", h,
                          static_cast<long long>(r),
                          static_cast<long long>(out->schedule->period()));
    return true;
  }
};

class OrnMixedDesign final : public Design {
 public:
  std::string name() const override { return "orn-mixed"; }
  std::string description() const override {
    return "mixed-radix ORN: per-dimension round robin over radices "
           "r1 x r2 x ... = nodes (non-square node counts)";
  }

  bool build(const ScenarioConfig& config, BuiltDesign* out,
             std::string* error) const override {
    std::vector<NodeId> radices = config.radices;
    if (radices.empty()) radices = factor(config.nodes);
    if (radices.empty() || radices.size() > 3) {
      return fail(error,
                  format("orn-mixed: need 1..3 radices multiplying to "
                         "nodes (%lld); give `radices` explicitly",
                         static_cast<long long>(config.nodes)));
    }
    NodeId product = 1;
    for (const NodeId r : radices) {
      if (r < 2) return fail(error, "orn-mixed: every radix must be >= 2");
      product *= r;
    }
    if (product != config.nodes) {
      return fail(error,
                  format("orn-mixed: radices multiply to %lld, not nodes "
                         "(%lld)",
                         static_cast<long long>(product),
                         static_cast<long long>(config.nodes)));
    }

    fill_orn(config.nodes, radices, out);
    std::string dims;
    for (std::size_t i = 0; i < radices.size(); ++i) {
      if (i > 0) dims += "x";
      dims += format("%lld", static_cast<long long>(radices[i]));
    }
    out->summary = format("radices %s, period %lld slots", dims.c_str(),
                          static_cast<long long>(out->schedule->period()));
    return true;
  }

 private:
  // Factor n into at most 3 radices >= 2, largest-balanced first: peel the
  // largest divisor <= sqrt(remainder) repeatedly. {} when impossible.
  static std::vector<NodeId> factor(NodeId n) {
    if (n < 2) return {};
    std::vector<NodeId> out;
    NodeId rest = n;
    while (rest > 1 && out.size() < 3) {
      if (out.size() == 2) {  // last dimension takes the remainder
        out.push_back(rest);
        rest = 1;
        break;
      }
      NodeId best = rest;  // prime remainder: single dimension
      for (NodeId d = 2; d * d <= rest; ++d)
        if (rest % d == 0) best = rest / d;
      out.push_back(best);
      rest /= best;
    }
    if (rest != 1) return {};
    return out;
  }
};

}  // namespace

void register_builtin_designs(DesignRegistry& registry) {
  registry.add(std::make_unique<SornDesign>());
  registry.add(std::make_unique<HierDesign>());
  registry.add(std::make_unique<VlbDesign>());
  registry.add(std::make_unique<RotorDesign>());
  registry.add(std::make_unique<OperaDesign>());
  registry.add(std::make_unique<OrnHdDesign>());
  registry.add(std::make_unique<OrnMixedDesign>());
}

}  // namespace sorn
