#include "scenario/chaos.h"

#include <string>
#include <utility>

#include "control/control_faults.h"
#include "control/control_plane.h"
#include "control/safe_mode.h"
#include "fault/fault_injector.h"
#include "scenario/scenario_runner.h"
#include "util/rng.h"
#include "util/table.h"

namespace sorn {
namespace {

// Stream-splitting salt so the soup's shape and the sub-seeds fed to the
// simulator are independent functions of the campaign seed.
constexpr std::uint64_t kSoupSalt = 0x6368616f73536f75ULL;  // "chaosSou"

NodeId pick_other(Rng& rng, NodeId nodes, NodeId not_this) {
  NodeId other = static_cast<NodeId>(rng.next_below(
      static_cast<std::uint64_t>(nodes - 1)));
  if (other >= not_this) ++other;
  return other;
}

}  // namespace

ScenarioConfig make_chaos_config(std::uint64_t seed, const ChaosKnobs& knobs) {
  Rng rng(seed ^ kSoupSalt);
  ScenarioConfig cfg;
  const NodeId nodes = knobs.nodes;
  const Slot slots = knobs.slots;

  cfg.design = "sorn";
  cfg.nodes = nodes;
  cfg.cliques = nodes % 8 == 0 && rng.next_below(2) == 0
                    ? 8
                    : nodes % 4 == 0 ? 4 : 2;
  cfg.locality_x = 0.3 + 0.4 * rng.next_double();
  cfg.lb_first_available = rng.next_below(2) == 0;
  cfg.propagation_ns = 0;
  cfg.seed = seed;
  cfg.arrival_seed = rng.next_u64();

  cfg.workload = WorkloadKind::kFlows;
  cfg.load = 0.15 + 0.25 * rng.next_double();
  cfg.slots = slots;
  cfg.drain_slots = knobs.drain_slots;
  cfg.flow_size = FlowSizeKind::kFixed;
  cfg.fixed_flow_bytes = 1280 + 256 * rng.next_below(8);

  // Losses and outages below are recoverable end-to-end only with
  // retransmission on; keep it always on, with randomized backoff jitter.
  cfg.retransmit_timeout = 48 + static_cast<Slot>(rng.next_below(80));
  cfg.retransmit_max_attempts = 12;
  cfg.retransmit_jitter = 0.5 * rng.next_double();

  // ---- data-plane fault soup ----
  // Scripted blast in the first half, healed/restored before the horizon
  // so the bounded drain has a fighting chance; ids validated at parse
  // time against `nodes` by the runner.
  std::string script;
  const auto window = [&](Slot* at, Slot* until) {
    *at = static_cast<Slot>(rng.next_below(
        static_cast<std::uint64_t>(slots / 2)));
    *until = *at + 50 +
             static_cast<Slot>(rng.next_below(
                 static_cast<std::uint64_t>(slots / 4)));
  };
  const std::uint64_t node_faults = rng.next_below(3);
  for (std::uint64_t i = 0; i < node_faults; ++i) {
    const NodeId n = static_cast<NodeId>(rng.next_below(nodes));
    Slot at = 0, until = 0;
    window(&at, &until);
    script += format("%lld fail-node %lld\n", static_cast<long long>(at),
                     static_cast<long long>(n));
    script += format("%lld heal-node %lld\n", static_cast<long long>(until),
                     static_cast<long long>(n));
  }
  const std::uint64_t circuit_faults = rng.next_below(3);
  for (std::uint64_t i = 0; i < circuit_faults; ++i) {
    const NodeId src = static_cast<NodeId>(rng.next_below(nodes));
    const NodeId dst = pick_other(rng, nodes, src);
    Slot at = 0, until = 0;
    window(&at, &until);
    script += format("%lld fail-circuit %lld %lld\n",
                     static_cast<long long>(at), static_cast<long long>(src),
                     static_cast<long long>(dst));
    script += format("%lld heal-circuit %lld %lld\n",
                     static_cast<long long>(until),
                     static_cast<long long>(src),
                     static_cast<long long>(dst));
  }
  const std::uint64_t gray = 1 + rng.next_below(3);
  for (std::uint64_t i = 0; i < gray; ++i) {
    const NodeId src = static_cast<NodeId>(rng.next_below(nodes));
    const NodeId dst = pick_other(rng, nodes, src);
    Slot at = 0, until = 0;
    window(&at, &until);
    if (rng.next_below(2) == 0) {
      script += format("%lld degrade-circuit %lld %lld %.3f\n",
                       static_cast<long long>(at),
                       static_cast<long long>(src),
                       static_cast<long long>(dst),
                       0.05 + 0.25 * rng.next_double());
    } else {
      script += format("%lld throttle-circuit %lld %lld %.3f\n",
                       static_cast<long long>(at),
                       static_cast<long long>(src),
                       static_cast<long long>(dst),
                       0.3 + 0.6 * rng.next_double());
    }
    script += format("%lld restore-circuit %lld %lld\n",
                     static_cast<long long>(until),
                     static_cast<long long>(src),
                     static_cast<long long>(dst));
  }
  if (rng.next_below(2) == 0) {
    const NodeId src = static_cast<NodeId>(rng.next_below(nodes));
    const NodeId dst = pick_other(rng, nodes, src);
    script += format(
        "%lld flap-circuit %lld %lld %lld %lld %lld\n",
        static_cast<long long>(rng.next_below(
            static_cast<std::uint64_t>(slots / 2))),
        static_cast<long long>(src), static_cast<long long>(dst),
        static_cast<long long>(1 + rng.next_below(3)),
        static_cast<long long>(2 + rng.next_below(8)),
        static_cast<long long>(4 + rng.next_below(16)));
  }
  cfg.fault_script = std::move(script);
  if (rng.next_below(2) == 0) {
    cfg.circuit_mtbf_slots = 20000.0 + 20000.0 * rng.next_double();
    cfg.circuit_mttr_slots = 150.0 + 300.0 * rng.next_double();
  }
  cfg.fault_seed = rng.next_u64();

  // ---- control plane + its faults ----
  cfg.epoch_slots = 150 + static_cast<Slot>(rng.next_below(150));
  const std::uint64_t outages = rng.next_below(3);
  for (std::uint64_t i = 0; i < outages; ++i) {
    const Slot start = static_cast<Slot>(rng.next_below(
        static_cast<std::uint64_t>(slots)));
    const Slot end = start + 100 + static_cast<Slot>(rng.next_below(400));
    cfg.control_outages.push_back(start);
    cfg.control_outages.push_back(end);
  }
  if (rng.next_below(2) == 0) {
    cfg.controller_mtbf_slots = 1500.0 + 3000.0 * rng.next_double();
    cfg.controller_mttr_slots = 200.0 + 400.0 * rng.next_double();
  }
  cfg.control_fault_seed = rng.next_u64();
  cfg.replan_apply_delay = static_cast<Slot>(rng.next_below(120));
  cfg.estimate_stale_epochs = static_cast<std::int64_t>(rng.next_below(3));
  cfg.estimate_noise = 0.3 * rng.next_double();
  cfg.safe_mode = rng.next_below(2) == 0 ? "vlb" : "hold";

  cfg.check_invariants = true;
  return cfg;
}

ChaosResult run_chaos(std::uint64_t seed, const ChaosKnobs& knobs) {
  ChaosResult result;
  result.seed = seed;
  result.replay = format(
      "sorn_tool chaos --seed %llu --nodes %lld --slots %lld",
      static_cast<unsigned long long>(seed),
      static_cast<long long>(knobs.nodes),
      static_cast<long long>(knobs.slots));

  const ScenarioConfig cfg = make_chaos_config(seed, knobs);
  std::string error;
  auto runner = ScenarioRunner::create(cfg, &error);
  if (runner == nullptr) {
    result.error = "create: " + error;
    return result;
  }
  if (!runner->run(&error)) {
    result.error = error;
    return result;
  }

  if (runner->injector() != nullptr)
    result.faults_applied = runner->injector()->faults_applied();
  result.gray_drops = runner->metrics().gray_dropped_cells();
  if (runner->control_faults() != nullptr)
    result.controller_outages = runner->control_faults()->outages_started();
  if (runner->safe_mode() != nullptr)
    result.safe_mode_activations = runner->safe_mode()->activations();
  if (runner->control() != nullptr)
    result.replans = runner->control()->replans();
  if (runner->invariant_checker() != nullptr)
    result.invariant_slots = runner->invariant_checker()->slots_checked();
  result.flows_injected = runner->flows_injected();
  result.delivered_cells = runner->metrics().delivered_cells();

  // Determinism cross-check: the identical scenario, run again, must
  // produce the byte-identical metrics artifact.
  auto again = ScenarioRunner::create(cfg, &error);
  if (again == nullptr || !again->run(&error)) {
    result.error = "second run: " + error;
    return result;
  }
  if (again->metrics_json() != runner->metrics_json()) {
    result.error =
        "metrics artifact differs between two runs of the same config "
        "(determinism contract broken)";
    return result;
  }

  result.ok = true;
  return result;
}

}  // namespace sorn
