#include "scenario/scenario_runner.h"

#include <utility>

#include "control/control_faults.h"
#include "control/control_plane.h"
#include "control/safe_mode.h"
#include "fault/fault_injector.h"
#include "obs/export.h"
#include "obs/prof/profile_export.h"
#include "sim/saturation.h"
#include "sim/telemetry.h"
#include "traffic/arrivals.h"
#include "traffic/flow_size.h"
#include "traffic/patterns.h"
#include "traffic/workloads.h"
#include "transport/transport.h"
#include "util/table.h"

namespace sorn {
namespace {

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

FlowSizeDist flow_sizes_of(const ScenarioConfig& config) {
  switch (config.flow_size) {
    case FlowSizeKind::kPfabricWebSearch:
      return FlowSizeDist::pfabric_web_search();
    case FlowSizeKind::kPfabricDataMining:
      return FlowSizeDist::pfabric_data_mining();
    case FlowSizeKind::kFixed:
      break;
  }
  return FlowSizeDist::fixed(config.fixed_flow_bytes);
}

}  // namespace

ScenarioRunner::~ScenarioRunner() = default;

std::unique_ptr<ScenarioRunner> ScenarioRunner::create(
    const ScenarioConfig& config, std::string* error) {
  std::string local_error;
  if (error == nullptr) error = &local_error;
  if (!config.validate(error)) return nullptr;

  auto runner = std::unique_ptr<ScenarioRunner>(new ScenarioRunner());
  runner->config_ = config;

  if (!DesignRegistry::instance().build(config.design, config,
                                        &runner->design_, error)) {
    return nullptr;
  }
  // A design without cliques of its own gets its traffic generated over
  // contiguous ones (below).
  if (runner->design_.cliques == nullptr &&
      config.overrides.cliques == nullptr &&
      config.nodes % config.cliques != 0) {
    *error = format("%s: traffic is generated over contiguous cliques, so "
                    "nodes (%d) must divide into cliques (%d)",
                    config.design.c_str(), config.nodes, config.cliques);
    return nullptr;
  }

  // Simulator and failure-aware routing. Routing always
  // consults the live failure state; with no faults the view stays empty
  // and the fast path is untouched.
  NetworkConfig net_cfg;
  net_cfg.lanes = config.lanes;
  net_cfg.slot_duration = config.slot_ns * 1000;
  net_cfg.propagation_per_hop = config.propagation_ns * 1000;
  net_cfg.cell_bytes = config.cell_bytes;
  net_cfg.max_queue_cells = config.max_queue_cells;
  net_cfg.ecn_threshold_cells = config.ecn_threshold_cells;
  net_cfg.seed = config.seed;
  runner->network_ = std::make_unique<SlottedNetwork>(
      runner->design_.schedule, runner->design_.router, net_cfg);
  runner->design_.set_failure_view(&runner->network_->failure_view());

  // Faults: scripted timeline (override > inline text > file) plus the
  // stochastic MTBF/MTTR model.
  FaultScript script;
  if (config.overrides.fault_script != nullptr) {
    script = *config.overrides.fault_script;
  } else if (!config.fault_script.empty()) {
    if (!FaultScript::parse(config.fault_script, config.nodes, &script,
                            error)) {
      *error = "fault_script: " + *error;
      return nullptr;
    }
  } else if (!config.fault_script_path.empty()) {
    if (!FaultScript::load(config.fault_script_path, config.nodes, &script,
                           error))
      return nullptr;
  }
  FaultInjectorOptions fopts;
  fopts.node_mtbf_slots = config.node_mtbf_slots;
  fopts.node_mttr_slots = config.node_mttr_slots;
  fopts.circuit_mtbf_slots = config.circuit_mtbf_slots;
  fopts.circuit_mttr_slots = config.circuit_mttr_slots;
  fopts.seed = config.fault_seed;
  runner->faults_enabled_ = !script.empty() ||
                            fopts.node_mtbf_slots > 0.0 ||
                            fopts.circuit_mtbf_slots > 0.0;
  runner->injector_ =
      std::make_unique<FaultInjector>(std::move(script), fopts);

  // Closed-loop control plane: epoch_slots > 0 turns on periodic
  // replanning over the scenario's demand (perfect telemetry unless the
  // control-fault knobs degrade it). Only the sorn design can consume the
  // resulting SornPlans.
  if (config.epoch_slots > 0) {
    if (config.design != "sorn") {
      *error = "epoch_slots (the control loop) requires the sorn design";
      return nullptr;
    }
    ControlPlane::Options copts;
    copts.optimizer.max_q_denominator = config.max_q_denominator;
    copts.reconfig.update_delay_slots = config.update_delay_slots;
    copts.reconfig.lb_mode = config.lb_first_available
                                 ? LbMode::kFirstAvailable
                                 : LbMode::kRandom;
    runner->control_ = std::make_unique<ControlPlane>(config.nodes, copts);
    runner->control_->set_failure_view(&runner->network_->failure_view());

    const bool control_faults = !config.control_outages.empty() ||
                                config.controller_mtbf_slots > 0.0 ||
                                config.replan_apply_delay > 0 ||
                                config.estimate_stale_epochs > 0 ||
                                config.estimate_noise > 0.0;
    if (control_faults) {
      ControlFaultOptions cf;
      for (std::size_t i = 0; i + 1 < config.control_outages.size(); i += 2) {
        cf.outages.emplace_back(config.control_outages[i],
                                config.control_outages[i + 1]);
      }
      cf.mtbf_slots = config.controller_mtbf_slots;
      cf.mttr_slots = config.controller_mttr_slots;
      cf.seed = config.control_fault_seed;
      cf.replan_apply_delay = config.replan_apply_delay;
      cf.estimate_stale_epochs =
          static_cast<std::uint32_t>(config.estimate_stale_epochs);
      cf.estimate_noise = config.estimate_noise;
      runner->control_faults_ =
          std::make_unique<ControlFaultModel>(std::move(cf));
      runner->control_->set_fault_model(runner->control_faults_.get());
      runner->safe_mode_ = std::make_unique<SafeModeGuard>(
          config.nodes, config.safe_mode == "vlb" ? SafeModePolicy::kVlb
                                                  : SafeModePolicy::kHold);
    }
  }

  // Invariant checker: attach before any traffic so the conservation
  // baseline starts from zeroed counters.
  if (config.check_invariants) {
    runner->checker_ = std::make_unique<InvariantChecker>();
    runner->network_->add_observer(runner->checker_.get());
  }

  // Telemetry: any export path attaches the facade; time-series sampling
  // only when the CSV or the JSON summary (which embeds it) is wanted.
  const bool want_trace = !config.trace_path.empty();
  const bool want_json = !config.metrics_json_path.empty();
  const bool want_csv = !config.timeseries_csv_path.empty();
  TelemetryOptions topts;
  if (want_csv || want_json) topts.sample_every = config.sample_every;
  runner->telemetry_ = std::make_unique<Telemetry>(topts);
  if (want_trace) {
    runner->trace_sink_ = std::make_unique<FileTraceSink>(config.trace_path);
    if (!runner->trace_sink_->ok()) {
      *error = "cannot open " + config.trace_path + " for writing";
      return nullptr;
    }
    runner->telemetry_->set_trace_sink(runner->trace_sink_.get());
  }
  if (want_trace || want_json || want_csv) {
    runner->network_->add_observer(runner->telemetry_.get());
    runner->telemetry_attached_ = true;
  }
  if (runner->telemetry_attached_) {
    Tracer* tracer = &runner->telemetry_->tracer();
    if (runner->control_ != nullptr) runner->control_->set_tracer(tracer);
    if (runner->control_faults_ != nullptr)
      runner->control_faults_->set_tracer(tracer);
    if (runner->safe_mode_ != nullptr) runner->safe_mode_->set_tracer(tracer);
  }

  // Profiling: the network registers its byte gauges and wraps its phases
  // in timers; the runner adds the gauges only it can see. The profiler
  // reads clocks and sizes, never RNG or metrics, so the sim artifacts
  // above stay byte-identical whether or not it is attached.
  if (config.profile || !config.profile_json_path.empty()) {
    runner->profiler_ = std::make_unique<Profiler>();
    runner->network_->set_profiler(runner->profiler_.get());
    if (runner->control_ != nullptr)
      runner->control_->set_profiler(runner->profiler_.get());
    if (runner->telemetry_attached_ &&
        runner->telemetry_->timeseries() != nullptr) {
      const TimeSeriesSampler* ts = runner->telemetry_->timeseries();
      runner->profiler_->memory().register_provider(
          "timeseries_samples", [ts] { return ts->memory_bytes(); });
    }
  }

  // Closed-loop transport: arrivals become open_flow() calls and the
  // window paces injection. The workload driver attaches it to the
  // network for the run, so first-copy deliveries reach it as acks in the
  // apply pass's order.
  if (config.transport == "dctcp") {
    DctcpTransport::Options topt;
    topt.congestion.init_cwnd_cells = config.init_cwnd_cells;
    topt.congestion.max_cwnd_cells = config.max_cwnd_cells;
    topt.congestion.gain = config.dctcp_gain;
    runner->transport_ = std::make_unique<DctcpTransport>(topt);
    if (runner->profiler_ != nullptr) {
      const DctcpTransport* t = runner->transport_.get();
      runner->profiler_->memory().register_provider(
          "transport_state", [t] { return t->memory_bytes(); });
    }
  }

  // Traffic: an override matrix wins; otherwise generate the configured
  // pattern over the design's clique structure (or, for designs without
  // one, the override assignment / a contiguous fallback). The same
  // assignment labels flows under ClassifyKind::kClique.
  runner->traffic_cliques_ =
      runner->design_.cliques != nullptr ? *runner->design_.cliques
      : config.overrides.cliques != nullptr
          ? *config.overrides.cliques
          : CliqueAssignment::contiguous(config.nodes, config.cliques);
  if (config.overrides.traffic != nullptr) {
    if (config.overrides.traffic->node_count() != config.nodes) {
      *error = "override traffic matrix node count does not match the "
               "scenario";
      return nullptr;
    }
    runner->traffic_ = config.overrides.traffic->clone();
  } else {
    switch (config.traffic) {
      case TrafficKind::kLocality:
        runner->traffic_ = patterns::make_locality_mix(
            runner->traffic_cliques_, config.locality_x,
            config.traffic_backend);
        break;
      case TrafficKind::kUniform:
        runner->traffic_ =
            patterns::make_uniform(config.nodes, config.traffic_backend);
        break;
      case TrafficKind::kRing:
        runner->traffic_ = patterns::make_clique_ring(
            runner->traffic_cliques_, config.locality_x,
            config.ring_heavy_share, config.traffic_backend);
        break;
      case TrafficKind::kHierLocality:
        if (runner->design_.hierarchy == nullptr) {
          *error = "hier-locality traffic requires a design with a "
                   "hierarchy (hier)";
          return nullptr;
        }
        runner->traffic_ = patterns::make_hier_locality_mix(
            *runner->design_.hierarchy, config.pod_locality_x1,
            config.cluster_locality_x2, config.traffic_backend);
        break;
    }
  }
  if (runner->profiler_ != nullptr) {
    const DemandModel* traffic = runner->traffic_.get();
    runner->profiler_->memory().register_provider(
        "traffic_demand", [traffic] { return traffic->memory_bytes(); });
  }
  return runner;
}

void ScenarioRunner::run_workload() {
  const FlowSizeDist sizes = flow_sizes_of(config_);
  const Picoseconds slot_ps = network_->config().slot_duration;
  const double node_bw =
      static_cast<double>(network_->config().cell_bytes) * 8.0 /
      (static_cast<double>(slot_ps) * 1e-12);
  SaturationConfig sat;
  sat.seed = config_.workload_seed;
  std::unique_ptr<ClosedLoopSource> source;
  std::unique_ptr<ArrivalStream> arrivals;
  switch (config_.workload) {
    case WorkloadKind::kSaturation:
      source = std::make_unique<SaturationSource>(traffic_.get(), sat);
      break;
    case WorkloadKind::kFlowSaturation:
      source =
          std::make_unique<FlowSaturationSource>(traffic_.get(), &sizes, sat);
      break;
    case WorkloadKind::kIncast:
      arrivals = std::make_unique<IncastArrivals>(
          config_.nodes, config_.incast_fanin, config_.incast_bytes,
          config_.incast_period_slots, slot_ps, Rng(config_.arrival_seed));
      break;
    case WorkloadKind::kCollective:
      arrivals = std::make_unique<CollectiveArrivals>(
          traffic_.get(),
          config_.collective_kind == "tree" ? CollectiveArrivals::Kind::kTree
                                           : CollectiveArrivals::Kind::kRing,
          config_.collective_bytes, config_.collective_phase_gap_slots,
          slot_ps);
      break;
    case WorkloadKind::kOversubRack:
      arrivals = std::make_unique<OversubRackArrivals>(
          &traffic_cliques_, &sizes, node_bw, config_.load,
          config_.rack_local_frac, config_.oversub_factor,
          Rng(config_.arrival_seed));
      break;
    case WorkloadKind::kFlows:
      arrivals = std::make_unique<FlowArrivals>(traffic_.get(), &sizes,
                                                node_bw, config_.load,
                                                Rng(config_.arrival_seed));
      break;
  }

  WorkloadDriver::Classifier classifier;
  if (config_.classify == ClassifyKind::kClique) {
    const CliqueAssignment* cliques = &traffic_cliques_;
    classifier = [cliques](const FlowArrival& a) {
      return cliques->same_clique(a.src, a.dst) ? 0 : 1;
    };
  } else if (config_.classify == ClassifyKind::kSize) {
    const std::uint64_t cutoff = config_.bulk_cutoff_bytes;
    classifier = [cutoff](const FlowArrival& a) {
      return a.bytes > cutoff ? 1 : 0;
    };
  }
  WorkloadDriver driver =
      source != nullptr
          ? WorkloadDriver(source.get())
          : WorkloadDriver(arrivals.get(), std::move(classifier));
  if (config_.flow_size_cap > 0)
    driver.set_flow_size_cap(config_.flow_size_cap);
  if (design_.bulk_router != nullptr && config_.bulk_cutoff_bytes > 0)
    driver.set_bulk_router(design_.bulk_router, config_.bulk_cutoff_bytes);
  if (transport_ != nullptr) driver.set_transport(transport_.get());
  if (user_hook_ || faults_enabled_ || control_ != nullptr) {
    driver.set_slot_hook([this](SlottedNetwork& net, Slot slot) {
      PhaseProfiler* const prof =
          profiler_ != nullptr ? &profiler_->phases() : nullptr;
      if (user_hook_) {
        ScopedPhase scope(prof, ProfPhase::kSlotHook);
        user_hook_(net, slot);
      }
      if (faults_enabled_) {
        ScopedPhase scope(prof, ProfPhase::kFaultTick);
        injector_->tick(net);
      }
      if (control_ != nullptr) {
        // Fault model first (the controller's state for this slot), then
        // the safe-mode guard (data-plane response to that state), then
        // the epoch observation and the reconfig tick — both of which the
        // control plane suppresses on its own while the controller is
        // down.
        if (control_faults_ != nullptr) {
          control_faults_->tick(slot);
          safe_mode_->on_controller_state(
              net, control_faults_->controller_up(), slot);
        }
        if (slot > 0 && slot % config_.epoch_slots == 0)
          control_->on_epoch(*traffic_, slot);
        control_->tick(net, slot);
      }
    });
  }
  if (config_.retransmit_timeout > 0) {
    SlottedNetwork::RetransmitPolicy policy;
    policy.timeout_slots = config_.retransmit_timeout;
    policy.max_attempts = config_.retransmit_max_attempts;
    policy.jitter_frac = config_.retransmit_jitter;
    driver.set_retransmit(policy);
  }
  if (source != nullptr) {
    saturation_r_ = driver.measure(*network_, config_.warmup_slots,
                                   config_.measure_slots);
  } else {
    driver.run_until(*network_, config_.slots * slot_ps,
                     config_.drain_slots);
  }
  flows_injected_ = driver.flows_injected();
}

bool ScenarioRunner::run(std::string* error) {
  if (ran_) return fail(error, "scenario already ran (one-shot)");
  ran_ = true;

  run_workload();

  // Invariant verdict: any violation fails the run, naming the first few.
  // The checker's full list stays inspectable via invariant_checker().
  if (checker_ != nullptr && !checker_->ok()) {
    std::string msg = "invariant violations (" +
                      std::to_string(checker_->violation_count()) + "):";
    for (const std::string& v : checker_->violations()) msg += "\n  " + v;
    return fail(error, std::move(msg));
  }

  // Close out the profile: a final gauge sample (end-of-run state + peak
  // RSS).
  if (profiler_ != nullptr) profiler_->memory().sample();

  // Flush artifacts. The trace sink is detached and closed first so the
  // JSONL file is complete as soon as run() returns.
  if (trace_sink_ != nullptr) {
    telemetry_->set_trace_sink(nullptr);
    const bool wrote = trace_sink_->close();
    trace_sink_.reset();
    if (!wrote) return fail(error, "cannot write " + config_.trace_path);
  }
  if (!config_.metrics_json_path.empty() &&
      !write_text_file(config_.metrics_json_path, metrics_json())) {
    return fail(error, "cannot write " + config_.metrics_json_path);
  }
  if (!config_.timeseries_csv_path.empty() &&
      !write_text_file(config_.timeseries_csv_path, timeseries_csv())) {
    return fail(error, "cannot write " + config_.timeseries_csv_path);
  }
  if (!config_.profile_json_path.empty() &&
      !write_text_file(config_.profile_json_path, profile_json())) {
    return fail(error, "cannot write " + config_.profile_json_path);
  }
  return true;
}

std::string ScenarioRunner::metrics_json() const {
  ExportOptions eopts;
  eopts.nodes = config_.nodes;
  eopts.lanes = network_->config().lanes;
  TransportStats tstats;
  if (transport_ != nullptr) {
    tstats = transport_->stats();
    eopts.transport = &tstats;
  }
  return run_to_json(network_->metrics(),
                     telemetry_attached_ ? telemetry_.get() : nullptr, eopts);
}

std::string ScenarioRunner::timeseries_csv() const {
  if (telemetry_ == nullptr || telemetry_->timeseries() == nullptr) return "";
  return timeseries_to_csv(*telemetry_->timeseries());
}

std::string ScenarioRunner::profile_json() const {
  if (profiler_ == nullptr) return "";
  return profile_to_json(*profiler_);
}

}  // namespace sorn
