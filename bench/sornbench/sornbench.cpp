// sornbench: one repetition of one benchmark workload, in its own process.
//
//   sornbench --scenario cfg.json [--trace spans.json]
//
// The process is one batch job: ScenarioRunner::create() then run() on the
// ScenarioConfig in cfg.json (run.py generates it from the workload and the
// seed). It prints one JSON object of raw measurements on stdout, which
// run.py turns into named metrics. Just before create() it times a fixed
// host-speed probe (probe_host_s), which run.py uses to normalise the
// wall clocks.
//
// --trace adds the per-layer instrumentation, all of it from outside the
// library through public entry points:
//   - a TimedRouter decorating the live router, installed through
//     SlottedNetwork::reconfigure() and re-installed by a slot hook after
//     every control-plane swap, counts and times route() calls;
//   - the same slot hook timestamps the start of every slot, so each slot
//     interval (and each epoch or replan slot) becomes a span;
//   - the library's own Profiler (ScenarioConfig::profile) is attached and
//     its profile document embedded verbatim as "profile";
//   - after the run, standalone calls time the design build, the demand
//     build and a replay of the arrival stream for the same flow count.
// The spans go to the named file. None of this draws RNG or touches
// metrics, so a traced run's metrics digest must equal an untraced one.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "control/control_plane.h"
#include "fault/fault_injector.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/prof/phase_profiler.h"
#include "scenario/scenario_runner.h"
#include "traffic/arrivals.h"
#include "traffic/flow_size.h"
#include "traffic/patterns.h"
#include "traffic/workloads.h"
#include "transport/transport.h"
#include "util/rusage.h"

namespace {

using namespace sorn;

std::uint64_t now_ns() { return PhaseProfiler::now_ns(); }

// FNV-1a over the metrics document. Equal digests stand for equal bytes;
// a hex string is easy to compare from Python.
std::string digest_of(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// Decorates the network's live router: same paths, same RNG draws, plus a
// call count and the host time spent inside route(). route() runs only on
// the coordinating thread (injection, retransmission and the transport's
// pump happen between slots), so plain counters suffice.
class TimedRouter final : public Router {
 public:
  void wrap(const Router* inner) { inner_ = inner; }

  Path route(NodeId src, NodeId dst, Slot now, Rng& rng) const override {
    const std::uint64_t start = now_ns();
    Path path = inner_->route(src, dst, now, rng);
    ns_ += now_ns() - start;
    ++calls_;
    return path;
  }
  int max_hops() const override { return inner_->max_hops(); }

  std::uint64_t calls() const { return calls_; }
  std::uint64_t ns() const { return ns_; }

 private:
  const Router* inner_ = nullptr;
  mutable std::uint64_t calls_ = 0;
  mutable std::uint64_t ns_ = 0;
};

// Mean cost of the two clock reads that bracket each timed route() call;
// run.py subtracts it so ns_per_route is the router's own time.
double clock_pair_ns() {
  constexpr int kPairs = 200000;
  std::uint64_t total = 0;
  for (int i = 0; i < kPairs; ++i) {
    const std::uint64_t a = now_ns();
    total += now_ns() - a;
  }
  return static_cast<double>(total) / kPairs;
}

struct Span {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  int parent;  // index into the span list; -1 for a root span
};

enum SlotKind : std::uint8_t { kSlot, kEpochSlot, kReplanSlot };

const char* slot_kind_name(std::uint8_t kind) {
  switch (kind) {
    case kEpochSlot:
      return "epoch_slot";
    case kReplanSlot:
      return "replan_slot";
    default:
      return "slot";
  }
}

FlowSizeDist flow_sizes_of(const ScenarioConfig& cfg) {
  switch (cfg.flow_size) {
    case FlowSizeKind::kPfabricWebSearch:
      return FlowSizeDist::pfabric_web_search();
    case FlowSizeKind::kPfabricDataMining:
      return FlowSizeDist::pfabric_data_mining();
    case FlowSizeKind::kFixed:
      break;
  }
  return FlowSizeDist::fixed(cfg.fixed_flow_bytes);
}

// The arrival stream the runner builds for the config, rebuilt for the
// standalone replay. Only the two kinds the benchmark's workloads use.
std::unique_ptr<ArrivalStream> arrivals_of(const ScenarioConfig& cfg,
                                           const DemandModel* demand,
                                           const FlowSizeDist* sizes) {
  const Picoseconds slot_ps = cfg.slot_ns * 1000;
  if (cfg.workload == WorkloadKind::kIncast) {
    return std::make_unique<IncastArrivals>(
        cfg.nodes, cfg.incast_fanin, cfg.incast_bytes, cfg.incast_period_slots,
        slot_ps, Rng(cfg.arrival_seed));
  }
  if (cfg.workload == WorkloadKind::kFlows) {
    const double node_bw = static_cast<double>(cfg.cell_bytes) * 8.0 /
                           (static_cast<double>(slot_ps) * 1e-12);
    return std::make_unique<FlowArrivals>(demand, sizes, node_bw, cfg.load,
                                          Rng(cfg.arrival_seed));
  }
  return nullptr;
}

// Host speed. On a shared host the same binary runs 0.6 to 1.5 times as
// fast from one minute to the next, and every workload moves with it;
// run.py divides that out. The probe is fixed code: std::sort of 2^18
// pseudo-random 32-bit keys. Like the simulator it is branchy and bound by
// throughput in the core's private caches, so it slows as the simulator
// does when a neighbour shares the core; a dependent compute chain or a
// DRAM pointer chase follows the simulator less closely. It runs just
// before create(), which it tracks best, on static storage: it allocates
// nothing, so the allocator state the simulator starts from is unchanged.
std::uint32_t g_probe_keys[1u << 18];
volatile std::uint32_t g_probe_sink;  // keeps the sort observable

double probe_host_s() {
  std::uint64_t x = 1;
  for (std::uint32_t& key : g_probe_keys) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    key = static_cast<std::uint32_t>(x >> 33);
  }
  const std::uint64_t start = now_ns();
  std::sort(std::begin(g_probe_keys), std::end(g_probe_keys));
  const std::uint64_t end = now_ns();
  g_probe_sink = g_probe_keys[std::size(g_probe_keys) / 2];
  return static_cast<double>(end - start) * 1e-9;
}

int usage() {
  std::fprintf(stderr,
               "usage: sornbench --scenario cfg.json [--trace spans.json]\n");
  return 2;
}

int fail(const char* what, const std::string& error) {
  std::fprintf(stderr, "sornbench: %s: %s\n", what, error.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t origin = now_ns();
  std::string scenario_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      scenario_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (scenario_path.empty()) return usage();

  ScenarioConfig cfg;
  std::string error;
  if (!ScenarioConfig::load_file(scenario_path, &cfg, &error))
    return fail("scenario", error);
  const bool traced = !trace_path.empty();
  if (traced) cfg.profile = true;
  if (traced && cfg.traffic != TrafficKind::kLocality)
    return fail("trace", "the demand probe covers locality traffic only");

  const double host_probe_s = probe_host_s();
  std::vector<Span> spans;
  const std::uint64_t create_start = now_ns();
  std::unique_ptr<ScenarioRunner> runner = ScenarioRunner::create(cfg, &error);
  const std::uint64_t create_end = now_ns();
  if (runner == nullptr) return fail("create", error);
  const double setup_s = static_cast<double>(create_end - create_start) * 1e-9;
  spans.push_back({"create", create_start, create_end, -1});

  TimedRouter timed;
  std::vector<std::uint64_t> slot_start;
  std::vector<std::uint8_t> slot_kind;
  std::uint64_t replans_seen = 0;
  const ControlPlane* control = runner->control();
  // A replan runs inside its slot, after this hook, so it is attributed
  // when the next slot's hook (or the end of run()) sees the count rise.
  auto note_replans = [&] {
    if (control == nullptr || slot_kind.empty()) return;
    if (control->replans() > replans_seen) slot_kind.back() = kReplanSlot;
    replans_seen = control->replans();
  };
  if (traced) {
    SlottedNetwork& net = runner->network();
    timed.wrap(net.router());
    net.reconfigure(net.schedule(), &timed);
    const Slot epoch = cfg.epoch_slots;
    runner->set_slot_hook([&, epoch](SlottedNetwork& n, Slot slot) {
      const std::uint64_t t = now_ns();
      note_replans();
      slot_start.push_back(t);
      slot_kind.push_back(epoch > 0 && slot > 0 && slot % epoch == 0
                              ? kEpochSlot
                              : kSlot);
      if (n.router() != &timed) {
        timed.wrap(n.router());
        n.reconfigure(n.schedule(), &timed);
      }
    });
  }

  const std::uint64_t run_start = now_ns();
  if (!runner->run(&error)) return fail("run", error);
  const std::uint64_t run_end = now_ns();
  note_replans();

  const SimMetrics& m = runner->metrics();
  const RunningStats& occupancy = m.queue_occupancy();
  JsonWriter w;
  w.begin_object();
  w.field("setup_s", setup_s);
  w.field("host_probe_s", host_probe_s);
  w.field("run_s", static_cast<double>(run_end - run_start) * 1e-9);
  w.field("threads", static_cast<std::int64_t>(runner->network().threads()));
  w.field("digest", digest_of(runner->metrics_json()));
  w.field("peak_rss_mb", peak_rss_mb());
  w.field("slots", m.slots_run());
  w.field("flows_injected", runner->flows_injected());
  w.field("delivered_cells", m.delivered_cells());
  w.field("forwarded_cells", m.forwarded_cells());
  w.field("dropped_cells", m.dropped_cells());
  w.field("duplicate_cells", m.duplicate_cells());
  w.field("completed_flows", m.completed_flows());
  w.field("mean_hops", m.mean_hops());
  w.field("fct_p99_us", m.fct_ps().percentile(99.0) * 1e-6);
  w.field("saturation_r", runner->saturation_r());
  w.field("cells_in_flight_peak",
          occupancy.count() > 0 ? occupancy.max() : 0.0);
  w.field("replans", control != nullptr ? control->replans() : 0);
  w.field("fault_events", runner->injector() != nullptr
                              ? runner->injector()->faults_applied()
                              : 0);
  if (runner->transport() != nullptr) {
    const TransportStats ts = runner->transport()->stats();
    w.key("transport").begin_object();
    w.field("cells_sent", ts.cells_sent);
    w.field("acked_cells", ts.acked_cells);
    w.field("ecn_acked_cells", ts.ecn_acked_cells);
    w.field("cwnd_mean",
            ts.cwnd_cells.count() > 0 ? ts.cwnd_cells.mean() : 0.0);
    w.end_object();
  }

  if (traced) {
    const int run_span = static_cast<int>(spans.size());
    spans.push_back({"run", run_start, run_end, -1});
    for (std::size_t i = 0; i < slot_start.size(); ++i) {
      const std::uint64_t end =
          i + 1 < slot_start.size() ? slot_start[i + 1] : run_end;
      spans.push_back({slot_kind_name(slot_kind[i]), slot_start[i], end,
                       run_span});
    }

    // Standalone layer probes, after the run so they cannot perturb it.
    BuiltDesign probe_design;
    const std::uint64_t design_start = now_ns();
    if (!DesignRegistry::instance().build(cfg.design, cfg, &probe_design,
                                          &error))
      return fail("design probe", error);
    const std::uint64_t design_end = now_ns();
    spans.push_back({"design_build", design_start, design_end, -1});

    const std::uint64_t demand_start = now_ns();
    const std::unique_ptr<DemandModel> demand = patterns::make_locality_mix(
        runner->traffic_cliques(), cfg.locality_x, cfg.traffic_backend);
    const std::uint64_t demand_end = now_ns();
    spans.push_back({"demand_build", demand_start, demand_end, -1});

    const FlowSizeDist sizes = flow_sizes_of(cfg);
    const std::unique_ptr<ArrivalStream> arrivals =
        arrivals_of(cfg, demand.get(), &sizes);
    std::uint64_t replayed = 0;
    std::uint64_t replay_ns = 0;
    // Bytes the injected flows offered, after WorkloadDriver's flow-size
    // cap. Over the arrival window this is the effective offered load,
    // which differs from cfg.load because the arrival rate is set from the
    // uncapped mean flow size.
    std::uint64_t offered_bytes = 0;
    const std::uint64_t cap =
        cfg.flow_size_cap > 0 ? cfg.flow_size_cap : UINT64_MAX;
    if (arrivals != nullptr) {
      const std::uint64_t replay_start = now_ns();
      for (; replayed < runner->flows_injected(); ++replayed)
        offered_bytes += std::min(arrivals->next().bytes, cap);
      const std::uint64_t replay_end = now_ns();
      replay_ns = replay_end - replay_start;
      spans.push_back({"arrival_replay", replay_start, replay_end, -1});
    }

    w.key("trace").begin_object();
    w.field("route_calls", timed.calls());
    w.field("route_ns", timed.ns());
    w.field("clock_pair_ns", clock_pair_ns());
    w.field("design_build_ms",
            static_cast<double>(design_end - design_start) * 1e-6);
    w.field("demand_build_ms",
            static_cast<double>(demand_end - demand_start) * 1e-6);
    w.field("arrivals", replayed);
    w.field("arrival_replay_ns", replay_ns);
    w.field("offered_load",
            static_cast<double>(offered_bytes) /
                (static_cast<double>(cfg.nodes) *
                 static_cast<double>(cfg.slots) *
                 static_cast<double>(cfg.cell_bytes)));
    w.end_object();
    // JsonWriter has no raw-value entry: splice the profile document in
    // and close the object by hand.
    w.key("profile");
    const std::string doc = w.take() + runner->profile_json() + "}";

    JsonWriter sw;
    sw.begin_object();
    sw.key("spans").begin_array();
    for (const Span& s : spans) {
      sw.begin_object();
      sw.field("name", s.name);
      sw.field("start_us", static_cast<double>(s.start_ns - origin) * 1e-3);
      sw.field("end_us", static_cast<double>(s.end_ns - origin) * 1e-3);
      sw.field("parent", static_cast<std::int64_t>(s.parent));
      sw.end_object();
    }
    sw.end_array();
    sw.key("counters").begin_object();
    sw.field("route_calls", timed.calls());
    sw.field("route_ns", timed.ns());
    sw.end_object();
    sw.end_object();
    if (!write_text_file(trace_path, sw.str() + "\n"))
      return fail("trace", "cannot write " + trace_path);

    std::printf("%s\n", doc.c_str());
    return 0;
  }
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
