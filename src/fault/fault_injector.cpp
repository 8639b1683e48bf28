#include "fault/fault_injector.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/assert.h"

namespace sorn {

namespace {

// Strict whole-token integer parse; rejects sign-only, trailing garbage
// and values a long long cannot hold (strtoll would clamp them).
bool parse_int(std::string_view token, long long* out) {
  if (token.empty()) return false;
  char buf[32];
  if (token.size() >= sizeof(buf)) return false;
  token.copy(buf, token.size());
  buf[token.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(buf, &end, 10);
  if (end == buf || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

std::vector<std::string_view> split_ws(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    const std::size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

// Strict whole-token double parse; rejects empty, trailing garbage.
bool parse_double(std::string_view token, double* out) {
  if (token.empty()) return false;
  char buf[48];
  if (token.size() >= sizeof(buf)) return false;
  token.copy(buf, token.size());
  buf[token.size()] = '\0';
  char* end = nullptr;
  const double v = std::strtod(buf, &end);
  if (end == buf || *end != '\0') return false;
  *out = v;
  return true;
}

bool fail_line(std::string* error, int line_no, const std::string& message) {
  if (error != nullptr) {
    char buf[192];
    std::snprintf(buf, sizeof(buf), "fault script line %d: %s", line_no,
                  message.c_str());
    *error = buf;
  }
  return false;
}

}  // namespace

bool FaultScript::parse(std::string_view text, NodeId nodes, FaultScript* out,
                        std::string* error) {
  SORN_ASSERT(out != nullptr, "parse needs an output script");
  std::vector<FaultEvent> events;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    const std::vector<std::string_view> tokens = split_ws(line);
    if (tokens.empty()) continue;
    if (tokens.size() < 3)
      return fail_line(error, line_no, "expected '<slot> <action> <args>'");
    long long slot = 0;
    if (!parse_int(tokens[0], &slot) || slot < 0)
      return fail_line(error, line_no,
                       "slot must be an integer in [0, 2^63 - 1], got '" +
                           std::string(tokens[0]) + "'");
    FaultEvent ev;
    ev.slot = static_cast<Slot>(slot);
    const std::string_view action = tokens[1];
    bool node_action = false;
    bool valued = false;  // degrade/throttle carry a probability/fraction
    bool flap = false;
    std::string args;  // usage suffix for the arity error
    if (action == "fail-node" || action == "heal-node") {
      node_action = true;
      args = " <node>";
      ev.kind = action == "fail-node" ? FaultKind::kFailNode
                                      : FaultKind::kHealNode;
    } else if (action == "fail-circuit" || action == "heal-circuit" ||
               action == "restore-circuit") {
      args = " <src> <dst>";
      ev.kind = action == "fail-circuit"   ? FaultKind::kFailCircuit
                : action == "heal-circuit" ? FaultKind::kHealCircuit
                                           : FaultKind::kRestoreCircuit;
    } else if (action == "degrade-circuit") {
      valued = true;
      args = " <src> <dst> <loss_p>";
      ev.kind = FaultKind::kDegradeCircuit;
    } else if (action == "throttle-circuit") {
      valued = true;
      args = " <src> <dst> <capacity>";
      ev.kind = FaultKind::kThrottleCircuit;
    } else if (action == "flap-circuit") {
      flap = true;
      args = " <src> <dst> <cycles> <down_slots> <up_slots>";
    } else {
      return fail_line(error, line_no,
                       "unknown action '" + std::string(action) + "'");
    }
    const std::size_t want = node_action ? 3 : (valued ? 5 : (flap ? 7 : 4));
    if (tokens.size() != want)
      return fail_line(
          error, line_no,
          "expected '<slot> " + std::string(action) + args + "'");
    // Node/circuit ids are validated against the topology size here, at
    // parse time, so a typo'd id is a line-numbered script error instead
    // of an assert deep inside the injector mid-run.
    const auto parse_node = [&](std::string_view token, NodeId* id) {
      long long v = 0;
      if (!parse_int(token, &v) || v < 0 ||
          v > std::numeric_limits<NodeId>::max()) {
        fail_line(error, line_no,
                  "node id must be a nonnegative 32-bit integer, got '" +
                      std::string(token) + "'");
        return false;
      }
      if (nodes > 0 && v >= static_cast<long long>(nodes)) {
        fail_line(error, line_no,
                  "node id " + std::to_string(v) + " out of range for a " +
                      std::to_string(nodes) + "-node topology");
        return false;
      }
      *id = static_cast<NodeId>(v);
      return true;
    };
    if (!parse_node(tokens[2], &ev.a)) return false;
    if (node_action) {
      events.push_back(ev);
      continue;
    }
    if (!parse_node(tokens[3], &ev.b)) return false;
    if (ev.a == ev.b)
      return fail_line(error, line_no, "circuit endpoints must differ");
    if (valued) {
      double v = 0.0;
      const bool degrade = ev.kind == FaultKind::kDegradeCircuit;
      if (!parse_double(tokens[4], &v) || v < 0.0 || v > 1.0)
        return fail_line(error, line_no,
                         std::string(degrade ? "loss probability"
                                             : "capacity fraction") +
                             " must be in [0, 1], got '" +
                             std::string(tokens[4]) + "'");
      ev.value = v;
      events.push_back(ev);
      continue;
    }
    if (flap) {
      long long cycles = 0, down = 0, up = 0;
      if (!parse_int(tokens[4], &cycles) || cycles < 1 || cycles > 100000)
        return fail_line(error, line_no,
                         "flap cycles must be in [1, 100000], got '" +
                             std::string(tokens[4]) + "'");
      if (!parse_int(tokens[5], &down) || down < 1)
        return fail_line(error, line_no,
                         "flap down_slots must be a positive integer, got '" +
                             std::string(tokens[5]) + "'");
      if (!parse_int(tokens[6], &up) || up < 1)
        return fail_line(error, line_no,
                         "flap up_slots must be a positive integer, got '" +
                             std::string(tokens[6]) + "'");
      // The last heal lands at slot + (cycles - 1) * (down + up) + down;
      // every step is checked, so a flap past the Slot range is an error,
      // never an overflow.
      long long period = 0, last = 0;
      if (__builtin_add_overflow(down, up, &period) ||
          __builtin_mul_overflow(cycles - 1, period, &last) ||
          __builtin_add_overflow(last, down, &last) ||
          __builtin_add_overflow(last, slot, &last))
        return fail_line(error, line_no,
                         "flap ends past the last representable slot");
      // Expand at parse time into ordinary fail/heal pairs so the
      // injector replays a flapping link with the scripted machinery —
      // a link bouncing on a short MTTR.
      for (long long c = 0; c < cycles; ++c) {
        const Slot base = ev.slot + static_cast<Slot>(c * (down + up));
        events.push_back({base, FaultKind::kFailCircuit, ev.a, ev.b, 0.0});
        events.push_back({base + static_cast<Slot>(down),
                          FaultKind::kHealCircuit, ev.a, ev.b, 0.0});
      }
      continue;
    }
    events.push_back(ev);
  }
  *out = from_events(std::move(events));
  return true;
}

bool FaultScript::load(const std::string& path, NodeId nodes, FaultScript* out,
                       std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open fault script: " + path;
    return false;
  }
  std::string text;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);
  return parse(text, nodes, out, error);
}

FaultScript FaultScript::from_events(std::vector<FaultEvent> events) {
  // Stable: same-slot events keep their given order.
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.slot < y.slot;
                   });
  FaultScript script;
  script.events_ = std::move(events);
  return script;
}

FaultInjector::FaultInjector(FaultScript script, FaultInjectorOptions options)
    : script_(std::move(script)), opt_(options), rng_(options.seed) {
  SORN_ASSERT(opt_.node_mtbf_slots >= 0 && opt_.circuit_mtbf_slots >= 0,
              "MTBF must be nonnegative");
  SORN_ASSERT(opt_.node_mtbf_slots <= 0 || opt_.node_mttr_slots > 0,
              "node faults need a positive MTTR");
  SORN_ASSERT(opt_.circuit_mtbf_slots <= 0 || opt_.circuit_mttr_slots > 0,
              "circuit faults need a positive MTTR");
}

bool FaultInjector::stochastic() const {
  return opt_.node_mtbf_slots > 0 || opt_.circuit_mtbf_slots > 0;
}

void FaultInjector::note_applied(Slot slot) {
  if (first_fault_slot_ == kNone) first_fault_slot_ = slot;
}

bool FaultInjector::apply(SlottedNetwork& net, const FaultEvent& ev) {
  const NodeId n = net.node_count();
  SORN_ASSERT(ev.a >= 0 && ev.a < n, "fault event node out of range");
  switch (ev.kind) {
    case FaultKind::kFailNode:
      return net.fail_node(ev.a);
    case FaultKind::kHealNode:
      return net.heal_node(ev.a);
    case FaultKind::kFailCircuit:
      SORN_ASSERT(ev.b >= 0 && ev.b < n, "fault event node out of range");
      return net.fail_circuit(ev.a, ev.b);
    case FaultKind::kHealCircuit:
      SORN_ASSERT(ev.b >= 0 && ev.b < n, "fault event node out of range");
      return net.heal_circuit(ev.a, ev.b);
    case FaultKind::kDegradeCircuit:
      SORN_ASSERT(ev.b >= 0 && ev.b < n, "fault event node out of range");
      return net.degrade_circuit(ev.a, ev.b, ev.value);
    case FaultKind::kThrottleCircuit:
      SORN_ASSERT(ev.b >= 0 && ev.b < n, "fault event node out of range");
      return net.throttle_circuit(ev.a, ev.b, ev.value);
    case FaultKind::kRestoreCircuit:
      SORN_ASSERT(ev.b >= 0 && ev.b < n, "fault event node out of range");
      return net.restore_circuit(ev.a, ev.b);
  }
  return false;
}

double FaultInjector::total_rate(const SlottedNetwork& net) const {
  const FailureView& view = net.failure_view();
  const auto n = static_cast<double>(net.node_count());
  double rate = 0.0;
  if (opt_.node_mtbf_slots > 0) {
    const auto failed = static_cast<double>(view.failed_node_count());
    rate += (n - failed) / opt_.node_mtbf_slots;
    rate += failed / opt_.node_mttr_slots;
  }
  if (opt_.circuit_mtbf_slots > 0) {
    const double circuits = n * (n - 1.0);
    const auto failed = static_cast<double>(view.failed_circuit_count());
    rate += (circuits - failed) / opt_.circuit_mtbf_slots;
    rate += failed / opt_.circuit_mttr_slots;
  }
  return rate;
}

void FaultInjector::schedule_next(const SlottedNetwork& net, Slot now) {
  const double rate = total_rate(net);
  if (rate <= 0.0) {
    pending_slot_ = kNone;
    return;
  }
  const double delta = rng_.next_exponential(1.0 / rate);
  const double ceiled = std::ceil(delta);
  pending_slot_ =
      now + std::max<Slot>(1, static_cast<Slot>(ceiled));
}

NodeId FaultInjector::pick_node(const SlottedNetwork& net, bool failed) {
  const FailureView& view = net.failure_view();
  const NodeId n = net.node_count();
  const std::uint64_t pool =
      failed ? view.failed_node_count()
             : static_cast<std::uint64_t>(n) - view.failed_node_count();
  SORN_ASSERT(pool > 0, "no eligible node for stochastic fault");
  std::uint64_t k = rng_.next_below(pool);
  for (NodeId i = 0; i < n; ++i) {
    if (view.is_node_failed(i) != failed) continue;
    if (k == 0) return i;
    --k;
  }
  SORN_ASSERT(false, "stochastic node pick out of sync with failure view");
  return 0;
}

void FaultInjector::pick_circuit(const SlottedNetwork& net, bool failed,
                                 NodeId* src, NodeId* dst) {
  const FailureView& view = net.failure_view();
  const NodeId n = net.node_count();
  const std::uint64_t circuits = static_cast<std::uint64_t>(n) *
                                 static_cast<std::uint64_t>(n - 1);
  const std::uint64_t pool = failed
                                 ? view.failed_circuit_count()
                                 : circuits - view.failed_circuit_count();
  SORN_ASSERT(pool > 0, "no eligible circuit for stochastic fault");
  std::uint64_t k = rng_.next_below(pool);
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      if (view.is_circuit_failed(s, d) != failed) continue;
      if (k == 0) {
        *src = s;
        *dst = d;
        return;
      }
      --k;
    }
  }
  SORN_ASSERT(false, "stochastic circuit pick out of sync with failure view");
}

void FaultInjector::apply_stochastic(SlottedNetwork& net) {
  const FailureView& view = net.failure_view();
  const auto n = static_cast<double>(net.node_count());
  double node_fail_rate = 0.0, node_heal_rate = 0.0;
  double circuit_fail_rate = 0.0, circuit_heal_rate = 0.0;
  if (opt_.node_mtbf_slots > 0) {
    const auto failed = static_cast<double>(view.failed_node_count());
    node_fail_rate = (n - failed) / opt_.node_mtbf_slots;
    node_heal_rate = failed / opt_.node_mttr_slots;
  }
  if (opt_.circuit_mtbf_slots > 0) {
    const double circuits = n * (n - 1.0);
    const auto failed = static_cast<double>(view.failed_circuit_count());
    circuit_fail_rate = (circuits - failed) / opt_.circuit_mtbf_slots;
    circuit_heal_rate = failed / opt_.circuit_mttr_slots;
  }
  const double total = node_fail_rate + node_heal_rate + circuit_fail_rate +
                       circuit_heal_rate;
  if (total <= 0.0) return;
  double r = rng_.next_double() * total;
  const Slot now = net.now();
  if (r < node_fail_rate) {
    if (net.fail_node(pick_node(net, /*failed=*/false))) {
      ++stochastic_failures_;
      note_applied(now);
    }
    return;
  }
  r -= node_fail_rate;
  if (r < node_heal_rate) {
    if (net.heal_node(pick_node(net, /*failed=*/true))) {
      ++stochastic_heals_;
      note_applied(now);
    }
    return;
  }
  r -= node_heal_rate;
  NodeId src = 0, dst = 0;
  if (r < circuit_fail_rate) {
    pick_circuit(net, /*failed=*/false, &src, &dst);
    if (net.fail_circuit(src, dst)) {
      ++stochastic_failures_;
      note_applied(now);
    }
    return;
  }
  pick_circuit(net, /*failed=*/true, &src, &dst);
  if (net.heal_circuit(src, dst)) {
    ++stochastic_heals_;
    note_applied(now);
  }
}

void FaultInjector::tick(SlottedNetwork& net) {
  // All fault RNG and fail/heal mutation happens here, between slots, so
  // a seeded run replays the same fault timeline.
  const Slot now = net.now();
  bool changed = false;
  const std::vector<FaultEvent>& events = script_.events();
  while (next_event_ < events.size() && events[next_event_].slot <= now) {
    const FaultEvent& ev = events[next_event_++];
    if (apply(net, ev)) {
      ++scripted_applied_;
      note_applied(now);
      changed = true;
    }
  }
  if (!stochastic()) return;
  // Transition rates change with the failure state; the exponential is
  // memoryless, so redrawing the pending transition after any state
  // change keeps the model exact.
  if (pending_slot_ == kNone || changed) schedule_next(net, now);
  while (pending_slot_ != kNone && pending_slot_ <= now) {
    apply_stochastic(net);
    schedule_next(net, now);
  }
}

}  // namespace sorn
