// Design: the common construction interface over the routing designs the
// paper compares (Table 1 / Fig. 2f) — SORN, hierarchical SORN,
// RotorNet-style, Opera-style, h-dimensional ORN, mixed-radix ORN, and
// the flat 1D ORN + VLB baseline.
//
// Each design registers a factory that, given a ScenarioConfig, produces
// its circuit schedule and router(s); DesignRegistry lets every tool,
// bench and example enumerate and build them through one code path
// (`sorn_tool simulate --design <d>`, and experiments such as
// experiments/compare_designs.json that set `design` per point), instead
// of the per-design construction that used to be copy-pasted across
// examples/ and bench/.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "routing/router.h"
#include "topo/clique.h"
#include "topo/hierarchy.h"
#include "topo/schedule.h"

namespace sorn {

struct ScenarioConfig;

// A built fabric: borrowed pointers into design-owned state, kept alive
// by `owner`. The pointers stay valid for the lifetime of the BuiltDesign
// (move-sharing the owner keeps them valid across copies).
struct BuiltDesign {
  const CircuitSchedule* schedule = nullptr;
  const Router* router = nullptr;
  // Secondary router for designs that split traffic classes (Opera: bulk
  // flows on the direct rotation circuit). Null for single-router designs.
  const Router* bulk_router = nullptr;
  // Clique structure locality traffic is generated over; null for designs
  // without one (each node treated as its own clique by the runner).
  const CliqueAssignment* cliques = nullptr;
  // Hierarchy for hier-locality traffic; null otherwise.
  const Hierarchy* hierarchy = nullptr;
  // Closed-form worst-case throughput r of this configuration.
  double predicted_throughput = 0.0;
  // Human-oriented description of the materialized configuration
  // ("q = 3/1, period 24"), for tool output.
  std::string summary;
  // Route around the given live failure state (nullptr restores oblivious
  // routing). Always callable.
  std::function<void(const FailureView*)> set_failure_view;
  // Keeps everything the pointers reference alive.
  std::shared_ptr<void> owner;
};

class Design {
 public:
  virtual ~Design() = default;

  // Registry key ("sorn", "orn-hd", ...).
  virtual std::string name() const = 0;
  // One-line description for `sorn_tool designs`.
  virtual std::string description() const = 0;

  // Materialize schedule + router(s) for the config. On failure returns
  // false and sets *error (config invalid for this design, e.g. orn-hd
  // with a node count that is not a perfect power, or a sorn schedule
  // period past its cap); out is untouched.
  virtual bool build(const ScenarioConfig& config, BuiltDesign* out,
                     std::string* error) const = 0;
};

// Process-wide design registry. Builtin designs are registered on first
// access (no static-initialization-order games); libraries and tests may
// add their own. Lookup and listing are deterministic: names are kept
// sorted.
class DesignRegistry {
 public:
  // An empty registry; tests compose their own. instance() is the
  // builtin-populated process-wide one.
  DesignRegistry() = default;

  static DesignRegistry& instance();

  // Register a design; replaces any existing design of the same name.
  void add(std::unique_ptr<Design> design);

  // nullptr when unknown.
  const Design* find(const std::string& name) const;

  // All registered names, sorted.
  std::vector<std::string> names() const;

  // Convenience: find + build, with an "unknown design" error naming the
  // available ones when the name does not resolve.
  bool build(const std::string& name, const ScenarioConfig& config,
             BuiltDesign* out, std::string* error) const;

 private:
  std::vector<std::unique_ptr<Design>> designs_;  // sorted by name
};

// Registers the seven builtin designs into `registry`. Called once by
// DesignRegistry::instance(); exposed for tests that build a private
// registry.
void register_builtin_designs(DesignRegistry& registry);

}  // namespace sorn
