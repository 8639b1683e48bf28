// Gray (partial) circuit failures: links that stay up but misbehave.
//
// Complements routing/failure_view.h's fail-stop model with two degraded
// modes per directed circuit, freely combined:
//
//   lossy     — each transmitted cell is independently lost with
//               probability loss_p (optics with a marginal transceiver);
//   throttled — the circuit only serves a `capacity` fraction of its
//               slots (a lane running below line rate); in an inactive
//               slot the head cell stays queued, exactly like a fail-stop
//               outage slot.
//
// Determinism contract: both decisions are *stateless* — a splitmix64
// hash of (seed, slot, circuit, cell identity) compared against the
// probability — so the take pass can evaluate them without drawing the
// shared Rng. The same (seed, slot, cell) always gives the same verdict,
// which keeps runs byte-identical (see DESIGN.md §12).
//
// Mutation happens only between slots (FaultInjector::tick); the take
// pass only reads the map.
#pragma once

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/cell.h"
#include "util/assert.h"
#include "util/time.h"
#include "util/types.h"

namespace sorn {

struct GrayCircuit {
  double loss_p = 0.0;    // per-cell loss probability, [0, 1]
  double capacity = 1.0;  // fraction of slots the circuit serves, [0, 1]
};

class GrayFailureView {
 public:
  explicit GrayFailureView(NodeId nodes) : n_(nodes) {}

  // Fast path for the sweep: no degraded circuits, no lookups.
  bool any() const { return !circuits_.empty(); }

  void set_seed(std::uint64_t seed) { seed_ = seed; }
  std::uint64_t seed() const { return seed_; }

  // ---- Mutators (between slots) ----
  // Idempotent: the return value reports whether state actually changed,
  // so injectors can skip duplicate telemetry.
  bool degrade_circuit(NodeId src, NodeId dst, double loss_p) {
    SORN_ASSERT(loss_p >= 0.0 && loss_p <= 1.0,
                "loss probability must be in [0, 1]");
    GrayCircuit& g = circuits_[key(src, dst)];
    if (g.loss_p == loss_p) {
      prune(src, dst, g);
      return false;
    }
    g.loss_p = loss_p;
    prune(src, dst, g);
    return true;
  }
  bool throttle_circuit(NodeId src, NodeId dst, double capacity) {
    SORN_ASSERT(capacity >= 0.0 && capacity <= 1.0,
                "capacity must be in [0, 1]");
    GrayCircuit& g = circuits_[key(src, dst)];
    if (g.capacity == capacity) {
      prune(src, dst, g);
      return false;
    }
    g.capacity = capacity;
    prune(src, dst, g);
    return true;
  }
  bool restore_circuit(NodeId src, NodeId dst) {
    return circuits_.erase(key(src, dst)) > 0;
  }
  std::uint64_t restore_all() {
    const std::uint64_t n = circuits_.size();
    circuits_.clear();
    return n;
  }

  // ---- Sweep-side queries (any thread, read-only) ----
  // The degraded state of (src, dst), or nullptr when healthy. The
  // pointer stays valid for the whole sweep (no mutation during sweeps).
  const GrayCircuit* find(NodeId src, NodeId dst) const {
    const auto it = circuits_.find(key(src, dst));
    return it == circuits_.end() ? nullptr : &it->second;
  }

  // Whether a throttled circuit serves this slot: a seeded hash of
  // (slot, circuit) thins the slot stream to the capacity fraction.
  bool slot_active(Slot slot, NodeId src, NodeId dst,
                   const GrayCircuit& g) const {
    if (g.capacity >= 1.0) return true;
    std::uint64_t h = mix(seed_ ^ kCapacityDomain ^
                          static_cast<std::uint64_t>(slot));
    h = mix(h ^ key(src, dst));
    return to_unit(h) < g.capacity;
  }

  // Whether this particular transmission is lost. Keyed on the cell's
  // identity (flow, seq, hop) as well as the slot, so a retransmitted
  // copy crossing the same circuit re-rolls its fate.
  bool cell_lost(Slot slot, NodeId src, NodeId dst, const GrayCircuit& g,
                 const Cell& cell) const {
    if (g.loss_p <= 0.0) return false;
    std::uint64_t h = mix(seed_ ^ kLossDomain ^
                          static_cast<std::uint64_t>(slot));
    h = mix(h ^ key(src, dst));
    h = mix(h ^ cell.flow());
    h = mix(h ^ ((static_cast<std::uint64_t>(cell.seq()) << 16) |
                 static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(cell.hop()) & 0xffff)));
    return to_unit(h) < g.loss_p;
  }

  // ---- Introspection ----
  std::uint64_t degraded_circuit_count() const { return circuits_.size(); }
  // Sorted by (src, dst) for deterministic reporting.
  std::vector<std::tuple<NodeId, NodeId, GrayCircuit>> degraded_circuits()
      const {
    std::vector<std::tuple<NodeId, NodeId, GrayCircuit>> out;
    out.reserve(circuits_.size());
    for (const auto& [k, g] : circuits_) {
      out.emplace_back(static_cast<NodeId>(k / static_cast<std::uint64_t>(n_)),
                       static_cast<NodeId>(k % static_cast<std::uint64_t>(n_)),
                       g);
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) {
                return std::make_pair(std::get<0>(a), std::get<1>(a)) <
                       std::make_pair(std::get<0>(b), std::get<1>(b));
              });
    return out;
  }

 private:
  static constexpr std::uint64_t kLossDomain = 0x6c6f73737943656cULL;
  static constexpr std::uint64_t kCapacityDomain = 0x746872746c536c74ULL;

  std::uint64_t key(NodeId src, NodeId dst) const {
    return static_cast<std::uint64_t>(src) * static_cast<std::uint64_t>(n_) +
           static_cast<std::uint64_t>(dst);
  }
  // A circuit degraded back to the healthy point is dropped from the map
  // so any() stays an exact fast path.
  void prune(NodeId src, NodeId dst, const GrayCircuit& g) {
    if (g.loss_p <= 0.0 && g.capacity >= 1.0)
      circuits_.erase(key(src, dst));
  }
  // splitmix64 finalizer: cheap, stateless, well mixed.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  static double to_unit(std::uint64_t h) {
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  }

  NodeId n_;
  std::uint64_t seed_ = 1;
  // Sparse: only degraded circuits are stored, keyed src * n + dst.
  std::unordered_map<std::uint64_t, GrayCircuit> circuits_;
};

}  // namespace sorn
