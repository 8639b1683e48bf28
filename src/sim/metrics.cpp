#include "sim/metrics.h"

#include <algorithm>

#include "util/assert.h"

namespace sorn {

SimMetrics::SimMetrics(Picoseconds slot_duration,
                       Picoseconds propagation_per_hop)
    : slot_duration_(slot_duration), propagation_per_hop_(propagation_per_hop) {
  SORN_ASSERT(slot_duration > 0, "slot duration must be positive");
  SORN_ASSERT(propagation_per_hop >= 0, "propagation must be nonnegative");
}

void SimMetrics::on_inject(const Cell& cell, NodeId src,
                           std::uint64_t flow_cells, std::uint64_t flow_bytes,
                           int flow_class, bool bulk) {
  ++injected_cells_;
  if (cell.flow() == kNoFlow) return;
  auto [it, inserted] = open_flows_.try_emplace(cell.flow(), 0);
  if (inserted) {
    const std::uint32_t idx = flow_arena_.allocate();
    it->second = idx;
    // The record may be recycled from a completed flow — every field must
    // be re-initialized here (the delivered bitmap's assign() reuses the
    // old capacity, which is the point of the arena).
    FlowRecord& rec = flow_arena_[idx];
    rec.inject_slot = cell.inject_slot();
    rec.cells_total = flow_cells;
    rec.cells_remaining = flow_cells;
    rec.bytes = flow_bytes;
    rec.flow_class = flow_class;
    rec.bulk = bulk;
    rec.src = src;
    rec.dst = cell.dst();
    rec.delivered.assign(static_cast<std::size_t>(flow_cells), false);
    rec.last_progress_slot = cell.inject_slot();
    rec.first_stall_slot = 0;
    rec.stalled = false;
    rec.attempts = 0;
    rec.cells_sent = 0;
  }
  // Track the frontier of first transmissions: a windowed transport
  // injects a flow's cells across many slots, and the stall detector must
  // not "retransmit" seqs that were never sent (collect_retransmits).
  FlowRecord& rec = flow_arena_[it->second];
  if (cell.seq() >= rec.cells_sent) rec.cells_sent = cell.seq() + 1;
}

SimMetrics::Delivery SimMetrics::on_deliver(const Cell& cell, Slot now) {
  ++delivered_cells_;
  const auto hops = static_cast<std::uint64_t>(cell.hop_count());
  delivered_hops_ += hops;
  const Picoseconds latency =
      (now - cell.inject_slot()) * slot_duration_ +
      static_cast<Picoseconds>(hops) * propagation_per_hop_;
  cell_latency_ps_.add(static_cast<double>(latency));
  Delivery d;
  if (cell.flow() == kNoFlow) return d;
  const auto it = open_flows_.find(cell.flow());
  if (it == open_flows_.end()) {
    // A retransmitted copy arriving after its flow already completed.
    ++duplicate_cells_;
    return d;
  }
  FlowRecord& rec = flow_arena_[it->second];
  if (cell.seq() < rec.delivered.size()) {
    if (rec.delivered[cell.seq()]) {
      // The original and a retransmission both made it; keep the first.
      ++duplicate_cells_;
      return d;
    }
    rec.delivered[cell.seq()] = true;
  }
  d.first_copy = true;
  rec.last_progress_slot = now;
  SORN_ASSERT(rec.cells_remaining > 0, "flow over-delivered");
  if (--rec.cells_remaining == 0) {
    d.completed = true;
    d.fct_ps = (now - rec.inject_slot) * slot_duration_ +
               static_cast<Picoseconds>(hops) * propagation_per_hop_;
    d.flow_class = rec.flow_class;
    fct_ps_.add(static_cast<double>(d.fct_ps));
    fct_by_class_[rec.flow_class].add(static_cast<double>(d.fct_ps));
    ++completed_flows_;
    if (rec.stalled) {
      ++recovered_flows_;
      recovery_slots_total_ +=
          static_cast<std::uint64_t>(now - rec.first_stall_slot);
    }
    flow_arena_.release(it->second);
    open_flows_.erase(it);
  }
  return d;
}

namespace {

// splitmix64 finalizer; same construction as GrayFailureView's hash.
std::uint64_t jitter_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::vector<SimMetrics::StalledFlow> SimMetrics::collect_retransmits(
    Slot now, Slot timeout_slots, std::uint32_t max_attempts,
    double jitter_frac, std::uint64_t jitter_seed) {
  std::vector<StalledFlow> out;
  if (timeout_slots <= 0) return out;
  for (auto& [flow, idx] : open_flows_) {
    FlowRecord& rec = flow_arena_[idx];
    if (rec.attempts >= max_attempts) continue;
    Slot wait = timeout_slots << std::min<std::uint32_t>(rec.attempts, 30);
    if (jitter_frac > 0.0) {
      // Deterministic per-(flow, round) factor in [1 - j/2, 1 + j/2]:
      // flows stalled by one outage spread their re-admissions instead of
      // stampeding the source VOQs on the same slot after heal. Hash, not
      // Rng: the draw count must not depend on which flows are open.
      const std::uint64_t h =
          jitter_mix(jitter_mix(jitter_seed ^ flow) ^ rec.attempts);
      const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
      const double factor = 1.0 + jitter_frac * (unit - 0.5);
      wait = std::max<Slot>(
          1, static_cast<Slot>(static_cast<double>(wait) * factor));
    }
    if (now - rec.last_progress_slot < wait) continue;
    StalledFlow sf;
    sf.flow = flow;
    sf.src = rec.src;
    sf.dst = rec.dst;
    sf.flow_class = rec.flow_class;
    sf.bulk = rec.bulk;
    // Only seqs the source actually injected at least once are missing;
    // cells still held back by a transport window are not (re-admitting
    // them here would bypass the congestion window). Open-loop flows
    // inject everything up front, so sent == delivered.size() for them.
    const std::size_t sent = std::min<std::size_t>(
        rec.delivered.size(), static_cast<std::size_t>(rec.cells_sent));
    for (std::size_t s = 0; s < sent; ++s) {
      if (!rec.delivered[s])
        sf.missing.push_back(static_cast<std::uint32_t>(s));
    }
    if (sf.missing.empty()) continue;  // all copies in flight already landed
    sf.attempt = ++rec.attempts;
    stalled_flow_slots_ +=
        static_cast<std::uint64_t>(now - rec.last_progress_slot);
    if (!rec.stalled) {
      rec.stalled = true;
      rec.first_stall_slot = rec.last_progress_slot;
    }
    // Restart the clock: the next round waits timeout * 2^attempts from
    // this re-admission.
    rec.last_progress_slot = now;
    ++retransmit_events_;
    out.push_back(std::move(sf));
  }
  // open_flows_ iteration order is unspecified; sort so re-admission (and
  // the RNG draws it triggers) is deterministic across platforms and runs.
  std::sort(out.begin(), out.end(),
            [](const StalledFlow& a, const StalledFlow& b) {
              return a.flow < b.flow;
            });
  return out;
}

const Percentiles& SimMetrics::fct_ps_class(int flow_class) const {
  static const Percentiles kEmpty;
  const auto it = fct_by_class_.find(flow_class);
  return it == fct_by_class_.end() ? kEmpty : it->second;
}

std::vector<int> SimMetrics::flow_classes() const {
  std::vector<int> classes;
  classes.reserve(fct_by_class_.size());
  for (const auto& [cls, ps] : fct_by_class_) classes.push_back(cls);
  std::sort(classes.begin(), classes.end());
  return classes;
}

void SimMetrics::reset_counters() {
  injected_cells_ = 0;
  delivered_cells_ = 0;
  forwarded_cells_ = 0;
  dropped_cells_ = 0;
  gray_dropped_cells_ = 0;
  ecn_marked_cells_ = 0;
  slots_run_ = 0;
  completed_flows_ = 0;
  delivered_hops_ = 0;
  retransmitted_cells_ = 0;
  retransmit_events_ = 0;
  duplicate_cells_ = 0;
  stalled_flow_slots_ = 0;
  recovered_flows_ = 0;
  recovery_slots_total_ = 0;
  cell_latency_ps_ = Percentiles();
  fct_ps_ = Percentiles();
  fct_by_class_.clear();
  queue_occupancy_ = RunningStats();
}

void SimMetrics::on_slot(std::uint64_t queued_cells) {
  ++slots_run_;
  queue_occupancy_.add(static_cast<double>(queued_cells));
}

double SimMetrics::mean_hops() const {
  return delivered_cells_ == 0 ? 0.0
                               : static_cast<double>(delivered_hops_) /
                                     static_cast<double>(delivered_cells_);
}

double SimMetrics::delivered_per_slot(NodeId nodes, int lanes) const {
  if (slots_run_ == 0) return 0.0;
  return static_cast<double>(delivered_cells_) /
         (static_cast<double>(slots_run_) * static_cast<double>(nodes) *
          static_cast<double>(lanes));
}

std::uint64_t SimMetrics::flow_records_bytes() const {
  // Hash-map node (key + arena index + bucket pointer, libstdc++ layout
  // approximation) plus the record arena itself (live + recyclable slots
  // — allocator truth for the structs).
  return open_flows_.size() *
             (sizeof(FlowId) + sizeof(std::uint32_t) + 2 * sizeof(void*)) +
         flow_arena_.memory_bytes();
}

std::uint64_t SimMetrics::retransmit_state_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& [flow, idx] : open_flows_)
    bytes += flow_arena_[idx].delivered.capacity() / 8;  // one bit per seq
  return bytes;
}

std::uint64_t SimMetrics::distributions_bytes() const {
  std::uint64_t samples = cell_latency_ps_.count() + fct_ps_.count();
  for (const auto& [cls, p] : fct_by_class_) samples += p.count();
  return samples * sizeof(double);
}

}  // namespace sorn
