#include "sim/telemetry.h"

#include "sim/network.h"

namespace sorn {

Telemetry::Telemetry(TelemetryOptions options) {
  if (options.sample_every >= 1)
    sampler_.emplace(options.sample_every);
}

std::array<std::pair<const char*, std::uint64_t>, 7>
Telemetry::named_counters() const {
  const TelemetryCounters& c = counters_;
  return {{{"sim.cells_dropped", c.cells_dropped},
           {"sim.ecn_marks", c.ecn_marks},
           {"sim.failures", c.failures},
           {"sim.flows_injected", c.flows_injected},
           {"sim.gray_drops", c.gray_drops},
           {"sim.reconfigures", c.reconfigures},
           {"sim.retransmits", c.retransmits}}};
}

void Telemetry::on_slot_end(Slot slot, const SlottedNetwork& network) {
  if (!sampler_ || !sampler_->due(slot)) return;
  Profiler* const profiler = network.profiler();
  ScopedPhase flush(profiler != nullptr ? &profiler->phases() : nullptr,
                    ProfPhase::kTelemetryFlush);
  const SimMetrics& m = network.metrics();
  sampler_->record(slot, m.injected_cells(), m.delivered_cells(),
                   m.dropped_cells(), m.forwarded_cells(),
                   network.cells_in_flight(), network.max_queue_depth(),
                   m.open_flows());
}

}  // namespace sorn
