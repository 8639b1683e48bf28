#include "obs/export.h"

#include <cstdio>

namespace sorn {

void json_running_stats(JsonWriter& w, const RunningStats& s) {
  w.begin_object()
      .field("count", static_cast<std::uint64_t>(s.count()))
      .field("mean", s.mean())
      .field("stddev", s.stddev())
      .field("min", s.min())
      .field("max", s.max())
      .end_object();
}

void json_percentiles(JsonWriter& w, const Percentiles& p) {
  w.begin_object().field("count", static_cast<std::uint64_t>(p.count()));
  w.field("mean", p.mean());
  for (const double q : {0.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    char key[16];
    std::snprintf(key, sizeof(key), "p%g", q);
    w.field(key, p.percentile(q));
  }
  w.end_object();
}

void json_histogram(JsonWriter& w, const Histogram& h) {
  w.begin_object().field("total", h.total());
  w.key("bins").begin_array();
  for (std::size_t i = 0; i < h.bins(); ++i) {
    w.begin_object()
        .field("low", h.bin_low(i))
        .field("count", h.bin_count(i))
        .end_object();
  }
  w.end_array().end_object();
}

namespace {

// Fixed-bin histogram over a sample distribution's [min, max] range;
// empty distributions yield a single empty bin.
Histogram histogram_of(const Percentiles& p, std::size_t bins) {
  const double lo = p.percentile(0.0);
  double hi = p.percentile(100.0);
  if (hi <= lo) hi = lo + 1.0;
  Histogram h(lo, hi, bins);
  for (const double x : p.sorted()) h.add(x);
  return h;
}

}  // namespace

std::string run_to_json(const SimMetrics& metrics, const Telemetry* telemetry,
                        const ExportOptions& options) {
  JsonWriter w;
  w.begin_object();

  w.key("counters").begin_object();
  w.field("slots_run", metrics.slots_run())
      .field("injected_cells", metrics.injected_cells())
      .field("delivered_cells", metrics.delivered_cells())
      .field("forwarded_cells", metrics.forwarded_cells())
      .field("dropped_cells", metrics.dropped_cells())
      .field("gray_dropped_cells", metrics.gray_dropped_cells())
      .field("completed_flows", metrics.completed_flows())
      .field("open_flows", metrics.open_flows())
      .field("retransmitted_cells", metrics.retransmitted_cells())
      .field("retransmit_events", metrics.retransmit_events())
      .field("duplicate_cells", metrics.duplicate_cells())
      .field("stalled_flow_slots", metrics.stalled_flow_slots())
      .field("recovered_flows", metrics.recovered_flows())
      .field("mean_recovery_slots", metrics.mean_recovery_slots())
      .field("ecn_marked_cells", metrics.ecn_marked_cells())
      .field("mean_hops", metrics.mean_hops());
  if (options.nodes > 0) {
    w.field("delivered_per_slot",
            metrics.delivered_per_slot(options.nodes, options.lanes));
  }
  w.end_object();

  w.key("cell_latency_ps");
  json_percentiles(w, metrics.cell_latency_ps());
  if (options.latency_histogram_bins > 0 &&
      metrics.cell_latency_ps().count() > 0) {
    w.key("cell_latency_histogram");
    json_histogram(w, histogram_of(metrics.cell_latency_ps(),
                                   options.latency_histogram_bins));
  }

  w.key("fct_ps");
  json_percentiles(w, metrics.fct_ps());
  w.key("fct_ps_by_class").begin_object();
  for (const int cls : metrics.flow_classes()) {
    char key[16];
    std::snprintf(key, sizeof(key), "%d", cls);
    w.key(key);
    json_percentiles(w, metrics.fct_ps_class(cls));
  }
  w.end_object();

  w.key("queue_occupancy");
  json_running_stats(w, metrics.queue_occupancy());

  if (options.transport != nullptr) {
    const TransportStats& t = *options.transport;
    w.key("transport").begin_object();
    w.field("flows_opened", t.flows_opened)
        .field("flows_completed", t.flows_completed)
        .field("cells_sent", t.cells_sent)
        .field("acked_cells", t.acked_cells)
        .field("ecn_acked_cells", t.ecn_acked_cells);
    w.key("cwnd_cells");
    json_running_stats(w, t.cwnd_cells);
    w.end_object();
  }

  if (telemetry != nullptr) {
    w.key("registry").begin_object();
    w.key("counters").begin_object();
    for (const auto& [name, v] : telemetry->named_counters())
      w.field(name, v);
    w.end_object();
    // Telemetry keeps no gauges; the empty object keeps the layout.
    w.key("gauges").begin_object().end_object();
    w.end_object();

    if (const TimeSeriesSampler* ts = telemetry->timeseries()) {
      w.key("timeseries").begin_object();
      w.field("sample_every", static_cast<std::int64_t>(ts->sample_every()));
      w.key("columns").begin_array();
      for (const char* col :
           {"slot", "injected", "delivered", "dropped", "forwarded",
            "queued_cells", "max_voq_depth", "open_flows"})
        w.value(col);
      w.end_array();
      w.key("rows").begin_array();
      for (const SlotSample& s : ts->samples()) {
        w.begin_array()
            .value(static_cast<std::int64_t>(s.slot))
            .value(s.injected)
            .value(s.delivered)
            .value(s.dropped)
            .value(s.forwarded)
            .value(s.queued_cells)
            .value(s.max_voq_depth)
            .value(s.open_flows)
            .end_array();
      }
      w.end_array().end_object();
    }
  }

  w.end_object();
  return w.take();
}

std::string timeseries_to_csv(const TimeSeriesSampler& sampler) {
  return sampler.to_csv();
}

bool write_text_file(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  // fclose flushes the buffer, so a full disk often surfaces only here.
  const bool closed = std::fclose(f) == 0;
  return wrote && closed;
}

bool read_text_file(const std::string& path, std::string* content) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  content->clear();
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
    content->append(buf, got);
  std::fclose(f);
  return true;
}

}  // namespace sorn
