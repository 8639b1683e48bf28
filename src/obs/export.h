// Whole-run exporters: aggregates, percentiles, histograms, time series.
//
// JSON output is built with obs/json.h and is byte-deterministic for a
// given run (keys in fixed order, per-class distributions sorted by
// class id); the CSV time series comes straight from the sampler. Both
// are meant for downstream tooling — BENCH_*.json trajectories, plotting
// scripts — not for human eyes, which keep the ASCII tables.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "obs/json.h"
#include "sim/metrics.h"
#include "sim/telemetry.h"
#include "sim/transport_hook.h"

namespace sorn {

struct ExportOptions {
  // When nodes > 0 the summary includes delivered_per_slot (throughput r).
  NodeId nodes = 0;
  int lanes = 1;
  // Bins of the cell-latency histogram (0 disables it).
  std::size_t latency_histogram_bins = 20;
  // When non-null the document gains a "transport" block (window/ack
  // counters + cwnd stats) — set by runs with a closed-loop transport.
  const TransportStats* transport = nullptr;
};

// Append helpers, usable to embed the same blocks in other documents.
void json_running_stats(JsonWriter& w, const RunningStats& s);
void json_percentiles(JsonWriter& w, const Percentiles& p);
void json_histogram(JsonWriter& w, const Histogram& h);

// The full run as one JSON document: counters, throughput, cell-latency
// percentiles + histogram, FCT percentiles (overall and per class),
// queue-occupancy stats, plus — when `telemetry` is non-null — its
// counters (the "registry" block) and the sampled time series.
std::string run_to_json(const SimMetrics& metrics, const Telemetry* telemetry,
                        const ExportOptions& options = {});

// The sampled time series as CSV (header + one row per sample).
std::string timeseries_to_csv(const TimeSeriesSampler& sampler);

// Write `content` to `path`; false (with no partial file guarantee) when
// the file cannot be opened, written or closed.
bool write_text_file(const std::string& path, std::string_view content);

// Read the whole file at `path` into *content; false when it cannot be
// opened.
bool read_text_file(const std::string& path, std::string* content);

}  // namespace sorn
