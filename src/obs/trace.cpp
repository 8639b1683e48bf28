#include "obs/trace.h"

#include "obs/json.h"

namespace sorn {

FileTraceSink::FileTraceSink(const std::string& path)
    : f_(std::fopen(path.c_str(), "w")) {}

FileTraceSink::~FileTraceSink() { close(); }

bool FileTraceSink::close() {
  if (f_ == nullptr) return false;
  // The stream's error flag records any failed write since it opened.
  const bool wrote = std::ferror(f_) == 0;
  const bool closed = std::fclose(f_) == 0;
  f_ = nullptr;
  return wrote && closed;
}

void FileTraceSink::write(std::string_view record) {
  if (f_ == nullptr) return;
  std::fwrite(record.data(), 1, record.size(), f_);
  std::fputc('\n', f_);
}

namespace {

JsonWriter event(std::string_view ev, Slot slot) {
  JsonWriter w;
  w.begin_object().field("ev", ev).field("slot", static_cast<std::int64_t>(slot));
  return w;
}

}  // namespace

void Tracer::flow_inject(Slot slot, std::uint64_t flow, NodeId src, NodeId dst,
                         std::uint64_t bytes, int flow_class) {
  if (!enabled()) return;
  JsonWriter w = event("flow_inject", slot);
  w.field("flow", flow)
      .field("src", src)
      .field("dst", dst)
      .field("bytes", bytes)
      .field("class", flow_class)
      .end_object();
  sink_->write(w.str());
}

void Tracer::flow_complete(Slot slot, std::uint64_t flow, Picoseconds fct_ps,
                           int flow_class) {
  if (!enabled()) return;
  JsonWriter w = event("flow_complete", slot);
  w.field("flow", flow)
      .field("fct_ps", static_cast<std::int64_t>(fct_ps))
      .field("class", flow_class)
      .end_object();
  sink_->write(w.str());
}

void Tracer::cell_drop(Slot slot, NodeId at, NodeId next_hop,
                       std::uint64_t flow) {
  if (!enabled()) return;
  JsonWriter w = event("cell_drop", slot);
  w.field("at", at).field("next_hop", next_hop).field("flow", flow)
      .end_object();
  sink_->write(w.str());
}

void Tracer::reconfigure(Slot slot) {
  if (!enabled()) return;
  JsonWriter w = event("reconfigure", slot);
  w.end_object();
  sink_->write(w.str());
}

void Tracer::node_fail(Slot slot, NodeId node) {
  if (!enabled()) return;
  JsonWriter w = event("node_fail", slot);
  w.field("node", node).end_object();
  sink_->write(w.str());
}

void Tracer::node_heal(Slot slot, NodeId node) {
  if (!enabled()) return;
  JsonWriter w = event("node_heal", slot);
  w.field("node", node).end_object();
  sink_->write(w.str());
}

void Tracer::circuit_fail(Slot slot, NodeId src, NodeId dst) {
  if (!enabled()) return;
  JsonWriter w = event("circuit_fail", slot);
  w.field("src", src).field("dst", dst).end_object();
  sink_->write(w.str());
}

void Tracer::circuit_heal(Slot slot, NodeId src, NodeId dst) {
  if (!enabled()) return;
  JsonWriter w = event("circuit_heal", slot);
  w.field("src", src).field("dst", dst).end_object();
  sink_->write(w.str());
}

void Tracer::circuit_degrade(Slot slot, NodeId src, NodeId dst, double loss_p,
                             double capacity) {
  if (!enabled()) return;
  JsonWriter w = event("circuit_degrade", slot);
  w.field("src", src)
      .field("dst", dst)
      .field("loss_p", loss_p)
      .field("capacity", capacity)
      .end_object();
  sink_->write(w.str());
}

void Tracer::circuit_restore(Slot slot, NodeId src, NodeId dst) {
  if (!enabled()) return;
  JsonWriter w = event("circuit_restore", slot);
  w.field("src", src).field("dst", dst).end_object();
  sink_->write(w.str());
}

void Tracer::gray_drop(Slot slot, NodeId at, NodeId next_hop,
                       std::uint64_t flow) {
  if (!enabled()) return;
  JsonWriter w = event("gray_drop", slot);
  w.field("at", at).field("next_hop", next_hop).field("flow", flow)
      .end_object();
  sink_->write(w.str());
}

void Tracer::retransmit(Slot slot, std::uint64_t flow, std::uint64_t cells,
                        std::uint32_t attempt) {
  if (!enabled()) return;
  JsonWriter w = event("retransmit", slot);
  w.field("flow", flow)
      .field("cells", cells)
      .field("attempt", static_cast<std::int64_t>(attempt))
      .end_object();
  sink_->write(w.str());
}

void Tracer::replan(Slot slot, std::string_view reason, double macro_change,
                    double locality_estimate, double planned_locality,
                    int cliques, double q, std::uint64_t replans) {
  if (!enabled()) return;
  JsonWriter w = event("replan", slot);
  w.field("reason", reason)
      .field("macro_change", macro_change)
      .field("locality_estimate", locality_estimate)
      .field("planned_locality", planned_locality)
      .field("cliques", cliques)
      .field("q", q)
      .field("replans", replans)
      .end_object();
  sink_->write(w.str());
}

void Tracer::reconfig_staged(Slot slot, Slot due, int cliques, double q,
                             bool weighted) {
  if (!enabled()) return;
  JsonWriter w = event("reconfig_staged", slot);
  w.field("due", static_cast<std::int64_t>(due))
      .field("cliques", cliques)
      .field("q", q)
      .field("weighted", weighted)
      .end_object();
  sink_->write(w.str());
}

void Tracer::reconfig_applied(Slot slot, std::uint64_t swaps_applied) {
  if (!enabled()) return;
  JsonWriter w = event("reconfig_applied", slot);
  w.field("swaps_applied", swaps_applied).end_object();
  sink_->write(w.str());
}

void Tracer::controller_down(Slot slot) {
  if (!enabled()) return;
  JsonWriter w = event("controller_down", slot);
  w.end_object();
  sink_->write(w.str());
}

void Tracer::controller_up(Slot slot) {
  if (!enabled()) return;
  JsonWriter w = event("controller_up", slot);
  w.end_object();
  sink_->write(w.str());
}

void Tracer::safe_mode_enter(Slot slot, std::string_view policy) {
  if (!enabled()) return;
  JsonWriter w = event("safe_mode_enter", slot);
  w.field("policy", policy).end_object();
  sink_->write(w.str());
}

void Tracer::safe_mode_exit(Slot slot) {
  if (!enabled()) return;
  JsonWriter w = event("safe_mode_exit", slot);
  w.end_object();
  sink_->write(w.str());
}

}  // namespace sorn
