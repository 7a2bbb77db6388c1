#include "diag/diagnosis_engine.h"

#include <algorithm>

#include "core/cross_layer_analyzer.h"
#include "core/report.h"
#include "device/device.h"
#include "radio/cellular_link.h"

namespace qoed::diag {

DiagnosisEngine::DiagnosisEngine(device::Device& dev,
                                 core::FlowAnalyzer& flows,
                                 DiagnosisConfig cfg)
    : device_(dev), flows_(&flows), cfg_(std::move(cfg)) {}

DiagnosisEngine::~DiagnosisEngine() {
  if (collector_ != nullptr) collector_->unsubscribe(this);
}

void DiagnosisEngine::attach(core::Collector& collector) {
  collector.subscribe(core::kLayerAll, this);
  collector_ = &collector;
  ensure_tracker();
}

void DiagnosisEngine::ensure_tracker() {
  auto* cell = device_.cellular();
  if (cell == nullptr) return;
  if (tracker_ == nullptr) {
    tracker_ =
        std::make_unique<RrcStateTracker>(cell->qxdm(), cell->config().rrc);
    // The tracker subscribes itself so radio clears reach it even between
    // engine callbacks; a late cellular attach re-resolves its log there.
    if (collector_ != nullptr) tracker_->attach(*collector_);
  }
  if (rlc_ == nullptr) {
    rlc_ = std::make_unique<RlcChainTracker>(device_.trace().records(),
                                             cell->qxdm());
    if (collector_ != nullptr) rlc_->attach(*collector_);
  }
}

void DiagnosisEngine::finalize(const PendingWindow& w0,
                               sim::TimePoint close_at) {
  const std::size_t behavior_index = w0.behavior_index;
  // Close at the window's own end so the span matches the Finding bounds;
  // a window drained before its watermark (clear/teardown) is clamped to
  // the drain time so the span never extends past what was observed.
  if (obs_.tracing()) {
    obs_.tracer->span_close(w0.span, std::min(w0.window_end, close_at));
  }
  // Degraded-input guards: the collector may have been detached, or the
  // behavior store cleared/truncated, while this window was pending. A
  // window whose record is gone cannot be attributed — skip it (defined
  // no-op) instead of dereferencing a dead store.
  if (collector_ == nullptr) return;
  core::AppBehaviorLog* log = collector_->behavior_log();
  if (log == nullptr) return;
  const auto& records = log->records();
  if (behavior_index >= records.size()) return;
  const core::BehaviorRecord& r = records[behavior_index];
  const core::QoeWindow w = core::QoeWindow::for_traffic(r);

  Finding f;
  f.behavior_index = behavior_index;
  f.action = r.action;
  f.window_start = w.start;
  f.window_end = w.end;
  f.timed_out = r.timed_out;

  const core::DeviceNetworkSplit split =
      core::device_network_split(*flows_, r, cfg_.hostname_substr);
  f.total_s = split.total_s;
  f.device_s = split.device_s;
  f.network_s = split.network_s;
  f.network_on_critical_path = split.network_on_critical_path;
  if (split.flow != nullptr) {
    f.has_flow = true;
    f.flow = split.flow->key.to_string();
    f.hostname = split.flow->hostname;
  }
  f.window_bytes =
      flows_->bytes_in_window(w.start, w.end, cfg_.hostname_substr).total();

  ensure_tracker();
  auto* cell = device_.cellular();
  if (cell != nullptr && tracker_ != nullptr) {
    tracker_->sync();
    f.has_radio = true;
    f.promotion_overlap = tracker_->promotion_in(w.start, w.end);
    f.transitions = tracker_->transitions_in_count(w.start, w.end);
    f.energy_j = tracker_->energy_joules(w.start, w.end);
    const EnergyBreakdown eb = tracker_->energy_breakdown(w.start, w.end);
    f.tail_j = eb.tail_joules;
    f.tail_share = eb.total_joules > 0 ? eb.tail_joules / eb.total_joules : 0;
    // Traffic crossed the radio but no radio record covers the window: the
    // residency/energy values above are idle extrapolations over a silent
    // log, not measurements. Flag them unavailable (values are kept so the
    // live/batch equivalence contract still holds field-for-field).
    f.radio_unavailable = f.window_bytes > 0 && f.transitions == 0 &&
                          tracker_->pdus_in_count(w.start, w.end) == 0;
  }
  if (cell != nullptr && rlc_ != nullptr) {
    rlc_->sync();
    const RlcChainTracker::WindowStats up =
        rlc_->window(net::Direction::kUplink, w.start, w.end);
    const RlcChainTracker::WindowStats down =
        rlc_->window(net::Direction::kDownlink, w.start, w.end);
    f.has_rlc = true;
    f.rlc_retx_ul = up.retx;
    f.rlc_retx_dl = down.retx;
    f.rlc_window_packets = up.packets + down.packets;
    f.rlc_window_mapped = up.mapped + down.mapped;
    f.rlc_mapped_ratio =
        f.rlc_window_packets > 0
            ? static_cast<double>(f.rlc_window_mapped) /
                  static_cast<double>(f.rlc_window_packets)
            : 0;
    f.rlc_degraded = f.rlc_window_packets > 0 &&
                     f.rlc_mapped_ratio < cfg_.rlc_degraded_ratio;
  }
  if (flow_stats_ != nullptr) {
    // Transport evidence: the tap stream is synchronous on virtual time, so
    // by the watermark (>= window_end + trailing) every sample the window
    // could contain has been folded — live equals post-hoc here too.
    f.has_flow_stats = true;
    f.flow_retx = flow_stats_->retx_in_window(w.start, w.end);
    f.flow_srtt_ms = flow_stats_->srtt_ms_at(w.end);
    f.flow_inflight_peak = flow_stats_->inflight_peak_in_window(w.start, w.end);
  }
  f.traffic_degraded = flows_->disorder_in_window(w.start, w.end) > 0;
  if (f.traffic_degraded) f.confidence *= 0.7;
  if (f.radio_unavailable) f.confidence *= 0.8;
  if (f.rlc_degraded) f.confidence *= 0.9;
  findings_.push_back(std::move(f));
  if (finding_hook_) finding_hook_(findings_.back(), close_at);
}

void DiagnosisEngine::finalize_all() {
  while (!pending_.empty()) {
    finalize(pending_.front(), pending_.front().watermark);
    pending_.pop_front();
  }
}

void DiagnosisEngine::on_event(const core::Collector& collector,
                               const core::Event& event) {
  // Nondecreasing event time: once the stream passes a window's trailing
  // probe, nothing that arrives later can land inside it.
  while (!pending_.empty() && pending_.front().watermark < event.at) {
    finalize(pending_.front(), event.at);
    pending_.pop_front();
  }
  if (event.kind == core::EventKind::kBehavior) {
    const core::BehaviorRecord& r = collector.behavior(event);
    const core::QoeWindow w = core::QoeWindow::for_traffic(r);
    PendingWindow pw{event.index,
                     w.end + cfg_.trailing + cfg_.watermark_slack, w.end, 0};
    if (obs_.tracing()) {
      // The span covers the QoE window itself — [w.start, w.end], the same
      // bounds the Finding reports — not the pending/watermark lifetime.
      // Backdating is safe: the behavior record completes after its own
      // window opens, and async spans carry explicit timestamps. This is
      // what lets trace-report fold counter-track samples (flow.inflight,
      // flow.retx) and fault/ctrl instants into the window they acted on.
      pw.span = obs_.tracer->span_open(
          obs_.track, r.action, "diag", w.start,
          "{\"behavior_index\":" + std::to_string(event.index) + "}");
    }
    pending_.push_back(pw);
  }
}

void DiagnosisEngine::on_layers_cleared(const core::Collector& collector,
                                        std::uint32_t layer_mask) {
  (void)collector;
  // A UI or packet clear is a phase boundary: pending behavior indices and
  // finalized attributions refer to stores that no longer exist. A
  // radio-only clear (cellular detach) keeps findings — the tracker resets
  // itself via its own subscription.
  if ((layer_mask & (core::kLayerUi | core::kLayerPacket)) != 0) {
    pending_.clear();
    findings_.clear();
  }
}

core::Table DiagnosisEngine::findings_table() const {
  core::Table table(
      "Live diagnosis findings",
      {"#", "action", "total_s", "network_s", "device_s", "net_crit", "flow",
       "promo", "energy_j", "tail", "rlc", "retx", "srtt_ms", "conf"});
  for (const Finding& f : findings_) {
    // Radio columns: "-" = no radio link, "n/a" = link present but no radio
    // record covered the window (values would be extrapolations).
    const bool radio_usable = f.has_radio && !f.radio_unavailable;
    // RLC column: per-window retransmitted PDU records; "n/a" when the
    // window carried no packets to map.
    const std::string rlc =
        !f.has_rlc ? "-"
        : f.rlc_window_packets == 0
            ? "n/a"
            : std::to_string(f.rlc_retx_ul + f.rlc_retx_dl) +
                  (f.rlc_degraded ? "?" : "");
    table.add_row({std::to_string(f.behavior_index), f.action,
                   core::Table::num(f.total_s), core::Table::num(f.network_s),
                   core::Table::num(f.device_s),
                   f.network_on_critical_path ? "yes" : "no",
                   f.has_flow ? (f.hostname.empty() ? f.flow : f.hostname)
                              : "-",
                   radio_usable ? (f.promotion_overlap ? "yes" : "no")
                                : (f.has_radio ? "n/a" : "-"),
                   radio_usable ? core::Table::num(f.energy_j)
                                : (f.has_radio ? "n/a" : "-"),
                   radio_usable ? core::Table::pct(f.tail_share)
                                : (f.has_radio ? "n/a" : "-"),
                   rlc,
                   f.has_flow_stats ? std::to_string(f.flow_retx) : "-",
                   f.has_flow_stats ? core::Table::num(f.flow_srtt_ms) : "-",
                   core::Table::num(f.confidence)});
  }
  return table;
}

void DiagnosisEngine::export_metrics(obs::MetricsRegistry& reg,
                                     const std::string& prefix) const {
  reg.add_counter(prefix + "findings", static_cast<double>(findings_.size()));
  double net_crit = 0, promo = 0, energy = 0, tail = 0, degraded = 0;
  double rlc_retx = 0, rlc_degraded = 0, flow_retx = 0;
  for (const Finding& f : findings_) {
    if (f.network_on_critical_path) ++net_crit;
    if (f.promotion_overlap) ++promo;
    if (f.confidence < 1.0) ++degraded;
    if (f.rlc_degraded) ++rlc_degraded;
    rlc_retx += static_cast<double>(f.rlc_retx_ul + f.rlc_retx_dl);
    flow_retx += static_cast<double>(f.flow_retx);
    energy += f.energy_j;
    tail += f.tail_j;
    reg.observe(prefix + "window_total_s", f.total_s);
  }
  reg.add_counter(prefix + "network_critical", net_crit);
  reg.add_counter(prefix + "promotion_overlap", promo);
  reg.add_counter(prefix + "energy_j", energy);
  reg.add_counter(prefix + "tail_j", tail);
  reg.add_counter(prefix + "degraded_findings", degraded);
  reg.add_counter(prefix + "rlc_retx", rlc_retx);
  reg.add_counter(prefix + "rlc_degraded_findings", rlc_degraded);
  reg.add_counter(prefix + "flow_retx", flow_retx);
  // Whole-run mapper counters ride along under their own namespace, giving
  // campaigns the paper's per-direction mapping/retransmission figures.
  if (rlc_ != nullptr) rlc_->export_metrics(reg);
}

}  // namespace qoed::diag
