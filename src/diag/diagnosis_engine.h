// Live cross-layer root-cause attribution (§5.4, online).
//
// The batch path answers "why was this interaction slow?" after the run:
// core::device_network_split splits the QoE window into device vs network
// time, and an RrcStateTracker over the finished radio log checks for an
// overlapping promotion and prices the window's tail energy. The
// DiagnosisEngine produces the same answers *while the experiment runs*:
// it subscribes to all three spine layers, opens a pending window for
// every behavior record, and finalizes it into a Finding as soon as the
// event stream guarantees the answer can no longer change.
//
// Watermark rule: the device/network split probes traffic up to
// window_end + trailing (the paper's local-echo heuristic), so a window is
// finalized when an event with a later timestamp arrives — virtual time is
// nondecreasing across the merged timeline, so by then every packet the
// probe could see has been captured. finalize_all() drains the rest at end
// of run (equivalent to running the batch analyzers on the log as-is).
//
// Equivalence contract (enforced by diag_test): every Finding field is
// bit-identical to the batch analyzers run post-hoc over the same logs —
// the split comes from the same device_network_split over the same
// streaming FlowAnalyzer, and residency, energy and the tail split from the
// RrcStateTracker (itself bit-exact against radio::compute_residency). One
// caveat: a DNS response captured only *after* a window finalizes can
// backfill a flow's hostname in the batch view; with the default (empty)
// hostname filter this affects only the Finding's hostname label, never
// the attribution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/collector.h"
#include "core/flow_analyzer.h"
#include "diag/rlc_chain_tracker.h"
#include "diag/rrc_state_tracker.h"
#include "obs/flow_stats.h"
#include "sim/time.h"

namespace qoed::device {
class Device;
}

namespace qoed::core {
class Table;
}  // namespace qoed::core

namespace qoed::diag {

struct DiagnosisConfig {
  // Restricts responsible-flow attribution to hosts matching this
  // substring (empty = any flow), as in core::device_network_split.
  std::string hostname_substr;
  // How far past the window the local-echo probe looks; must match
  // core::device_network_split's trailing-traffic window.
  sim::Duration trailing = sim::sec(3);
  // Extra watermark grace beyond `trailing` before a pending window is
  // finalized. Zero for perfect capture; under bounded-lateness capture
  // faults set it to at least fault::FaultPlan::max_lateness() so records
  // released late can still land inside their window — keeping live
  // findings equal to the batch analyzers instead of misattributing.
  sim::Duration watermark_slack{};
  // A window whose long-jump mapped ratio falls below this (with traffic
  // present) has its RLC evidence marked degraded: PDU records are missing
  // (blackout / heavy log loss), so retransmission counts undercount.
  double rlc_degraded_ratio = 0.5;
};

// One diagnosed UI-latency window. Latency fields mirror
// DeviceNetworkSplit; radio fields are zero when the device had no
// cellular link (has_radio false). energy_j is the residency-based value
// (RrcStateTracker::energy_joules); tail_j/tail_share come from its
// energy_breakdown over the same window.
struct Finding {
  std::size_t behavior_index = 0;
  std::string action;
  sim::TimePoint window_start;  // QoeWindow::for_traffic bounds
  sim::TimePoint window_end;
  bool timed_out = false;

  double total_s = 0;
  double device_s = 0;
  double network_s = 0;
  bool network_on_critical_path = false;
  bool has_flow = false;
  std::string flow;      // responsible flow key ("ip:port>ip:port")
  std::string hostname;  // its DNS name, when one was captured in time
  std::uint64_t window_bytes = 0;

  bool has_radio = false;
  bool promotion_overlap = false;
  std::size_t transitions = 0;
  double energy_j = 0;
  double tail_j = 0;
  double tail_share = 0;

  // --- RLC evidence (streaming long-jump mapper, §5.4.2) ---
  bool has_rlc = false;                // a cellular link backed the window
  std::size_t rlc_retx_ul = 0;         // retransmitted PDU records in window
  std::size_t rlc_retx_dl = 0;
  std::size_t rlc_window_packets = 0;  // IP packets in window, both dirs
  std::size_t rlc_window_mapped = 0;   // of those, long-jump mapped
  double rlc_mapped_ratio = 0;         // mapped/packets; 0 when no packets
  // Mapping confidence signal: the window saw packets but fewer than
  // rlc_degraded_ratio of them anchored to PDU records, so the RLC counts
  // above rest on an incomplete log.
  bool rlc_degraded = false;

  // --- transport evidence (obs::FlowStatsTracker, §5j) ---
  // Zero/false when the engine was given no tracker to watch. The values
  // are device-scoped aggregates over the finding's window: retransmitted
  // TCP segments sent inside it, the smoothed-RTT estimate in force at its
  // close, and the peak bytes-in-flight it saw.
  bool has_flow_stats = false;
  std::uint64_t flow_retx = 0;
  double flow_srtt_ms = 0;
  std::uint64_t flow_inflight_peak = 0;

  // --- degradation labelling (1.0 / false / false on healthy capture) ---
  // Confidence in the attribution, multiplicatively discounted per
  // degradation observed (0.7 for reordered window traffic, 0.8 for
  // missing radio evidence). Never zero: a finding is always produced.
  double confidence = 1.0;
  // The packet capture for this window arrived late/reordered
  // (FlowAnalyzer::disorder_in_window > 0), so the split/flow attribution
  // rests on a perturbed trace.
  bool traffic_degraded = false;
  // The device had a radio link and the window saw traffic, but no radio
  // record covers the window (blackout / log outage): the radio fields are
  // idle-state extrapolations, not measurements — treat them as
  // unavailable rather than zero. findings_table renders them "n/a".
  bool radio_unavailable = false;
};

class DiagnosisEngine : public core::CollectorSink {
 public:
  // Borrows the device and its streaming FlowAnalyzer (both must outlive
  // the engine); `flows` must be the analyzer the spine keeps current.
  DiagnosisEngine(device::Device& dev, core::FlowAnalyzer& flows,
                  DiagnosisConfig cfg = {});
  ~DiagnosisEngine() override;
  DiagnosisEngine(const DiagnosisEngine&) = delete;
  DiagnosisEngine& operator=(const DiagnosisEngine&) = delete;

  // Subscribes to all spine layers. The engine must be subscribed after
  // the FlowAnalyzer it borrows (QoeDoctor::enable_diagnosis guarantees
  // this) so packets are folded before any window they could finalize.
  void attach(core::Collector& collector);

  // Drains every pending window immediately — end-of-run flush. Findings
  // finalized here saw exactly the data the batch analyzers would.
  void finalize_all();

  // Findings finalized so far, in behavior-record order.
  const std::vector<Finding>& findings() const { return findings_; }
  // Windows still waiting for their trailing probe to elapse.
  std::size_t pending() const { return pending_.size(); }

  // Transport evidence source: when set (QoeDoctor::enable_diagnosis wires
  // the doctor's own tracker), every finalized Finding carries the window's
  // flow_retx / flow_srtt_ms / flow_inflight_peak. The tracker must outlive
  // the engine; null disables the evidence (fields stay zero).
  void watch_flow_stats(const obs::FlowStatsTracker* tracker) {
    flow_stats_ = tracker;
  }

  // The streaming radio tracker; null until a radio event or finalize
  // happens on a cellular device.
  RrcStateTracker* tracker() { return tracker_.get(); }
  // The streaming RLC mapper; same lifetime rule as tracker().
  RlcChainTracker* rlc_tracker() { return rlc_.get(); }
  const DiagnosisConfig& config() const { return cfg_; }

  // Report surface: one row per finding.
  core::Table findings_table() const;
  // Metrics surface: finding counts and energy totals as "<prefix><name>"
  // counters, a per-window total-latency histogram
  // (`<prefix>window_total_s`), and the RLC tracker's whole-run "rlc.*"
  // mapper counters.
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix = "diag.") const;

  // Observability: one async span per diagnosis window (cat "diag", named
  // after the UI action) from the behavior event to the moment the stream
  // finalizes it — the live pipeline's decision latency, visible next to
  // the collector instants it derives from.
  void set_observability(const obs::Context& ctx) { obs_ = ctx; }

  // Reaction hook: invoked right after a Finding is finalized, with the
  // virtual time the stream closed the window at (the same instant the
  // trace span closes). This is the control plane's watermark — a policy
  // engine reacting here sees exactly what a post-hoc reader of
  // findings() would, at a deterministic virtual time. One slot.
  using FindingHook = std::function<void(const Finding&, sim::TimePoint)>;
  void set_finding_hook(FindingHook hook) { finding_hook_ = std::move(hook); }

  // CollectorSink.
  void on_event(const core::Collector& collector,
                const core::Event& event) override;
  void on_layers_cleared(const core::Collector& collector,
                         std::uint32_t layer_mask) override;

 private:
  struct PendingWindow {
    std::size_t behavior_index = 0;
    sim::TimePoint watermark;  // window_end + cfg_.trailing
    sim::TimePoint window_end;  // QoE window end, stamps the span close
    obs::Tracer::SpanId span = 0;  // open trace span, 0 when not tracing
  };

  void ensure_tracker();
  // Finalizes one pending window; the trace span closes at the QoE window
  // end, clamped to `close_at` for windows drained early (clear/teardown).
  void finalize(const PendingWindow& w, sim::TimePoint close_at);

  device::Device& device_;
  core::FlowAnalyzer* flows_;
  DiagnosisConfig cfg_;
  core::Collector* collector_ = nullptr;
  std::unique_ptr<RrcStateTracker> tracker_;
  std::unique_ptr<RlcChainTracker> rlc_;
  const obs::FlowStatsTracker* flow_stats_ = nullptr;
  obs::Context obs_;
  FindingHook finding_hook_;

  std::deque<PendingWindow> pending_;
  std::vector<Finding> findings_;
};

}  // namespace qoed::diag
