// Runtime for ctrl::Policy: watches the collection spine and the diagnosis
// stream, fires rule actions at deterministic virtual-time watermarks.
//
// Two evaluation clocks, both virtual (DESIGN.md §5i):
//  - layer.* rules are evaluated on every collector event arrival. Layer
//    health is a pure function of the spine's counters and latest event
//    time, and both only change when an event lands — so event arrivals are
//    exactly the instants a health transition can happen, and evaluating
//    there observes every transition without any wall-clock polling. A
//    layer rule latches after its first firing (one reaction per run).
//  - finding.* / window.* rules are evaluated from the DiagnosisEngine's
//    finding hook, at the virtual close time of each finalized QoE window,
//    and fire once per matching finding.
//
// flow.* rules share the layer clock: the obs::FlowStatsTracker folds TCP
// tap events synchronously on virtual time, so reading its live aggregates
// at each collector event arrival is deterministic, and the same
// sustain/latch machinery applies (the subject is continuous-valued).
//
// Actions:
//  - capture: snapshot the packet-trace ring over [window.start - pre,
//    window.end + post] (layer triggers use the decision instant as the
//    window, so their slice is effectively the pre-history) into a JSONL
//    block: one header line, then one line per packet in the put_jsonl
//    packet idiom.
//  - extend: push the run deadline to decision_time + S (monotone max
//    across firings); svc::Instruments::run() keeps the loop going until
//    the extended deadline.
//  - abort: cooperative EventLoop::request_stop() — the run ends at the
//    aborting event's virtual time.
//  - reschedule: set a flag the campaign layer reads; the run re-enters the
//    worker with Campaign::ctrl_reseed and is counted separately from error
//    retries.
//
// Every firing is recorded as a Decision, emitted as a cat="ctrl" tracer
// instant, and aggregated into ctrl.* metrics — the decision log is part of
// the artifact surface, not a side effect.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/collector.h"
#include "ctrl/policy.h"
#include "diag/diagnosis_engine.h"
#include "obs/observability.h"
#include "sim/event_loop.h"
#include "sim/time.h"

namespace qoed::ctrl {

struct PolicyEngineConfig {
  Policy policy;
  // Trace-ring slice bounds around a capture trigger's window.
  sim::Duration capture_pre = sim::sec(2);
  sim::Duration capture_post = sim::sec(1);
  // Packet-trace ring depth enabled at attach (0 = leave the ring off;
  // capture actions then emit header-only slices).
  std::size_t ring_capacity = 4096;
};

// One fired (rule, action) pair, in firing order.
struct Decision {
  sim::TimePoint at;
  std::size_t rule = 0;       // index into Policy::rules
  ActionKind action = ActionKind::kCapture;
  std::string condition;      // canonical condition text that fired
};

class PolicyEngine final : public core::CollectorSink {
 public:
  explicit PolicyEngine(PolicyEngineConfig cfg);
  ~PolicyEngine() override;
  PolicyEngine(const PolicyEngine&) = delete;
  PolicyEngine& operator=(const PolicyEngine&) = delete;

  // Subscribes to the spine (layer rules), remembers the loop (abort), and
  // turns on the packet-trace ring. The engine must be detached (or
  // destroyed) before the collector dies.
  void attach(core::Collector& collector, sim::EventLoop& loop);
  // Installs the finding hook (finding./window. rules). Replaces any hook
  // the diagnosis engine already had.
  void watch(diag::DiagnosisEngine& engine);
  // Source for flow.* subjects (null disables them — their rules then never
  // fire). The tracker must outlive the engine or be cleared first.
  void watch_flows(const obs::FlowStatsTracker* tracker) {
    flow_stats_ = tracker;
  }
  void detach();

  void set_observability(const obs::Context& ctx) { obs_ = ctx; }
  const Policy& policy() const { return cfg_.policy; }

  // core::CollectorSink — layer-rule watermark.
  void on_event(const core::Collector& collector,
                const core::Event& event) override;

  // --- decision surface ---
  const std::vector<Decision>& decisions() const { return decisions_; }
  bool abort_requested() const { return abort_requested_; }
  bool reschedule_requested() const { return reschedule_requested_; }
  const std::string& reschedule_reason() const { return reschedule_reason_; }
  // Latest extended deadline (kTimeZero when no extend ever fired).
  sim::TimePoint extend_until() const { return extend_until_; }
  // Concatenated capture slices (header line + packet lines per slice).
  const std::string& captures_jsonl() const { return captures_jsonl_; }
  std::size_t capture_count() const { return capture_count_; }

  // ctrl.* metric surface (counters only when the policy is non-empty, so
  // policy-free runs keep byte-identical artifacts).
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix = "ctrl.") const;

 private:
  double finding_value(Subject subject, const diag::Finding& f) const;
  // Live flow.* reading; requires flow_stats_ != nullptr.
  double flow_value(Subject subject) const;
  void on_finding(const diag::Finding& f, sim::TimePoint close_at);
  void fire(std::size_t rule_index, const Rule& rule, sim::TimePoint t,
            sim::TimePoint window_start, sim::TimePoint window_end);
  void do_capture(std::size_t rule_index, sim::TimePoint t,
                  sim::TimePoint window_start, sim::TimePoint window_end);

  PolicyEngineConfig cfg_;
  core::Collector* collector_ = nullptr;
  sim::EventLoop* loop_ = nullptr;
  diag::DiagnosisEngine* diag_ = nullptr;
  const obs::FlowStatsTracker* flow_stats_ = nullptr;
  obs::Context obs_;

  // Per layer/flow-rule sustain/latch state, parallel to cfg_.policy.rules
  // (finding rules keep both fields unused).
  struct RuleState {
    bool fired = false;
    bool holding = false;       // condition currently true
    sim::TimePoint since;       // first instant of the current true streak
  };
  std::vector<RuleState> states_;
  bool has_layer_rules_ = false;
  bool has_flow_rules_ = false;

  std::vector<Decision> decisions_;
  bool abort_requested_ = false;
  bool reschedule_requested_ = false;
  std::string reschedule_reason_;
  sim::TimePoint extend_until_;
  double extend_s_total_ = 0;
  std::string captures_jsonl_;
  std::size_t capture_count_ = 0;
  std::size_t capture_packets_ = 0;
};

}  // namespace qoed::ctrl
