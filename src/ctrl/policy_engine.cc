#include "ctrl/policy_engine.h"

#include <algorithm>
#include <sstream>

#include "core/export_sink.h"
#include "core/json_util.h"
#include "obs/tracer.h"

namespace qoed::ctrl {

PolicyEngine::PolicyEngine(PolicyEngineConfig cfg) : cfg_(std::move(cfg)) {
  states_.resize(cfg_.policy.rules.size());
  for (const Rule& r : cfg_.policy.rules) {
    if (r.is_layer()) has_layer_rules_ = true;
    if (r.is_flow()) has_flow_rules_ = true;
  }
}

PolicyEngine::~PolicyEngine() { detach(); }

void PolicyEngine::attach(core::Collector& collector, sim::EventLoop& loop) {
  detach();
  collector_ = &collector;
  loop_ = &loop;
  collector.subscribe(core::kLayerAll, this);
  if (cfg_.ring_capacity > 0 && collector.trace() != nullptr) {
    collector.trace()->set_ring_capacity(cfg_.ring_capacity);
  }
}

void PolicyEngine::watch(diag::DiagnosisEngine& engine) {
  diag_ = &engine;
  engine.set_finding_hook(
      [this](const diag::Finding& f, sim::TimePoint close_at) {
        on_finding(f, close_at);
      });
}

void PolicyEngine::detach() {
  if (collector_ != nullptr) {
    collector_->unsubscribe(this);
    collector_ = nullptr;
  }
  if (diag_ != nullptr) {
    diag_->set_finding_hook(nullptr);
    diag_ = nullptr;
  }
  loop_ = nullptr;
}

void PolicyEngine::on_event(const core::Collector& collector,
                            const core::Event& event) {
  if (!has_layer_rules_ && !(has_flow_rules_ && flow_stats_ != nullptr)) {
    return;
  }
  for (std::size_t i = 0; i < cfg_.policy.rules.size(); ++i) {
    const Rule& rule = cfg_.policy.rules[i];
    double observed = 0;
    if (rule.is_layer()) {
      observed = static_cast<double>(
          static_cast<std::uint8_t>(collector.health(rule.layer())));
    } else if (rule.is_flow() && flow_stats_ != nullptr) {
      observed = flow_value(rule.subject);
    } else {
      continue;
    }
    RuleState& st = states_[i];
    if (st.fired) continue;
    if (!rule.compare(observed)) {
      st.holding = false;
      continue;
    }
    if (!st.holding) {
      st.holding = true;
      st.since = event.at;
    }
    if (event.at - st.since >= rule.sustain) {
      st.fired = true;
      fire(i, rule, event.at, event.at, event.at);
    }
  }
}

double PolicyEngine::flow_value(Subject subject) const {
  switch (subject) {
    case Subject::kFlowRetx:
      return static_cast<double>(flow_stats_->total_retx_segments());
    case Subject::kFlowSrttMs:
      return flow_stats_->latest_srtt_ms();
    case Subject::kFlowInflightPeak:
      return static_cast<double>(flow_stats_->inflight_peak_bytes());
    default:
      return 0;
  }
}

double PolicyEngine::finding_value(Subject subject,
                                   const diag::Finding& f) const {
  switch (subject) {
    case Subject::kFindingConfidence:
      return f.confidence;
    case Subject::kFindingTotalS:
    case Subject::kWindowLatencyS:
      return f.total_s;
    case Subject::kFindingDeviceS:
      return f.device_s;
    case Subject::kFindingNetworkS:
      return f.network_s;
    default:
      return 0;
  }
}

void PolicyEngine::on_finding(const diag::Finding& f, sim::TimePoint close_at) {
  for (std::size_t i = 0; i < cfg_.policy.rules.size(); ++i) {
    const Rule& rule = cfg_.policy.rules[i];
    if (rule.is_layer() || rule.is_flow()) continue;
    if (!rule.compare(finding_value(rule.subject, f))) continue;
    fire(i, rule, close_at, f.window_start, f.window_end);
  }
}

void PolicyEngine::fire(std::size_t rule_index, const Rule& rule,
                        sim::TimePoint t, sim::TimePoint window_start,
                        sim::TimePoint window_end) {
  for (const Action& a : rule.actions) {
    decisions_.push_back(Decision{t, rule_index, a.kind, rule.condition()});
    switch (a.kind) {
      case ActionKind::kCapture:
        do_capture(rule_index, t, window_start, window_end);
        break;
      case ActionKind::kAbort:
        abort_requested_ = true;
        if (loop_ != nullptr) loop_->request_stop();
        break;
      case ActionKind::kReschedule:
        if (!reschedule_requested_) {
          reschedule_requested_ = true;
          reschedule_reason_ = rule.condition();
        }
        break;
      case ActionKind::kExtend: {
        const sim::TimePoint until = t + sim::sec_f(a.extend_s);
        extend_until_ = std::max(extend_until_, until);
        extend_s_total_ += a.extend_s;
        break;
      }
    }
    if (obs_.tracing()) {
      std::ostringstream args;
      args << "{\"rule\":" << rule_index << ",\"on\":";
      core::put_json_string(args, rule.condition());
      args << '}';
      obs_.tracer->instant(obs_.track, ctrl::to_string(a.kind), "ctrl", t,
                           args.str());
    }
  }
}

void PolicyEngine::do_capture(std::size_t rule_index, sim::TimePoint t,
                              sim::TimePoint window_start,
                              sim::TimePoint window_end) {
  sim::TimePoint start = window_start - cfg_.capture_pre;
  if (start < sim::kTimeZero) start = sim::kTimeZero;
  const sim::TimePoint end = window_end + cfg_.capture_post;
  std::vector<net::PacketRecord> packets;
  if (collector_ != nullptr && collector_->trace() != nullptr) {
    packets = collector_->trace()->ring_window(start, end);
  }
  std::string& out = captures_jsonl_;
  out += "{\"capture\":" + std::to_string(capture_count_) +
         ",\"rule\":" + std::to_string(rule_index) + ",\"at\":";
  core::append_json_number(out, t.seconds());
  out += ",\"start\":";
  core::append_json_number(out, start.seconds());
  out += ",\"end\":";
  core::append_json_number(out, end.seconds());
  out += ",\"packets\":" + std::to_string(packets.size()) + "}\n";
  // Same field layout as the merged-timeline packet lines, so capture
  // slices and timeline.jsonl are grep-compatible.
  for (const net::PacketRecord& r : packets) {
    out += "{\"t\":";
    core::append_json_number(out, r.timestamp.seconds());
    core::append_packet_fields(out, r);
    out += "}\n";
  }
  ++capture_count_;
  capture_packets_ += packets.size();
}

void PolicyEngine::export_metrics(obs::MetricsRegistry& reg,
                                  const std::string& prefix) const {
  if (cfg_.policy.empty()) return;
  double captures = 0, aborts = 0, reschedules = 0, extends = 0;
  for (const Decision& d : decisions_) {
    switch (d.action) {
      case ActionKind::kCapture:
        ++captures;
        break;
      case ActionKind::kAbort:
        ++aborts;
        break;
      case ActionKind::kReschedule:
        ++reschedules;
        break;
      case ActionKind::kExtend:
        ++extends;
        break;
    }
  }
  reg.add_counter(prefix + "rules",
                  static_cast<double>(cfg_.policy.rules.size()));
  reg.add_counter(prefix + "decisions", static_cast<double>(decisions_.size()));
  reg.add_counter(prefix + "captures", captures);
  reg.add_counter(prefix + "capture_packets",
                  static_cast<double>(capture_packets_));
  reg.add_counter(prefix + "aborts", aborts);
  reg.add_counter(prefix + "reschedules", reschedules);
  reg.add_counter(prefix + "extends", extends);
  reg.add_counter(prefix + "extend_s", extend_s_total_);
}

}  // namespace qoed::ctrl
