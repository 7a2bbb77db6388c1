#include "core/collector.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/report.h"
#include "device/device.h"
#include "radio/cellular_link.h"

namespace qoed::core {
namespace {

bool by_at(const Event& a, const Event& b) { return a.at < b.at; }

// §5.1: a completed wait is reported one t_parsing after the snapshot that
// detected it; timed-out waits are logged at their deadline snapshot. The
// envelope carries the capture (append) time so the merged timeline stays in
// collection order.
sim::TimePoint behavior_capture_time(const BehaviorRecord& r) {
  return r.timed_out ? r.end : r.end - r.parsing_interval;
}

class FunctionSink final : public CollectorSink {
 public:
  explicit FunctionSink(std::function<void(const Collector&, const Event&)> fn)
      : fn_(std::move(fn)) {}
  void on_event(const Collector& c, const Event& e) override { fn_(c, e); }

 private:
  std::function<void(const Collector&, const Event&)> fn_;
};

}  // namespace

const char* to_string(Layer layer) {
  switch (layer) {
    case kLayerUi:
      return "ui";
    case kLayerPacket:
      return "packet";
    case kLayerRadio:
      return "radio";
    default:
      return "mixed";
  }
}

const char* to_string(LayerHealth health) {
  switch (health) {
    case LayerHealth::kHealthy:
      return "healthy";
    case LayerHealth::kDegraded:
      return "degraded";
    case LayerHealth::kLost:
      return "lost";
  }
  return "?";
}

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kBehavior:
      return "behavior";
    case EventKind::kPacket:
      return "packet";
    case EventKind::kPdu:
      return "pdu";
    case EventKind::kRrcTransition:
      return "rrc";
    case EventKind::kStatus:
      return "status";
  }
  return "?";
}

Collector::~Collector() { detach(); }

void Collector::attach(device::Device& dev, AppBehaviorLog& behavior) {
  detach();
  device_ = &dev;
  behavior_ = &behavior;
  trace_ = &dev.trace();

  behavior_->set_tap(
      [this](const BehaviorRecord& r, std::size_t i) {
        append(kLayerUi, EventKind::kBehavior, i, behavior_capture_time(r), 0);
      },
      [this] { clear_layer(kLayerUi); });
  trace_->set_tap(
      [this](const net::PacketRecord& r, std::size_t i) {
        append(kLayerPacket, EventKind::kPacket, i, r.timestamp,
               r.total_size());
      },
      [this] { clear_layer(kLayerPacket); });
  device_->set_access_link_listener([this] { wire_radio(); });

  backfill();
  wire_radio();
}

void Collector::detach() {
  if (device_ == nullptr) return;
  device_->set_access_link_listener(nullptr);
  if (behavior_ != nullptr) behavior_->set_tap(nullptr, nullptr);
  if (trace_ != nullptr) trace_->set_tap(nullptr, nullptr);
  if (qxdm_ != nullptr) qxdm_->set_taps({});
  device_ = nullptr;
  behavior_ = nullptr;
  trace_ = nullptr;
  qxdm_ = nullptr;
  // Envelopes index into stores we no longer track; drop them.
  timeline_.clear();
  ui_counters_ = {};
  packet_counters_ = {};
  radio_counters_ = {};
  latest_at_ = {};
}

void Collector::wire_radio() {
  radio::QxdmLogger* next = nullptr;
  if (auto* cell = device_->cellular()) next = &cell->qxdm();
  if (next == qxdm_) return;
  // The previous radio store is gone (the CellularLink owns it); its
  // envelopes' indices must not outlive it. Do not touch the old pointer.
  if (qxdm_ != nullptr) clear_layer(kLayerRadio);
  qxdm_ = next;
  if (qxdm_ == nullptr) return;

  radio::QxdmLogger::Taps taps;
  taps.on_rrc = [this](const radio::RrcTransitionRecord& r, std::size_t i) {
    append(kLayerRadio, EventKind::kRrcTransition, i, r.at, 0);
  };
  taps.on_pdu = [this](const radio::PduRecord& r, std::size_t i) {
    append(kLayerRadio, EventKind::kPdu, i, r.at, r.payload_len);
  };
  taps.on_status = [this](const radio::StatusRecord& r, std::size_t i) {
    append(kLayerRadio, EventKind::kStatus, i, r.at, 0);
  };
  taps.on_clear = [this] { clear_layer(kLayerRadio); };
  qxdm_->set_taps(std::move(taps));

  // Merge anything the (usually fresh) radio log already holds.
  std::vector<Event> chunk;
  for (std::size_t i = 0; i < qxdm_->rrc_log().size(); ++i) {
    const auto& r = qxdm_->rrc_log()[i];
    chunk.push_back({r.at, kLayerRadio, EventKind::kRrcTransition,
                     static_cast<std::uint32_t>(i), 0});
    radio_counters_.events++;
  }
  for (std::size_t i = 0; i < qxdm_->pdu_log().size(); ++i) {
    const auto& r = qxdm_->pdu_log()[i];
    chunk.push_back({r.at, kLayerRadio, EventKind::kPdu,
                     static_cast<std::uint32_t>(i), 0});
    radio_counters_.events++;
    radio_counters_.bytes += r.payload_len;
  }
  for (std::size_t i = 0; i < qxdm_->status_log().size(); ++i) {
    const auto& r = qxdm_->status_log()[i];
    chunk.push_back({r.at, kLayerRadio, EventKind::kStatus,
                     static_cast<std::uint32_t>(i), 0});
    radio_counters_.events++;
  }
  radio_counters_.high_water =
      std::max(radio_counters_.high_water, radio_counters_.events);
  if (chunk.empty()) return;
  std::stable_sort(chunk.begin(), chunk.end(), by_at);
  for (auto& e : chunk) e.seq = next_seq_++;
  // On equal timestamps the chunk lands after existing events.
  const auto middle = timeline_.insert(timeline_.end(), chunk.begin(),
                                       chunk.end());
  std::inplace_merge(timeline_.begin(), middle, timeline_.end(), by_at);
  // One batched notification for the whole backlog: streaming sinks fold it
  // in a single pass instead of per-event.
  {
    obs::ScopedWallTimer dispatch_timer(obs_.profile(),
                                        "prof.collector.dispatch");
    for (std::size_t i = 0; i < subscribers_.size(); ++i) {
      if (subscribers_[i].mask & kLayerRadio) {
        subscribers_[i].sink->on_events(*this, chunk.data(), chunk.size());
      }
    }
  }
}

void Collector::backfill() {
  std::vector<Event> chunk;
  for (std::size_t i = 0; i < behavior_->records().size(); ++i) {
    const auto& r = behavior_->records()[i];
    chunk.push_back({behavior_capture_time(r), kLayerUi, EventKind::kBehavior,
                     static_cast<std::uint32_t>(i), 0});
    ui_counters_.events++;
  }
  for (std::size_t i = 0; i < trace_->records().size(); ++i) {
    const auto& r = trace_->records()[i];
    chunk.push_back({r.timestamp, kLayerPacket, EventKind::kPacket,
                     static_cast<std::uint32_t>(i), 0});
    packet_counters_.events++;
    packet_counters_.bytes += r.total_size();
  }
  ui_counters_.high_water = ui_counters_.events;
  packet_counters_.high_water = packet_counters_.events;
  std::stable_sort(chunk.begin(), chunk.end(), by_at);
  for (auto& e : chunk) e.seq = next_seq_++;
  timeline_ = std::move(chunk);
}

void Collector::start() {
  running_ = true;
  if (behavior_ != nullptr) behavior_->start();
  if (trace_ != nullptr) trace_->start();
  if (qxdm_ != nullptr) qxdm_->start();
}

void Collector::stop() {
  running_ = false;
  if (behavior_ != nullptr) behavior_->stop();
  if (trace_ != nullptr) trace_->stop();
  if (qxdm_ != nullptr) qxdm_->stop();
}

void Collector::clear() {
  // Each front-end's clear tap calls back into clear_layer, which drops the
  // layer's envelopes and notifies subscribers.
  if (behavior_ != nullptr) behavior_->clear();
  if (trace_ != nullptr) trace_->clear();
  if (qxdm_ != nullptr) qxdm_->clear();
}

void Collector::subscribe(std::uint32_t layer_mask, CollectorSink* sink) {
  subscribers_.push_back({layer_mask, sink});
}

CollectorSink* Collector::subscribe(
    std::uint32_t layer_mask,
    std::function<void(const Collector&, const Event&)> fn) {
  owned_sinks_.push_back(std::make_unique<FunctionSink>(std::move(fn)));
  CollectorSink* sink = owned_sinks_.back().get();
  subscribe(layer_mask, sink);
  return sink;
}

void Collector::unsubscribe(CollectorSink* sink) {
  std::erase_if(subscribers_,
                [&](const Subscription& s) { return s.sink == sink; });
  std::erase_if(owned_sinks_, [&](const std::unique_ptr<CollectorSink>& s) {
    return s.get() == sink;
  });
}

void Collector::append(Layer layer, EventKind kind, std::size_t index,
                       sim::TimePoint at, std::uint64_t bytes) {
  Event e;
  e.at = at;
  e.layer = layer;
  e.kind = kind;
  e.index = static_cast<std::uint32_t>(index);
  e.seq = next_seq_++;

  PushCounters& pc = push_counters(layer);
  if (pc.events > 0 && at < pc.last_at) pc.out_of_order++;
  pc.last_at = std::max(pc.last_at, at);
  latest_at_ = std::max(latest_at_, at);
  pc.events++;
  pc.bytes += bytes;
  pc.high_water = std::max(pc.high_water, pc.events);

  if (timeline_.empty() || !(e.at < timeline_.back().at)) {
    timeline_.push_back(e);
  } else {
    // Rare: a front-end stamped behind the tail; keep the timeline sorted
    // (after any events with the same timestamp).
    timeline_.insert(
        std::upper_bound(timeline_.begin(), timeline_.end(), e, by_at), e);
  }
  if (obs_.tracing()) {
    obs_.tracer->instant(obs_.track, to_string(kind), "collector", at);
  }
  // Index loop: a sink subscribing from within a callback is picked up next
  // event; unsubscribing from within a callback is not supported.
  {
    obs::ScopedWallTimer dispatch_timer(obs_.profile(),
                                        "prof.collector.dispatch");
    for (std::size_t i = 0; i < subscribers_.size(); ++i) {
      if (subscribers_[i].mask & layer) {
        subscribers_[i].sink->on_event(*this, e);
      }
    }
  }
}

void Collector::clear_layer(std::uint32_t layer_mask) {
  std::erase_if(timeline_,
                [&](const Event& e) { return (e.layer & layer_mask) != 0; });
  for (Layer layer : {kLayerUi, kLayerPacket, kLayerRadio}) {
    if ((layer_mask & layer) == 0) continue;
    PushCounters& pc = push_counters(layer);
    pc.events = 0;
    pc.bytes = 0;  // high_water deliberately survives (peak of the phase)
    pc.out_of_order = 0;
    pc.last_at = sim::TimePoint{};  // health restarts fresh for the new phase
  }
  for (std::size_t i = 0; i < subscribers_.size(); ++i) {
    if (subscribers_[i].mask & layer_mask) {
      subscribers_[i].sink->on_layers_cleared(*this, layer_mask);
    }
  }
}

Collector::PushCounters& Collector::push_counters(Layer layer) {
  switch (layer) {
    case kLayerUi:
      return ui_counters_;
    case kLayerRadio:
      return radio_counters_;
    default:
      return packet_counters_;
  }
}

const Collector::PushCounters& Collector::push_counters(Layer layer) const {
  return const_cast<Collector*>(this)->push_counters(layer);
}

EventPayload Collector::payload(const Event& e) const {
  // A detached store (or a stale envelope index) yields a null payload
  // pointer of the event's type rather than undefined behavior; callers that
  // hold Events across detach()/clear_layer() see a defined degraded result.
  switch (e.kind) {
    case EventKind::kBehavior:
      if (behavior_ == nullptr || e.index >= behavior_->records().size()) {
        return static_cast<const BehaviorRecord*>(nullptr);
      }
      return &behavior_->records()[e.index];
    case EventKind::kPacket:
      if (trace_ == nullptr || e.index >= trace_->records().size()) {
        return static_cast<const net::PacketRecord*>(nullptr);
      }
      return &trace_->records()[e.index];
    case EventKind::kPdu:
      if (qxdm_ == nullptr || e.index >= qxdm_->pdu_log().size()) {
        return static_cast<const radio::PduRecord*>(nullptr);
      }
      return &qxdm_->pdu_log()[e.index];
    case EventKind::kRrcTransition:
      if (qxdm_ == nullptr || e.index >= qxdm_->rrc_log().size()) {
        return static_cast<const radio::RrcTransitionRecord*>(nullptr);
      }
      return &qxdm_->rrc_log()[e.index];
    case EventKind::kStatus:
      if (qxdm_ == nullptr || e.index >= qxdm_->status_log().size()) {
        return static_cast<const radio::StatusRecord*>(nullptr);
      }
      return &qxdm_->status_log()[e.index];
  }
  return static_cast<const net::PacketRecord*>(nullptr);
}

const BehaviorRecord& Collector::behavior(const Event& e) const {
  assert(e.kind == EventKind::kBehavior);
  return behavior_->records()[e.index];
}

const net::PacketRecord& Collector::packet(const Event& e) const {
  assert(e.kind == EventKind::kPacket);
  return trace_->records()[e.index];
}

const radio::PduRecord& Collector::pdu(const Event& e) const {
  assert(e.kind == EventKind::kPdu);
  return qxdm_->pdu_log()[e.index];
}

const radio::RrcTransitionRecord& Collector::rrc_transition(
    const Event& e) const {
  assert(e.kind == EventKind::kRrcTransition);
  return qxdm_->rrc_log()[e.index];
}

const radio::StatusRecord& Collector::status(const Event& e) const {
  assert(e.kind == EventKind::kStatus);
  return qxdm_->status_log()[e.index];
}

LayerCounters Collector::counters(Layer layer) const {
  LayerCounters out = push_counters(layer);
  switch (layer) {
    case kLayerUi:
      out.dropped = behavior_ != nullptr ? behavior_->records_dropped() : 0;
      break;
    case kLayerPacket:
      out.dropped = trace_ != nullptr ? trace_->records_dropped() : 0;
      break;
    case kLayerRadio:
      out.dropped = qxdm_ != nullptr ? qxdm_->pdus_dropped_from_log() +
                                           qxdm_->records_suppressed()
                                     : 0;
      break;
    default:
      break;
  }
  return out;
}

LayerHealth Collector::health(Layer layer) const {
  const bool present = layer == kLayerUi      ? behavior_ != nullptr
                       : layer == kLayerPacket ? trace_ != nullptr
                                               : qxdm_ != nullptr;
  if (!present) return LayerHealth::kLost;
  const PushCounters& pc = push_counters(layer);
  const LayerCounters c = counters(layer);
  // Gap heuristics only apply once the layer has produced something: an
  // idle-but-attached layer (e.g. radio before any traffic) is healthy.
  if (pc.events > 0 && latest_at_ - pc.last_at > health_cfg_.lost_after) {
    return LayerHealth::kLost;
  }
  const double offered = static_cast<double>(c.events + c.dropped);
  const bool drops_excessive =
      c.dropped > 0 && offered > 0 &&
      static_cast<double>(c.dropped) / offered >
          health_cfg_.degraded_drop_fraction;
  if (drops_excessive || pc.out_of_order > 0 ||
      (pc.events > 0 && latest_at_ - pc.last_at > health_cfg_.stale_after)) {
    return LayerHealth::kDegraded;
  }
  return LayerHealth::kHealthy;
}

Table Collector::counters_table() const {
  Table table("collector spine", {"layer", "events", "bytes", "dropped", "ooo",
                                  "high_water", "health"});
  for (Layer layer : {kLayerUi, kLayerPacket, kLayerRadio}) {
    const LayerCounters c = counters(layer);
    table.add_row({to_string(layer),
                   std::to_string(c.events),
                   std::to_string(c.bytes),
                   std::to_string(c.dropped),
                   std::to_string(c.out_of_order),
                   std::to_string(c.high_water),
                   to_string(health(layer))});
  }
  return table;
}

void Collector::export_metrics(obs::MetricsRegistry& reg,
                               const std::string& prefix) const {
  for (Layer layer : {kLayerUi, kLayerPacket, kLayerRadio}) {
    const LayerCounters c = counters(layer);
    const std::string base = prefix + to_string(layer) + ".";
    reg.add_counter(base + "events", static_cast<double>(c.events));
    reg.add_counter(base + "bytes", static_cast<double>(c.bytes));
    reg.add_counter(base + "dropped", static_cast<double>(c.dropped));
    reg.add_counter(base + "high_water", static_cast<double>(c.high_water));
    reg.add_counter(base + "out_of_order",
                    static_cast<double>(c.out_of_order));
    reg.add_counter(base + "health",
                    static_cast<double>(static_cast<int>(health(layer))));
  }
}

}  // namespace qoed::core
