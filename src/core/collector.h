// Unified cross-layer collection spine.
//
// QoE Doctor's contribution is correlating three independently collected
// logs — UI behavior records (§4.3.1), the packet trace (§4.3.2) and the
// QxDM radio log (§4.3.3). The Collector is the per-device spine those
// three front-ends feed: every record any layer captures also lands in one
// merged, timestamp-ordered event timeline with a common envelope, and
// observers can subscribe to a layer mask and consume the stream online
// (the streaming FlowAnalyzer is one such subscriber).
//
// Design rules:
//  - The front-ends (AppBehaviorLog, net::TraceCapture, radio::QxdmLogger)
//    remain the canonical per-layer stores; analyzers keep zero-copy access
//    to their contiguous record vectors. The timeline holds light envelopes
//    (timestamp + layer + kind + index into the owning store), so the spine
//    costs O(1) small structs per event, not a second copy of the data.
//  - Envelope `at` is the device-local *capture* time, which is monotone in
//    append order (the simulation is single-threaded in virtual time). For
//    behavior records §5.1 reports completion one t_parsing after the
//    detecting snapshot; the envelope is stamped with that snapshot so the
//    merged timeline stays in collection order. A sorted-insert fallback
//    keeps the timeline ordered even if a front-end ever back-stamps.
//  - start()/stop()/clear() fan out to every attached front-end, giving the
//    three collection paths one consistent contract; records offered while
//    stopped are counted as drops, and clear() resets stores and counters
//    (high-water marks survive, so a phase can report its peak).
//  - Detaching the cellular link (or clearing a front-end directly) removes
//    that layer's envelopes from the timeline; indices never dangle.
//
// Lifetime: the Collector must not outlive the device/front-ends it is
// attached to; subscribers must unsubscribe (or simply be destroyed, for
// owned function sinks) before the Collector dies. Subscribed sinks are
// notified in subscription order from within the simulation thread.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/behavior_log.h"
#include "net/trace.h"
#include "obs/observability.h"
#include "radio/qxdm_logger.h"
#include "sim/time.h"

namespace qoed::device {
class Device;
}

namespace qoed::core {

class Table;

// Layer tags, usable as a bitmask in subscriptions.
enum Layer : std::uint32_t {
  kLayerUi = 1u << 0,      // BehaviorRecord
  kLayerPacket = 1u << 1,  // net::PacketRecord
  kLayerRadio = 1u << 2,   // radio PduRecord / RrcTransitionRecord / Status
  kLayerAll = kLayerUi | kLayerPacket | kLayerRadio,
};

enum class EventKind : std::uint8_t {
  kBehavior,
  kPacket,
  kPdu,
  kRrcTransition,
  kStatus,
};

// Per-layer collection health, derived from gap/ordering heuristics (see
// Collector::health): kHealthy = store attached, delivering in order;
// kDegraded = records dropped beyond the tolerated fraction, out-of-order
// arrivals observed, or no arrivals for stale_after while other layers kept
// capturing; kLost = no store attached, or silent past lost_after.
enum class LayerHealth : std::uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kLost = 2,
};

// Thresholds for the health heuristics, in virtual time. A layer that has
// captured at least one event and then stays silent while the spine's
// newest event moves stale_after (lost_after) past its last arrival is
// degraded (lost). `degraded_drop_fraction` tolerates the intrinsic QxDM
// record loss the paper documents (§5.4) before flagging the radio layer.
struct HealthConfig {
  sim::Duration stale_after = sim::sec(5);
  sim::Duration lost_after = sim::sec(20);
  double degraded_drop_fraction = 0.02;
};

const char* to_string(Layer layer);
const char* to_string(EventKind kind);
const char* to_string(LayerHealth health);

// Common event envelope: when, which layer, and where the payload lives in
// its front-end store. `seq` is the global arrival counter (unique and
// monotone in capture order).
struct Event {
  sim::TimePoint at;
  Layer layer = kLayerPacket;
  EventKind kind = EventKind::kPacket;
  std::uint32_t index = 0;
  std::uint64_t seq = 0;
};

// Variant payload view; pointers are into the front-end stores and remain
// valid until that layer is cleared or (radio) the cellular link detaches.
using EventPayload =
    std::variant<const BehaviorRecord*, const net::PacketRecord*,
                 const radio::PduRecord*, const radio::RrcTransitionRecord*,
                 const radio::StatusRecord*>;

// Per-layer spine counters. `dropped` counts records the layer failed to
// collect: offered while stopped, plus (radio) QxDM's intrinsic record loss.
// `high_water` is the peak event count ever held for the layer; unlike the
// rest, it survives clear() so a phase can report its peak footprint.
struct LayerCounters {
  std::uint64_t events = 0;
  std::uint64_t bytes = 0;  // IP bytes (packet) / RLC payload bytes (radio)
  std::uint64_t dropped = 0;
  std::uint64_t high_water = 0;
  // Arrivals stamped earlier than the layer's previous arrival (a healthy
  // front-end captures in time order; reorder faults and back-stamps land
  // here). Reset by clear(), like events.
  std::uint64_t out_of_order = 0;
};

class Collector;

// Observer interface. on_event fires for every captured event matching the
// subscribed mask; on_layers_cleared fires when a front-end store is cleared
// (mask carries the affected layer bits). Do not unsubscribe from within a
// callback.
class CollectorSink {
 public:
  virtual ~CollectorSink() = default;
  virtual void on_event(const Collector& collector, const Event& event) = 0;
  // Batched delivery for a contiguous backlog merged in one operation (late
  // cellular attach). The default unpacks to on_event; streaming sinks
  // override it with a single fold.
  virtual void on_events(const Collector& collector, const Event* events,
                         std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) on_event(collector, events[i]);
  }
  virtual void on_layers_cleared(const Collector& collector,
                                 std::uint32_t layer_mask) {
    (void)collector;
    (void)layer_mask;
  }
};

class Collector {
 public:
  Collector() = default;
  ~Collector();
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  // Wires the spine to a device's trace + radio log and a behavior log, and
  // backfills the timeline from whatever those stores already hold. Follows
  // cellular attach/detach via the device's access-link listener.
  void attach(device::Device& dev, AppBehaviorLog& behavior);
  void detach();
  bool attached() const { return device_ != nullptr; }

  // Unified collection control, fanned out to every attached front-end.
  void start();
  void stop();
  void clear();
  bool running() const { return running_; }

  // --- observation ---
  void subscribe(std::uint32_t layer_mask, CollectorSink* sink);
  void unsubscribe(CollectorSink* sink);
  // Convenience: subscribes an owned function sink; the returned handle can
  // be passed to unsubscribe() but is owned by the Collector.
  CollectorSink* subscribe(
      std::uint32_t layer_mask,
      std::function<void(const Collector&, const Event&)> fn);

  // --- the merged timeline ---
  const std::vector<Event>& timeline() const { return timeline_; }
  EventPayload payload(const Event& e) const;
  // Typed accessors; the event's kind must match.
  const BehaviorRecord& behavior(const Event& e) const;
  const net::PacketRecord& packet(const Event& e) const;
  const radio::PduRecord& pdu(const Event& e) const;
  const radio::RrcTransitionRecord& rrc_transition(const Event& e) const;
  const radio::StatusRecord& status(const Event& e) const;

  // --- front-end stores (null when not attached / no cellular link) ---
  AppBehaviorLog* behavior_log() const { return behavior_; }
  net::TraceCapture* trace() const { return trace_; }
  radio::QxdmLogger* qxdm() const { return qxdm_; }

  // --- counters ---
  LayerCounters counters(Layer layer) const;
  std::uint64_t total_events() const { return timeline_.size(); }

  // --- health ---
  // Gap/ordering heuristics over the spine counters; see LayerHealth. Health
  // is computed on demand against the newest event time any layer captured,
  // so a layer can degrade/lose mid-run without any explicit probe.
  LayerHealth health(Layer layer) const;
  void set_health_config(const HealthConfig& cfg) { health_cfg_ = cfg; }
  const HealthConfig& health_config() const { return health_cfg_; }

  // Report-surface rendering: one row per layer.
  Table counters_table() const;
  // Metrics surface: the spine counters as "<prefix><layer>.<events|bytes|
  // dropped|high_water|out_of_order|health>".
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix = "collector.") const;

  // --- observability ---
  // Wires the spine into a tracer (one virtual-time instant per captured
  // event, cat "collector") and optionally a wall-clock profile registry
  // (subscriber-dispatch timing). Cost with tracing disabled: one branch
  // per event.
  void set_observability(const obs::Context& ctx) { obs_ = ctx; }
  const obs::Context& observability() const { return obs_; }

 private:
  // `dropped` stays zero here: counters() reads it from the front-end.
  struct PushCounters : LayerCounters {
    sim::TimePoint last_at;  // newest capture time this layer stamped
  };

  void append(Layer layer, EventKind kind, std::size_t index,
              sim::TimePoint at, std::uint64_t bytes);
  void clear_layer(std::uint32_t layer_mask);
  void wire_radio();
  void backfill();
  PushCounters& push_counters(Layer layer);
  const PushCounters& push_counters(Layer layer) const;

  device::Device* device_ = nullptr;
  AppBehaviorLog* behavior_ = nullptr;
  net::TraceCapture* trace_ = nullptr;
  radio::QxdmLogger* qxdm_ = nullptr;

  obs::Context obs_;
  bool running_ = true;
  std::uint64_t next_seq_ = 0;
  std::vector<Event> timeline_;
  PushCounters ui_counters_, packet_counters_, radio_counters_;
  HealthConfig health_cfg_;
  // Newest capture time across all layers; the reference clock for the
  // stale/lost gap heuristics. Never rewinds (clear() keeps it: virtual
  // time does not go backwards between experiment phases).
  sim::TimePoint latest_at_;

  struct Subscription {
    std::uint32_t mask = 0;
    CollectorSink* sink = nullptr;
  };
  std::vector<Subscription> subscribers_;
  std::vector<std::unique_ptr<CollectorSink>> owned_sinks_;
};

}  // namespace qoed::core
