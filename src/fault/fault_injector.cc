#include "fault/fault_injector.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/behavior_log.h"
#include "core/collector.h"
#include "core/json_util.h"
#include "core/qoe_doctor.h"
#include "core/report.h"
#include "device/device.h"
#include "net/trace.h"
#include "radio/cellular_link.h"
#include "radio/qxdm_logger.h"
#include "sim/rng.h"

namespace qoed::fault {
namespace {

// One record kind's fault pipeline. Every offered record consumes exactly
// four draws (drop, dup, delay, delay-amount) whether or not the
// corresponding fault fires, so dropping or delaying a record never shifts
// the decisions made for later ones.
template <typename Record>
class Lane {
 public:
  using TimeOf = sim::TimePoint (*)(const Record&);
  using Retime = void (*)(Record&, sim::Duration delta);
  using Commit = std::function<void(Record)>;

  Lane(const LayerFaultSpec* spec, sim::Rng rng, TimeOf time_of, Retime retime)
      : spec_(spec), rng_(std::move(rng)), time_of_(time_of), retime_(retime) {}

  // Trace hook: one virtual-time instant per fault decision (cat "fault"),
  // tagged with the lane so a Perfetto view shows which record kind was hit.
  void set_observability(const obs::Context* ctx, const char* lane) {
    obs_ = ctx;
    lane_ = lane;
  }

  std::vector<Record> process(Record rec) {
    std::vector<Record> out;
    const sim::TimePoint t = time_of_(rec);
    ++counters_.offered;
    release_due(t, out);
    const double u_drop = rng_.uniform();
    const double u_dup = rng_.uniform();
    const double u_delay = rng_.uniform();
    const double u_amount = rng_.uniform();
    if (spec_->truncate_at && t >= *spec_->truncate_at) {
      ++counters_.truncated;
      mark("truncate", t);
      return out;
    }
    if (spec_->in_blackout(t)) {
      ++counters_.blacked_out;
      mark("blackout", t);
      return out;
    }
    if (u_drop < spec_->drop_rate) {
      ++counters_.dropped;
      mark("drop", t);
      return out;
    }
    const sim::TimePoint t2 = spec_->retimed(t);
    if (t2 != t) {
      retime_(rec, t2 - t);
      ++counters_.retimed;
      mark("retime", t);
    }
    if (u_delay < spec_->delay_rate &&
        spec_->delay_max > sim::Duration::zero()) {
      // Hold back by a uniform amount in (0, delay_max].
      const auto max_ticks = spec_->delay_max.count();
      const sim::Duration hold{
          1 + static_cast<sim::Duration::rep>(
                  u_amount * static_cast<double>(max_ticks - 1))};
      buffer_.insert(std::upper_bound(buffer_.begin(), buffer_.end(), t2 + hold,
                                      [](sim::TimePoint at,
                                         const Held& h) { return at < h.release_at; }),
                     Held{t2 + hold, std::move(rec)});
      ++counters_.delayed;
      mark("delay", t2);
      return out;
    }
    ++counters_.delivered;
    out.push_back(rec);
    if (u_dup < spec_->dup_rate) {
      ++counters_.duplicated;
      mark("dup", t2);
      out.push_back(std::move(rec));
    }
    return out;
  }

  void flush(const Commit& commit) {
    for (Held& h : buffer_) {
      ++counters_.delivered;
      commit(std::move(h.record));
    }
    buffer_.clear();
  }

  void clear_buffer() {
    counters_.dropped += buffer_.size();
    buffer_.clear();
  }

  const LaneCounters& counters() const { return counters_; }

 private:
  struct Held {
    sim::TimePoint release_at;
    Record record;
  };

  void release_due(sim::TimePoint now, std::vector<Record>& out) {
    std::size_t n = 0;
    while (n < buffer_.size() && buffer_[n].release_at <= now) ++n;
    for (std::size_t i = 0; i < n; ++i) {
      ++counters_.delivered;
      out.push_back(std::move(buffer_[i].record));
    }
    buffer_.erase(buffer_.begin(), buffer_.begin() + n);
  }

  void mark(const char* outcome, sim::TimePoint t) {
    if (obs_ != nullptr && obs_->tracing()) {
      obs_->tracer->instant(obs_->track, outcome, "fault", t,
                            std::string("{\"lane\":\"") + lane_ + "\"}");
    }
  }

  const LayerFaultSpec* spec_;
  sim::Rng rng_;
  TimeOf time_of_;
  Retime retime_;
  std::vector<Held> buffer_;  // sorted by release_at, FIFO within ties
  LaneCounters counters_;
  const obs::Context* obs_ = nullptr;
  const char* lane_ = "";
};

sim::TimePoint behavior_time(const core::BehaviorRecord& r) { return r.end; }
void behavior_retime(core::BehaviorRecord& r, sim::Duration delta) {
  r.start += delta;
  r.end += delta;
  r.trigger += delta;
}

sim::TimePoint packet_time(const net::PacketRecord& r) { return r.timestamp; }
void packet_retime(net::PacketRecord& r, sim::Duration delta) {
  r.timestamp += delta;
}

sim::TimePoint rrc_time(const radio::RrcTransitionRecord& r) { return r.at; }
void rrc_retime(radio::RrcTransitionRecord& r, sim::Duration delta) {
  r.at += delta;
}

sim::TimePoint pdu_time(const radio::PduRecord& r) { return r.at; }
void pdu_retime(radio::PduRecord& r, sim::Duration delta) { r.at += delta; }

sim::TimePoint status_time(const radio::StatusRecord& r) { return r.at; }
void status_retime(radio::StatusRecord& r, sim::Duration delta) {
  r.at += delta;
}

}  // namespace

LaneCounters& LaneCounters::operator+=(const LaneCounters& o) {
  offered += o.offered;
  delivered += o.delivered;
  dropped += o.dropped;
  duplicated += o.duplicated;
  delayed += o.delayed;
  truncated += o.truncated;
  blacked_out += o.blacked_out;
  retimed += o.retimed;
  return *this;
}

struct FaultInjector::Impl : core::CollectorSink {
  explicit Impl(const FaultPlan& plan, std::uint64_t seed)
      : ui(&plan.ui, sim::Rng(seed).fork("fault/ui"), behavior_time,
           behavior_retime),
        packet(&plan.packet, sim::Rng(seed).fork("fault/packet"), packet_time,
               packet_retime),
        rrc(&plan.radio, sim::Rng(seed).fork("fault/radio/rrc"), rrc_time,
            rrc_retime),
        pdu(&plan.radio, sim::Rng(seed).fork("fault/radio/pdu"), pdu_time,
            pdu_retime),
        status(&plan.radio, sim::Rng(seed).fork("fault/radio/status"),
               status_time, status_retime) {}

  // Collector watcher: a cleared layer must not keep held-back records from
  // the pre-clear phase.
  void on_event(const core::Collector&, const core::Event&) override {}
  void on_layers_cleared(const core::Collector&,
                         std::uint32_t layer_mask) override {
    if (layer_mask & core::kLayerUi) ui.clear_buffer();
    if (layer_mask & core::kLayerPacket) packet.clear_buffer();
    if (layer_mask & core::kLayerRadio) {
      rrc.clear_buffer();
      pdu.clear_buffer();
      status.clear_buffer();
    }
  }

  Lane<core::BehaviorRecord> ui;
  Lane<net::PacketRecord> packet;
  Lane<radio::RrcTransitionRecord> rrc;
  Lane<radio::PduRecord> pdu;
  Lane<radio::StatusRecord> status;

  core::AppBehaviorLog* behavior_log = nullptr;
  net::TraceCapture* trace = nullptr;
  radio::QxdmLogger* qxdm = nullptr;
  core::Collector* collector = nullptr;
  // Copied from the collector at install; lanes hold a pointer into it, so
  // it must live as long as the lanes (it does — same Impl).
  obs::Context obs;
};

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)),
      seed_(seed),
      impl_(std::make_unique<Impl>(plan_, seed)) {}

FaultInjector::~FaultInjector() { uninstall(); }

void FaultInjector::install(core::QoeDoctor& doctor) {
  radio::CellularLink* cell = doctor.device().cellular();
  install(&doctor.log(), &doctor.device().trace(),
          cell != nullptr ? &cell->qxdm() : nullptr, &doctor.collector());
}

void FaultInjector::install(core::AppBehaviorLog* behavior,
                            net::TraceCapture* trace, radio::QxdmLogger* qxdm,
                            core::Collector* collector) {
  uninstall();
  Impl* impl = impl_.get();
  if (behavior != nullptr && plan_.ui.any()) {
    impl->behavior_log = behavior;
    behavior->set_intake([impl](core::BehaviorRecord r) {
      return impl->ui.process(std::move(r));
    });
  }
  if (trace != nullptr && plan_.packet.any()) {
    impl->trace = trace;
    trace->set_intake([impl](net::PacketRecord r) {
      return impl->packet.process(std::move(r));
    });
  }
  if (qxdm != nullptr && plan_.radio.any()) {
    impl->qxdm = qxdm;
    radio::QxdmLogger::Intake intake;
    intake.on_rrc = [impl](radio::RrcTransitionRecord r) {
      return impl->rrc.process(r);
    };
    intake.on_pdu = [impl](radio::PduRecord r) {
      return impl->pdu.process(std::move(r));
    };
    intake.on_status = [impl](radio::StatusRecord r) {
      return impl->status.process(r);
    };
    qxdm->set_intake(std::move(intake));
  }
  if (collector != nullptr) {
    impl->collector = collector;
    collector->subscribe(core::kLayerAll, static_cast<core::CollectorSink*>(impl));
    impl->obs = collector->observability();
    impl->ui.set_observability(&impl->obs, "ui");
    impl->packet.set_observability(&impl->obs, "packet");
    impl->rrc.set_observability(&impl->obs, "rrc");
    impl->pdu.set_observability(&impl->obs, "pdu");
    impl->status.set_observability(&impl->obs, "status");
  }
}

void FaultInjector::uninstall() {
  Impl* impl = impl_.get();
  if (impl->behavior_log != nullptr) {
    impl->behavior_log->set_intake(nullptr);
    impl->behavior_log = nullptr;
  }
  if (impl->trace != nullptr) {
    impl->trace->set_intake(nullptr);
    impl->trace = nullptr;
  }
  if (impl->qxdm != nullptr) {
    impl->qxdm->set_intake({});
    impl->qxdm = nullptr;
  }
  if (impl->collector != nullptr) {
    impl->collector->unsubscribe(static_cast<core::CollectorSink*>(impl));
    impl->collector = nullptr;
  }
}

void FaultInjector::flush() {
  Impl* impl = impl_.get();
  if (impl->behavior_log != nullptr) {
    impl->ui.flush([impl](core::BehaviorRecord r) {
      impl->behavior_log->commit(std::move(r));
    });
  }
  if (impl->trace != nullptr) {
    impl->packet.flush(
        [impl](net::PacketRecord r) { impl->trace->commit(std::move(r)); });
  }
  if (impl->qxdm != nullptr) {
    impl->rrc.flush(
        [impl](radio::RrcTransitionRecord r) { impl->qxdm->commit_rrc(r); });
    impl->pdu.flush(
        [impl](radio::PduRecord r) { impl->qxdm->commit_pdu(std::move(r)); });
    impl->status.flush(
        [impl](radio::StatusRecord r) { impl->qxdm->commit_status(r); });
  }
}

void FaultInjector::clear_buffers() {
  Impl* impl = impl_.get();
  impl->ui.clear_buffer();
  impl->packet.clear_buffer();
  impl->rrc.clear_buffer();
  impl->pdu.clear_buffer();
  impl->status.clear_buffer();
}

LaneCounters FaultInjector::counters(core::Layer layer) const {
  const Impl* impl = impl_.get();
  LaneCounters total;
  switch (layer) {
    case core::kLayerUi:
      total += impl->ui.counters();
      break;
    case core::kLayerPacket:
      total += impl->packet.counters();
      break;
    default:
      total += impl->rrc.counters();
      total += impl->pdu.counters();
      total += impl->status.counters();
      break;
  }
  return total;
}

core::Table FaultInjector::counters_table() const {
  core::Table table("Fault injection",
                    {"layer", "offered", "delivered", "dropped", "dup",
                     "delayed", "truncated", "blackout", "retimed"});
  for (core::Layer layer :
       {core::kLayerUi, core::kLayerPacket, core::kLayerRadio}) {
    if (!plan_.layer(layer).any()) continue;
    const LaneCounters c = counters(layer);
    table.add_row({core::to_string(layer), std::to_string(c.offered),
                   std::to_string(c.delivered), std::to_string(c.dropped),
                   std::to_string(c.duplicated), std::to_string(c.delayed),
                   std::to_string(c.truncated), std::to_string(c.blacked_out),
                   std::to_string(c.retimed)});
  }
  return table;
}

void FaultInjector::export_metrics(obs::MetricsRegistry& reg,
                                   const std::string& prefix) const {
  for (core::Layer layer :
       {core::kLayerUi, core::kLayerPacket, core::kLayerRadio}) {
    if (!plan_.layer(layer).any()) continue;
    const LaneCounters c = counters(layer);
    const std::string base = prefix + core::to_string(layer) + ".";
    reg.add_counter(base + "offered", static_cast<double>(c.offered));
    reg.add_counter(base + "delivered", static_cast<double>(c.delivered));
    reg.add_counter(base + "dropped", static_cast<double>(c.dropped));
    reg.add_counter(base + "duplicated", static_cast<double>(c.duplicated));
    reg.add_counter(base + "delayed", static_cast<double>(c.delayed));
    reg.add_counter(base + "truncated", static_cast<double>(c.truncated));
    reg.add_counter(base + "blacked_out", static_cast<double>(c.blacked_out));
    reg.add_counter(base + "retimed", static_cast<double>(c.retimed));
  }
}

std::unique_ptr<FaultInjector> injector_from_env(std::uint64_t seed_hint) {
  const char* plan_text = std::getenv("QOED_FAULT_PLAN");
  if (plan_text == nullptr || plan_text[0] == '\0') return nullptr;
  std::uint64_t base = 1;
  const char* seed_text = std::getenv("QOED_FAULT_SEED");
  if (seed_text != nullptr && !core::parse_json_number(seed_text, &base)) {
    throw std::invalid_argument(
        "QOED_FAULT_SEED: not an unsigned 64-bit integer: \"" +
        std::string(seed_text) + "\"");
  }
  const std::uint64_t seed =
      sim::Rng(base).fork("fault/run/" + std::to_string(seed_hint)).seed();
  return std::make_unique<FaultInjector>(FaultPlan::parse(plan_text), seed);
}

}  // namespace qoed::fault
