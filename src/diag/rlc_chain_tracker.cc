#include "diag/rlc_chain_tracker.h"

#include <algorithm>

namespace qoed::diag {

RlcChainTracker::RlcChainTracker(const std::vector<net::PacketRecord>& trace,
                                 const radio::QxdmLogger& log,
                                 std::size_t resync_lookahead)
    : trace_(&trace),
      log_(&log),
      ul_(net::Direction::kUplink, resync_lookahead),
      dl_(net::Direction::kDownlink, resync_lookahead) {
  sync();
}

RlcChainTracker::~RlcChainTracker() {
  if (collector_ != nullptr) collector_->unsubscribe(this);
}

void RlcChainTracker::attach(core::Collector& collector) {
  collector.subscribe(core::kLayerPacket | core::kLayerRadio, this);
  collector_ = &collector;
  sync();
}

void RlcChainTracker::sync() {
  fold();
  rebuild(ul_);
  rebuild(dl_);
}

void RlcChainTracker::fold() {
  if (trace_ != nullptr) {
    const auto& records = *trace_;
    for (; consumed_pkts_ < records.size(); ++consumed_pkts_) {
      ul_.stream.add_packet(records[consumed_pkts_]);
      dl_.stream.add_packet(records[consumed_pkts_]);
    }
  }
  if (log_ != nullptr) {
    const auto& pdus = log_->pdu_log();
    for (; consumed_pdus_ < pdus.size(); ++consumed_pdus_) {
      const radio::PduRecord& r = pdus[consumed_pdus_];
      DirState& d = r.dir == net::Direction::kUplink ? ul_ : dl_;
      if (d.stream.add_pdu(r) ==
          core::RlcStream::PduIntake::kRetransmission) {
        // Capture order is normally time order, so this is an append; a
        // reordered record costs one sorted insert.
        if (d.retx_at.empty() || !(r.at < d.retx_at.back())) {
          d.retx_at.push_back(r.at);
        } else {
          d.retx_at.insert(
              std::upper_bound(d.retx_at.begin(), d.retx_at.end(), r.at),
              r.at);
        }
      }
    }
  }
  ul_.stream.sync();
  dl_.stream.sync();
}

void RlcChainTracker::rebuild(DirState& d) {
  const auto& packets = d.stream.result().packets;
  // Extend the prefix arrays over new packets, and re-derive any suffix the
  // stream rewound (its dirty floor marks the lowest changed index).
  std::size_t from = std::min(d.built, d.stream.take_dirty_floor());
  if (from >= packets.size() && d.built == packets.size()) return;
  d.pkt_at.resize(from);
  d.cum_mapped.resize(from + 1);
  d.cum_bytes.resize(from + 1);
  if (from == 0) {
    d.cum_mapped[0] = 0;
    d.cum_bytes[0] = 0;
    d.time_ordered = true;
  }
  for (std::size_t i = from; i < packets.size(); ++i) {
    const core::PacketMapping& m = packets[i];
    if (!d.pkt_at.empty() && m.packet_ts < d.pkt_at.back()) {
      d.time_ordered = false;  // window() falls back to a linear scan
    }
    d.pkt_at.push_back(m.packet_ts);
    d.cum_mapped.push_back(d.cum_mapped.back() + (m.mapped ? 1u : 0u));
    d.cum_bytes.push_back(d.cum_bytes.back() +
                          (m.mapped ? m.packet_size : 0u));
  }
  d.built = packets.size();
}

void RlcChainTracker::reset() {
  for (DirState* d : {&ul_, &dl_}) {
    d->stream.reset();
    d->pkt_at.clear();
    d->cum_mapped.clear();
    d->cum_bytes.clear();
    d->retx_at.clear();
    d->built = 0;
    d->time_ordered = true;
  }
  consumed_pkts_ = 0;
  consumed_pdus_ = 0;
}

RlcChainTracker::WindowStats RlcChainTracker::window(
    net::Direction dir, sim::TimePoint start, sim::TimePoint end) const {
  WindowStats out;
  if (end < start) return out;
  const DirState& d = dir_state(dir);
  if (d.time_ordered) {
    const auto lo =
        std::lower_bound(d.pkt_at.begin(), d.pkt_at.end(), start);
    const auto hi = std::upper_bound(lo, d.pkt_at.end(), end);
    const auto a = static_cast<std::size_t>(lo - d.pkt_at.begin());
    const auto b = static_cast<std::size_t>(hi - d.pkt_at.begin());
    out.packets = b - a;
    out.mapped = d.cum_mapped[b] - d.cum_mapped[a];
    out.mapped_bytes = d.cum_bytes[b] - d.cum_bytes[a];
  } else {
    for (const core::PacketMapping& m : d.stream.result().packets) {
      if (m.packet_ts < start || end < m.packet_ts) continue;
      ++out.packets;
      if (m.mapped) {
        ++out.mapped;
        out.mapped_bytes += m.packet_size;
      }
    }
  }
  const auto rlo = std::lower_bound(d.retx_at.begin(), d.retx_at.end(), start);
  const auto rhi = std::upper_bound(rlo, d.retx_at.end(), end);
  out.retx = static_cast<std::size_t>(rhi - rlo);
  return out;
}

const core::MappingResult& RlcChainTracker::result(net::Direction dir) const {
  return dir_state(dir).stream.result();
}

double RlcChainTracker::mapped_ratio(net::Direction dir) const {
  return dir_state(dir).stream.result().mapped_ratio();
}

std::size_t RlcChainTracker::corrupt_pdus() const {
  return ul_.stream.result().corrupt_pdus + dl_.stream.result().corrupt_pdus;
}

std::uint64_t RlcChainTracker::refolds() const {
  return ul_.stream.refolds() + dl_.stream.refolds();
}

void RlcChainTracker::export_metrics(obs::MetricsRegistry& reg,
                                     const std::string& prefix) const {
  for (net::Direction dir :
       {net::Direction::kUplink, net::Direction::kDownlink}) {
    const core::MappingResult& r = result(dir);
    const std::string base =
        prefix + (dir == net::Direction::kUplink ? "ul." : "dl.");
    reg.add_counter(base + "packets", static_cast<double>(r.packets.size()));
    reg.add_counter(base + "mapped", static_cast<double>(r.mapped_count));
    reg.add_counter(base + "mapped_bytes",
                    static_cast<double>(r.mapped_bytes));
    reg.add_counter(base + "retx", static_cast<double>(r.retx_pdus));
  }
  reg.add_counter(prefix + "corrupt_pdu", static_cast<double>(corrupt_pdus()));
  reg.add_counter(prefix + "refolds", static_cast<double>(refolds()));
}

void RlcChainTracker::on_event(const core::Collector& collector,
                               const core::Event& event) {
  (void)collector;
  (void)event;
  // Fold everything unconsumed rather than just this event's record: other
  // layers may have appended to the stores since our last callback.
  fold();
}

void RlcChainTracker::on_events(const core::Collector& collector,
                                const core::Event* events, std::size_t count) {
  (void)collector;
  (void)events;
  (void)count;
  // A merged backlog (late cellular attach): one fold covers all of it.
  fold();
}

void RlcChainTracker::on_layers_cleared(const core::Collector& collector,
                                        std::uint32_t layer_mask) {
  if ((layer_mask & (core::kLayerPacket | core::kLayerRadio)) == 0) return;
  // Either input store shrank: the fold's consumed prefixes are invalid.
  // Re-resolve both stores (they may be gone or replaced) and refold.
  reset();
  trace_ = collector.trace() != nullptr ? &collector.trace()->records()
                                        : nullptr;
  log_ = collector.qxdm();
  fold();
}

}  // namespace qoed::diag
