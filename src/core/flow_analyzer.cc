#include "core/flow_analyzer.h"

#include <algorithm>

#include "net/dns.h"

namespace qoed::core {

double FlowStats::mean_rtt() const {
  if (rtt_samples.empty()) return 0;
  double sum = 0;
  for (double v : rtt_samples) sum += v;
  return sum / static_cast<double>(rtt_samples.size());
}

FlowAnalyzer::FlowAnalyzer(const std::vector<net::PacketRecord>& trace)
    : trace_(&trace) {
  sync();
}

FlowAnalyzer::~FlowAnalyzer() {
  if (collector_ != nullptr) collector_->unsubscribe(this);
}

void FlowAnalyzer::attach(Collector& collector) {
  collector_ = &collector;
  collector.subscribe(kLayerPacket, this);
}

void FlowAnalyzer::sync() {
  if (consumed_ >= trace_->size()) return;
  obs::ScopedWallTimer timer(obs_.profile(), "prof.flow.sync");
  while (consumed_ < trace_->size()) {
    const std::size_t i = consumed_++;
    ingest((*trace_)[i], i);
  }
}

void FlowAnalyzer::on_event(const Collector& collector, const Event& event) {
  (void)collector;
  (void)event;
  sync();
}

void FlowAnalyzer::on_events(const Collector& collector, const Event* events,
                             std::size_t count) {
  (void)collector;
  (void)events;
  (void)count;
  sync();
}

void FlowAnalyzer::on_layers_cleared(const Collector& collector,
                                     std::uint32_t layer_mask) {
  (void)collector;
  if (layer_mask & kLayerPacket) reset();
}

void FlowAnalyzer::reset() {
  consumed_ = 0;
  dns_table_.clear();
  flows_.clear();
  flow_index_.clear();
  build_.clear();
  flow_window_.clear();
  other_window_.clear();
  time_ordered_ = true;
  last_ts_ = sim::TimePoint{};
  inversions_.clear();
  sync();  // the store may have been cleared to non-empty content in theory
}

std::size_t FlowAnalyzer::disorder_in_window(sim::TimePoint start,
                                             sim::TimePoint end) const {
  std::size_t count = 0;
  for (const auto& inv : inversions_) {
    if (inv.first >= start && inv.first <= end) ++count;
  }
  return count;
}

void FlowAnalyzer::WindowIndex::push(sim::TimePoint t, net::Direction dir,
                                     std::uint64_t bytes) {
  at.push_back(t);
  const std::uint64_t up = cum_up.empty() ? 0 : cum_up.back();
  const std::uint64_t down = cum_down.empty() ? 0 : cum_down.back();
  cum_up.push_back(up + (dir == net::Direction::kUplink ? bytes : 0));
  cum_down.push_back(down + (dir == net::Direction::kDownlink ? bytes : 0));
}

std::pair<std::size_t, std::size_t> FlowAnalyzer::WindowIndex::range(
    sim::TimePoint start, sim::TimePoint end) const {
  const auto lo = std::lower_bound(at.begin(), at.end(), start);
  const auto hi = std::upper_bound(lo, at.end(), end);
  return {static_cast<std::size_t>(lo - at.begin()),
          static_cast<std::size_t>(hi - at.begin())};
}

FlowAnalyzer::Volume FlowAnalyzer::WindowIndex::bytes_between(
    sim::TimePoint start, sim::TimePoint end) const {
  const auto [lo, hi] = range(start, end);
  if (hi <= lo) return {};
  Volume v;
  v.uplink = cum_up[hi - 1] - (lo > 0 ? cum_up[lo - 1] : 0);
  v.downlink = cum_down[hi - 1] - (lo > 0 ? cum_down[lo - 1] : 0);
  return v;
}

std::size_t FlowAnalyzer::index_of(const FlowStats& flow) const {
  const std::size_t i = static_cast<std::size_t>(&flow - flows_.data());
  return i < flows_.size() ? i : static_cast<std::size_t>(-1);
}

void FlowAnalyzer::ingest(const net::PacketRecord& r, std::size_t index) {
  if (r.timestamp < last_ts_) {
    time_ordered_ = false;
    inversions_.emplace_back(r.timestamp, last_ts_);
  }
  last_ts_ = std::max(last_ts_, r.timestamp);
  if (r.dns && r.dns->is_response && !r.dns->nxdomain) {
    dns_table_[r.dns->resolved] = r.dns->hostname;
    // A response landing after the flow's first packet backfills the name,
    // so the end state matches a batch build over the finished trace.
    for (auto& f : flows_) {
      if (f.hostname.empty() && f.key.dst_ip == r.dns->resolved) {
        f.hostname = r.dns->hostname;
      }
    }
  }
  if (r.protocol != net::Protocol::kTcp) {
    const net::IpAddr remote =
        r.direction == net::Direction::kUplink ? r.dst_ip : r.src_ip;
    other_window_[remote].push(r.timestamp, r.direction, r.total_size());
    return;
  }

  // Orient the key from the device: uplink records already are.
  const net::FlowKey key = r.direction == net::Direction::kUplink
                               ? r.flow()
                               : r.flow().reversed();
  auto [it, inserted] = flow_index_.try_emplace(key, flows_.size());
  if (inserted) {
    FlowStats fs;
    fs.key = key;
    fs.hostname = hostname_of(key.dst_ip);
    fs.first_packet = r.timestamp;
    fs.last_packet = r.timestamp;
    flows_.push_back(std::move(fs));
    flow_window_.emplace_back();
  }
  FlowStats& flow = flows_[it->second];
  BuildState& st = build_[key];

  flow.last_packet = std::max(flow.last_packet, r.timestamp);
  flow.first_packet = std::min(flow.first_packet, r.timestamp);
  flow.packet_indices.push_back(index);
  flow_window_[it->second].push(r.timestamp, r.direction, r.total_size());

  if (r.direction == net::Direction::kUplink) {
    flow.uplink_packets++;
    flow.uplink_bytes += r.total_size();
    if (r.flags.syn && !r.flags.ack) st.syn_at = r.timestamp;
    if (r.payload_size > 0) {
      const std::uint64_t end = r.seq + r.payload_size;
      if (end <= st.max_seq_end_up) {
        ++flow.retransmissions;
        if (obs_.tracing()) {
          obs_.tracer->instant(obs_.track, "retx", "flow", r.timestamp);
        }
        st.pending_up.erase(end);  // Karn: never sample retransmissions
      } else {
        st.max_seq_end_up = end;
        st.pending_up.emplace(end, r.timestamp);
      }
    }
  } else {
    flow.downlink_packets++;
    flow.downlink_bytes += r.total_size();
    if (r.flags.syn && r.flags.ack && st.syn_at) {
      flow.handshake_rtt = sim::to_seconds(r.timestamp - *st.syn_at);
      st.syn_at.reset();
    }
    if (r.payload_size > 0) {
      const std::uint64_t end = r.seq + r.payload_size;
      if (end <= st.max_seq_end_down) {
        ++flow.retransmissions;
        if (obs_.tracing()) {
          obs_.tracer->instant(obs_.track, "retx", "flow", r.timestamp);
        }
      } else {
        st.max_seq_end_down = end;
      }
    }
    if (r.flags.ack) {
      // Cumulative ACK: sample RTT for fully covered uplink segments.
      auto pit = st.pending_up.begin();
      while (pit != st.pending_up.end() && pit->first <= r.ack) {
        flow.rtt_samples.push_back(sim::to_seconds(r.timestamp - pit->second));
        pit = st.pending_up.erase(pit);
      }
    }
  }
}

std::string FlowAnalyzer::hostname_of(net::IpAddr addr) const {
  auto it = dns_table_.find(addr);
  return it == dns_table_.end() ? std::string{} : it->second;
}

std::vector<const FlowStats*> FlowAnalyzer::flows_to_host(
    const std::string& hostname_substr) const {
  std::vector<const FlowStats*> out;
  for (const auto& f : flows_) {
    if (f.hostname.find(hostname_substr) != std::string::npos) {
      out.push_back(&f);
    }
  }
  return out;
}

std::vector<const FlowStats*> FlowAnalyzer::flows_in_window(
    sim::TimePoint start, sim::TimePoint end) const {
  std::vector<const FlowStats*> out;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const FlowStats& f = flows_[i];
    if (f.first_packet > end || f.last_packet < start) continue;
    // Flow lifetime overlaps; confirm an actual packet falls inside.
    if (time_ordered_) {
      const auto [lo, hi] = flow_window_[i].range(start, end);
      if (hi > lo) out.push_back(&f);
      continue;
    }
    for (std::size_t idx : f.packet_indices) {
      const auto ts = (*trace_)[idx].timestamp;
      if (ts >= start && ts <= end) {
        out.push_back(&f);
        break;
      }
    }
  }
  return out;
}

const FlowStats* FlowAnalyzer::dominant_flow(
    sim::TimePoint start, sim::TimePoint end,
    const std::string& hostname_substr) const {
  const FlowStats* best = nullptr;
  std::uint64_t best_bytes = 0;
  for (const auto* f : flows_in_window(start, end)) {
    if (!hostname_substr.empty() &&
        f->hostname.find(hostname_substr) == std::string::npos) {
      continue;
    }
    std::uint64_t bytes = 0;
    if (const std::size_t i = index_of(*f); time_ordered_ && i < flows_.size()) {
      bytes = flow_window_[i].bytes_between(start, end).total();
    } else {
      for (std::size_t idx : f->packet_indices) {
        const auto& r = (*trace_)[idx];
        if (r.timestamp >= start && r.timestamp <= end) bytes += r.total_size();
      }
    }
    if (bytes > best_bytes) {
      best_bytes = bytes;
      best = f;
    }
  }
  return best;
}

FlowAnalyzer::Volume FlowAnalyzer::bytes_in_window(
    sim::TimePoint start, sim::TimePoint end,
    const std::string& hostname_substr) const {
  if (!time_ordered_) {
    return bytes_in_window_linear(start, end, hostname_substr);
  }
  // Sum per-group prefix differences. Each group's remote address is fixed,
  // so the query-time hostname filter matches the per-record scan exactly;
  // byte sums are uint64, so grouping cannot change the result.
  Volume v;
  auto matches = [&](net::IpAddr remote) {
    return hostname_substr.empty() ||
           hostname_of(remote).find(hostname_substr) != std::string::npos;
  };
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (!matches(flows_[i].key.dst_ip)) continue;
    const Volume part = flow_window_[i].bytes_between(start, end);
    v.uplink += part.uplink;
    v.downlink += part.downlink;
  }
  for (const auto& [remote, window] : other_window_) {
    if (!matches(remote)) continue;
    const Volume part = window.bytes_between(start, end);
    v.uplink += part.uplink;
    v.downlink += part.downlink;
  }
  return v;
}

FlowAnalyzer::Volume FlowAnalyzer::bytes_in_window_linear(
    sim::TimePoint start, sim::TimePoint end,
    const std::string& hostname_substr) const {
  Volume v;
  for (std::size_t i = 0; i < consumed_; ++i) {
    const auto& r = (*trace_)[i];
    if (r.timestamp < start || r.timestamp > end) continue;
    if (!hostname_substr.empty()) {
      const net::IpAddr remote = r.direction == net::Direction::kUplink
                                     ? r.dst_ip
                                     : r.src_ip;
      if (hostname_of(remote).find(hostname_substr) == std::string::npos) {
        continue;
      }
    }
    if (r.direction == net::Direction::kUplink) {
      v.uplink += r.total_size();
    } else {
      v.downlink += r.total_size();
    }
  }
  return v;
}

std::optional<std::pair<sim::TimePoint, sim::TimePoint>>
FlowAnalyzer::flow_span_in_window(const FlowStats& flow, sim::TimePoint start,
                                  sim::TimePoint end) const {
  if (const std::size_t i = index_of(flow); time_ordered_ && i < flows_.size()) {
    const WindowIndex& w = flow_window_[i];
    const auto [lo, hi] = w.range(start, end);
    if (hi <= lo) return std::nullopt;
    return std::make_pair(w.at[lo], w.at[hi - 1]);
  }
  std::optional<sim::TimePoint> first, last;
  for (std::size_t idx : flow.packet_indices) {
    const auto ts = (*trace_)[idx].timestamp;
    if (ts < start || ts > end) continue;
    if (!first || ts < *first) first = ts;
    if (!last || ts > *last) last = ts;
  }
  if (!first) return std::nullopt;
  return std::make_pair(*first, *last);
}

std::vector<std::pair<double, double>> FlowAnalyzer::throughput_series(
    net::Direction dir, sim::Duration bin,
    const std::string& hostname_substr) const {
  std::vector<std::pair<double, double>> out;
  if (consumed_ == 0 || bin <= sim::Duration::zero()) return out;

  const sim::TimePoint t0 = (*trace_)[0].timestamp;
  const sim::TimePoint t1 = (*trace_)[consumed_ - 1].timestamp;
  const std::size_t bins =
      static_cast<std::size_t>((t1 - t0) / bin) + 1;
  std::vector<std::uint64_t> bytes(bins, 0);
  for (std::size_t i = 0; i < consumed_; ++i) {
    const auto& r = (*trace_)[i];
    if (r.direction != dir) continue;
    if (!hostname_substr.empty()) {
      const net::IpAddr remote =
          dir == net::Direction::kUplink ? r.dst_ip : r.src_ip;
      if (hostname_of(remote).find(hostname_substr) == std::string::npos) {
        continue;
      }
    }
    const std::size_t b = static_cast<std::size_t>((r.timestamp - t0) / bin);
    bytes[std::min(b, bins - 1)] += r.total_size();
  }
  const double bin_s = sim::to_seconds(bin);
  for (std::size_t b = 0; b < bins; ++b) {
    out.emplace_back(sim::to_seconds(t0.since_start()) +
                         static_cast<double>(b + 1) * bin_s,
                     static_cast<double>(bytes[b]) * 8.0 / bin_s);
  }
  return out;
}

}  // namespace qoed::core
