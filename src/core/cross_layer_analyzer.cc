#include "core/cross_layer_analyzer.h"

#include <algorithm>
#include <numeric>

#include "core/app_analyzer.h"

namespace qoed::core {

DeviceNetworkSplit device_network_split(const FlowAnalyzer& flows,
                                        const BehaviorRecord& record,
                                        const std::string& hostname_substr) {
  DeviceNetworkSplit out;
  const QoeWindow w = QoeWindow::for_traffic(record);
  out.total_s = sim::to_seconds(AppLayerAnalyzer::calibrate(record));

  out.flow = flows.dominant_flow(w.start, w.end, hostname_substr);
  if (out.flow == nullptr) {
    out.device_s = out.total_s;
    return out;
  }
  const auto span = flows.flow_span_in_window(*out.flow, w.start, w.end);
  if (!span) {
    out.device_s = out.total_s;
    return out;
  }
  out.network_s =
      std::min(sim::to_seconds(span->second - span->first), out.total_s);
  out.device_s = std::max(0.0, out.total_s - out.network_s);

  // Paper heuristic (Finding 1): when the transfer's traffic (e.g. the TCP
  // ACKs of a post upload) substantially continues beyond the QoE window,
  // the UI change did not wait for the network — Facebook pushed a local
  // copy onto the feed. We compare the flow's bytes inside the window with
  // its trailing bytes shortly after it: pure-ACK dribble is fine, a still-
  // running upload is not.
  std::uint64_t window_bytes = 0, trailing_bytes = 0;
  const sim::TimePoint trail_end = w.end + sim::sec(3);
  const auto& trace = flows.trace();
  for (std::size_t idx : out.flow->packet_indices) {
    const auto& r = trace[idx];
    if (r.timestamp >= w.start && r.timestamp <= w.end) {
      window_bytes += r.total_size();
    } else if (r.timestamp > w.end && r.timestamp <= trail_end) {
      trailing_bytes += r.total_size();
    }
  }
  out.network_on_critical_path =
      trailing_bytes <= std::max<std::uint64_t>(window_bytes / 10, 200);
  return out;
}

std::vector<double> first_hop_ota_rtts(const radio::QxdmLogger& qxdm,
                                       net::Direction dir) {
  std::vector<sim::TimePoint> polls;
  for (const auto& p : qxdm.pdu_log()) {
    if (p.dir == dir && p.poll) polls.push_back(p.at);
  }
  std::sort(polls.begin(), polls.end());
  std::vector<double> out;
  for (const auto& s : qxdm.status_log()) {
    if (s.data_dir != dir) continue;
    // Nearest preceding poll (§5.3's heuristic under group acknowledgement).
    auto it = std::upper_bound(polls.begin(), polls.end(), s.at);
    if (it == polls.begin()) continue;
    --it;
    const double rtt = sim::to_seconds(s.at - *it);
    if (rtt > 0) out.push_back(rtt);
  }
  return out;
}

FineBreakdown network_breakdown(const FlowAnalyzer& flows,
                                const BehaviorRecord& record,
                                const MappingResult& mapping,
                                const radio::QxdmLogger& qxdm,
                                net::Direction dir) {
  FineBreakdown out;
  const QoeWindow w = QoeWindow::for_traffic(record);

  // Data PDUs of this direction inside the window, in time order.
  std::vector<const radio::PduRecord*> pdus;
  for (const auto& p : qxdm.pdu_log()) {
    if (p.dir != dir || p.is_status) continue;
    if (p.at < w.start || p.at > w.end) continue;
    pdus.push_back(&p);
  }
  std::sort(pdus.begin(), pdus.end(),
            [](const auto* a, const auto* b) { return a->at < b->at; });

  // t3 — first-hop OTA delay: poll->STATUS RTTs the device explicitly
  // waited on, i.e. with no data PDU transmitted in between (Fig. 9).
  // Computed first so those intervals can be excluded from t1 (a packet
  // queued while the device stalls on a STATUS is waiting on the ARQ loop,
  // not on IP->RLC handoff).
  std::vector<sim::TimePoint> polls;
  for (const auto* p : pdus) {
    if (p->poll) polls.push_back(p->at);
  }
  std::vector<std::pair<sim::TimePoint, sim::TimePoint>> wait_intervals;
  for (const auto& s : qxdm.status_log()) {
    if (s.data_dir != dir || s.at < w.start || s.at > w.end) continue;
    auto it = std::upper_bound(polls.begin(), polls.end(), s.at);
    if (it == polls.begin()) continue;
    const sim::TimePoint poll_at = *std::prev(it);
    bool device_waiting = true;
    for (const auto* p : pdus) {
      if (p->at > poll_at && p->at < s.at) {
        device_waiting = false;
        break;
      }
    }
    if (device_waiting) {
      out.first_hop_ota_s += sim::to_seconds(s.at - poll_at);
      wait_intervals.emplace_back(poll_at, s.at);
    }
  }

  // t1 — IP-to-RLC delay: packet's tcpdump timestamp to its first mapped
  // PDU, counted only while no other PDU was in flight and the device was
  // not inside a poll->STATUS wait (§7.2).
  for (const auto& m : mapping.packets) {
    if (!m.mapped || m.pdu_seqs.empty()) continue;
    if (m.packet_ts < w.start || m.packet_ts > w.end) continue;
    sim::TimePoint lower = m.packet_ts;
    for (const auto* p : pdus) {  // last PDU before this packet's first PDU
      if (p->at >= m.first_pdu_at) break;
      lower = std::max(lower, p->at);
    }
    if (m.first_pdu_at <= lower) continue;
    double gap = sim::to_seconds(m.first_pdu_at - lower);
    for (const auto& [a, b] : wait_intervals) {  // already charged to t3
      const sim::TimePoint lo = std::max(a, lower);
      const sim::TimePoint hi = std::min(b, m.first_pdu_at);
      if (hi > lo) gap -= sim::to_seconds(hi - lo);
    }
    if (gap > 0) out.ip_to_rlc_s += gap;
  }

  // t2 — RLC transmission delay: sum of inter-PDU gaps within bursts, where
  // a burst groups PDUs whose spacing is below the mean first-hop OTA RTT
  // (§7.2's burst analysis).
  const std::vector<double> rtts = first_hop_ota_rtts(qxdm, dir);
  const double mean_rtt =
      rtts.empty() ? 0
                   : std::accumulate(rtts.begin(), rtts.end(), 0.0) /
                         static_cast<double>(rtts.size());
  const double ota_rtt = std::max(mean_rtt, 1e-3);
  for (std::size_t i = 1; i < pdus.size(); ++i) {
    const double gap = sim::to_seconds(pdus[i]->at - pdus[i - 1]->at);
    if (gap <= ota_rtt) out.rlc_tx_s += gap;
  }

  // t4 — everything outside the one-hop range (core latency, server
  // processing, ...).
  const DeviceNetworkSplit split = device_network_split(flows, record);
  out.network_s = split.network_s;
  out.other_s = std::max(0.0, out.network_s - out.ip_to_rlc_s - out.rlc_tx_s -
                                  out.first_hop_ota_s);
  return out;
}

}  // namespace qoed::core
