// Cross-layer analysis (§5.4).
//
// Two mappings, exactly as the paper structures them:
//  - application <-> transport/network: a BehaviorRecord defines a QoE
//    window; flow analysis inside that window identifies the responsible
//    TCP flow and splits user-perceived latency into network vs device
//    components (Fig. 7);
//  - transport/network <-> RRC/RLC: with the long-jump mapping and the
//    poll/STATUS feedback loop, network latency is further broken into
//    IP-to-RLC delay, RLC transmission delay, first-hop OTA delay and
//    "other" (Fig. 8/9).
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "core/behavior_log.h"
#include "core/flow_analyzer.h"
#include "core/rlc_mapper.h"
#include "radio/qxdm_logger.h"

namespace qoed::core {

struct QoeWindow {
  sim::TimePoint start;
  sim::TimePoint end;

  static QoeWindow of(const BehaviorRecord& record) {
    return {record.start, record.end};
  }
  // Window for traffic attribution: opens at the replayed action itself, so
  // a request sent immediately on the trigger (before the parse-detected
  // start indicator) still counts into the QoE window.
  static QoeWindow for_traffic(const BehaviorRecord& record) {
    return {std::min(record.trigger, record.start), record.end};
  }
};

struct DeviceNetworkSplit {
  double total_s = 0;
  double network_s = 0;
  double device_s = 0;
  const FlowStats* flow = nullptr;  // responsible flow (may be null)
  bool network_on_critical_path = false;
};

struct FineBreakdown {
  double ip_to_rlc_s = 0;   // t1
  double rlc_tx_s = 0;      // t2 (intra-burst transmission time)
  double first_hop_ota_s = 0;  // t3 (OTA RTTs the device explicitly waits on)
  double other_s = 0;       // t4 = network latency - t1 - t2 - t3
  double network_s = 0;
};

// §5.4.1: QoE window -> responsible flow -> device/network latency split.
// The network component spans the earliest to the latest packet of the
// responsible flow inside the window. `network_on_critical_path` is false
// when the flow's activity ends after the window (local-echo posts) or no
// flow ran at all.
DeviceNetworkSplit device_network_split(
    const FlowAnalyzer& flows, const BehaviorRecord& record,
    const std::string& hostname_substr = "");

// First-hop OTA RTT samples (seconds) for `dir` data (§5.3): each STATUS
// record paired with the latest poll PDU of that direction at or before
// it. Poll times are sorted first, so a poll record a capture fault
// released late still pairs by its timestamp.
std::vector<double> first_hop_ota_rtts(const radio::QxdmLogger& qxdm,
                                       net::Direction dir);

// §5.4.2: fine-grained network latency breakdown of the QoE window from
// the RLC mapping and radio logs. `dir` selects the dominant direction of
// the transfer (uplink for photo posting).
FineBreakdown network_breakdown(const FlowAnalyzer& flows,
                                const BehaviorRecord& record,
                                const MappingResult& mapping,
                                const radio::QxdmLogger& qxdm,
                                net::Direction dir);

}  // namespace qoed::core
