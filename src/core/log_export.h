// Human-readable exports of the collected logs: a tcpdump-like rendering of
// the packet trace and a QxDM-like rendering of the radio log. Useful for
// eyeballing an experiment and for diffing runs; the analyzers never parse
// these (they consume the structured records directly).
#pragma once

#include <iosfwd>

#include "core/behavior_log.h"
#include "core/campaign.h"
#include "net/trace.h"
#include "radio/qxdm_logger.h"

namespace qoed::core {

// One line per packet:
//   1.002334 UL 10.0.0.2:40000 > 203.0.113.10:443 TCP SA seq=0 ack=0 len=0
void export_trace(std::ostream& os, const std::vector<net::PacketRecord>& trace,
                  std::size_t max_lines = 0);

// RRC transitions, then data-plane PDUs, then STATUS PDUs:
//   0.600000 RRC PCH -> FACH
//   0.612000 UL PDU seq=12 len=40 li=[40] poll first2=3fa9
void export_qxdm(std::ostream& os, const radio::QxdmLogger& log,
                 std::size_t max_lines = 0);

// AppBehaviorLog rendering with raw and calibrated latencies.
void export_behavior_log(std::ostream& os, const AppBehaviorLog& log);

// CampaignResult as JSON: campaign identity, per-run seeds/errors (enough to
// replay any run alone), and per-metric aggregates (pooled summary,
// mean-of-run-means). Doubles are emitted with round-trip precision, so two
// bit-identical results produce byte-identical JSON. The ExportSink classes
// (export_sink.h) wrap these renderers for files and strings.
void export_campaign_json(std::ostream& os, const CampaignResult& result);

}  // namespace qoed::core
