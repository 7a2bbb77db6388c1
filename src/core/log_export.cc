#include "core/log_export.h"

#include <cstdio>
#include <iomanip>
#include <ostream>

#include "core/app_analyzer.h"
#include "core/json_util.h"
#include "net/dns.h"

namespace qoed::core {
namespace {

void put_time(std::ostream& os, sim::TimePoint t) {
  os << std::fixed << std::setprecision(6) << t.seconds() << ' ';
}

void put_json_summary(std::ostream& os, const Summary& s) {
  os << "{\"n\":" << s.n << ",\"mean\":";
  put_json_number(os, s.mean);
  os << ",\"stddev\":";
  put_json_number(os, s.stddev);
  os << ",\"min\":";
  put_json_number(os, s.min);
  os << ",\"max\":";
  put_json_number(os, s.max);
  os << ",\"p50\":";
  put_json_number(os, s.p50);
  os << ",\"p90\":";
  put_json_number(os, s.p90);
  os << ",\"p99\":";
  put_json_number(os, s.p99);
  os << '}';
}

}  // namespace

void export_trace(std::ostream& os,
                  const std::vector<net::PacketRecord>& trace,
                  std::size_t max_lines) {
  std::size_t lines = 0;
  for (const auto& r : trace) {
    if (max_lines > 0 && lines++ >= max_lines) {
      os << "... (" << trace.size() - max_lines << " more)\n";
      break;
    }
    put_time(os, r.timestamp);
    os << (r.direction == net::Direction::kUplink ? "UL " : "DL ");
    os << r.src_ip.to_string() << ':' << r.src_port << " > "
       << r.dst_ip.to_string() << ':' << r.dst_port << ' ';
    if (r.protocol == net::Protocol::kUdp) {
      os << "UDP len=" << r.payload_size;
      if (r.dns) {
        os << (r.dns->is_response ? " dns-resp " : " dns-query ")
           << r.dns->hostname;
        if (r.dns->is_response && !r.dns->nxdomain) {
          os << " -> " << r.dns->resolved.to_string();
        }
      }
    } else {
      os << "TCP " << r.flags.to_string() << " seq=" << r.seq
         << " ack=" << r.ack << " len=" << r.payload_size;
    }
    os << '\n';
  }
}

void export_qxdm(std::ostream& os, const radio::QxdmLogger& log,
                 std::size_t max_lines) {
  for (const auto& t : log.rrc_log()) {
    put_time(os, t.at);
    os << "RRC " << radio::to_string(t.from) << " -> "
       << radio::to_string(t.to) << '\n';
  }
  std::size_t lines = 0;
  for (const auto& p : log.pdu_log()) {
    if (max_lines > 0 && lines++ >= max_lines) {
      os << "... (" << log.pdu_log().size() - max_lines << " more PDUs)\n";
      break;
    }
    put_time(os, p.at);
    os << (p.dir == net::Direction::kUplink ? "UL " : "DL ");
    os << "PDU seq=" << p.seq << " len=" << p.payload_len;
    if (!p.li_ends.empty()) {
      os << " li=[";
      for (std::size_t i = 0; i < p.li_ends.size(); ++i) {
        if (i) os << ',';
        os << p.li_ends[i];
      }
      os << ']';
    }
    if (p.poll) os << " poll";
    if (p.retransmission) os << " retx";
    os << " first2=" << std::hex << std::setw(2) << std::setfill('0')
       << static_cast<int>(p.first_two[0]) << std::setw(2)
       << static_cast<int>(p.first_two[1]) << std::dec << std::setfill(' ')
       << '\n';
  }
  for (const auto& s : log.status_log()) {
    put_time(os, s.at);
    os << "STATUS dir=" << net::to_string(s.data_dir)
       << " ack_until=" << s.ack_until << " nacks=" << s.nack_count << '\n';
  }
}

void export_behavior_log(std::ostream& os, const AppBehaviorLog& log) {
  for (const auto& r : log.records()) {
    put_time(os, r.start);
    os << r.action;
    if (r.timed_out) {
      os << " TIMEOUT\n";
      continue;
    }
    os << " raw=" << std::fixed << std::setprecision(3)
       << sim::to_seconds(r.raw_latency()) << "s calibrated="
       << sim::to_seconds(AppLayerAnalyzer::calibrate(r)) << 's';
    for (const auto& [k, v] : r.metadata) os << ' ' << k << '=' << v;
    os << '\n';
  }
}

void export_campaign_json(std::ostream& os, const CampaignResult& result) {
  os << "{\"campaign\":";
  put_json_string(os, result.name);
  os << ",\"master_seed\":" << result.master_seed
     << ",\"runs\":" << result.runs << ",\"jobs\":" << result.jobs
     << ",\"failed_runs\":" << result.failed_runs();
  os << ",\"run_seeds\":[";
  for (std::size_t i = 0; i < result.run_specs.size(); ++i) {
    if (i) os << ',';
    os << result.run_specs[i].seed;
  }
  os << "],\"run_errors\":[";
  for (std::size_t i = 0; i < result.run_errors.size(); ++i) {
    if (i) os << ',';
    put_json_string(os, result.run_errors[i]);
  }
  os << "],\"run_attempts\":[";
  for (std::size_t i = 0; i < result.run_attempts.size(); ++i) {
    if (i) os << ',';
    os << result.run_attempts[i];
  }
  os << "],\"quarantined\":[";
  for (std::size_t i = 0; i < result.quarantined.size(); ++i) {
    const auto& q = result.quarantined[i];
    if (i) os << ',';
    os << "{\"run\":" << q.run_index << ",\"attempts\":" << q.attempts
       << ",\"seed\":" << q.last_seed << ",\"error\":";
    put_json_string(os, q.error);
    os << '}';
  }
  os << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, agg] : result.metrics) {
    if (!first) os << ',';
    first = false;
    put_json_string(os, name);
    os << ":{\"pooled\":";
    put_json_summary(os, agg.pooled);
    os << ",\"per_run_means\":";
    put_json_summary(os, agg.per_run_means);
    os << '}';
  }
  os << "},\"registry\":";
  result.registry.write_json(os);
  os << "}\n";
}

}  // namespace qoed::core
