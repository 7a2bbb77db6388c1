#include "core/export_sink.h"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

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

void put_jsonl_envelope(std::ostream& os, const Collector& c, const Event& e) {
  (void)c;
  os << "{\"t\":";
  put_json_number(os, e.at.seconds());
  os << ",\"seq\":" << e.seq << ",\"layer\":\"" << to_string(e.layer)
     << "\",\"kind\":\"" << to_string(e.kind) << '"';
}

void put_jsonl_behavior(std::ostream& os, const BehaviorRecord& r) {
  os << ",\"action\":";
  put_json_string(os, r.action);
  os << ",\"start\":";
  put_json_number(os, r.start.seconds());
  os << ",\"end\":";
  put_json_number(os, r.end.seconds());
  os << ",\"timed_out\":" << (r.timed_out ? "true" : "false");
  if (!r.timed_out) {
    os << ",\"raw_s\":";
    put_json_number(os, sim::to_seconds(r.raw_latency()));
  }
  if (!r.metadata.empty()) {
    os << ",\"metadata\":{";
    bool first = true;
    for (const auto& [k, v] : r.metadata) {
      if (!first) os << ',';
      first = false;
      put_json_string(os, k);
      os << ':';
      put_json_string(os, v);
    }
    os << '}';
  }
}

void put_jsonl_packet(std::ostream& os, const net::PacketRecord& r) {
  os << ",\"dir\":\"" << net::to_string(r.direction) << "\",\"src\":";
  put_json_string(os, r.src_ip.to_string() + ':' + std::to_string(r.src_port));
  os << ",\"dst\":";
  put_json_string(os, r.dst_ip.to_string() + ':' + std::to_string(r.dst_port));
  os << ",\"proto\":\""
     << (r.protocol == net::Protocol::kUdp ? "udp" : "tcp") << '"';
  if (r.protocol == net::Protocol::kTcp) {
    os << ",\"flags\":";
    put_json_string(os, r.flags.to_string());
    os << ",\"tcp_seq\":" << r.seq << ",\"tcp_ack\":" << r.ack;
  } else if (r.dns) {
    os << ",\"dns\":";
    put_json_string(os, r.dns->hostname);
    os << ",\"dns_resp\":" << (r.dns->is_response ? "true" : "false");
  }
  os << ",\"len\":" << r.payload_size;
}

void put_jsonl_pdu(std::ostream& os, const radio::PduRecord& r) {
  os << ",\"dir\":\"" << net::to_string(r.dir) << "\",\"rlc_seq\":" << r.seq
     << ",\"len\":" << r.payload_len;
  if (r.poll) os << ",\"poll\":true";
  if (r.retransmission) os << ",\"retx\":true";
}

void put_jsonl_rrc(std::ostream& os, const radio::RrcTransitionRecord& r) {
  os << ",\"from\":\"" << radio::to_string(r.from) << "\",\"to\":\""
     << radio::to_string(r.to) << '"';
}

void put_jsonl_status(std::ostream& os, const radio::StatusRecord& r) {
  os << ",\"dir\":\"" << net::to_string(r.data_dir)
     << "\",\"ack_until\":" << r.ack_until << ",\"nacks\":" << r.nack_count;
}

}  // namespace

bool ExportSink::write_file(const std::string& path) const {
  // Crash-safe export: write the full payload to a sibling temp file, then
  // atomically rename it over the destination. A crash mid-write leaves the
  // previous file (or nothing) at `path`, never a truncated export.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return false;
    write(os);
    os.flush();
    if (!os) {
      os.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::string ExportSink::to_string() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

void TraceTextSink::write(std::ostream& os) const {
  std::size_t lines = 0;
  for (const auto& r : *trace_) {
    if (max_lines_ > 0 && lines++ >= max_lines_) {
      os << "... (" << trace_->size() - max_lines_ << " more)\n";
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

void QxdmTextSink::write(std::ostream& os) const {
  for (const auto& t : log_->rrc_log()) {
    put_time(os, t.at);
    os << "RRC " << radio::to_string(t.from) << " -> "
       << radio::to_string(t.to) << '\n';
  }
  std::size_t lines = 0;
  for (const auto& p : log_->pdu_log()) {
    if (max_lines_ > 0 && lines++ >= max_lines_) {
      os << "... (" << log_->pdu_log().size() - max_lines_
         << " more PDUs)\n";
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
  for (const auto& s : log_->status_log()) {
    put_time(os, s.at);
    os << "STATUS dir=" << net::to_string(s.data_dir)
       << " ack_until=" << s.ack_until << " nacks=" << s.nack_count << '\n';
  }
}

void BehaviorTextSink::write(std::ostream& os) const {
  for (const auto& r : log_->records()) {
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

void PcapSink::write(std::ostream& os) const {
  const std::vector<std::uint8_t> bytes = to_pcap(*trace_, options_);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

void CampaignJsonSink::write(std::ostream& os) const {
  const CampaignResult& result = *result_;
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

void TimelineJsonlSink::write(std::ostream& os) const {
  for (const Event& e : collector_->timeline()) {
    put_jsonl_envelope(os, *collector_, e);
    switch (e.kind) {
      case EventKind::kBehavior:
        put_jsonl_behavior(os, collector_->behavior(e));
        break;
      case EventKind::kPacket:
        put_jsonl_packet(os, collector_->packet(e));
        break;
      case EventKind::kPdu:
        put_jsonl_pdu(os, collector_->pdu(e));
        break;
      case EventKind::kRrcTransition:
        put_jsonl_rrc(os, collector_->rrc_transition(e));
        break;
      case EventKind::kStatus:
        put_jsonl_status(os, collector_->status(e));
        break;
    }
    os << "}\n";
  }
}

void TraceEventSink::write(std::ostream& os) const {
  obs::Tracer::write_merged_chrome_json(os, tracers_);
}

void MetricsJsonSink::write(std::ostream& os) const {
  registry_->write_json(os);
  os << '\n';
}

}  // namespace qoed::core
