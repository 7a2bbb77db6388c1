#include "core/export_sink.h"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
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

// Appends the decimal text of `v`.
void append_uint(std::string& out, std::uint64_t v) {
  char buf[20];
  out.append(buf, std::to_chars(buf, std::end(buf), v).ptr);
}

void append_endpoint(std::string& out, net::IpAddr ip, net::Port port) {
  out += '"';
  ip.append_to(out);
  out += ':';
  append_uint(out, port);
  out += '"';
}

void append_behavior(std::string& out, const BehaviorRecord& r) {
  out += ",\"action\":";
  append_json_string(out, r.action);
  out += ",\"start\":";
  append_json_number(out, r.start.seconds());
  out += ",\"end\":";
  append_json_number(out, r.end.seconds());
  out += r.timed_out ? ",\"timed_out\":true" : ",\"timed_out\":false";
  if (!r.timed_out) {
    out += ",\"raw_s\":";
    append_json_number(out, sim::to_seconds(r.raw_latency()));
  }
  if (!r.metadata.empty()) {
    out += ",\"metadata\":{";
    const char* sep = "";
    for (const auto& [k, v] : r.metadata) {
      out += sep;
      sep = ",";
      append_json_string(out, k);
      out += ':';
      append_json_string(out, v);
    }
    out += '}';
  }
}

void append_pdu(std::string& out, const radio::PduRecord& r) {
  out += ",\"dir\":\"";
  out += net::to_string(r.dir);
  out += "\",\"rlc_seq\":";
  append_uint(out, r.seq);
  out += ",\"len\":";
  append_uint(out, r.payload_len);
  if (r.poll) out += ",\"poll\":true";
  if (r.retransmission) out += ",\"retx\":true";
}

void append_rrc(std::string& out, const radio::RrcTransitionRecord& r) {
  out += ",\"from\":\"";
  out += radio::to_string(r.from);
  out += "\",\"to\":\"";
  out += radio::to_string(r.to);
  out += '"';
}

void append_status(std::string& out, const radio::StatusRecord& r) {
  out += ",\"dir\":\"";
  out += net::to_string(r.data_dir);
  out += "\",\"ack_until\":";
  append_uint(out, r.ack_until);
  out += ",\"nacks\":";
  append_uint(out, r.nack_count);
}

}  // namespace

bool write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& fill) {
  const std::string tmp = path + ".tmp";
  std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  fill(os);
  os.close();
  std::error_code ec;
  if (os) std::filesystem::rename(tmp, path, ec);
  if (os && !ec) return true;
  std::filesystem::remove(tmp, ec);
  return false;
}

bool write_file_atomic(const std::string& path, std::string_view content) {
  return write_file_atomic(path, [content](std::ostream& os) {
    os.write(content.data(), static_cast<std::streamsize>(content.size()));
  });
}

bool ExportSink::write_file(const std::string& path) const {
  return write_file_atomic(path, [this](std::ostream& os) { write(os); });
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

void append_packet_fields(std::string& out, const net::PacketRecord& r) {
  out += ",\"dir\":\"";
  out += net::to_string(r.direction);
  out += "\",\"src\":";
  append_endpoint(out, r.src_ip, r.src_port);
  out += ",\"dst\":";
  append_endpoint(out, r.dst_ip, r.dst_port);
  if (r.protocol == net::Protocol::kTcp) {
    out += ",\"proto\":\"tcp\",\"flags\":\"";
    r.flags.append_to(out);
    out += "\",\"tcp_seq\":";
    append_uint(out, r.seq);
    out += ",\"tcp_ack\":";
    append_uint(out, r.ack);
  } else {
    out += ",\"proto\":\"udp\"";
    if (r.dns) {
      out += ",\"dns\":";
      append_json_string(out, r.dns->hostname);
      out += r.dns->is_response ? ",\"dns_resp\":true" : ",\"dns_resp\":false";
    }
  }
  out += ",\"len\":";
  append_uint(out, r.payload_size);
}

std::string TimelineJsonlSink::to_string() const {
  const Collector& c = *collector_;
  std::string out;
  // About the mean line length; a longer timeline grows the string once.
  out.reserve(c.timeline().size() * 160);
  for (const Event& e : c.timeline()) {
    out += "{\"t\":";
    append_json_number(out, e.at.seconds());
    out += ",\"seq\":";
    append_uint(out, e.seq);
    out += ",\"layer\":\"";
    out += core::to_string(e.layer);
    out += "\",\"kind\":\"";
    out += core::to_string(e.kind);
    out += '"';
    switch (e.kind) {
      case EventKind::kBehavior:
        append_behavior(out, c.behavior(e));
        break;
      case EventKind::kPacket:
        append_packet_fields(out, c.packet(e));
        break;
      case EventKind::kPdu:
        append_pdu(out, c.pdu(e));
        break;
      case EventKind::kRrcTransition:
        append_rrc(out, c.rrc_transition(e));
        break;
      case EventKind::kStatus:
        append_status(out, c.status(e));
        break;
    }
    out += "}\n";
  }
  return out;
}

void TimelineJsonlSink::write(std::ostream& os) const {
  const std::string text = to_string();
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void TraceEventSink::write(std::ostream& os) const {
  obs::Tracer::write_merged_chrome_json(os, tracers_);
}

void MetricsJsonSink::write(std::ostream& os) const {
  registry_->write_json(os);
  os << '\n';
}

}  // namespace qoed::core
