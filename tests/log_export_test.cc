#include "core/export_sink.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "apps/web_server.h"
#include "core/json_util.h"
#include "core/qoe_doctor.h"
#include "net/dns.h"

namespace qoed::core {
namespace {

// Full stack fixture: one 3G page load gives every log type content.
class LogExportTest : public ::testing::Test {
 protected:
  LogExportTest() : bed_(61), server_(bed_.network(), bed_.next_server_ip()) {
    server_.add_page({.path = "/index",
                      .html_bytes = 20'000,
                      .object_count = 2,
                      .object_bytes = 8'000});
    dev_ = bed_.make_device("phone");
    dev_->attach_cellular(radio::CellularConfig::umts());
    app_ = std::make_unique<apps::BrowserApp>(*dev_);
    app_->launch();
    doctor_ = std::make_unique<QoeDoctor>(*dev_, *app_);
    BrowserDriver driver(doctor_->controller(), *app_);
    driver.load_page("www.page.sim/index",
                     [this](const BehaviorRecord& r) { record_ = r; });
    bed_.loop().run();
  }

  Testbed bed_;
  apps::WebServer server_;
  std::unique_ptr<device::Device> dev_;
  std::unique_ptr<apps::BrowserApp> app_;
  std::unique_ptr<QoeDoctor> doctor_;
  BehaviorRecord record_;
};

TEST_F(LogExportTest, TraceExportShowsDnsAndTcp) {
  const std::string out = TraceTextSink(dev_->trace().records()).to_string();
  EXPECT_NE(out.find("dns-query www.page.sim"), std::string::npos);
  EXPECT_NE(out.find("dns-resp www.page.sim ->"), std::string::npos);
  EXPECT_NE(out.find("TCP S "), std::string::npos);   // SYN
  EXPECT_NE(out.find("TCP SA "), std::string::npos);  // SYN-ACK
  EXPECT_NE(out.find("UL 10.0.0.2:"), std::string::npos);
  EXPECT_NE(out.find("DL "), std::string::npos);
}

TEST_F(LogExportTest, TraceExportHonorsLineCap) {
  const std::string out = TraceTextSink(dev_->trace().records(), 5).to_string();
  int newlines = 0;
  for (char c : out) newlines += c == '\n';
  EXPECT_EQ(newlines, 6);  // 5 packets + the "... (N more)" line
  EXPECT_NE(out.find("more)"), std::string::npos);
}

TEST_F(LogExportTest, QxdmExportShowsAllThreeRecordKinds) {
  const std::string out = QxdmTextSink(dev_->cellular()->qxdm(), 50).to_string();
  EXPECT_NE(out.find("RRC PCH -> "), std::string::npos);
  EXPECT_NE(out.find("PDU seq="), std::string::npos);
  EXPECT_NE(out.find("first2="), std::string::npos);
  EXPECT_NE(out.find("STATUS dir="), std::string::npos);
  EXPECT_NE(out.find("li=["), std::string::npos);
}

TEST_F(LogExportTest, BehaviorLogExportShowsCalibratedLatency) {
  const std::string out = BehaviorTextSink(doctor_->log()).to_string();
  EXPECT_NE(out.find("page_load"), std::string::npos);
  EXPECT_NE(out.find("calibrated="), std::string::npos);
  EXPECT_NE(out.find("url=www.page.sim/index"), std::string::npos);
  EXPECT_EQ(out.find("TIMEOUT"), std::string::npos);
}

TEST(LogExportEmptyTest, EmptyLogsProduceEmptyOutput) {
  const std::vector<net::PacketRecord> no_packets;
  EXPECT_TRUE(TraceTextSink(no_packets).to_string().empty());
  AppBehaviorLog empty;
  EXPECT_TRUE(BehaviorTextSink(empty).to_string().empty());
}

// --- crash-safe exports: temp-file + atomic rename ---

TEST_F(LogExportTest, WriteFileIsAtomicAndLeavesNoTempFile) {
  const std::string path = ::testing::TempDir() + "qoed_export_atomic.txt";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  const BehaviorTextSink sink(doctor_->log());
  ASSERT_TRUE(sink.write_file(path));
  // No stray temp file, and the content equals the in-memory render.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::ostringstream got;
  got << std::ifstream(path, std::ios::binary).rdbuf();
  EXPECT_EQ(got.str(), sink.to_string());

  // Overwrite goes through the same rename; prior content fully replaced.
  ASSERT_TRUE(sink.write_file(path));
  std::ostringstream again;
  again << std::ifstream(path, std::ios::binary).rdbuf();
  EXPECT_EQ(again.str(), sink.to_string());
  std::remove(path.c_str());
}

TEST_F(LogExportTest, WriteFileToBadDirectoryFailsCleanly) {
  const BehaviorTextSink sink(doctor_->log());
  const std::string path = "/nonexistent-dir-qoed/export.txt";
  EXPECT_FALSE(sink.write_file(path));
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

// --- timeline JSONL bytes ---

sim::TimePoint at_us(std::int64_t us) { return sim::kTimeZero + sim::usec(us); }

// The exact bytes of every timeline line kind: behavior records (metadata,
// the '"', '\\' and control-byte escapes, a timeout), a TCP packet, a DNS
// query and response over UDP, a PDU with poll and retx, an RRC transition
// and a STATUS record. Every merged timeline artifact is made of these.
TEST(TimelineJsonlTest, EveryLineKindKeepsItsBytes) {
  Testbed bed(5);
  const auto dev = bed.make_device("phone");
  dev->attach_cellular(radio::CellularConfig::umts());
  radio::QxdmLogger& qxdm = dev->cellular()->qxdm();
  qxdm.set_record_loss(0, 0);
  AppBehaviorLog log;
  Collector collector;
  collector.attach(*dev, log);

  BehaviorRecord done;
  done.action = "post \"x\\y\"\x01\x1f";
  done.start = at_us(1'000'000);
  done.end = at_us(2'502'334);
  done.parsing_interval = sim::msec(100);
  done.metadata = {{"note", "tab\there\nnewline"}, {"photos", "3"}};
  log.add(done);

  net::PacketRecord tcp;
  tcp.timestamp = at_us(2'600'001);
  tcp.src_ip = net::IpAddr(10, 0, 0, 2);
  tcp.src_port = 40000;
  tcp.dst_ip = net::IpAddr(203, 0, 113, 10);
  tcp.dst_port = 443;
  tcp.flags.syn = true;
  tcp.flags.ack = true;
  tcp.seq = 4294967296;
  tcp.ack = 1;
  tcp.payload_size = 1400;
  dev->trace().add(tcp);

  net::PacketRecord query;
  query.timestamp = at_us(2'700'000);
  query.direction = net::Direction::kUplink;
  query.protocol = net::Protocol::kUdp;
  query.src_ip = net::IpAddr(10, 0, 0, 2);
  query.src_port = 5353;
  query.dst_ip = net::IpAddr(8, 8, 8, 8);
  query.dst_port = net::kDnsPort;
  query.payload_size = 30;
  query.dns = std::make_shared<net::DnsMessage>(
      net::DnsMessage{.hostname = "www.page.sim"});
  dev->trace().add(query);
  net::PacketRecord answer = query;
  answer.timestamp = at_us(2'799'999);
  answer.direction = net::Direction::kDownlink;
  std::swap(answer.src_ip, answer.dst_ip);
  std::swap(answer.src_port, answer.dst_port);
  answer.dns = std::make_shared<net::DnsMessage>(
      net::DnsMessage{.hostname = "www.page.sim",
                      .resolved = net::IpAddr(93, 184, 216, 34),
                      .is_response = true});
  dev->trace().add(answer);

  qxdm.log_rrc(radio::RrcState::kPch, radio::RrcState::kFach,
               at_us(3'000'000));
  radio::PduRecord pdu;
  pdu.at = at_us(3'123'457);
  pdu.dir = net::Direction::kDownlink;
  pdu.seq = 4095;
  pdu.payload_len = 40;
  pdu.poll = true;
  pdu.retransmission = true;
  qxdm.log_pdu(pdu);
  qxdm.log_status({.at = at_us(3'200'000),
                   .data_dir = net::Direction::kDownlink,
                   .ack_until = 4096,
                   .nack_count = 2});

  BehaviorRecord late;
  late.action = "pull_to_update";
  late.start = at_us(3'500'000);
  late.end = at_us(33'500'000);
  late.timed_out = true;
  log.add(late);

  const std::string expected =
      R"({"t":2.4023340000000002,"seq":0,"layer":"ui","kind":"behavior","action":"post \"x\\y\"\u0001\u001f","start":1,"end":2.5023339999999998,"timed_out":false,"raw_s":1.5023340000000001,"metadata":{"note":"tab\there\nnewline","photos":"3"}})"
      "\n"
      R"({"t":2.6000009999999998,"seq":1,"layer":"packet","kind":"packet","dir":"uplink","src":"10.0.0.2:40000","dst":"203.0.113.10:443","proto":"tcp","flags":"SA","tcp_seq":4294967296,"tcp_ack":1,"len":1400})"
      "\n"
      R"({"t":2.7000000000000002,"seq":2,"layer":"packet","kind":"packet","dir":"uplink","src":"10.0.0.2:5353","dst":"8.8.8.8:53","proto":"udp","dns":"www.page.sim","dns_resp":false,"len":30})"
      "\n"
      R"({"t":2.7999990000000001,"seq":3,"layer":"packet","kind":"packet","dir":"downlink","src":"8.8.8.8:53","dst":"10.0.0.2:5353","proto":"udp","dns":"www.page.sim","dns_resp":true,"len":30})"
      "\n"
      R"({"t":3,"seq":4,"layer":"radio","kind":"rrc","from":"PCH","to":"FACH"})"
      "\n"
      R"({"t":3.1234570000000001,"seq":5,"layer":"radio","kind":"pdu","dir":"downlink","rlc_seq":4095,"len":40,"poll":true,"retx":true})"
      "\n"
      R"({"t":3.2000000000000002,"seq":6,"layer":"radio","kind":"status","dir":"downlink","ack_until":4096,"nacks":2})"
      "\n"
      R"({"t":33.5,"seq":7,"layer":"ui","kind":"behavior","action":"pull_to_update","start":3.5,"end":33.5,"timed_out":true})"
      "\n";
  const TimelineJsonlSink sink(collector);
  EXPECT_EQ(sink.to_string(), expected);
  std::ostringstream os;
  sink.write(os);
  EXPECT_EQ(os.str(), expected);
}

// --- the JSON number formatter and string escaper ---

std::string printf_17g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Doubles whose %.17g text is easiest to get wrong: signed zeros,
// subnormals, the extremes, the fixed/exponent style switch at 1e-5 and
// 1e17 (plus its 1e-4/1e16 neighbours) a few ulps either side, microsecond
// timestamps as sim::to_seconds makes them, and random bit patterns.
std::vector<double> number_cases() {
  using limits = std::numeric_limits<double>;
  std::vector<double> v = {0.0,
                           -0.0,
                           limits::denorm_min(),
                           -limits::denorm_min(),
                           limits::min(),
                           limits::max(),
                           limits::lowest(),
                           limits::epsilon(),
                           limits::infinity(),
                           -limits::infinity(),
                           0.1,
                           1.0 / 3.0,
                           123456789012345678.0};
  for (const double edge : {1e-5, 1e-4, 1e16, 1e17}) {
    for (const double sign : {1.0, -1.0}) {
      double up = sign * edge, down = sign * edge;
      for (int i = 0; i < 64; ++i) {
        v.push_back(up);
        v.push_back(down);
        up = std::nextafter(up, limits::infinity());
        down = std::nextafter(down, -limits::infinity());
      }
    }
  }
  std::mt19937_64 rng(20141105);
  for (int i = 0; i < 20000; ++i) {
    v.push_back(std::bit_cast<double>(rng() & 0x000f'ffff'ffff'ffffULL));
  }
  for (std::int64_t us = 0; us < 20000; ++us) {
    v.push_back(sim::to_seconds(sim::usec(us)));
  }
  for (int i = 0; i < 50000; ++i) {
    v.push_back(sim::to_seconds(sim::usec(
        static_cast<std::int64_t>(rng() % 400'000'000'000ULL))));
  }
  for (int i = 0; i < 200000; ++i) {
    const double d = std::bit_cast<double>(rng());
    if (!std::isnan(d)) v.push_back(d);
  }
  return v;
}

TEST(JsonNumberTest, MatchesPrintfPercent17g) {
  std::size_t checked = 0;
  for (const double d : number_cases()) {
    std::string appended = "x";
    append_json_number(appended, d);
    ASSERT_EQ(appended, std::string("x").append(printf_17g(d)))
        << std::bit_cast<std::uint64_t>(d);
    if (checked++ % 64 == 0) {
      std::ostringstream os;
      put_json_number(os, d);
      ASSERT_EQ(os.str(), printf_17g(d)) << std::bit_cast<std::uint64_t>(d);
    }
  }
  EXPECT_GT(checked, 290000u);
}

// The ostream escaper JSON strings went through before the append writer:
// the reference every escaped byte must keep.
std::string reference_escape(const std::string& s) {
  std::ostringstream os;
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
  return os.str();
}

TEST(JsonStringTest, EscapesEveryByteAsBefore) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    all.push_back(c);
    for (const std::string& s :
         {std::string(1, c), "ab" + std::string(1, c) + "yz"}) {
      std::string appended = "x";
      append_json_string(appended, s);
      EXPECT_EQ(appended, std::string("x").append(reference_escape(s)))
          << "byte " << b;
      std::ostringstream os;
      put_json_string(os, s);
      EXPECT_EQ(os.str(), reference_escape(s)) << "byte " << b;
    }
  }
  std::string appended;
  append_json_string(appended, all);
  EXPECT_EQ(appended, reference_escape(all));
  appended.clear();
  append_json_string(appended, "");
  EXPECT_EQ(appended, "\"\"");
}

}  // namespace
}  // namespace qoed::core
