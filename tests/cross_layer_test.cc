#include "core/cross_layer_analyzer.h"

#include <gtest/gtest.h>

#include "net/dns.h"

namespace qoed::core {
namespace {

using net::Direction;

const net::IpAddr kDevice(10, 0, 0, 2);
const net::IpAddr kServer(31, 13, 0, 1);

net::PacketRecord rec(std::uint64_t uid, sim::Duration at, Direction dir,
                      std::uint32_t payload, std::uint64_t seq = 0) {
  net::PacketRecord r;
  r.uid = uid;
  r.timestamp = sim::TimePoint{at};
  r.direction = dir;
  if (dir == Direction::kUplink) {
    r.src_ip = kDevice;
    r.src_port = 40000;
    r.dst_ip = kServer;
    r.dst_port = 443;
  } else {
    r.src_ip = kServer;
    r.src_port = 443;
    r.dst_ip = kDevice;
    r.dst_port = 40000;
  }
  r.payload_size = payload;
  r.seq = seq;
  r.flags.ack = true;
  return r;
}

BehaviorRecord behavior(sim::Duration start, sim::Duration end,
                        bool parse_start = false) {
  BehaviorRecord b;
  b.action = "test";
  b.start = sim::TimePoint{start};
  b.end = sim::TimePoint{end};
  b.trigger = b.start;  // hand-built record: action time == start
  b.parsing_interval = sim::msec(50);
  b.start_from_parse = parse_start;
  return b;
}

TEST(CrossLayerTest, NetworkSpanInsideWindowSplitsLatency) {
  // Window [1s, 5s]; flow active 1.5s..4.0s and quiet afterwards.
  std::vector<net::PacketRecord> trace;
  trace.push_back(rec(1, sim::msec(1500), Direction::kUplink, 1000, 0));
  trace.push_back(rec(2, sim::msec(4000), Direction::kDownlink, 500, 0));
  FlowAnalyzer flows(trace);

  const BehaviorRecord b = behavior(sim::sec(1), sim::sec(5));
  const DeviceNetworkSplit split = device_network_split(flows, b);
  ASSERT_NE(split.flow, nullptr);
  EXPECT_NEAR(split.network_s, 2.5, 1e-9);
  EXPECT_NEAR(split.total_s, 4.0 - 0.075, 1e-9);  // calibrated window
  EXPECT_NEAR(split.device_s, split.total_s - 2.5, 1e-9);
  EXPECT_TRUE(split.network_on_critical_path);
}

TEST(CrossLayerTest, TrafficContinuingAfterWindowIsOffCriticalPath) {
  // Most of the flow's bytes land AFTER the QoE window: local-echo post.
  std::vector<net::PacketRecord> trace;
  trace.push_back(rec(1, sim::msec(1200), Direction::kUplink, 300, 0));
  for (int i = 0; i < 10; ++i) {
    trace.push_back(rec(static_cast<std::uint64_t>(2 + i),
                        sim::msec(2200 + 100 * i), Direction::kUplink, 1400,
                        300 + 1400ull * i));
  }
  FlowAnalyzer flows(trace);
  const BehaviorRecord b = behavior(sim::sec(1), sim::sec(2));
  const DeviceNetworkSplit split = device_network_split(flows, b);
  ASSERT_NE(split.flow, nullptr);
  EXPECT_FALSE(split.network_on_critical_path);
}

TEST(CrossLayerTest, NoTrafficMeansPureDeviceLatency) {
  std::vector<net::PacketRecord> trace;
  trace.push_back(rec(1, sim::sec(30), Direction::kUplink, 100, 0));
  FlowAnalyzer flows(trace);
  const BehaviorRecord b = behavior(sim::sec(1), sim::sec(2));
  const DeviceNetworkSplit split = device_network_split(flows, b);
  EXPECT_EQ(split.flow, nullptr);
  EXPECT_EQ(split.network_s, 0.0);
  EXPECT_FALSE(split.network_on_critical_path);
  EXPECT_NEAR(split.device_s, split.total_s, 1e-9);
}

TEST(CrossLayerTest, HostnameFilterSelectsResponsibleFlow) {
  // Two flows; only the facebook one should be considered.
  std::vector<net::PacketRecord> trace;
  // DNS response mapping kServer -> facebook.
  net::PacketRecord dns = rec(1, sim::msec(100), Direction::kDownlink, 60);
  dns.protocol = net::Protocol::kUdp;
  auto msg = std::make_shared<net::DnsMessage>();
  msg->hostname = "api.facebook.sim";
  msg->resolved = kServer;
  msg->is_response = true;
  dns.dns = msg;
  trace.push_back(dns);
  trace.push_back(rec(2, sim::msec(1500), Direction::kUplink, 2000, 0));
  // A bigger flow to an unrelated server.
  net::PacketRecord other = rec(3, sim::msec(1500), Direction::kUplink, 9000, 0);
  other.dst_ip = net::IpAddr(99, 9, 9, 9);
  other.src_port = 40001;
  trace.push_back(other);

  FlowAnalyzer flows(trace);
  const BehaviorRecord b = behavior(sim::sec(1), sim::sec(2));
  const DeviceNetworkSplit unfiltered = device_network_split(flows, b);
  ASSERT_NE(unfiltered.flow, nullptr);
  EXPECT_EQ(unfiltered.flow->key.dst_ip, net::IpAddr(99, 9, 9, 9));
  const DeviceNetworkSplit filtered =
      device_network_split(flows, b, "facebook");
  ASSERT_NE(filtered.flow, nullptr);
  EXPECT_EQ(filtered.flow->key.dst_ip, kServer);
  EXPECT_EQ(filtered.flow->hostname, "api.facebook.sim");
}

TEST(CrossLayerTest, FineBreakdownComponentsFromSyntheticRadioLog) {
  // One 1040-byte uplink packet at t=1.0s; PDUs from 1.2s; poll at 1.5s and
  // its STATUS at 1.6s with no intervening data.
  std::vector<net::PacketRecord> trace;
  trace.push_back(rec(7, sim::sec(1), Direction::kUplink, 1000, 0));
  FlowAnalyzer flows(trace);

  sim::Rng rng(1);
  radio::QxdmLogger qxdm(rng);
  MappingResult mapping;
  PacketMapping pm;
  pm.packet_uid = 7;
  pm.packet_ts = sim::TimePoint{sim::sec(1)};
  pm.mapped = true;
  for (int i = 0; i < 26; ++i) {
    radio::PduRecord p;
    p.dir = Direction::kUplink;
    p.seq = static_cast<std::uint32_t>(i);
    p.payload_len = 40;
    p.at = sim::TimePoint{sim::msec(1200 + i * 10)};
    p.poll = i == 25;
    qxdm.log_pdu(p);
    pm.pdu_seqs.push_back(p.seq);
  }
  pm.first_pdu_at = sim::TimePoint{sim::msec(1200)};
  pm.last_pdu_at = sim::TimePoint{sim::msec(1450)};
  mapping.packets.push_back(pm);
  mapping.mapped_count = 1;

  radio::StatusRecord status;
  status.data_dir = Direction::kUplink;
  status.at = sim::TimePoint{sim::msec(1550)};
  status.ack_until = 26;
  qxdm.log_status(status);

  const BehaviorRecord b = behavior(sim::sec(1), sim::sec(2));
  const FineBreakdown fine =
      network_breakdown(flows, b, mapping, qxdm, Direction::kUplink);

  // t1: 1.0s -> 1.2s with idle channel = 0.2s.
  EXPECT_NEAR(fine.ip_to_rlc_s, 0.2, 1e-6);
  // t2: 25 gaps of 10ms within one burst (OTA RTT estimate 100ms >= gaps).
  EXPECT_NEAR(fine.rlc_tx_s, 0.25, 1e-6);
  // t3: poll at 1.45s -> STATUS 1.55s, no data in between = 0.1s.
  EXPECT_NEAR(fine.first_hop_ota_s, 0.1, 1e-6);
}

TEST(CrossLayerTest, LatePollRecordPairsByTimestamp) {
  // Uplink polls at 1.0, 2.0 and 3.0 s; the last two are each answered by
  // a STATUS 50 ms later. The 2.0 s poll is committed last, with its
  // timestamp intact, as a delayed capture releases it.
  radio::QxdmLogger qxdm(sim::Rng(1));
  const auto poll = [&](std::int64_t ms) {
    radio::PduRecord p;
    p.dir = Direction::kUplink;
    p.poll = true;
    p.payload_len = 40;
    p.at = sim::TimePoint{sim::msec(ms)};
    qxdm.commit_pdu(p);
  };
  poll(1000);
  poll(3000);
  poll(2000);
  for (const std::int64_t ms : {2050, 3050}) {
    radio::StatusRecord status;
    status.data_dir = Direction::kUplink;
    status.at = sim::TimePoint{sim::msec(ms)};
    qxdm.commit_status(status);
  }
  // Each STATUS pairs with the poll 50 ms before it.
  EXPECT_EQ(first_hop_ota_rtts(qxdm, Direction::kUplink),
            (std::vector<double>{0.05, 0.05}));
  EXPECT_TRUE(first_hop_ota_rtts(qxdm, Direction::kDownlink).empty());
}

TEST(CrossLayerTest, QoeWindowFromRecord) {
  const BehaviorRecord b = behavior(sim::sec(3), sim::sec(9));
  const QoeWindow w = QoeWindow::of(b);
  EXPECT_EQ(w.start.since_start(), sim::sec(3));
  EXPECT_EQ(w.end.since_start(), sim::sec(9));
}

}  // namespace
}  // namespace qoed::core
