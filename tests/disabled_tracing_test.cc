// Cost contract of compiled-in but disabled observability: a Collector and
// FlowAnalyzer wired to a tracer that is never enabled must do exactly the
// work of unwired ones — the same heap allocations and no trace events —
// and a TcpFlowTap removed from the network must never be called.
//
// The allocation count is exact, so the check is deterministic where a
// wall-clock comparison is not. This binary replaces the global operator
// new to count allocations; keep unrelated tests out of it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/collector.h"
#include "core/flow_analyzer.h"
#include "core/scenario.h"
#include "net/dns.h"
#include "net/flow_tap.h"
#include "net/network.h"
#include "net/tcp.h"
#include "obs/observability.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC cannot see that this operator new is malloc-backed and flags the
// matching free() as a mismatch.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace qoed {
namespace {

// A capture-shaped trace: per flow a DNS response and a handshake, then
// data segments with cumulative ACKs and occasional retransmissions,
// round-robin across flows.
std::vector<net::PacketRecord> make_trace(std::size_t flows,
                                          std::size_t packets) {
  sim::Rng rng(97);
  const net::IpAddr device(10, 0, 0, 2);
  std::vector<net::PacketRecord> trace;
  std::vector<std::uint64_t> next_seq(flows, 0);
  sim::TimePoint now = sim::kTimeZero;
  const auto segment = [&](std::size_t f, net::Direction dir) {
    net::PacketRecord r;
    r.uid = trace.size() + 1;
    r.timestamp = now;
    r.direction = dir;
    const net::IpAddr server(31, 13, 0, static_cast<std::uint8_t>(f + 1));
    const auto port = static_cast<net::Port>(40000 + f);
    const bool up = dir == net::Direction::kUplink;
    r.src_ip = up ? device : server;
    r.src_port = up ? port : 443;
    r.dst_ip = up ? server : device;
    r.dst_port = up ? 443 : port;
    r.flags.ack = true;
    return r;
  };
  for (std::size_t f = 0; f < flows; ++f) {
    now = now + sim::usec(200);
    net::PacketRecord dns;
    dns.uid = trace.size() + 1;
    dns.timestamp = now;
    dns.direction = net::Direction::kDownlink;
    dns.src_ip = net::IpAddr(8, 8, 8, 8);
    dns.src_port = net::kDnsPort;
    dns.dst_ip = device;
    dns.dst_port = 50000;
    dns.protocol = net::Protocol::kUdp;
    dns.payload_size = 60;
    auto msg = std::make_shared<net::DnsMessage>();
    msg->hostname = "cdn" + std::to_string(f) + ".example.sim";
    msg->resolved = net::IpAddr(31, 13, 0, static_cast<std::uint8_t>(f + 1));
    msg->is_response = true;
    dns.dns = msg;
    trace.push_back(dns);
    net::PacketRecord syn = segment(f, net::Direction::kUplink);
    syn.flags = {.syn = true};
    trace.push_back(syn);
    now = now + sim::msec(30);
    net::PacketRecord synack = segment(f, net::Direction::kDownlink);
    synack.flags = {.syn = true, .ack = true};
    trace.push_back(synack);
  }
  while (trace.size() < packets) {
    const auto f = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(flows) - 1));
    now = now + sim::usec(rng.uniform_int(50, 2'000));
    const bool retx = rng.uniform() < 0.01 && next_seq[f] > 0;
    net::PacketRecord data = segment(f, net::Direction::kUplink);
    data.payload_size = 1400;
    data.seq = retx ? next_seq[f] - 1400 : next_seq[f];
    trace.push_back(data);
    if (!retx) next_seq[f] += 1400;
    now = now + sim::usec(rng.uniform_int(100, 80'000));
    net::PacketRecord ack = segment(f, net::Direction::kDownlink);
    ack.ack = next_seq[f];
    trace.push_back(ack);
  }
  return trace;
}

// Heap allocations made while `trace` is captured by a fresh device whose
// Collector feeds a streaming FlowAnalyzer, as QoeDoctor wires them. With
// `obs` non-null both get a context on its tracer.
std::uint64_t ingest_allocations(const std::vector<net::PacketRecord>& trace,
                                 obs::Observability* obs) {
  core::Testbed bed(5);
  auto dev = bed.make_device("phone");
  core::AppBehaviorLog behavior;
  core::Collector collector;
  core::FlowAnalyzer flows(dev->trace().records());
  if (obs != nullptr) {
    const obs::Context ctx = obs->context(obs->tracer.track("device:phone"));
    collector.set_observability(ctx);
    flows.set_observability(ctx);
  }
  collector.attach(*dev, behavior);
  flows.attach(collector);

  const std::uint64_t before = g_allocations.load();
  for (const net::PacketRecord& r : trace) dev->trace().add(r);
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(flows.consumed(), trace.size());
  EXPECT_EQ(collector.total_events(), trace.size());
  return after - before;
}

TEST(DisabledTracingTest, WiredDisabledTracerAddsNoAllocationsOrEvents) {
  const std::vector<net::PacketRecord> trace = make_trace(64, 8000);
  ingest_allocations(trace, nullptr);  // warm-up: one-time lazy state

  const std::uint64_t bare = ingest_allocations(trace, nullptr);
  obs::Observability obs;  // tracer present, never enabled
  ASSERT_FALSE(obs.tracer.enabled());
  const std::uint64_t wired = ingest_allocations(trace, &obs);
  EXPECT_GT(bare, 0u);  // the count sees the ingest path at all
  EXPECT_EQ(wired, bare);
  EXPECT_TRUE(obs.tracer.events().empty());
}

class CountingTap final : public net::TcpFlowTap {
 public:
  void on_flow_open(const net::FlowKey&, sim::TimePoint) override { ++calls; }
  void on_flow_close(const net::FlowKey&, sim::TimePoint) override { ++calls; }
  void on_segment_sent(const net::FlowKey&, sim::TimePoint, std::uint32_t,
                       bool, std::uint64_t) override {
    ++calls;
  }
  void on_ack(const net::FlowKey&, sim::TimePoint, std::uint64_t, double,
              double, std::uint64_t, std::uint64_t) override {
    ++calls;
  }
  void on_dup_ack(const net::FlowKey&, sim::TimePoint, int) override {
    ++calls;
  }
  void on_fast_retransmit(const net::FlowKey&, sim::TimePoint) override {
    ++calls;
  }
  void on_rto(const net::FlowKey&, sim::TimePoint) override { ++calls; }

  std::uint64_t calls = 0;
};

TEST(DisabledTracingTest, RemovedFlowTapIsNeverCalled) {
  sim::EventLoop loop;
  net::Network network(loop, sim::Rng(1));
  net::Host client(network, net::IpAddr(10, 0, 0, 2), "client");
  net::Host server(network, net::IpAddr(10, 0, 0, 3), "server");
  CountingTap removed, kept;
  network.add_flow_tap(&removed);
  network.add_flow_tap(&kept);
  network.remove_flow_tap(&removed);

  std::vector<std::shared_ptr<net::TcpSocket>> accepted;
  std::uint64_t received = 0;
  server.tcp().listen(80, [&](std::shared_ptr<net::TcpSocket> sock) {
    sock->set_on_message(
        [&](const net::AppMessage& m) { received += m.size; });
    accepted.push_back(std::move(sock));
  });
  auto sock = client.tcp().connect(server.ip(), 80);
  sock->send({.type = "UPLOAD", .size = 200'000});
  loop.run();

  EXPECT_EQ(received, 200'000u);
  EXPECT_GT(kept.calls, 0u);  // the transfer drives the tap path
  EXPECT_EQ(removed.calls, 0u);
}

}  // namespace
}  // namespace qoed
