// Substrate micro-benchmarks (google-benchmark): how fast the simulation
// kernel, TCP stack and RLC layer execute on the host. These gate how large
// an experiment (hours of virtual time, MBs of virtual traffic) stays
// practical.
#include <benchmark/benchmark.h>

#include "apps/web_server.h"
#include "core/qoe_doctor.h"
#include "sim/rng.h"

namespace qoed {
namespace {

void BM_EventLoopDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    const int n = static_cast<int>(state.range(0));
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      loop.schedule_after(sim::usec(i), [&fired] { ++fired; });
    }
    loop.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventLoopDispatch)->Arg(1000)->Arg(100000);

// The RTO / RRC-demotion pattern: N flows each send a packet every few
// microseconds, and every packet re-arms its flow's timeout, which never
// fires while packets keep coming. Items are packets.
void BM_EventLoopRearm(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  constexpr int kPackets = 100'000;
  for (auto _ : state) {
    sim::EventLoop loop;
    std::vector<sim::TimerHandle> rto(static_cast<std::size_t>(flows));
    int sent = 0;
    int timeouts = 0;
    std::function<void(int)> packet = [&](int i) {
      sim::TimerHandle& h = rto[static_cast<std::size_t>(i)];
      const sim::TimePoint deadline = loop.now() + sim::msec(200);
      if (!h.reschedule(deadline)) {
        h = loop.schedule_at(deadline, [&timeouts] { ++timeouts; });
      }
      if (++sent < kPackets) {
        loop.schedule_after(sim::usec(1 + i % 7), [&packet, i] { packet(i); });
      }
    };
    for (int i = 0; i < flows; ++i) {
      loop.schedule_after(sim::usec(i), [&packet, i] { packet(i); });
    }
    loop.run();
    benchmark::DoNotOptimize(timeouts);
  }
  state.SetItemsProcessed(state.iterations() * kPackets);
}
BENCHMARK(BM_EventLoopRearm)->Arg(16)->Arg(1024);

// A deep queue at steady state: every dispatched event schedules a
// replacement at a random time, and for two of every three dispatches a
// random pending event is cancelled and replaced, so about 40 % of all
// scheduled events are cancelled and the depth stays at the argument.
// Items are dispatched events.
void BM_EventLoopDeepQueue(benchmark::State& state) {
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  constexpr int kDispatches = 100'000;
  sim::Rng rng(static_cast<std::uint64_t>(depth));
  sim::EventLoop loop;
  std::vector<sim::TimerHandle> slot(depth);
  int dispatched = 0;
  std::function<void(std::size_t)> fire;
  auto arm = [&](std::size_t i) {
    slot[i] = loop.schedule_after(sim::usec(rng.uniform_int(1, 1'000'000)),
                                  [&fire, i] { fire(i); });
  };
  fire = [&](std::size_t i) {
    arm(i);
    if (rng.uniform_int(0, 2) != 0) {
      const auto victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(depth) - 1));
      slot[victim].cancel();
      arm(victim);
    }
    if (++dispatched % kDispatches == 0) loop.request_stop();
  };
  for (std::size_t i = 0; i < depth; ++i) arm(i);
  for (auto _ : state) {
    loop.clear_stop();
    loop.run();
    benchmark::DoNotOptimize(dispatched);
  }
  state.SetItemsProcessed(state.iterations() * kDispatches);
}
BENCHMARK(BM_EventLoopDeepQueue)->Arg(10'000)->Arg(100'000);

void BM_TcpBulkTransfer(benchmark::State& state) {
  const std::uint64_t bytes = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::EventLoop loop;
    net::Network net(loop, sim::Rng(1));
    net::Host a(net, net::IpAddr(10, 0, 0, 2), "a");
    net::Host b(net, net::IpAddr(10, 0, 0, 3), "b");
    std::uint64_t got = 0;
    std::vector<std::shared_ptr<net::TcpSocket>> keep;
    b.tcp().listen(80, [&](std::shared_ptr<net::TcpSocket> s) {
      s->set_on_message([&](const net::AppMessage& m) { got += m.size; });
      keep.push_back(std::move(s));
    });
    auto sock = a.tcp().connect(b.ip(), 80);
    sock->send({.type = "BULK", .size = bytes});
    loop.run();
    benchmark::DoNotOptimize(got);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_TcpBulkTransfer)->Arg(100'000)->Arg(1'000'000);

void BM_RlcUplinkSegmentation(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    sim::Rng rng(7);
    radio::QxdmLogger qxdm(rng.fork("q"));
    qxdm.set_enabled(false);
    radio::RrcMachine rrc(loop, radio::RrcConfig::umts_default());
    radio::RlcConfig cfg = radio::RlcConfig::umts();
    cfg.pdu_loss_prob = 0;
    cfg.status_loss_prob = 0;
    radio::RlcChannel ch(loop, rng.fork("ch"), cfg,
                         net::Direction::kUplink, rrc, qxdm);
    int delivered = 0;
    ch.set_deliver([&](net::Packet) { ++delivered; });
    net::PacketFactory f;
    for (int i = 0; i < 64; ++i) {
      net::Packet p = f.make();
      p.payload_size = 1400;
      ch.enqueue(p);
    }
    loop.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_RlcUplinkSegmentation);

void BM_FullPageLoadOver3g(benchmark::State& state) {
  for (auto _ : state) {
    core::Testbed bed(7);
    apps::WebServer server(bed.network(), bed.next_server_ip());
    server.add_page({.path = "/index",
                     .html_bytes = 55'000,
                     .object_count = 12,
                     .object_bytes = 24'000});
    auto dev = bed.make_device("phone");
    dev->attach_cellular(radio::CellularConfig::umts());
    apps::BrowserApp app(*dev);
    app.launch();
    core::QoeDoctor doctor(*dev, app);
    core::BrowserDriver driver(doctor.controller(), app);
    double load = 0;
    driver.load_page("www.page.sim/index",
                     [&](const core::BehaviorRecord& rec) {
                       load = sim::to_seconds(rec.raw_latency());
                     });
    bed.loop().run();
    benchmark::DoNotOptimize(load);
  }
}
BENCHMARK(BM_FullPageLoadOver3g);

void BM_LongJumpMapping(benchmark::State& state) {
  // Prepare one trace+log pair outside the timed loop.
  core::Testbed bed(9);
  net::Host server(bed.network(), bed.next_server_ip(), "sink");
  server.set_udp_handler([](const net::Packet&) {});
  auto dev = bed.make_device("phone");
  radio::CellularConfig cfg = radio::CellularConfig::umts();
  cfg.rlc.pdu_loss_prob = 0;
  cfg.rlc.status_loss_prob = 0;
  dev->attach_cellular(cfg);
  for (int i = 0; i < 200; ++i) {
    dev->host().send_udp(server.ip(), 9999, 1111, 300 + (i * 53) % 1100,
                         nullptr);
    bed.advance(sim::msec(20));
  }
  bed.loop().run();
  for (auto _ : state) {
    auto result = core::RlcMapper::map(dev->trace().records(),
                                       dev->cellular()->qxdm().pdu_log(),
                                       net::Direction::kUplink);
    benchmark::DoNotOptimize(result.mapped_count);
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_LongJumpMapping);

}  // namespace
}  // namespace qoed

BENCHMARK_MAIN();
