#include "net/tcp.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.h"
#include "net/trace.h"
#include "sim/rng.h"

namespace qoed::net {
namespace {

// Access link with configurable random loss and fixed delay; used to push
// TCP through its recovery paths deterministically.
class LossyLink final : public AccessLink {
 public:
  LossyLink(sim::EventLoop& loop, double loss_prob, sim::Duration delay,
            std::uint64_t seed = 99)
      : loop_(loop), rng_(seed), loss_prob_(loss_prob), delay_(delay) {}

  void send_uplink(Packet p) override { forward(std::move(p), true); }
  void send_downlink(Packet p) override { forward(std::move(p), false); }

  int dropped = 0;

 private:
  void forward(Packet p, bool up) {
    if (rng_.bernoulli(loss_prob_)) {
      ++dropped;
      return;
    }
    loop_.schedule_after(delay_, [this, p = std::move(p), up]() mutable {
      up ? to_core(std::move(p)) : to_device(std::move(p));
    });
  }

  sim::EventLoop& loop_;
  sim::Rng rng_;
  double loss_prob_;
  sim::Duration delay_;
};

class TcpTest : public ::testing::Test {
 protected:
  TcpTest() {
    client_ = std::make_unique<Host>(net_, IpAddr(10, 0, 0, 2), "client");
    server_ = std::make_unique<Host>(net_, IpAddr(10, 0, 0, 3), "server");
  }

  // Standard echo-less sink server: collects messages, optional reply.
  void listen_and_collect(Port port, std::vector<AppMessage>* sink,
                          std::uint64_t reply_size = 0) {
    server_->tcp().listen(port, [this, sink, reply_size](
                                    std::shared_ptr<TcpSocket> sock) {
      accepted_.push_back(sock);
      sock->set_on_message([sink, reply_size, raw = sock.get()](
                               const AppMessage& m) {
        sink->push_back(m);
        if (reply_size > 0) {
          raw->send({.type = "REPLY", .size = reply_size});
        }
      });
    });
  }

  sim::EventLoop loop_;
  Network net_{loop_, sim::Rng(1)};
  std::unique_ptr<Host> client_;
  std::unique_ptr<Host> server_;
  std::vector<std::shared_ptr<TcpSocket>> accepted_;
};

TEST_F(TcpTest, HandshakeEstablishesBothEnds) {
  bool client_up = false, server_up = false;
  server_->tcp().listen(80, [&](std::shared_ptr<TcpSocket> sock) {
    sock->set_on_connected([&] { server_up = true; });
    accepted_.push_back(std::move(sock));
  });
  auto sock = client_->tcp().connect(server_->ip(), 80);
  sock->set_on_connected([&] { client_up = true; });
  loop_.run();
  EXPECT_TRUE(client_up);
  EXPECT_TRUE(server_up);
  EXPECT_TRUE(sock->established());
  ASSERT_EQ(accepted_.size(), 1u);
  EXPECT_TRUE(accepted_[0]->established());
}

TEST_F(TcpTest, DeliversSingleMessageWithMetadata) {
  std::vector<AppMessage> got;
  listen_and_collect(80, &got);
  auto sock = client_->tcp().connect(server_->ip(), 80);
  AppMessage m{.type = "POST_STATUS", .size = 300};
  m.headers["text"] = "hello world";
  sock->send(std::move(m));
  loop_.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type, "POST_STATUS");
  EXPECT_EQ(got[0].size, 300u);
  EXPECT_EQ(got[0].header("text"), "hello world");
  EXPECT_EQ(got[0].header("absent"), "");
}

TEST_F(TcpTest, SendBeforeEstablishedIsBuffered) {
  std::vector<AppMessage> got;
  listen_and_collect(80, &got);
  auto sock = client_->tcp().connect(server_->ip(), 80);
  sock->send({.type = "EARLY", .size = 5000});  // immediately, pre-handshake
  loop_.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type, "EARLY");
}

TEST_F(TcpTest, DeliversMessagesInOrder) {
  std::vector<AppMessage> got;
  listen_and_collect(80, &got);
  auto sock = client_->tcp().connect(server_->ip(), 80);
  for (int i = 0; i < 10; ++i) {
    sock->send({.type = "MSG" + std::to_string(i),
                .size = static_cast<std::uint64_t>(100 + i * 37)});
  }
  loop_.run();
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)].type, "MSG" + std::to_string(i));
  }
}

TEST_F(TcpTest, LargeTransferCompletesAndCountsBytes) {
  std::vector<AppMessage> got;
  listen_and_collect(80, &got);
  auto sock = client_->tcp().connect(server_->ip(), 80);
  constexpr std::uint64_t kSize = 1'000'000;
  sock->send({.type = "PHOTO", .size = kSize});
  loop_.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].size, kSize);
  EXPECT_EQ(sock->bytes_sent_acked(), kSize);
  ASSERT_EQ(accepted_.size(), 1u);
  EXPECT_EQ(accepted_[0]->bytes_received(), kSize);
}

TEST_F(TcpTest, RequestResponseRoundTrip) {
  std::vector<AppMessage> server_got;
  listen_and_collect(80, &server_got, /*reply_size=*/40000);
  auto sock = client_->tcp().connect(server_->ip(), 80);
  std::vector<AppMessage> client_got;
  sock->set_on_message([&](const AppMessage& m) { client_got.push_back(m); });
  sock->send({.type = "GET", .size = 200});
  loop_.run();
  ASSERT_EQ(server_got.size(), 1u);
  ASSERT_EQ(client_got.size(), 1u);
  EXPECT_EQ(client_got[0].type, "REPLY");
  EXPECT_EQ(client_got[0].size, 40000u);
}

TEST_F(TcpTest, SurvivesRandomLoss) {
  LossyLink link(loop_, /*loss_prob=*/0.05, sim::msec(10));
  net_.attach_access_link(client_->ip(), link);

  std::vector<AppMessage> got;
  listen_and_collect(80, &got);
  auto sock = client_->tcp().connect(server_->ip(), 80);
  sock->send({.type = "DATA", .size = 400'000});
  loop_.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].size, 400'000u);
  EXPECT_GT(link.dropped, 0);
  EXPECT_GT(sock->retransmitted_segments(), 0u);
}

TEST_F(TcpTest, LossMakesTransferSlower) {
  // Clean run.
  std::vector<AppMessage> got;
  listen_and_collect(80, &got);
  auto clean = client_->tcp().connect(server_->ip(), 80);
  clean->send({.type = "DATA", .size = 300'000});
  loop_.run();
  const sim::TimePoint clean_done = loop_.now();

  // Lossy run of the same size.
  LossyLink link(loop_, 0.08, sim::msec(10));
  net_.attach_access_link(client_->ip(), link);
  auto lossy = client_->tcp().connect(server_->ip(), 80);
  lossy->send({.type = "DATA", .size = 300'000});
  loop_.run();
  const sim::Duration lossy_elapsed = loop_.now() - clean_done;
  EXPECT_GT(lossy_elapsed, clean_done.since_start());
}

TEST_F(TcpTest, GracefulCloseReachesBothSides) {
  std::vector<AppMessage> got;
  bool client_closed = false, server_closed = false;
  server_->tcp().listen(80, [&](std::shared_ptr<TcpSocket> sock) {
    accepted_.push_back(sock);
    sock->set_on_message([raw = sock.get(), &got](const AppMessage& m) {
      got.push_back(m);
      raw->close();  // server closes after receiving
    });
    sock->set_on_closed([&] { server_closed = true; });
  });
  auto sock = client_->tcp().connect(server_->ip(), 80);
  sock->set_on_closed([&] { client_closed = true; });
  sock->send({.type = "BYE", .size = 100});
  sock->close();
  loop_.run();
  EXPECT_TRUE(client_closed);
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(sock->state(), TcpSocket::State::kClosed);
  EXPECT_EQ(client_->tcp().open_connections(), 0u);
  EXPECT_EQ(server_->tcp().open_connections(), 0u);
  ASSERT_EQ(got.size(), 1u);  // data still arrived before close
}

TEST_F(TcpTest, ConnectToClosedPortAborts) {
  auto sock = client_->tcp().connect(server_->ip(), 12345);
  bool closed = false;
  sock->set_on_closed([&] { closed = true; });
  loop_.run();
  EXPECT_TRUE(closed);
  EXPECT_EQ(sock->state(), TcpSocket::State::kAborted);
}

TEST_F(TcpTest, AbortSendsRstToPeer) {
  std::vector<AppMessage> got;
  listen_and_collect(80, &got);
  auto sock = client_->tcp().connect(server_->ip(), 80);
  sock->send({.type = "X", .size = 100});
  loop_.run();
  ASSERT_EQ(accepted_.size(), 1u);
  bool peer_closed = false;
  accepted_[0]->set_on_closed([&] { peer_closed = true; });
  sock->abort();
  loop_.run();
  EXPECT_TRUE(peer_closed);
  EXPECT_EQ(accepted_[0]->state(), TcpSocket::State::kAborted);
}

TEST_F(TcpTest, SendAfterCloseIsDiscarded) {
  std::vector<AppMessage> got;
  listen_and_collect(80, &got);
  auto sock = client_->tcp().connect(server_->ip(), 80);
  sock->send({.type = "A", .size = 100});
  sock->close();
  sock->send({.type = "B", .size = 100});  // must be ignored
  loop_.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type, "A");
}

TEST_F(TcpTest, RttEstimateTracksPathDelay) {
  LossyLink link(loop_, 0.0, sim::msec(50));  // 50ms each way on access
  net_.attach_access_link(client_->ip(), link);
  std::vector<AppMessage> got;
  listen_and_collect(80, &got);
  auto sock = client_->tcp().connect(server_->ip(), 80);
  sock->send({.type = "DATA", .size = 100'000});
  loop_.run();
  // Path RTT: 2*(50ms link + ~15ms core) ~= 130ms.
  EXPECT_GT(sock->smoothed_rtt_seconds(), 0.10);
  EXPECT_LT(sock->smoothed_rtt_seconds(), 0.25);
}

TEST_F(TcpTest, HandshakeAndTeardownVisibleInTrace) {
  TraceCapture trace;
  client_->set_trace(&trace);
  std::vector<AppMessage> got;
  server_->tcp().listen(80, [&](std::shared_ptr<TcpSocket> sock) {
    accepted_.push_back(sock);
    sock->set_on_message([raw = sock.get(), &got](const AppMessage& m) {
      got.push_back(m);
      raw->close();
    });
  });
  auto sock = client_->tcp().connect(server_->ip(), 80);
  sock->send({.type = "GET", .size = 500});
  sock->close();
  loop_.run();

  bool saw_syn = false, saw_synack = false, saw_fin_up = false,
       saw_fin_down = false, saw_payload = false;
  for (const auto& r : trace.records()) {
    if (r.flags.syn && !r.flags.ack) saw_syn = true;
    if (r.flags.syn && r.flags.ack) saw_synack = true;
    if (r.flags.fin && r.direction == Direction::kUplink) saw_fin_up = true;
    if (r.flags.fin && r.direction == Direction::kDownlink) saw_fin_down = true;
    if (r.payload_size > 0 && r.direction == Direction::kUplink)
      saw_payload = true;
  }
  EXPECT_TRUE(saw_syn);
  EXPECT_TRUE(saw_synack);
  EXPECT_TRUE(saw_fin_up);
  EXPECT_TRUE(saw_fin_down);
  EXPECT_TRUE(saw_payload);
}

TEST_F(TcpTest, SlowStartGrowsCongestionWindow) {
  std::vector<AppMessage> got;
  listen_and_collect(80, &got);
  auto sock = client_->tcp().connect(server_->ip(), 80);
  const std::uint64_t initial_cwnd = sock->cwnd_bytes();
  sock->send({.type = "DATA", .size = 500'000});
  loop_.run();
  EXPECT_GT(sock->cwnd_bytes(), initial_cwnd);
}

TEST_F(TcpTest, DelayedAckHalvesPureAckTraffic) {
  std::uint64_t acks[2] = {0, 0};
  for (int pass = 0; pass < 2; ++pass) {
    sim::EventLoop loop;
    Network net(loop, sim::Rng(1));
    Host client(net, IpAddr(10, 0, 0, 2), "client");
    Host server(net, IpAddr(10, 0, 0, 3), "server");
    if (pass == 1) {
      TcpConfig cfg;
      cfg.delayed_ack_timeout = sim::msec(40);
      client.tcp().set_config(cfg);
    }
    TraceCapture trace;
    client.set_trace(&trace);
    std::vector<std::shared_ptr<TcpSocket>> keep;
    server.tcp().listen(80, [&](std::shared_ptr<TcpSocket> s) {
      s->set_on_message([raw = s.get()](const AppMessage&) {
        raw->send({.type = "BULK", .size = 300'000});
      });
      keep.push_back(std::move(s));
    });
    auto sock = client.tcp().connect(server.ip(), 80);
    std::uint64_t got = 0;
    sock->set_on_message([&](const AppMessage& m) { got = m.size; });
    sock->send({.type = "GET", .size = 100});
    loop.run();
    ASSERT_EQ(got, 300'000u);
    for (const auto& r : trace.records()) {
      if (r.direction == Direction::kUplink && r.payload_size == 0 &&
          r.flags.ack && !r.flags.syn) {
        ++acks[pass];
      }
    }
  }
  // Roughly one ACK per two segments instead of one per segment.
  EXPECT_LT(acks[1], acks[0] * 2 / 3);
  EXPECT_GT(acks[1], acks[0] / 4);
}

TEST_F(TcpTest, DelayedAckTimeoutFlushesLoneSegment) {
  TcpConfig cfg;
  cfg.delayed_ack_timeout = sim::msec(40);
  server_->tcp().set_config(cfg);  // server delays its ACKs
  std::vector<AppMessage> got;
  listen_and_collect(80, &got);
  auto sock = client_->tcp().connect(server_->ip(), 80);
  // One lone small message: the ACK must still arrive (after the timeout),
  // and the transfer must complete without an RTO.
  sock->send({.type = "LONE", .size = 400});
  loop_.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(sock->rto_events(), 0u);
  EXPECT_EQ(sock->bytes_sent_acked(), 400u);
}

TEST_F(TcpTest, DelayedAckStillCompletesLossyTransfer) {
  TcpConfig cfg;
  cfg.delayed_ack_timeout = sim::msec(40);
  server_->tcp().set_config(cfg);
  LossyLink link(loop_, 0.04, sim::msec(10));
  net_.attach_access_link(client_->ip(), link);
  std::vector<AppMessage> got;
  listen_and_collect(80, &got);
  auto sock = client_->tcp().connect(server_->ip(), 80);
  sock->send({.type = "DATA", .size = 250'000});
  loop_.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].size, 250'000u);
}

TEST_F(TcpTest, ManyConcurrentConnections) {
  std::vector<AppMessage> got;
  listen_and_collect(80, &got);
  std::vector<std::shared_ptr<TcpSocket>> socks;
  for (int i = 0; i < 20; ++i) {
    auto s = client_->tcp().connect(server_->ip(), 80);
    s->send({.type = "N" + std::to_string(i), .size = 10'000});
    socks.push_back(std::move(s));
  }
  loop_.run();
  EXPECT_EQ(got.size(), 20u);
  // Distinct ephemeral ports.
  for (size_t i = 1; i < socks.size(); ++i) {
    EXPECT_NE(socks[i]->local_port(), socks[i - 1]->local_port());
  }
}

}  // namespace
}  // namespace qoed::net
