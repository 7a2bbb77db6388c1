#include "net/tcp.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "net/flow_tap.h"
#include "net/network.h"
#include "sim/log.h"

namespace qoed::net {

namespace {
constexpr double kRttAlpha = 0.125;  // Jacobson/Karels smoothing
constexpr double kRttBeta = 0.25;
}  // namespace

// ---------------------------------------------------------------------------
// TcpSocket
// ---------------------------------------------------------------------------

TcpSocket::TcpSocket(TcpStack& stack, IpAddr local_ip, Port local_port,
                     IpAddr remote_ip, Port remote_port, const TcpConfig& cfg,
                     bool active_open)
    : stack_(stack),
      cfg_(cfg),
      local_ip_(local_ip),
      local_port_(local_port),
      remote_ip_(remote_ip),
      remote_port_(remote_port),
      state_(active_open ? State::kSynSent : State::kSynReceived),
      rto_(cfg.initial_rto) {
  cwnd_ = std::uint64_t{cfg_.initial_cwnd_segments} * cfg_.mss;
}

TcpSocket::~TcpSocket() {
  rto_timer_.cancel();
  syn_timer_.cancel();
  delack_timer_.cancel();
}

void TcpSocket::start_connect() {
  syn_sent_at_ = stack_.host().loop().now();
  Packet p = stack_.host().network().packets().make();
  p.dst_ip = remote_ip_;
  p.dst_port = remote_port_;
  p.src_port = local_port_;
  p.flags.syn = true;
  emit(std::move(p));

  auto self = weak_from_this();
  syn_timer_ = stack_.host().loop().schedule_after(rto_, [self] {
    if (auto s = self.lock()) {
      if (s->state_ != State::kSynSent) return;
      if (++s->syn_retries_ > s->cfg_.max_syn_retries) {
        s->become_closed(State::kAborted);
        return;
      }
      s->rto_ = std::min(s->rto_ + s->rto_, s->cfg_.max_rto);
      s->start_connect();
    }
  });
}

void TcpSocket::on_accept_syn(const Packet& syn) {
  // Record the handshake time as an implicit RTT floor and answer SYN-ACK.
  (void)syn;
  Packet p = stack_.host().network().packets().make();
  p.dst_ip = remote_ip_;
  p.dst_port = remote_port_;
  p.src_port = local_port_;
  p.flags.syn = true;
  p.flags.ack = true;
  p.ack = 0;
  emit(std::move(p));
}

void TcpSocket::send(AppMessage message) {
  if (state_ == State::kClosed || state_ == State::kAborted || fin_queued_) {
    return;  // write on closed socket is silently discarded
  }
  app_bytes_queued_ += message.size;
  outgoing_boundaries_.emplace_back(app_bytes_queued_, std::move(message));
  try_send();
}

void TcpSocket::close() {
  if (state_ == State::kClosed || state_ == State::kAborted || fin_queued_) {
    return;
  }
  fin_queued_ = true;
  if (state_ == State::kEstablished) state_ = State::kFinWait;
  try_send();
}

void TcpSocket::abort() {
  if (state_ == State::kClosed || state_ == State::kAborted) return;
  Packet p = stack_.host().network().packets().make();
  p.dst_ip = remote_ip_;
  p.dst_port = remote_port_;
  p.src_port = local_port_;
  p.flags.rst = true;
  emit(std::move(p));
  become_closed(State::kAborted);
}

std::uint64_t TcpSocket::send_limit() const {
  return std::min(cwnd_, peer_window_);
}

void TcpSocket::try_send() {
  if (state_ != State::kEstablished && state_ != State::kFinWait &&
      state_ != State::kCloseWait) {
    return;  // pre-handshake writes stay buffered
  }
  const std::uint64_t limit = send_limit();
  while (snd_nxt_ < app_bytes_queued_ && in_flight() < limit) {
    const std::uint32_t len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>({cfg_.mss, app_bytes_queued_ - snd_nxt_,
                                 limit - in_flight()}));
    if (len == 0) break;
    send_segment(snd_nxt_, len, /*fin=*/false);
    snd_nxt_ += len;
  }
  // FIN rides after the last data byte (consuming one sequence unit).
  if (fin_queued_ && !fin_sent_ && snd_nxt_ == app_bytes_queued_ &&
      in_flight() < limit + 1) {
    send_segment(snd_nxt_, 0, /*fin=*/true);
    snd_nxt_ += 1;
    fin_sent_ = true;
  }
  if (in_flight() > 0) arm_rto();
}

void TcpSocket::send_segment(std::uint64_t seq, std::uint32_t len, bool fin,
                             bool retransmission) {
  Packet p = stack_.host().network().packets().make();
  p.dst_ip = remote_ip_;
  p.dst_port = remote_port_;
  p.src_port = local_port_;
  p.seq = seq;
  p.payload_size = len;
  p.flags.ack = true;
  p.flags.fin = fin;
  p.flags.psh = len > 0 && seq + len == app_bytes_queued_;
  p.ack = rcv_nxt_;
  p.window = cfg_.receive_window;
  // Karn: never RTT-sample a retransmitted segment, including go-back-N
  // resends of previously transmitted ranges.
  const std::uint64_t end_seq = seq + std::max<std::uint64_t>(len, 1);
  const bool karn_retx =
      retransmission || seq + len <= retransmit_high_water_;
  timing_.push_back({end_seq, stack_.host().loop().now(), karn_retx});
  if (!stack_.host().network().flow_taps().empty()) {
    // New data has snd_nxt_ bumped by the caller after this returns, so the
    // post-segment in-flight level is max(snd_nxt_, end_seq) - snd_una_.
    const std::uint64_t in_flight_after = std::max(snd_nxt_, end_seq) -
                                          snd_una_;
    for (TcpFlowTap* tap : stack_.host().network().flow_taps()) {
      tap->on_segment_sent(flow(), stack_.host().loop().now(), len, karn_retx,
                           in_flight_after);
    }
  }
  emit(std::move(p));
}

void TcpSocket::emit(Packet p) {
  p.sender_ctx = weak_from_this();
  stack_.send_packet(std::move(p));
}

void TcpSocket::arm_rto() {
  sim::EventLoop& loop = stack_.host().loop();
  if (rto_timer_.reschedule(loop.now() + rto_)) return;
  auto self = weak_from_this();
  rto_timer_ = loop.schedule_after(rto_, [self] {
    if (auto s = self.lock()) s->on_rto();
  });
}

void TcpSocket::on_rto() {
  if (state_ == State::kClosed || state_ == State::kAborted) return;
  if (in_flight() == 0) return;
  if (++retries_ > cfg_.max_data_retries) {
    become_closed(State::kAborted);
    return;
  }
  ++rto_events_;
  for (TcpFlowTap* tap : stack_.host().network().flow_taps()) {
    tap->on_rto(flow(), stack_.host().loop().now());
  }
  // Timeout response: collapse to one segment, back off the RTO, and fall
  // back to go-back-N — without SACK, everything past the last cumulative
  // ACK must be presumed lost, or each hole would cost one full
  // exponentially-backed-off timeout and a policed link would starve.
  ssthresh_ = std::max<std::uint64_t>(in_flight() / 2, 2 * cfg_.mss);
  cwnd_ = cfg_.mss;
  rto_ = std::min(rto_ + rto_, cfg_.max_rto);
  in_recovery_ = false;
  dup_acks_ = 0;
  ++retransmits_;
  timing_.clear();          // Karn: no samples from any of this
  retransmit_high_water_ = std::max(retransmit_high_water_, snd_nxt_);
  snd_nxt_ = snd_una_;      // go-back-N
  if (fin_sent_ && !fin_acked_) fin_sent_ = false;  // FIN re-sent after data
  try_send();               // slow-starts through the hole as ACKs return
  arm_rto();
}

void TcpSocket::update_rtt(double sample_seconds) {
  if (srtt_ == 0.0) {
    srtt_ = sample_seconds;
    rttvar_ = sample_seconds / 2;
  } else {
    rttvar_ = (1 - kRttBeta) * rttvar_ +
              kRttBeta * std::abs(srtt_ - sample_seconds);
    srtt_ = (1 - kRttAlpha) * srtt_ + kRttAlpha * sample_seconds;
  }
  const double rto_sec = srtt_ + std::max(4 * rttvar_, 0.01);
  rto_ = std::clamp(sim::sec_f(rto_sec), cfg_.min_rto, cfg_.max_rto);
}

void TcpSocket::handle_packet(const Packet& p) {
  if (p.flags.rst) {
    become_closed(State::kAborted);
    return;
  }

  // Learn the framing side-channel peer on first contact.
  if (peer_.expired()) {
    if (auto ctx = p.sender_ctx.lock()) {
      peer_ = std::static_pointer_cast<TcpSocket>(ctx);
    }
  }

  switch (state_) {
    case State::kSynSent:
      if (p.flags.syn && p.flags.ack) {
        syn_timer_.cancel();
        state_ = State::kEstablished;
        if (syn_retries_ == 0) {  // Karn: only sample an unretransmitted SYN
          update_rtt(
              sim::to_seconds(stack_.host().loop().now() - syn_sent_at_));
        }
        // Complete the handshake with a pure ACK.
        send_ack();
        if (on_connected_) on_connected_();
        try_send();
      }
      return;
    case State::kSynReceived:
      if (p.flags.syn && !p.flags.ack) {
        on_accept_syn(p);  // duplicate SYN: re-answer
        return;
      }
      if (p.flags.ack) {
        state_ = State::kEstablished;
        if (on_connected_) on_connected_();
        // fall through to normal processing of this packet
      } else {
        return;
      }
      break;
    case State::kClosed:
    case State::kAborted:
      return;
    default:
      break;
  }

  if (p.flags.ack) on_ack(p);
  if (p.payload_size > 0) on_data(p);
  if (p.flags.fin) on_peer_fin(p.seq);
  maybe_finish_close();
}

void TcpSocket::on_ack(const Packet& p) {
  peer_window_ = p.window > 0 ? p.window : peer_window_;

  if (p.ack > snd_una_) {
    const std::uint64_t acked = p.ack - snd_una_;
    snd_una_ = p.ack;
    // A cumulative ACK can land above a go-back-N rewound snd_nxt_ (the
    // presumed-lost tail arrived after all). New data resumes at the ACK
    // point, and in_flight() (snd_nxt_ - snd_una_) stays well-defined
    // instead of wrapping.
    snd_nxt_ = std::max(snd_nxt_, snd_una_);
    retries_ = 0;
    dup_acks_ = 0;

    // RTT sampling from unretransmitted segments (Karn's algorithm).
    const sim::TimePoint now = stack_.host().loop().now();
    while (!timing_.empty() && timing_.front().end_seq <= snd_una_) {
      if (!timing_.front().retransmitted) {
        update_rtt(sim::to_seconds(now - timing_.front().sent_at));
      }
      timing_.pop_front();
    }

    if (in_recovery_) {
      if (snd_una_ >= recovery_point_) {
        in_recovery_ = false;
        cwnd_ = ssthresh_;
      } else {
        // Partial ACK: retransmit the next hole immediately (NewReno).
        ++retransmits_;
        const std::uint32_t len = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(cfg_.mss, app_bytes_queued_ - snd_una_));
        if (len > 0) send_segment(snd_una_, len, false, true);
      }
    } else if (cwnd_ < ssthresh_) {
      cwnd_ += acked;  // slow start
    } else {
      cwnd_ += std::max<std::uint64_t>(
          1, std::uint64_t{cfg_.mss} * cfg_.mss / cwnd_);  // AIMD
    }

    for (TcpFlowTap* tap : stack_.host().network().flow_taps()) {
      tap->on_ack(flow(), now, acked, srtt_, rttvar_, in_flight(), cwnd_);
    }

    if (fin_sent_ && !fin_acked_ && p.ack >= app_bytes_queued_ + 1) {
      fin_acked_ = true;
    }
    if (in_flight() == 0) {
      rto_timer_.cancel();
    } else {
      arm_rto();
    }
    try_send();
    return;
  }

  // Duplicate ACK: pure ACK for data we already consider outstanding.
  const bool pure_ack = p.payload_size == 0 && !p.flags.syn && !p.flags.fin;
  if (pure_ack && p.ack == snd_una_ && in_flight() > 0) {
    ++dup_acks_;
    for (TcpFlowTap* tap : stack_.host().network().flow_taps()) {
      tap->on_dup_ack(flow(), stack_.host().loop().now(), dup_acks_);
    }
    if (dup_acks_ == 3 && !in_recovery_) {
      enter_fast_retransmit();
    } else if (in_recovery_) {
      cwnd_ += cfg_.mss;  // window inflation while recovering
      try_send();
    }
  }
}

void TcpSocket::enter_fast_retransmit() {
  ++fast_retx_events_;
  for (TcpFlowTap* tap : stack_.host().network().flow_taps()) {
    tap->on_fast_retransmit(flow(), stack_.host().loop().now());
  }
  in_recovery_ = true;
  recovery_point_ = snd_nxt_;
  ssthresh_ = std::max<std::uint64_t>(in_flight() / 2, 2 * cfg_.mss);
  cwnd_ = ssthresh_ + 3 * std::uint64_t{cfg_.mss};
  ++retransmits_;
  const std::uint64_t data_end = app_bytes_queued_;
  if (snd_una_ < data_end) {
    const std::uint32_t len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(cfg_.mss, data_end - snd_una_));
    for (auto& t : timing_) {
      if (t.end_seq <= snd_una_ + len) t.retransmitted = true;
    }
    send_segment(snd_una_, len, false, true);
  } else if (fin_sent_ && !fin_acked_) {
    send_segment(data_end, 0, /*fin=*/true, true);
  }
  arm_rto();
}

void TcpSocket::on_data(const Packet& p) {
  const std::uint64_t start = p.seq;
  const std::uint64_t end = p.seq + p.payload_size;
  if (end <= rcv_nxt_) {
    send_ack();  // stale retransmission
    return;
  }
  if (start <= rcv_nxt_) {
    rcv_nxt_ = end;
    merge_ooo();
    deliver_ready_messages();
    // In-order data may be acknowledged lazily (RFC 1122 delayed ACK).
    if (cfg_.delayed_ack_timeout > sim::Duration::zero() && ooo_.empty()) {
      if (++unacked_segments_ >= 2) {
        send_ack();
      } else if (!delack_timer_.active()) {
        auto self = weak_from_this();
        delack_timer_ = stack_.host().loop().schedule_after(
            cfg_.delayed_ack_timeout, [self] {
              if (auto s = self.lock()) {
                if (s->unacked_segments_ > 0) s->send_ack();
              }
            });
      }
      return;
    }
    send_ack();
    return;
  }
  // Out-of-order: duplicate ACKs go out immediately to drive the sender's
  // fast retransmit.
  auto& stored_end = ooo_[start];
  stored_end = std::max(stored_end, end);
  send_ack();
}

void TcpSocket::merge_ooo() {
  auto it = ooo_.begin();
  while (it != ooo_.end() && it->first <= rcv_nxt_) {
    rcv_nxt_ = std::max(rcv_nxt_, it->second);
    it = ooo_.erase(it);
  }
}

void TcpSocket::deliver_ready_messages() {
  auto peer = peer_.lock();
  if (!peer) return;
  const std::uint64_t deliverable =
      peer_fin_received_ ? std::min(rcv_nxt_, peer_fin_seq_) : rcv_nxt_;
  while (!peer->outgoing_boundaries_.empty() &&
         peer->outgoing_boundaries_.front().first <= deliverable) {
    AppMessage msg = std::move(peer->outgoing_boundaries_.front().second);
    peer->outgoing_boundaries_.pop_front();
    if (on_message_) on_message_(msg);
  }
}

void TcpSocket::send_ack() {
  unacked_segments_ = 0;
  delack_timer_.cancel();
  Packet p = stack_.host().network().packets().make();
  p.dst_ip = remote_ip_;
  p.dst_port = remote_port_;
  p.src_port = local_port_;
  p.flags.ack = true;
  p.ack = rcv_nxt_;
  p.window = cfg_.receive_window;
  emit(std::move(p));
}

void TcpSocket::on_peer_fin(std::uint64_t fin_seq) {
  peer_fin_received_ = true;
  peer_fin_seq_ = fin_seq;
  if (rcv_nxt_ >= fin_seq) {
    rcv_nxt_ = fin_seq + 1;
    deliver_ready_messages();
    send_ack();
    if (state_ == State::kEstablished) state_ = State::kCloseWait;
  }
}

void TcpSocket::maybe_finish_close() {
  const bool peer_done = peer_fin_received_ && rcv_nxt_ > peer_fin_seq_;
  if (fin_sent_ && fin_acked_ && peer_done) {
    become_closed(State::kClosed);
  }
}

void TcpSocket::become_closed(State s) {
  if (state_ == State::kClosed || state_ == State::kAborted) return;
  state_ = s;
  rto_timer_.cancel();
  syn_timer_.cancel();
  for (TcpFlowTap* tap : stack_.host().network().flow_taps()) {
    tap->on_flow_close(flow(), stack_.host().loop().now());
  }
  stack_.remove(flow());
  if (on_closed_) on_closed_();
}

// ---------------------------------------------------------------------------
// TcpStack
// ---------------------------------------------------------------------------

TcpStack::TcpStack(Host& host, TcpConfig cfg) : host_(host), cfg_(cfg) {}

TcpStack::~TcpStack() = default;

std::shared_ptr<TcpSocket> TcpStack::connect(IpAddr dst, Port dst_port) {
  const Port sport = next_ephemeral_++;
  auto sock = std::shared_ptr<TcpSocket>(new TcpSocket(
      *this, host_.ip(), sport, dst, dst_port, cfg_, /*active_open=*/true));
  connections_[sock->flow()] = sock;
  for (TcpFlowTap* tap : host_.network().flow_taps()) {
    tap->on_flow_open(sock->flow(), host_.loop().now());
  }
  sock->start_connect();
  return sock;
}

void TcpStack::listen(Port port, AcceptHandler handler) {
  listeners_[port] = std::move(handler);
}

void TcpStack::stop_listening(Port port) { listeners_.erase(port); }

void TcpStack::handle_packet(const Packet& p) {
  const FlowKey local_flow{p.dst_ip, p.dst_port, p.src_ip, p.src_port};
  if (auto it = connections_.find(local_flow); it != connections_.end()) {
    auto sock = it->second;  // keep alive across removal
    sock->handle_packet(p);
    return;
  }
  if (p.flags.syn && !p.flags.ack) {
    if (auto lit = listeners_.find(p.dst_port); lit != listeners_.end()) {
      auto sock = std::shared_ptr<TcpSocket>(
          new TcpSocket(*this, host_.ip(), p.dst_port, p.src_ip, p.src_port,
                        cfg_, /*active_open=*/false));
      connections_[sock->flow()] = sock;
      for (TcpFlowTap* tap : host_.network().flow_taps()) {
        tap->on_flow_open(sock->flow(), host_.loop().now());
      }
      lit->second(sock);        // app wires its handlers
      sock->handle_packet(p);   // processes the SYN (sends SYN-ACK)
      return;
    }
  }
  if (!p.flags.rst) send_rst(p);
}

void TcpStack::send_packet(Packet p) { host_.send_packet(std::move(p)); }

void TcpStack::remove(const FlowKey& flow) { connections_.erase(flow); }

void TcpStack::send_rst(const Packet& to) {
  Packet p = host_.network().packets().make();
  p.dst_ip = to.src_ip;
  p.dst_port = to.src_port;
  p.src_port = to.dst_port;
  p.flags.rst = true;
  host_.send_packet(std::move(p));
}

std::size_t TcpStack::open_connections() const { return connections_.size(); }

}  // namespace qoed::net
