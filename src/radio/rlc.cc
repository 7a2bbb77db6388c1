#include "radio/rlc.h"

#include <algorithm>
#include <utility>

namespace qoed::radio {

RlcConfig RlcConfig::umts() { return RlcConfig{}; }

RlcConfig RlcConfig::lte() {
  RlcConfig cfg;
  cfg.pdu_payload_ul = 1400;
  cfg.pdu_payload_dl = 1400;
  cfg.am_window_pdus = 1024;
  cfg.poll_every_pdus = 64;
  cfg.pdu_loss_prob = 0.001;
  cfg.poll_timeout = sim::msec(80);
  return cfg;
}

RlcChannel::RlcChannel(sim::EventLoop& loop, sim::Rng rng, RlcConfig cfg,
                       net::Direction dir, RrcMachine& rrc,
                       QxdmLogger& logger)
    : loop_(loop),
      rng_(std::move(rng)),
      cfg_(cfg),
      dir_(dir),
      rrc_(rrc),
      logger_(logger) {
  next_seq_ = cfg_.initial_sn;
  rcv_expected_ = cfg_.initial_sn;
  highest_received_ = cfg_.initial_sn;
}

double RlcChannel::rate_bps() const {
  const StateParams& p = rrc_.current_params();
  return dir_ == net::Direction::kUplink ? p.uplink_bps : p.downlink_bps;
}

void RlcChannel::enqueue(net::Packet p) {
  queued_bytes_ += p.total_size();
  pending_.push_back({std::move(p), 0, loop_.now()});
  rrc_.request_transfer(queued_bytes_, [this] { maybe_transmit(); });
}

void RlcChannel::maybe_transmit() {
  if (busy_) return;
  const bool have_work = !retx_queue_.empty() || !pending_.empty();
  if (!have_work) return;
  if (!rrc_.transfer_capable()) {
    rrc_.request_transfer(queued_bytes_, [this] { maybe_transmit(); });
    return;
  }

  // Retransmissions take priority over new data.
  if (!retx_queue_.empty()) {
    const std::uint32_t seq = retx_queue_.front();
    retx_queue_.pop_front();
    auto it = unacked_.find(seq);
    if (it == unacked_.end()) {  // acknowledged meanwhile
      maybe_transmit();
      return;
    }
    ++pdus_retransmitted_;
    // Poll on every retransmission so a lost retx is re-NACKed instead of
    // stalling in-order delivery until the transport layer times out.
    it->second.poll = true;
    transmit(it->second, /*retransmission=*/true);
    return;
  }

  // Window check: stall and solicit a STATUS if we cannot send new data.
  if (unacked_.size() >= cfg_.am_window_pdus) {
    ++window_stalls_;
    if (!poll_outstanding_) send_standalone_poll();
    return;
  }

  Pdu pdu = build_data_pdu();
  unacked_[pdu.seq] = pdu;
  transmit(pdu, /*retransmission=*/false);
}

RlcChannel::Pdu RlcChannel::build_data_pdu() {
  Pdu pdu;
  pdu.seq = next_seq_++;
  const std::uint16_t capacity = cfg_.pdu_payload(dir_);

  std::uint16_t used = 0;
  while (used < capacity && !pending_.empty()) {
    PendingPacket& front = pending_.front();
    const std::uint32_t remaining = front.pkt.total_size() - front.offset;
    const std::uint16_t take = static_cast<std::uint16_t>(
        std::min<std::uint32_t>(remaining, capacity - used));
    Segment seg;
    seg.pkt = front.pkt;
    seg.offset = front.offset;
    seg.len = take;
    seg.is_end = front.offset + take == front.pkt.total_size();
    pdu.segments.push_back(std::move(seg));
    front.offset += take;
    used += take;
    queued_bytes_ -= take;
    if (front.offset == front.pkt.total_size()) {
      pending_.pop_front();
    }
  }
  pdu.payload_len = used;

  // Polling: every N PDUs, or when the transmit buffer just drained.
  ++pdus_since_poll_;
  if (pdus_since_poll_ >= cfg_.poll_every_pdus || pending_.empty()) {
    pdu.poll = true;
    pdus_since_poll_ = 0;
  }
  return pdu;
}

PduRecord RlcChannel::record_for(const Pdu& pdu, bool retransmission,
                                 sim::TimePoint at) const {
  PduRecord rec;
  rec.at = at;
  rec.dir = dir_;
  // QxDM reports the on-air 12-bit SN; the internal unwrapped counter is
  // not observable.
  rec.seq = pdu.seq % RlcConfig::kSnModulus;
  rec.payload_len = pdu.payload_len;
  rec.poll = pdu.poll;
  rec.retransmission = retransmission;
  // QxDM truncation: only the first two payload bytes survive. They may
  // straddle a segment boundary when a packet ends after one byte.
  std::uint16_t want = 0;
  for (const Segment& seg : pdu.segments) {
    for (std::uint16_t i = 0; i < seg.len && want < 2; ++i, ++want) {
      rec.first_two[want] = seg.pkt.wire_byte(seg.offset + i);
    }
    if (want >= 2) break;
  }
  std::uint16_t cursor = 0;
  for (const Segment& seg : pdu.segments) {
    cursor += seg.len;
    if (seg.is_end) rec.li_ends.push_back(cursor);
    rec.true_uids.push_back(seg.pkt.uid);
  }
  return rec;
}

void RlcChannel::transmit(Pdu pdu, bool retransmission) {
  busy_ = true;
  ++pdus_sent_;
  rrc_.on_activity(queued_bytes_);

  const double rate = rate_bps();
  const std::uint32_t bits = (pdu.payload_len + cfg_.pdu_header) * 8;
  const sim::Duration tx = sim::sec_f(bits / std::max(rate, 1.0));
  const sim::Duration air = rrc_.current_params().air_one_way;

  if (pdu.poll) arm_poll_timer();

  // Uplink PDUs are logged by QxDM at the device when transmitted.
  if (dir_ == net::Direction::kUplink) {
    logger_.log_pdu(record_for(pdu, retransmission, loop_.now()));
  }

  loop_.schedule_after(tx, [this] {
    busy_ = false;
    maybe_transmit();
  });

  const bool lost = rng_.bernoulli(cfg_.pdu_loss_prob);
  if (lost) {
    ++pdus_lost_;
    return;
  }
  loop_.schedule_after(tx + air, [this, pdu = std::move(pdu),
                                  retransmission]() mutable {
    // Downlink PDUs are logged at the device on arrival; lost ones never
    // appear in the log, matching the real tool.
    if (dir_ == net::Direction::kDownlink) {
      logger_.log_pdu(record_for(pdu, retransmission, loop_.now()));
    }
    on_pdu_arrival(pdu);
  });
}

void RlcChannel::on_pdu_arrival(const Pdu& pdu) {
  highest_received_ = std::max(highest_received_, pdu.seq);
  if (pdu.seq >= rcv_expected_ && !rcv_buffer_.contains(pdu.seq)) {
    rcv_buffer_.emplace(pdu.seq, pdu);
    drain_in_order();
  }
  if (pdu.poll && !status_scheduled_) {
    status_scheduled_ = true;
    loop_.schedule_after(cfg_.status_processing, [this] {
      status_scheduled_ = false;
      send_status();
    });
  }
}

void RlcChannel::drain_in_order() {
  auto it = rcv_buffer_.find(rcv_expected_);
  while (it != rcv_buffer_.end()) {
    for (const Segment& seg : it->second.segments) {
      if (seg.is_end && deliver_) deliver_(seg.pkt);
    }
    rcv_buffer_.erase(it);
    ++rcv_expected_;
    it = rcv_buffer_.find(rcv_expected_);
  }
}

void RlcChannel::send_status() {
  ++status_sent_;
  // Snapshot the receiver state NOW: the STATUS describes exactly
  // [ack_until, highest_seen] as of its creation. The sender must not infer
  // anything about sequence numbers beyond highest_seen.
  std::vector<std::uint32_t> nacks;
  for (std::uint32_t s = rcv_expected_; s <= highest_received_; ++s) {
    if (!rcv_buffer_.contains(s)) nacks.push_back(s);
  }
  const std::uint32_t ack_until = rcv_expected_;
  const std::uint32_t highest_seen = highest_received_;

  if (rng_.bernoulli(cfg_.status_loss_prob)) return;  // STATUS lost on air

  const sim::Duration air = rrc_.current_params().air_one_way;
  loop_.schedule_after(
      air, [this, ack_until, highest_seen, nacks = std::move(nacks)] {
        StatusRecord rec;
        rec.at = loop_.now();
        rec.data_dir = dir_;
        rec.ack_until = ack_until;
        rec.nack_count = static_cast<std::uint32_t>(nacks.size());
        logger_.log_status(rec);
        on_status(ack_until, highest_seen, nacks);
      });
}

void RlcChannel::on_status(std::uint32_t ack_until,
                           std::uint32_t highest_seen,
                           const std::vector<std::uint32_t>& nacks) {
  poll_outstanding_ = false;
  poll_timer_.cancel();

  // Cumulative ACK: everything below ack_until was received in order.
  auto it = unacked_.begin();
  while (it != unacked_.end() && it->first < ack_until) {
    it = unacked_.erase(it);
  }
  // Within [ack_until, highest_seen]: NACKed seqs need retransmission, the
  // rest were received out of order. Beyond highest_seen the STATUS says
  // nothing — those PDUs stay outstanding.
  for (auto uit = unacked_.begin();
       uit != unacked_.end() && uit->first <= highest_seen;) {
    const bool nacked =
        std::find(nacks.begin(), nacks.end(), uit->first) != nacks.end();
    if (nacked) {
      if (std::find(retx_queue_.begin(), retx_queue_.end(), uit->first) ==
          retx_queue_.end()) {
        retx_queue_.push_back(uit->first);
      }
      ++uit;
    } else {
      uit = unacked_.erase(uit);
    }
  }
  maybe_transmit();
}

void RlcChannel::arm_poll_timer() {
  poll_outstanding_ = true;
  if (poll_timer_.reschedule(loop_.now() + cfg_.poll_timeout)) return;
  poll_timer_ = loop_.schedule_after(cfg_.poll_timeout, [this] {
    if (poll_outstanding_) send_standalone_poll();
  });
}

void RlcChannel::send_standalone_poll() {
  if (busy_) {  // channel occupied: try again shortly
    arm_poll_timer();
    return;
  }
  // Zero-payload control PDU carrying only the polling request. Tracked in
  // unacked_ like data: it consumes a sequence number, so if it is lost the
  // receiver's in-order drain must be able to get it retransmitted.
  Pdu pdu;
  pdu.seq = next_seq_++;
  pdu.poll = true;
  pdus_since_poll_ = 0;
  unacked_[pdu.seq] = pdu;
  transmit(std::move(pdu), /*retransmission=*/false);
}

}  // namespace qoed::radio
