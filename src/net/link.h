// WiFi access link model.
//
// Serialization at a configurable rate, per-direction FIFO occupancy, a base
// propagation/MAC delay with jitter, and a small random loss probability.
// The cellular counterpart (with RRC/RLC dynamics and carrier throttling)
// lives in radio/cellular_link.h.
#pragma once

#include <cstdint>
#include <memory>

#include "net/network.h"
#include "sim/rng.h"

namespace qoed::net {

struct WifiConfig {
  double uplink_bps = 25e6;
  double downlink_bps = 40e6;
  sim::Duration base_delay = sim::msec(2);   // one-way MAC + propagation
  sim::Duration jitter_stddev = sim::msec(1);
  double loss_probability = 1e-4;
};

class WifiLink final : public AccessLink {
 public:
  WifiLink(sim::EventLoop& loop, sim::Rng rng, WifiConfig cfg = {});

  void send_uplink(Packet p) override;
  void send_downlink(Packet p) override;

  std::uint64_t dropped_packets() const { return dropped_; }

 private:
  void transmit(Packet p, Direction dir);

  sim::EventLoop& loop_;
  sim::Rng rng_;
  WifiConfig cfg_;
  sim::TimePoint uplink_busy_until_;
  sim::TimePoint downlink_busy_until_;
  // FIFO clamps so per-packet jitter cannot reorder a direction's queue.
  sim::TimePoint uplink_last_delivery_;
  sim::TimePoint downlink_last_delivery_;
  std::uint64_t dropped_ = 0;
  // Scheduled deliveries hold this weakly: packets still in flight when the
  // link is destroyed (a handover replaces it) are lost, not delivered
  // through a dead link.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace qoed::net
