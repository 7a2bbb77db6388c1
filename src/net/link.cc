#include "net/link.h"

#include <algorithm>
#include <utility>

namespace qoed::net {

WifiLink::WifiLink(sim::EventLoop& loop, sim::Rng rng, WifiConfig cfg)
    : loop_(loop), rng_(std::move(rng)), cfg_(cfg) {}

void WifiLink::send_uplink(Packet p) { transmit(std::move(p), Direction::kUplink); }

void WifiLink::send_downlink(Packet p) {
  transmit(std::move(p), Direction::kDownlink);
}

void WifiLink::transmit(Packet p, Direction dir) {
  if (rng_.bernoulli(cfg_.loss_probability)) {
    ++dropped_;
    return;
  }
  const double rate =
      dir == Direction::kUplink ? cfg_.uplink_bps : cfg_.downlink_bps;
  sim::TimePoint& busy_until = dir == Direction::kUplink
                                   ? uplink_busy_until_
                                   : downlink_busy_until_;
  const sim::TimePoint start = std::max(loop_.now(), busy_until);
  const sim::Duration tx = sim::sec_f(p.total_size() * 8.0 / rate);
  busy_until = start + tx;

  const double jitter = rng_.clipped_normal(
      0.0, sim::to_seconds(cfg_.jitter_stddev), 0.0,
      4 * sim::to_seconds(cfg_.jitter_stddev));
  sim::TimePoint deliver_at = busy_until + cfg_.base_delay + sim::sec_f(jitter);
  sim::TimePoint& last = dir == Direction::kUplink ? uplink_last_delivery_
                                                   : downlink_last_delivery_;
  deliver_at = std::max(deliver_at, last);
  last = deliver_at;

  loop_.schedule_at(deliver_at, [this, alive = std::weak_ptr<bool>(alive_),
                                 p = std::move(p), dir]() mutable {
    if (alive.expired()) return;
    if (dir == Direction::kUplink) {
      to_core(std::move(p));
    } else {
      to_device(std::move(p));
    }
  });
}

}  // namespace qoed::net
