#include "radio/cellular_link.h"

#include <utility>

#include "radio/carrier.h"

namespace qoed::radio {

CellularConfig CellularConfig::umts() {
  CellularConfig cfg;
  cfg.rrc = RrcConfig::umts_default();
  cfg.rlc = RlcConfig::umts();
  return cfg;
}

CellularConfig CellularConfig::umts_simplified() {
  CellularConfig cfg = umts();
  cfg.rrc = RrcConfig::umts_simplified();
  return cfg;
}

CellularConfig CellularConfig::lte() {
  CellularConfig cfg;
  cfg.rrc = RrcConfig::lte_default();
  cfg.rlc = RlcConfig::lte();
  return cfg;
}

CellularConfig CellularConfig::for_scenario(const std::string& network,
                                           long throttle_kbps,
                                           const std::string& mechanism) {
  CellularConfig cfg = network == "lte"             ? lte()
                       : network == "3g-simplified" ? umts_simplified()
                                                    : umts();
  if (throttle_kbps > 0) {
    // Bucket depths are the C1 carrier's (§7), whichever network throttles.
    const Carrier c1 = Carrier::c1();
    const bool policing = mechanism == "policing";
    cfg.throttle =
        policing ? net::ThrottleKind::kPolicing : net::ThrottleKind::kShaping;
    cfg.throttle_rate_bps = static_cast<double>(throttle_kbps) * 1000;
    cfg.throttle_burst_bytes =
        policing ? c1.policing_burst_bytes : c1.shaping_burst_bytes;
  }
  return cfg;
}

CellularLink::CellularLink(sim::EventLoop& loop, sim::Rng rng,
                           CellularConfig cfg)
    : cfg_(std::move(cfg)) {
  qxdm_ = std::make_unique<QxdmLogger>(rng.fork("qxdm"));
  rrc_ = std::make_unique<RrcMachine>(loop, cfg_.rrc);
  rrc_->add_observer([this](RrcState from, RrcState to, sim::TimePoint at) {
    qxdm_->log_rrc(from, to, at);
  });

  ul_ = std::make_unique<RlcChannel>(loop, rng.fork("rlc-ul"), cfg_.rlc,
                                     net::Direction::kUplink, *rrc_, *qxdm_);
  dl_ = std::make_unique<RlcChannel>(loop, rng.fork("rlc-dl"), cfg_.rlc,
                                     net::Direction::kDownlink, *rrc_,
                                     *qxdm_);
  ul_->set_deliver([this](net::Packet p) { to_core(std::move(p)); });
  dl_->set_deliver([this](net::Packet p) { to_device(std::move(p)); });

  ul_gate_ = net::make_gate(
      loop, cfg_.throttle_uplink ? cfg_.throttle : net::ThrottleKind::kNone,
      cfg_.throttle_rate_bps / 8.0, cfg_.throttle_burst_bytes);
  dl_gate_ = net::make_gate(loop, cfg_.throttle, cfg_.throttle_rate_bps / 8.0,
                            cfg_.throttle_burst_bytes);
  ul_gate_->set_forward([this](net::Packet p) { ul_->enqueue(std::move(p)); });
  dl_gate_->set_forward([this](net::Packet p) { dl_->enqueue(std::move(p)); });

  // Join last: the cell may install hooks (RRC promotion delay) that expect
  // a fully-built link.
  if (cfg_.cell != nullptr) cell_member_ = cfg_.cell->join(*this);
}

CellularLink::~CellularLink() {
  if (cfg_.cell != nullptr && cell_member_ >= 0) {
    cfg_.cell->leave(cell_member_);
  }
}

void CellularLink::send_uplink(net::Packet p) {
  ul_gate_->submit(std::move(p));
}

void CellularLink::send_downlink(net::Packet p) {
  if (cfg_.cell != nullptr) {
    cfg_.cell->submit_downlink(cell_member_, std::move(p));
    return;
  }
  dl_gate_->submit(std::move(p));
}

void CellularLink::deliver_downlink(net::Packet p) {
  dl_->enqueue(std::move(p));
}

}  // namespace qoed::radio
