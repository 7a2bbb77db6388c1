// Cellular access link: RRC state machine + RLC channels + carrier gate.
//
//   device IP layer --(UL)--> [RLC UL channel] --> core
//   core --(DL)--> [carrier token-bucket gate] --> [RLC DL channel] --> device
//
// The downlink gate models the base-station throttling of §7.5: traffic
// shaping (3G in the paper) or traffic policing (LTE in the paper), both
// driven by the same token-bucket parameters.
#pragma once

#include <memory>
#include <string>

#include "net/network.h"
#include "net/token_bucket.h"
#include "radio/qxdm_logger.h"
#include "radio/rlc.h"
#include "radio/rrc_machine.h"

namespace qoed::radio {

class CellularLink;

// Base-station-side downlink resource shared by several CellularLinks (the
// shared-cell model, src/cell). A member link forwards its core->device
// packets here instead of through its private downlink gate; the scheduler
// hands each surviving packet back via CellularLink::deliver_downlink once
// it wins air time. The scheduler must outlive every member link.
class DownlinkScheduler {
 public:
  virtual ~DownlinkScheduler() = default;
  // Registers a member link; returns its member id. Called from the link's
  // constructor, so the scheduler may install hooks (e.g. an RRC promotion
  // delay hook) on the fully-built link.
  virtual int join(CellularLink& link) = 0;
  virtual void leave(int member) = 0;
  // One core->device packet entering the shared downlink.
  virtual void submit_downlink(int member, net::Packet p) = 0;
};

struct CellularConfig {
  RrcConfig rrc = RrcConfig::umts_default();
  RlcConfig rlc = RlcConfig::umts();

  net::ThrottleKind throttle = net::ThrottleKind::kNone;
  double throttle_rate_bps = 250e3;  // token rate (bits/s), as in Fig. 19/20
  double throttle_burst_bytes = 32 * 1024;
  bool throttle_uplink = false;  // carriers throttle the downlink

  // Shared-cell membership: when set, downlink packets route through the
  // cell's contended scheduler instead of this link's private gate (the
  // private downlink gate is still built but never fed — cell-level
  // throttling belongs to the cell). Borrowed; must outlive the link.
  DownlinkScheduler* cell = nullptr;

  static CellularConfig umts();
  static CellularConfig umts_simplified();  // §7.7 machine, no FACH
  static CellularConfig lte();

  // The link a scenario names: the preset for `network` ("lte",
  // "3g-simplified", anything else "3g"), throttled on the downlink at
  // `throttle_kbps` (<= 0: not throttled). "policing" drops with the C1
  // carrier's shallow policing bucket; any other mechanism shapes with its
  // deeper shaping one (radio::Carrier holds both depths). Scenario
  // runs, the CLI and shared-cell runs all build their links here, which
  // keeps a one-member cell's gate identical to a plain link's.
  static CellularConfig for_scenario(const std::string& network,
                                     long throttle_kbps,
                                     const std::string& mechanism);
};

class CellularLink final : public net::AccessLink {
 public:
  CellularLink(sim::EventLoop& loop, sim::Rng rng, CellularConfig cfg);
  ~CellularLink() override;

  void send_uplink(net::Packet p) override;
  void send_downlink(net::Packet p) override;

  // Shared-cell handback: a packet that won contended air time enters this
  // link's downlink RLC channel exactly as a gate-forwarded packet would.
  void deliver_downlink(net::Packet p);

  const CellularConfig& config() const { return cfg_; }
  RrcMachine& rrc() { return *rrc_; }
  QxdmLogger& qxdm() { return *qxdm_; }
  RlcChannel& uplink_rlc() { return *ul_; }
  RlcChannel& downlink_rlc() { return *dl_; }
  net::PacketGate& downlink_gate() { return *dl_gate_; }
  bool in_cell() const { return cfg_.cell != nullptr; }

 private:
  CellularConfig cfg_;
  int cell_member_ = -1;
  std::unique_ptr<QxdmLogger> qxdm_;
  std::unique_ptr<RrcMachine> rrc_;
  std::unique_ptr<RlcChannel> ul_;
  std::unique_ptr<RlcChannel> dl_;
  std::unique_ptr<net::PacketGate> ul_gate_;
  std::unique_ptr<net::PacketGate> dl_gate_;
};

}  // namespace qoed::radio
