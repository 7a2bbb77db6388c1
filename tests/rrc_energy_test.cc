// End-to-end radio-layer analysis over real runs (§5.3): RRC residency,
// energy and the tail split from diag::RrcStateTracker built over the
// finished QxDM log, and the first-hop OTA RTT estimate.
#include <gtest/gtest.h>

#include <numeric>

#include "core/cross_layer_analyzer.h"
#include "core/scenario.h"
#include "diag/rrc_state_tracker.h"

namespace qoed::core {
namespace {

using diag::EnergyBreakdown;

class RrcEnergyTest : public ::testing::Test {
 protected:
  RrcEnergyTest() : bed_(13) {
    server_ = std::make_unique<net::Host>(bed_.network(),
                                          bed_.next_server_ip(), "sink");
    server_->set_udp_handler([](const net::Packet&) {});
  }

  void attach(radio::CellularConfig cfg) {
    dev_ = bed_.make_device("phone");
    dev_->attach_cellular(std::move(cfg));
  }

  void send_burst(int packets, std::uint32_t bytes) {
    for (int i = 0; i < packets; ++i) {
      dev_->host().send_udp(server_->ip(), 9999, 1111, bytes, nullptr);
    }
  }

  // A tracker over everything the device's radio log holds.
  diag::RrcStateTracker tracker() {
    return diag::RrcStateTracker(dev_->cellular()->qxdm(),
                                 dev_->cellular()->config().rrc);
  }

  Testbed bed_;
  std::unique_ptr<net::Host> server_;
  std::unique_ptr<device::Device> dev_;
};

TEST_F(RrcEnergyTest, ResidencyCoversWholeWindow) {
  attach(radio::CellularConfig::umts());
  send_burst(5, 1000);
  bed_.loop().run();
  const sim::TimePoint end = bed_.loop().now();

  const diag::RrcStateTracker rrc = tracker();
  auto res = rrc.residency(sim::kTimeZero, end);
  EXPECT_EQ(res.total(), end - sim::kTimeZero);
  EXPECT_GT(res.in(radio::RrcState::kDch), sim::Duration::zero());
  EXPECT_GT(rrc.energy_joules(sim::kTimeZero, end), 0.0);
}

TEST_F(RrcEnergyTest, OtaRttEstimateNearConfiguredAirLatency) {
  radio::CellularConfig cfg = radio::CellularConfig::umts();
  cfg.rlc.pdu_loss_prob = 0;
  cfg.rlc.status_loss_prob = 0;
  attach(cfg);
  send_burst(10, 1000);
  bed_.loop().run();

  const radio::QxdmLogger& qxdm = dev_->cellular()->qxdm();
  const auto rtts = first_hop_ota_rtts(qxdm, net::Direction::kUplink);
  ASSERT_FALSE(rtts.empty());
  // One-way DCH air latency is 28ms; poll->STATUS ~ 2*28ms + processing.
  const double mean = std::accumulate(rtts.begin(), rtts.end(), 0.0) /
                      static_cast<double>(rtts.size());
  EXPECT_GT(mean, 0.04);
  EXPECT_LT(mean, 0.25);
}

TEST_F(RrcEnergyTest, PromotionDetectedInQoeWindow) {
  attach(radio::CellularConfig::umts());
  send_burst(1, 500);
  bed_.loop().run();
  const sim::TimePoint end = bed_.loop().now();

  const diag::RrcStateTracker rrc = tracker();
  EXPECT_TRUE(rrc.promotion_in(sim::kTimeZero, sim::TimePoint{sim::sec(3)}));
  // After the burst + tails, only demotions happen.
  EXPECT_FALSE(rrc.promotion_in(end - sim::sec(1), end));
  EXPECT_GT(rrc.transitions_in_count(sim::kTimeZero, end), 0u);
}

TEST_F(RrcEnergyTest, EnergyBreakdownTailDominatesSingleSmallBurst) {
  attach(radio::CellularConfig::umts());
  send_burst(1, 500);
  bed_.loop().run();
  const sim::TimePoint end = bed_.loop().now();

  const EnergyBreakdown b = tracker().energy_breakdown(sim::kTimeZero, end);
  EXPECT_GT(b.total_joules, 0.0);
  EXPECT_GT(b.tail_joules, 0.0);
  EXPECT_NEAR(b.tail_joules + b.non_tail_joules, b.total_joules, 1e-9);
  // One tiny transfer then ~17s of high-power tail: tail dominates.
  EXPECT_GT(b.tail_joules, b.non_tail_joules);
}

TEST_F(RrcEnergyTest, SustainedTransferShrinksTailShare) {
  radio::CellularConfig cfg = radio::CellularConfig::umts();
  attach(cfg);
  // Keep the radio busy for a long time relative to the tail.
  for (int burst = 0; burst < 60; ++burst) {
    send_burst(4, 1200);
    bed_.advance(sim::msec(300));
  }
  bed_.loop().run();
  const sim::TimePoint end = bed_.loop().now();

  const EnergyBreakdown b = tracker().energy_breakdown(sim::kTimeZero, end);
  EXPECT_GT(b.non_tail_joules, 0.0);
  const double tail_share = b.tail_joules / b.total_joules;
  EXPECT_LT(tail_share, 0.7);
}

TEST_F(RrcEnergyTest, LteEnergyLowerThan3gForSameTinyWorkload) {
  double joules[2];
  for (int pass = 0; pass < 2; ++pass) {
    Testbed bed(17);
    net::Host server(bed.network(), bed.next_server_ip(), "sink");
    server.set_udp_handler([](const net::Packet&) {});
    auto dev = bed.make_device("phone");
    dev->attach_cellular(pass == 0 ? radio::CellularConfig::umts()
                                   : radio::CellularConfig::lte());
    dev->host().send_udp(server.ip(), 9999, 1111, 500, nullptr);
    bed.loop().run();
    const diag::RrcStateTracker rrc(dev->cellular()->qxdm(),
                                    dev->cellular()->config().rrc);
    joules[pass] =
        rrc.energy_breakdown(sim::kTimeZero, bed.loop().now()).total_joules;
  }
  // 3G's 17s FACH+DCH tail outweighs LTE's DRX-staged tail for one packet.
  EXPECT_GT(joules[0], joules[1]);
}

TEST_F(RrcEnergyTest, EmptyWindowYieldsZeroEnergy) {
  attach(radio::CellularConfig::umts());
  const EnergyBreakdown b = tracker().energy_breakdown(
      sim::TimePoint{sim::sec(5)}, sim::TimePoint{sim::sec(5)});
  EXPECT_EQ(b.total_joules, 0.0);
}

}  // namespace
}  // namespace qoed::core
