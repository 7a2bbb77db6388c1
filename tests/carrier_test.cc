#include "radio/carrier.h"

#include <gtest/gtest.h>

#include "core/qoe_doctor.h"

namespace qoed::radio {
namespace {

TEST(CarrierTest, C1UsesShapingOn3gAndPolicingOnLte) {
  const Carrier c1 = Carrier::c1();
  EXPECT_EQ(c1.name, "C1");
  EXPECT_EQ(c1.umts(true).throttle, net::ThrottleKind::kShaping);
  EXPECT_EQ(c1.lte(true).throttle, net::ThrottleKind::kPolicing);
  // Within the data cap nothing is throttled.
  EXPECT_EQ(c1.umts(false).throttle, net::ThrottleKind::kNone);
  EXPECT_EQ(c1.lte(false).throttle, net::ThrottleKind::kNone);
}

TEST(CarrierTest, C1ThrottleParametersPropagate) {
  Carrier c1 = Carrier::c1();
  c1.throttle_rate_bps = 300e3;
  const CellularConfig lte = c1.lte(true);
  EXPECT_EQ(lte.throttle_rate_bps, 300e3);
  EXPECT_EQ(lte.throttle_burst_bytes, c1.policing_burst_bytes);
  const CellularConfig umts = c1.umts(true);
  EXPECT_EQ(umts.throttle_burst_bytes, c1.shaping_burst_bytes);
}

TEST(CarrierTest, C2NeverThrottles) {
  const Carrier c2 = Carrier::c2();
  EXPECT_EQ(c2.umts(true).throttle, net::ThrottleKind::kNone);
  EXPECT_EQ(c2.lte(true).throttle, net::ThrottleKind::kNone);
}

TEST(CarrierTest, C2RunsShorterInactivityTimers) {
  const Carrier c1 = Carrier::c1();
  const Carrier c2 = Carrier::c2();
  EXPECT_LT(c2.umts().rrc.dch_to_fach_timer, c1.umts().rrc.dch_to_fach_timer);
  EXPECT_LT(c2.umts().rrc.fach_to_pch_timer, c1.umts().rrc.fach_to_pch_timer);
}

TEST(CarrierTest, OverLimitC1SimActuallyThrottles) {
  // End-to-end: the same download through C1 3G within-cap vs over-cap.
  double seconds[2];
  for (int pass = 0; pass < 2; ++pass) {
    core::Testbed bed(91);
    net::Host server(bed.network(), bed.next_server_ip(), "srv");
    auto dev = bed.make_device("phone");
    dev->attach_cellular(Carrier::c1().umts(/*over_limit=*/pass == 1));
    std::vector<std::shared_ptr<net::TcpSocket>> keep;
    std::uint64_t got = 0;
    sim::TimePoint done_at;
    server.tcp().listen(80, [&](std::shared_ptr<net::TcpSocket> s) {
      s->set_on_message([raw = s.get()](const net::AppMessage&) {
        raw->send({.type = "BULK", .size = 400'000});
      });
      keep.push_back(std::move(s));
    });
    auto sock = dev->host().tcp().connect(server.ip(), 80);
    sock->set_on_message([&](const net::AppMessage& m) {
      got = m.size;
      done_at = bed.loop().now();
    });
    sock->send({.type = "GET", .size = 200});
    bed.loop().run();
    EXPECT_EQ(got, 400'000u);
    seconds[pass] = done_at.seconds();
  }
  // 400KB at 250kbps is ~13s; unthrottled 3G manages it in ~2s.
  EXPECT_GT(seconds[1], seconds[0] * 3);
}

TEST(DeviceProfileTest, GalaxyS4RunsUiWorkFaster) {
  core::Testbed bed(93);
  auto s3 = bed.make_device("s3");
  auto s4 = bed.make_device("s4");
  s4->set_profile(device::DeviceProfile::galaxy_s4());
  EXPECT_EQ(s3->profile().model, "galaxy-s3");
  EXPECT_EQ(s4->profile().model, "galaxy-s4");

  sim::TimePoint s3_done, s4_done;
  const sim::TimePoint start = bed.loop().now();
  s3->ui_thread().post(sim::msec(300), [&] { s3_done = bed.loop().now(); });
  s4->ui_thread().post(sim::msec(300), [&] { s4_done = bed.loop().now(); });
  bed.loop().run();
  EXPECT_EQ(s3_done - start, sim::msec(300));
  EXPECT_LT(s4_done - start, sim::msec(240));  // ~35% faster CPU
}

TEST(DeviceProfileTest, SpeedFactorScalesCpuAccounting) {
  sim::EventLoop loop;
  ui::CpuMeter meter;
  ui::UiThread thread(loop, &meter);
  thread.set_speed_factor(2.0);
  thread.post(sim::msec(100), [] {}, "app");
  loop.run();
  EXPECT_EQ(meter.total("app"), sim::msec(50));
}

}  // namespace
}  // namespace qoed::radio
