// End-to-end tests of the full QoE Doctor pipeline: controller-driven
// replay on the simulated apps, multi-layer analysis of the collected data.
#include "core/qoe_doctor.h"

#include <gtest/gtest.h>

#include "apps/social_server.h"
#include "apps/video_server.h"
#include "apps/web_server.h"

namespace qoed::core {
namespace {

class QoeDoctorFacebookTest : public ::testing::Test {
 protected:
  QoeDoctorFacebookTest() : bed_(21), server_(bed_.network(), bed_.next_server_ip()) {
    dev_ = bed_.make_device("galaxy-s3");
  }

  void start(radio::CellularConfig cfg) {
    dev_->attach_cellular(std::move(cfg));
    start_common();
  }
  void start_wifi() {
    dev_->attach_wifi();
    start_common();
  }

  // Fig. 8-style uplink breakdown of `rec` over `flows` and the radio log.
  FineBreakdown uplink_breakdown(const FlowAnalyzer& flows,
                                 const BehaviorRecord& rec) const {
    const radio::QxdmLogger& qxdm = dev_->cellular()->qxdm();
    const MappingResult mapping = RlcMapper::map(
        dev_->trace().records(), qxdm.pdu_log(), net::Direction::kUplink);
    return network_breakdown(flows, rec, mapping, qxdm,
                             net::Direction::kUplink);
  }

  Testbed bed_;
  apps::SocialServer server_;
  std::unique_ptr<device::Device> dev_;
  std::unique_ptr<apps::SocialApp> app_;
  std::unique_ptr<QoeDoctor> doctor_;
  std::unique_ptr<FacebookDriver> driver_;

 private:
  void start_common() {
    app_ = std::make_unique<apps::SocialApp>(*dev_);
    app_->launch();
    // The doctor starts collecting before login so the DNS lookups land in
    // the trace — that's how the flow analyzer learns server hostnames.
    doctor_ = std::make_unique<QoeDoctor>(*dev_, *app_);
    driver_ = std::make_unique<FacebookDriver>(doctor_->controller(), *app_);
    app_->login("alice");
    bed_.advance(sim::sec(15));
  }
};

TEST_F(QoeDoctorFacebookTest, StatusUploadNetworkOffCriticalPath) {
  start(radio::CellularConfig::umts());
  BehaviorRecord rec;
  driver_->upload_post(apps::PostKind::kStatus,
                       [&](const BehaviorRecord& r) { rec = r; });
  bed_.advance(sim::sec(60));
  ASSERT_FALSE(rec.timed_out);
  ASSERT_FALSE(rec.action.empty());

  const DeviceNetworkSplit split =
      device_network_split(doctor_->flows(), rec, "facebook");
  // Finding 1: the post shows up from the local copy; the upload's ACK
  // completes after the QoE window.
  EXPECT_FALSE(split.network_on_critical_path);
  EXPECT_GT(split.total_s, 0.3);  // compose + render costs
  EXPECT_LT(split.total_s, 2.0);
}

TEST_F(QoeDoctorFacebookTest, PhotoUploadNetworkDominates3g) {
  start(radio::CellularConfig::umts());
  BehaviorRecord rec;
  driver_->upload_post(apps::PostKind::kPhotos,
                       [&](const BehaviorRecord& r) { rec = r; });
  bed_.advance(sim::sec(120));
  ASSERT_FALSE(rec.timed_out);

  const DeviceNetworkSplit split =
      device_network_split(doctor_->flows(), rec, "facebook");
  EXPECT_TRUE(split.network_on_critical_path);
  // Finding 2: >65% of the end-to-end latency is network for 2 photos.
  EXPECT_GT(split.network_s / split.total_s, 0.5);
  EXPECT_GT(split.total_s, 3.0);

  // Fine breakdown: on 3G the RLC transmission delay is the biggest
  // network component (40-byte uplink PDUs).
  const FineBreakdown fine = uplink_breakdown(doctor_->flows(), rec);
  EXPECT_GT(fine.rlc_tx_s, 0.0);
  EXPECT_GT(fine.rlc_tx_s, fine.ip_to_rlc_s);
  // The components reconstruct the network latency up to minor overcount
  // from bursts straddling the window edges.
  const double sum =
      fine.ip_to_rlc_s + fine.rlc_tx_s + fine.first_hop_ota_s + fine.other_s;
  EXPECT_NEAR(sum, fine.network_s, 0.1 * fine.network_s);
}

TEST_F(QoeDoctorFacebookTest, PhotoUploadFasterOnLte) {
  start(radio::CellularConfig::lte());
  BehaviorRecord rec;
  driver_->upload_post(apps::PostKind::kPhotos,
                       [&](const BehaviorRecord& r) { rec = r; });
  bed_.advance(sim::sec(120));
  ASSERT_FALSE(rec.timed_out);
  const DeviceNetworkSplit split =
      device_network_split(doctor_->flows(), rec, "facebook");
  EXPECT_LT(split.total_s, 7.5);  // 3G takes notably longer (see above)
  // LTE moves the same bytes in far fewer, larger PDUs.
  const MappingResult mapping =
      RlcMapper::map(dev_->trace().records(),
                     dev_->cellular()->qxdm().pdu_log(),
                     net::Direction::kUplink);
  EXPECT_GT(mapping.mapped_ratio(), 0.9);
}

TEST_F(QoeDoctorFacebookTest, PullToUpdateMeasured) {
  start_wifi();
  BehaviorRecord rec;
  driver_->pull_to_update([&](const BehaviorRecord& r) { rec = r; });
  bed_.advance(sim::sec(30));
  ASSERT_FALSE(rec.timed_out);
  EXPECT_TRUE(rec.start_from_parse);
  const double latency = sim::to_seconds(AppLayerAnalyzer::calibrate(rec));
  EXPECT_GT(latency, 0.05);
  EXPECT_LT(latency, 3.0);
}

TEST_F(QoeDoctorFacebookTest, ResetCollectionClearsAllLayers) {
  start(radio::CellularConfig::umts());
  BehaviorRecord rec;
  driver_->upload_post(apps::PostKind::kStatus,
                       [&](const BehaviorRecord& r) { rec = r; });
  bed_.advance(sim::sec(30));
  EXPECT_FALSE(doctor_->log().records().empty());
  EXPECT_FALSE(dev_->trace().records().empty());
  doctor_->reset_collection();
  EXPECT_TRUE(doctor_->log().records().empty());
  EXPECT_TRUE(dev_->trace().records().empty());
  const auto& qxdm = dev_->cellular()->qxdm();
  EXPECT_TRUE(qxdm.pdu_log().empty());
  EXPECT_TRUE(qxdm.rrc_log().empty());
  EXPECT_TRUE(qxdm.status_log().empty());
  EXPECT_EQ(qxdm.pdus_dropped_from_log(), 0u);
  EXPECT_EQ(dev_->trace().records_dropped(), 0u);
  EXPECT_EQ(doctor_->log().records_dropped(), 0u);
  // The spine's merged timeline and streaming analysis reset with it.
  EXPECT_TRUE(doctor_->collector().timeline().empty());
  EXPECT_TRUE(doctor_->flows().flows().empty());
  EXPECT_EQ(doctor_->flows().consumed(), 0u);
}

TEST_F(QoeDoctorFacebookTest, StreamingAnalysisMatchesBatchBitExactly) {
  start(radio::CellularConfig::umts());
  BehaviorRecord rec;
  driver_->upload_post(apps::PostKind::kPhotos,
                       [&](const BehaviorRecord& r) { rec = r; });
  bed_.advance(sim::sec(120));
  ASSERT_FALSE(rec.timed_out);

  // The doctor's streaming FlowAnalyzer borrows the device trace — same
  // storage, no copy — and the spine kept it current.
  const FlowAnalyzer& streaming = doctor_->flows();
  EXPECT_EQ(streaming.trace().data(), dev_->trace().records().data());
  EXPECT_EQ(streaming.consumed(), dev_->trace().records().size());

  // Baseline: a from-scratch batch build over a *copy* of the trace. The
  // streaming analysis must agree bit-for-bit.
  const std::vector<net::PacketRecord> copy = dev_->trace().records();
  const FlowAnalyzer batch(copy);

  const DeviceNetworkSplit streamed =
      device_network_split(streaming, rec, "facebook");
  const DeviceNetworkSplit batched =
      device_network_split(batch, rec, "facebook");
  EXPECT_EQ(streamed.total_s, batched.total_s);
  EXPECT_EQ(streamed.device_s, batched.device_s);
  EXPECT_EQ(streamed.network_s, batched.network_s);
  EXPECT_EQ(streamed.network_on_critical_path,
            batched.network_on_critical_path);

  const FineBreakdown fine_s = uplink_breakdown(streaming, rec);
  const FineBreakdown fine_b = uplink_breakdown(batch, rec);
  EXPECT_EQ(fine_s.network_s, fine_b.network_s);
  EXPECT_EQ(fine_s.ip_to_rlc_s, fine_b.ip_to_rlc_s);
  EXPECT_EQ(fine_s.rlc_tx_s, fine_b.rlc_tx_s);
  EXPECT_EQ(fine_s.first_hop_ota_s, fine_b.first_hop_ota_s);
  EXPECT_EQ(fine_s.other_s, fine_b.other_s);
}

TEST(QoeDoctorYouTubeTest, WatchVideoEndToEnd) {
  Testbed bed(23);
  apps::VideoServer server(bed.network(), bed.next_server_ip());
  server.add_video({.id = "a1",
                    .title = "a video 1",
                    .duration = sim::sec(25),
                    .bitrate_bps = 500e3});
  auto dev = bed.make_device("galaxy-s4");
  dev->attach_wifi();
  apps::VideoApp app(*dev);
  app.launch();
  app.connect();
  bed.advance(sim::sec(5));

  QoeDoctor doctor(*dev, app);
  YouTubeDriver driver(doctor.controller(), app);
  VideoWatchResult result;
  bool done = false;
  driver.watch_video("a video", "a1", [&](const VideoWatchResult& r) {
    result = r;
    done = true;
  });
  bed.loop().run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.had_ad);
  const double loading =
      sim::to_seconds(AppLayerAnalyzer::calibrate(result.initial_loading));
  EXPECT_GT(loading, 0.2);  // startup buffer over WiFi
  EXPECT_LT(loading, 5.0);
  EXPECT_EQ(result.stalls.size(), 0u);
  EXPECT_NEAR(result.rebuffering_ratio(), 0.0, 0.01);
  EXPECT_GT(sim::to_seconds(result.play_time), 15.0);
}

TEST(QoeDoctorYouTubeTest, ThrottledWatchProducesStalls) {
  Testbed bed(29);
  apps::VideoServer server(bed.network(), bed.next_server_ip());
  server.add_video({.id = "a1",
                    .title = "a video 1",
                    .duration = sim::sec(25),
                    .bitrate_bps = 500e3});
  auto dev = bed.make_device("galaxy-s4");
  radio::CellularConfig cfg = radio::CellularConfig::umts();
  cfg.throttle = net::ThrottleKind::kShaping;
  cfg.throttle_rate_bps = 250e3;
  dev->attach_cellular(cfg);
  apps::VideoApp app(*dev);
  app.launch();
  app.connect();
  bed.advance(sim::sec(5));

  QoeDoctor doctor(*dev, app);
  YouTubeDriver driver(doctor.controller(), app);
  VideoWatchResult result;
  driver.watch_video("a video", "a1",
                     [&](const VideoWatchResult& r) { result = r; });
  bed.loop().run();
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.stalls.size(), 0u);
  EXPECT_GT(result.rebuffering_ratio(), 0.2);
}

TEST(QoeDoctorYouTubeTest, AdMeasuredSeparatelyAndSkipped) {
  Testbed bed(31);
  apps::VideoServer server(bed.network(), bed.next_server_ip());
  server.add_video({.id = "a1",
                    .title = "a video 1",
                    .duration = sim::sec(20),
                    .bitrate_bps = 500e3});
  server.add_video({.id = apps::kAdVideoId,
                    .title = "ad",
                    .duration = sim::sec(15),
                    .bitrate_bps = 400e3});
  auto dev = bed.make_device("galaxy-s4");
  dev->attach_wifi();
  apps::VideoAppConfig app_cfg;
  app_cfg.ads_enabled = true;
  apps::VideoApp app(*dev, app_cfg);
  app.launch();
  app.connect();
  bed.advance(sim::sec(5));

  QoeDoctor doctor(*dev, app);
  YouTubeDriver driver(doctor.controller(), app);
  VideoWatchResult result;
  driver.watch_video("a video", "a1",
                     [&](const VideoWatchResult& r) { result = r; });
  bed.loop().run();
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.had_ad);
  EXPECT_FALSE(result.ad_loading.timed_out);
  // Main video prefetched during the ad: its own loading beats the ad's.
  EXPECT_LT(AppLayerAnalyzer::calibrate(result.initial_loading),
            AppLayerAnalyzer::calibrate(result.ad_loading));
}

TEST(QoeDoctorBrowserTest, PageLoadMeasuredAcrossBrowsers) {
  for (const auto& profile :
       {apps::BrowserProfile::chrome(), apps::BrowserProfile::firefox(),
        apps::BrowserProfile::stock()}) {
    Testbed bed(37);
    apps::WebServer server(bed.network(), bed.next_server_ip());
    server.add_page({.path = "/index",
                     .html_bytes = 50'000,
                     .object_count = 10,
                     .object_bytes = 22'000});
    auto dev = bed.make_device("phone");
    dev->attach_wifi();
    apps::BrowserAppConfig cfg;
    cfg.profile = profile;
    apps::BrowserApp app(*dev, cfg);
    app.launch();

    QoeDoctor doctor(*dev, app);
    BrowserDriver driver(doctor.controller(), app);
    BehaviorRecord rec;
    driver.load_page("www.page.sim/index",
                     [&](const BehaviorRecord& r) { rec = r; });
    bed.loop().run();
    ASSERT_FALSE(rec.timed_out) << profile.name;
    const double load = sim::to_seconds(AppLayerAnalyzer::calibrate(rec));
    EXPECT_GT(load, 0.1) << profile.name;
    EXPECT_LT(load, 5.0) << profile.name;
  }
}

TEST(QoeDoctorBrowserTest, SimplifiedRrcMachineLoadsPagesFaster) {
  double load_s[2];
  for (int pass = 0; pass < 2; ++pass) {
    Testbed bed(41);
    apps::WebServer server(bed.network(), bed.next_server_ip());
    server.add_page({.path = "/index",
                     .html_bytes = 50'000,
                     .object_count = 10,
                     .object_bytes = 22'000});
    auto dev = bed.make_device("phone");
    dev->attach_cellular(pass == 0
                             ? radio::CellularConfig::umts()
                             : radio::CellularConfig::umts_simplified());
    apps::BrowserApp app(*dev);
    app.launch();
    QoeDoctor doctor(*dev, app);
    BrowserDriver driver(doctor.controller(), app);
    BehaviorRecord rec;
    driver.load_page("www.page.sim/index",
                     [&](const BehaviorRecord& r) { rec = r; });
    bed.loop().run();
    ASSERT_FALSE(rec.timed_out);
    load_s[pass] = sim::to_seconds(AppLayerAnalyzer::calibrate(rec));
  }
  // §7.7: dropping FACH from the 3G machine speeds up page loads.
  EXPECT_LT(load_s[1], load_s[0]);
}

}  // namespace
}  // namespace qoed::core
