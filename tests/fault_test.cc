// Tests of the fault-injection harness (src/fault): plan parsing, the
// per-lane fault pipeline against hand-computed expectations, seed
// determinism end-to-end, live-vs-batch diagnosis equality under faults,
// the degraded-result crash paths, and the ISSUE acceptance campaign
// (radio blackout + packet drop, retries, quarantine, jobs equality).
#include "fault/fault_injector.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/social_server.h"
#include "core/export_sink.h"
#include "core/qoe_doctor.h"
#include "diag/diagnosis_engine.h"
#include "fault/fault_plan.h"

namespace qoed::fault {
namespace {

sim::TimePoint at(double s) { return sim::kTimeZero + sim::sec_f(s); }

// --- FaultPlan grammar ---

TEST(FaultPlanTest, ParsesLayersAndItems) {
  const FaultPlan p = FaultPlan::parse(
      "packet:drop=0.02,dup=0.005;radio:blackout=5..8;ui:skew=0.004");
  EXPECT_DOUBLE_EQ(p.packet.drop_rate, 0.02);
  EXPECT_DOUBLE_EQ(p.packet.dup_rate, 0.005);
  ASSERT_EQ(p.radio.blackouts.size(), 1u);
  EXPECT_EQ(p.radio.blackouts[0].start, at(5));
  EXPECT_EQ(p.radio.blackouts[0].end, at(8));
  EXPECT_EQ(p.ui.skew, sim::msec(4));
  EXPECT_TRUE(p.any());
  EXPECT_FALSE(FaultPlan{}.any());
}

TEST(FaultPlanTest, AllAppliesToEveryLayer) {
  const FaultPlan p = FaultPlan::parse("all:drop=0.1");
  EXPECT_DOUBLE_EQ(p.ui.drop_rate, 0.1);
  EXPECT_DOUBLE_EQ(p.packet.drop_rate, 0.1);
  EXPECT_DOUBLE_EQ(p.radio.drop_rate, 0.1);
}

TEST(FaultPlanTest, ToStringRoundTrips) {
  const char* specs[] = {
      "packet:drop=0.02,dup=0.005;radio:blackout=5..8;ui:skew=0.004",
      "packet:delay=0.3@2.5",
      "radio:truncate=12,blackout=1..2,blackout=4..6",
      "ui:drift=-0.001",
  };
  for (const char* spec : specs) {
    const FaultPlan p = FaultPlan::parse(spec);
    const FaultPlan q = FaultPlan::parse(p.to_string());
    EXPECT_EQ(p.to_string(), q.to_string()) << spec;
  }
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("bogus:drop=0.1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("ui:zap=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("packet:drop=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("packet:drop=x"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("radio:blackout=8..5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("packet:delay=0.5@0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("ui:"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("packet"), std::invalid_argument);
}

// Parse errors name the absolute byte offset and the offending token (same
// error shape as ctrl::Policy::parse), so a caller can point straight at
// the mistake in a long multi-clause plan.
TEST(FaultPlanTest, ErrorsCarryByteOffsetAndToken) {
  const auto error_of = [](const char* spec) -> std::string {
    try {
      FaultPlan::parse(spec);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(error_of("bogus:drop=0.1"),
            "fault plan: unknown layer (want ui|packet|radio|all) at byte 0: "
            "'bogus'");
  // Offsets stay anchored to the original string across clause boundaries.
  EXPECT_EQ(error_of("packet:drop=0.02;ui:zap=1"),
            "fault plan: unknown key at byte 20: 'zap'");
  EXPECT_EQ(error_of("packet:drop=1.5"),
            "fault plan: drop must be in [0,1] at byte 12: '1.5'");
  EXPECT_EQ(error_of("packet:drop=x"),
            "fault plan: bad number for drop at byte 12: 'x'");
  EXPECT_EQ(error_of("packet:drop=0.02;radio:blackout=8..5"),
            "fault plan: blackout end must be > start at byte 35: '5'");
  EXPECT_EQ(error_of("packet:delay=0.5@0"),
            "fault plan: delay bound must be > 0 at byte 17: '0'");
  EXPECT_EQ(error_of("packet:delay=0.5"),
            "fault plan: delay needs 'delay=P@MAX_SECONDS' at byte 13: "
            "'0.5'");
  EXPECT_EQ(error_of("packet"),
            "fault plan: expected 'layer:items' at byte 0: 'packet'");
  EXPECT_EQ(error_of("ui:skew"),
            "fault plan: expected key=value at byte 3: 'skew'");
}

TEST(FaultPlanTest, MaxLatenessBoundsDelayAndNegativeSkew) {
  EXPECT_EQ(FaultPlan{}.max_lateness(), sim::Duration::zero());
  EXPECT_EQ(FaultPlan::parse("packet:delay=0.5@2").max_lateness(),
            sim::sec(2));
  // Negative skew surfaces records earlier than their capture slot.
  EXPECT_EQ(FaultPlan::parse("ui:skew=-0.25").max_lateness(), sim::msec(250));
  // Per-layer sums, max across layers.
  EXPECT_EQ(
      FaultPlan::parse("packet:delay=0.5@2;ui:skew=-0.25").max_lateness(),
      sim::sec(2));
  EXPECT_EQ(
      FaultPlan::parse("packet:delay=0.5@2,skew=-0.25").max_lateness(),
      sim::sec(2) + sim::msec(250));
}

// --- lane pipeline over a hand-fed TraceCapture ---

class PacketLaneTest : public ::testing::Test {
 protected:
  void install(const std::string& spec, std::uint64_t seed = 1) {
    injector_ = std::make_unique<FaultInjector>(FaultPlan::parse(spec), seed);
    injector_->install(nullptr, &trace_, nullptr, nullptr);
  }

  void offer(double at_s) {
    net::PacketRecord p;
    p.timestamp = at(at_s);
    p.payload_size = 100;
    trace_.add(p);
  }

  std::vector<double> stored_times() const {
    std::vector<double> out;
    for (const auto& r : trace_.records()) out.push_back(r.timestamp.seconds());
    return out;
  }

  net::TraceCapture trace_;
  std::unique_ptr<FaultInjector> injector_;
};

TEST_F(PacketLaneTest, DropOneLosesEverythingDropZeroKeepsEverything) {
  install("packet:drop=1");
  for (int i = 0; i < 5; ++i) offer(i);
  EXPECT_TRUE(trace_.records().empty());
  EXPECT_EQ(injector_->counters(core::kLayerPacket).offered, 5u);
  EXPECT_EQ(injector_->counters(core::kLayerPacket).dropped, 5u);

  // An all-zero spec means the layer is never tapped: records flow through
  // the untouched front-end and the lane counters stay at zero.
  trace_.clear();
  install("packet:drop=0,dup=0");
  for (int i = 0; i < 5; ++i) offer(i);
  EXPECT_EQ(trace_.records().size(), 5u);
  EXPECT_EQ(injector_->counters(core::kLayerPacket).offered, 0u);
}

TEST_F(PacketLaneTest, BlackoutWindowIsHalfOpen) {
  install("packet:blackout=5..8");
  offer(4.999);
  offer(5.0);    // in [5, 8) — lost
  offer(7.999);  // in — lost
  offer(8.0);    // out again
  EXPECT_EQ(stored_times(), (std::vector<double>{4.999, 8.0}));
  EXPECT_EQ(injector_->counters(core::kLayerPacket).blacked_out, 2u);
}

TEST_F(PacketLaneTest, TruncateDiscardsAtAndAfterTheCut) {
  install("packet:truncate=10");
  offer(9.99);
  offer(10.0);
  offer(11.0);
  EXPECT_EQ(stored_times(), (std::vector<double>{9.99}));
  EXPECT_EQ(injector_->counters(core::kLayerPacket).truncated, 2u);
}

TEST_F(PacketLaneTest, SkewShiftsTimestampsExactly) {
  install("packet:skew=0.25");
  offer(1.0);
  offer(2.0);
  EXPECT_EQ(trace_.records()[0].timestamp, at(1.0) + sim::msec(250));
  EXPECT_EQ(trace_.records()[1].timestamp, at(2.0) + sim::msec(250));
  EXPECT_EQ(injector_->counters(core::kLayerPacket).retimed, 2u);

  // Negative skew clamps at time zero rather than going negative.
  trace_.clear();
  install("packet:skew=-5");
  offer(1.0);
  EXPECT_EQ(trace_.records()[0].timestamp, sim::kTimeZero);
}

TEST_F(PacketLaneTest, DriftGrowsSkewWithVirtualTime) {
  install("packet:drift=0.1");
  offer(10.0);  // 10 s in: +1 s of accumulated drift
  EXPECT_EQ(trace_.records()[0].timestamp, at(11.0));
}

TEST_F(PacketLaneTest, DuplicateStoresTheRecordTwice) {
  install("packet:dup=1");
  offer(1.0);
  EXPECT_EQ(stored_times(), (std::vector<double>{1.0, 1.0}));
  EXPECT_EQ(injector_->counters(core::kLayerPacket).duplicated, 1u);
  EXPECT_EQ(injector_->counters(core::kLayerPacket).delivered, 1u);
}

TEST_F(PacketLaneTest, DelayHoldsBackThenReleasesInBoundedOrder) {
  install("packet:delay=1@2");  // every record held, up to 2 s
  offer(1.0);
  EXPECT_TRUE(trace_.records().empty());  // held
  EXPECT_EQ(injector_->counters(core::kLayerPacket).delayed, 1u);

  // A later record past the hold bound releases it — timestamp intact —
  // before itself being held.
  offer(5.0);
  ASSERT_EQ(trace_.records().size(), 1u);
  EXPECT_EQ(trace_.records()[0].timestamp, at(1.0));

  injector_->flush();
  ASSERT_EQ(trace_.records().size(), 2u);
  EXPECT_EQ(trace_.records()[1].timestamp, at(5.0));
  EXPECT_EQ(injector_->counters(core::kLayerPacket).delivered, 2u);
}

TEST_F(PacketLaneTest, EveryOfferConsumesFourDrawsSoDecisionsAreAligned) {
  // Replicate the lane's rng by hand: a blacked-out record must still
  // consume its four draws, so the records after it see identical faults
  // whether or not the blackout clause is present.
  const std::uint64_t seed = 42;
  install("packet:drop=0.5,blackout=2..3", seed);
  for (double t : {1.0, 2.5, 4.0, 5.0, 6.0}) offer(t);
  const std::vector<double> with_blackout = stored_times();

  trace_.clear();
  install("packet:drop=0.5", seed);
  for (double t : {1.0, 2.5, 4.0, 5.0, 6.0}) offer(t);
  std::vector<double> without = stored_times();
  // Remove 2.5 if it survived the drop draw; the rest must match exactly.
  for (auto it = without.begin(); it != without.end(); ++it) {
    if (*it == 2.5) {
      without.erase(it);
      break;
    }
  }
  EXPECT_EQ(with_blackout, without);

  // And the drop decisions themselves are the lane's own fork: replicate.
  sim::Rng rng = sim::Rng(seed).fork("fault/packet");
  std::vector<double> expect;
  for (double t : {1.0, 2.5, 4.0, 5.0, 6.0}) {
    const double u_drop = rng.uniform();
    rng.uniform();  // dup
    rng.uniform();  // delay
    rng.uniform();  // amount
    if (t >= 2.0 && t < 3.0) continue;  // blackout
    if (u_drop < 0.5) continue;         // dropped
    expect.push_back(t);
  }
  EXPECT_EQ(with_blackout, expect);
}

TEST_F(PacketLaneTest, SameSeedReproducesDifferentSeedDiverges) {
  install("packet:drop=0.5", 7);
  for (int i = 0; i < 100; ++i) offer(i * 0.1);
  const std::vector<double> a = stored_times();

  trace_.clear();
  install("packet:drop=0.5", 7);
  for (int i = 0; i < 100; ++i) offer(i * 0.1);
  EXPECT_EQ(stored_times(), a);

  trace_.clear();
  install("packet:drop=0.5", 8);
  for (int i = 0; i < 100; ++i) offer(i * 0.1);
  EXPECT_NE(stored_times(), a);
}

TEST_F(PacketLaneTest, UninstallRestoresCleanCapture) {
  install("packet:drop=1");
  offer(1.0);
  EXPECT_TRUE(trace_.records().empty());
  injector_->uninstall();
  offer(2.0);
  EXPECT_EQ(stored_times(), (std::vector<double>{2.0}));
}

// --- radio lanes + QxDM interplay ---

TEST(RadioLaneTest, IntrinsicLossDrawsBeforeTheFaultTap) {
  // The logger's own record-loss draw happens before the intake, so a
  // fault-free plan leaves the QxDM loss stream byte-identical.
  radio::QxdmLogger with_faults{sim::Rng(3)};
  radio::QxdmLogger clean{sim::Rng(3)};
  with_faults.set_record_loss(0.5, 0.5);
  clean.set_record_loss(0.5, 0.5);

  // A plan that installs the radio intake but never fires: blackout far in
  // the future.
  FaultInjector installed(FaultPlan::parse("radio:blackout=1000..1001"), 1);
  installed.install(nullptr, nullptr, &with_faults, nullptr);

  radio::PduRecord pdu;
  pdu.payload_len = 40;
  for (int i = 0; i < 50; ++i) {
    pdu.at = at(i * 0.1);
    with_faults.log_pdu(pdu);
    clean.log_pdu(pdu);
  }
  ASSERT_EQ(with_faults.pdu_log().size(), clean.pdu_log().size());
  for (std::size_t i = 0; i < clean.pdu_log().size(); ++i) {
    EXPECT_EQ(with_faults.pdu_log()[i].at, clean.pdu_log()[i].at);
  }
  EXPECT_EQ(with_faults.pdus_dropped_from_log(),
            clean.pdus_dropped_from_log());
}

// --- end-to-end: one faulted run, repeated, is byte-identical ---

std::string faulted_timeline(std::uint64_t sim_seed,
                             std::uint64_t fault_seed) {
  core::Testbed bed(sim_seed);
  apps::SocialServer server(bed.network(), bed.next_server_ip());
  auto dev = bed.make_device("phone");
  dev->attach_cellular(radio::CellularConfig::umts());
  apps::SocialApp app(*dev);
  app.launch();
  core::QoeDoctor doctor(*dev, app);
  FaultInjector injector(
      FaultPlan::parse("packet:drop=0.1,dup=0.05;radio:drop=0.05;ui:skew=0.004"),
      fault_seed);
  injector.install(doctor);
  core::FacebookDriver driver(doctor.controller(), app);
  app.login("erin");
  bed.advance(sim::sec(10));
  driver.upload_post(apps::PostKind::kStatus, [](const core::BehaviorRecord&) {});
  bed.advance(sim::sec(20));
  injector.flush();
  return core::TimelineJsonlSink(doctor.collector()).to_string();
}

TEST(FaultDeterminismTest, SameSeedSameTimelineDifferentSeedDiverges) {
  const std::string a = faulted_timeline(11, 5);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, faulted_timeline(11, 5));
  EXPECT_NE(a, faulted_timeline(11, 6));
}

// --- live diagnosis equals batch under faults (watermark slack) ---

TEST(FaultDiagTest, LiveFindingsMatchBatchUnderDelayFaults) {
  core::Testbed bed(13);
  apps::SocialServer server(bed.network(), bed.next_server_ip());
  auto dev = bed.make_device("phone");
  dev->attach_cellular(radio::CellularConfig::umts());
  apps::SocialApp app(*dev);
  app.launch();
  core::QoeDoctor doctor(*dev, app);
  const FaultPlan plan = FaultPlan::parse("packet:delay=0.3@60,drop=0.02");
  FaultInjector injector(plan, 9);
  injector.install(doctor);
  diag::DiagnosisConfig cfg;
  cfg.watermark_slack = plan.max_lateness();  // the documented contract
  diag::DiagnosisEngine& engine = doctor.enable_diagnosis(cfg);
  core::FacebookDriver driver(doctor.controller(), app);
  app.login("fay");
  bed.advance(sim::sec(10));
  for (int i = 0; i < 2; ++i) {
    driver.upload_post(apps::PostKind::kStatus,
                       [](const core::BehaviorRecord&) {});
    bed.advance(sim::sec(20));
  }
  injector.flush();  // held records land before any window finalizes
  engine.finalize_all();

  const auto& findings = engine.findings();
  ASSERT_EQ(findings.size(), doctor.log().records().size());
  ASSERT_GE(findings.size(), 1u);
  const diag::RrcStateTracker rrc(dev->cellular()->qxdm(),
                                  dev->cellular()->config().rrc);
  for (const diag::Finding& f : findings) {
    const core::BehaviorRecord& rec = doctor.log().records()[f.behavior_index];
    const core::QoeWindow w = core::QoeWindow::for_traffic(rec);
    const core::DeviceNetworkSplit split =
        core::device_network_split(doctor.flows(), rec, "");
    EXPECT_EQ(f.total_s, split.total_s);
    EXPECT_EQ(f.device_s, split.device_s);
    EXPECT_EQ(f.network_s, split.network_s);
    EXPECT_EQ(f.window_bytes,
              doctor.flows().bytes_in_window(w.start, w.end, "").total());
    EXPECT_EQ(f.energy_j, rrc.energy_joules(w.start, w.end));
    // Delayed packets were committed out of order into the store, so the
    // windows they landed in must be flagged (confidence discounted).
    EXPECT_LE(f.confidence, 1.0);
  }
  // At least one window saw late traffic in this configuration.
  EXPECT_GT(injector.counters(core::kLayerPacket).delayed, 0u);
}

// --- degraded-result crash paths ---

TEST(FaultCrashPathTest, FinalizeAfterDetachIsDefinedNoOp) {
  core::Testbed bed(17);
  apps::SocialServer server(bed.network(), bed.next_server_ip());
  auto dev = bed.make_device("phone");
  dev->attach_cellular(radio::CellularConfig::umts());
  apps::SocialApp app(*dev);
  app.launch();
  core::QoeDoctor doctor(*dev, app);
  diag::DiagnosisEngine& engine = doctor.enable_diagnosis();
  core::FacebookDriver driver(doctor.controller(), app);
  app.login("gil");
  bed.advance(sim::sec(10));
  driver.upload_post(apps::PostKind::kStatus, [](const core::BehaviorRecord&) {});
  // Detach mid-stream: pending windows now point at dead stores.
  doctor.collector().detach();
  engine.finalize_all();  // must not crash
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(FaultCrashPathTest, TotalRadioBlackoutYieldsFlaggedFindingsNotCrash) {
  core::Testbed bed(19);
  apps::SocialServer server(bed.network(), bed.next_server_ip());
  auto dev = bed.make_device("phone");
  dev->attach_cellular(radio::CellularConfig::umts());
  apps::SocialApp app(*dev);
  app.launch();
  core::QoeDoctor doctor(*dev, app);
  FaultInjector injector(FaultPlan::parse("radio:blackout=0..3600"), 1);
  injector.install(doctor);
  diag::DiagnosisEngine& engine = doctor.enable_diagnosis();
  core::FacebookDriver driver(doctor.controller(), app);
  app.login("hana");
  bed.advance(sim::sec(10));
  driver.upload_post(apps::PostKind::kStatus, [](const core::BehaviorRecord&) {});
  bed.advance(sim::sec(20));
  injector.flush();
  engine.finalize_all();

  // The QxDM store is empty for the whole run — diagnosis over zero radio
  // events must produce a defined, flagged finding.
  ASSERT_EQ(doctor.collector().qxdm()->rrc_log().size(), 0u);
  ASSERT_EQ(engine.findings().size(), 1u);
  const diag::Finding& f = engine.findings()[0];
  EXPECT_TRUE(f.has_radio);
  EXPECT_GT(f.window_bytes, 0u);
  EXPECT_TRUE(f.radio_unavailable);
  EXPECT_FALSE(f.traffic_degraded);
  // The blackout also starves the long-jump mapper: the window has packets
  // but no PDU records to anchor them, so the RLC evidence is degraded —
  // the retransmission count stays a defined 0, with confidence discounted
  // (0.8 for missing radio, 0.9 for degraded RLC) instead of zeroed.
  EXPECT_TRUE(f.has_rlc);
  EXPECT_TRUE(f.rlc_degraded);
  EXPECT_GT(f.rlc_window_packets, 0u);
  EXPECT_EQ(f.rlc_window_mapped, 0u);
  EXPECT_EQ(f.rlc_retx_ul + f.rlc_retx_dl, 0u);
  EXPECT_DOUBLE_EQ(f.confidence, 0.8 * 0.9);
  engine.findings_table().print();  // renders the n/a radio columns
}

// --- the ISSUE acceptance scenario ---

TEST(FaultAcceptanceTest, BlackoutCampaignWithRetriesIsJobsInvariant) {
  // Campaign under a radio blackout covering the upload window plus 2%
  // packet drop; one flaky run (recovers on retry), one always-failing run
  // (quarantined). Must complete without crash, flag every finding, report
  // the quarantine in the JSON, and stay byte-identical for jobs=1 vs 8.
  const auto factory = [](std::uint64_t seed,
                          const core::RunSpec& spec) -> core::RunResult {
    if (spec.run_index == 1 && spec.attempt == 0) {
      throw std::runtime_error("flaky capture process");
    }
    if (spec.run_index == 3) throw std::runtime_error("hard failure");
    core::RunResult out;
    core::Testbed bed(seed);
    apps::SocialServer server(bed.network(), bed.next_server_ip());
    auto dev = bed.make_device("phone");
    dev->attach_cellular(radio::CellularConfig::umts());
    apps::SocialApp app(*dev);
    app.launch();
    core::QoeDoctor doctor(*dev, app);
    FaultInjector injector(
        FaultPlan::parse("radio:blackout=0..3600;packet:drop=0.02"), seed);
    injector.install(doctor);
    diag::DiagnosisEngine& engine = doctor.enable_diagnosis();
    core::FacebookDriver driver(doctor.controller(), app);
    app.login("ivy");
    bed.advance(sim::sec(10));
    driver.upload_post(apps::PostKind::kStatus,
                       [](const core::BehaviorRecord&) {});
    bed.advance(sim::sec(20));
    injector.flush();
    engine.finalize_all();
    for (const diag::Finding& f : engine.findings()) {
      out.add_sample("confidence", f.confidence);
      out.registry.add_counter("radio_unavailable",
                               f.radio_unavailable ? 1.0 : 0.0);
    }
    engine.export_metrics(out.registry);
    injector.export_metrics(out.registry);
    doctor.collector().export_metrics(out.registry);
    out.virtual_seconds = bed.loop().now().seconds();
    return out;
  };

  const auto run_with_jobs = [&](std::size_t jobs) {
    core::CampaignConfig cfg;
    cfg.name = "fault-acceptance";
    cfg.runs = 4;
    cfg.jobs = jobs;
    cfg.master_seed = 23;
    cfg.max_retries = 1;
    cfg.max_run_virtual_seconds = 3600;
    return core::Campaign(cfg).run(factory);
  };

  const core::CampaignResult serial = run_with_jobs(1);
  // Degraded capture, not degraded results: runs completed and findings are
  // flagged rather than silently wrong.
  EXPECT_EQ(serial.failed_runs(), 1u);
  ASSERT_EQ(serial.quarantined.size(), 1u);
  EXPECT_EQ(serial.quarantined[0].run_index, 3u);
  EXPECT_EQ(serial.quarantined[0].attempts, 2u);
  EXPECT_EQ(serial.run_attempts, (std::vector<std::size_t>{1, 2, 1, 2}));
  const core::MetricAggregate* conf = serial.metric("confidence");
  ASSERT_NE(conf, nullptr);
  EXPECT_EQ(conf->pooled.n, 3u);  // one finding per successful run
  // 0.8 (radio unavailable) x 0.9 (RLC evidence starved by the blackout).
  EXPECT_DOUBLE_EQ(conf->pooled.min, 0.8 * 0.9);
  EXPECT_DOUBLE_EQ(conf->pooled.max, 0.8 * 0.9);
  const auto& counters = serial.registry.counters();
  EXPECT_DOUBLE_EQ(counters.at("radio_unavailable"), 3.0);
  EXPECT_DOUBLE_EQ(counters.at("diag.degraded_findings"), 3.0);
  EXPECT_GT(counters.at("fault.radio.blacked_out"), 0.0);
  EXPECT_GT(counters.at("fault.packet.dropped"), 0.0);

  const std::string json = core::CampaignJsonSink(serial).to_string();
  EXPECT_NE(json.find("\"quarantined\":[{\"run\":3,\"attempts\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"run_attempts\":[1,2,1,2]"), std::string::npos);

  // jobs invariance, compared through the byte-exact JSON export.
  std::string a = json;
  std::string b = core::CampaignJsonSink(run_with_jobs(8)).to_string();
  const auto mask = [](std::string& s) {
    const auto pos = s.find("\"jobs\":");
    ASSERT_NE(pos, std::string::npos);
    s.erase(pos, s.find(',', pos) - pos);
  };
  mask(a);
  mask(b);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace qoed::fault
