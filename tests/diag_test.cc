// Tests of the live diagnosis engine (src/diag): the streaming
// RrcStateTracker, held bit-exact against radio::compute_residency over the
// same log, and the online DiagnosisEngine, held bit-exact against the
// batch analyses run post-hoc, plus the findings export determinism
// guarantees.
#include "diag/diagnosis_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/social_server.h"
#include "core/export_sink.h"
#include "core/qoe_doctor.h"
#include "core/rlc_mapper.h"
#include "diag/findings_sink.h"
#include "diag/rlc_chain_tracker.h"
#include "diag/rrc_state_tracker.h"
#include "fault/fault_injector.h"
#include "radio/record_search.h"

namespace qoed::diag {
namespace {

using radio::RrcState;

sim::TimePoint at_ms(std::int64_t ms) { return sim::kTimeZero + sim::msec(ms); }

// Every window query the tracker answers, compared bit-exact with a walk of
// the same log: radio::compute_residency for residency and energy, and the
// transitions whose timestamps fall in [start, end] for the rest.
void expect_tracker_matches_log(const RrcStateTracker& tracker,
                                const radio::QxdmLogger& log,
                                sim::TimePoint start, sim::TimePoint end) {
  const radio::RrcConfig& cfg = tracker.config();
  const auto live = tracker.residency(start, end);
  const auto ref =
      radio::compute_residency(log.rrc_log(), cfg.idle_state(), start, end);
  for (int s = 0; s < 7; ++s) {
    const auto state = static_cast<RrcState>(s);
    EXPECT_EQ(live.in(state), ref.in(state))
        << "state " << radio::to_string(state) << " in [" << start.seconds()
        << ", " << end.seconds() << "]";
  }
  EXPECT_EQ(live.total(), ref.total());
  EXPECT_EQ(tracker.energy_joules(start, end), radio::energy_joules(ref, cfg));

  const auto [lo, hi] = radio::record_range(log.rrc_log(), start, end);
  bool promotion = false;
  for (std::size_t i = lo; i < hi; ++i) {
    const radio::RrcTransitionRecord& t = log.rrc_log()[i];
    promotion = promotion || radio::is_low_power(t.from) ||
                (t.from == RrcState::kFach && t.to == RrcState::kDch);
  }
  EXPECT_EQ(tracker.promotion_in(start, end), promotion);
  EXPECT_EQ(tracker.transitions_in_count(start, end), hi - lo);
}

// --- RrcStateTracker against the reference walk, hand-built log ---

class HandBuiltLogTest : public ::testing::Test {
 protected:
  HandBuiltLogTest() : log_(sim::Rng(1)), cfg_(radio::RrcConfig::umts_default()) {
    log_.set_record_loss(0, 0);
  }

  void fill_log() {
    log_.log_rrc(RrcState::kPch, RrcState::kFach, at_ms(1000));
    log_.log_rrc(RrcState::kFach, RrcState::kDch, at_ms(1500));
    log_.log_rrc(RrcState::kDch, RrcState::kFach, at_ms(8000));
    // Same-timestamp pair: the batch walk produces a zero-duration segment.
    log_.log_rrc(RrcState::kFach, RrcState::kDch, at_ms(8000));
    log_.log_rrc(RrcState::kDch, RrcState::kFach, at_ms(12000));
    log_.log_rrc(RrcState::kFach, RrcState::kPch, at_ms(15000));
  }

  void log_pdu_at(std::int64_t ms) {
    radio::PduRecord pdu;
    pdu.payload_len = 40;
    pdu.at = at_ms(ms);
    log_.commit_pdu(pdu);
  }

  radio::QxdmLogger log_;
  radio::RrcConfig cfg_;
};

TEST_F(HandBuiltLogTest, WindowQueriesMatchBatchBitExact) {
  fill_log();
  RrcStateTracker tracker(log_, cfg_);
  const std::pair<std::int64_t, std::int64_t> windows[] = {
      {0, 20000},     // whole log and beyond
      {500, 1250},    // crosses the first promotion
      {1000, 1500},   // both ends exactly on transition timestamps
      {200, 700},     // no transitions inside
      {7900, 8100},   // brackets the same-timestamp pair
      {8000, 12000},  // starts exactly on the pair
      {14000, 20000},  // ends past the final demotion
      {15000, 15000},  // empty window
  };
  for (const auto& [a, b] : windows) {
    expect_tracker_matches_log(tracker, log_, at_ms(a), at_ms(b));
  }
}

TEST_F(HandBuiltLogTest, IncrementalSyncEqualsBatchRebuildMidStream) {
  RrcStateTracker tracker(log_, cfg_);  // constructed over the empty log
  // Idle everywhere.
  expect_tracker_matches_log(tracker, log_, at_ms(0), at_ms(5000));

  // Fold the log in piecewise; after every sync the tracker must agree
  // with a batch analyzer over the records captured so far.
  log_.log_rrc(RrcState::kPch, RrcState::kFach, at_ms(1000));
  log_.log_rrc(RrcState::kFach, RrcState::kDch, at_ms(1500));
  tracker.sync();
  expect_tracker_matches_log(tracker, log_, at_ms(0), at_ms(3000));
  expect_tracker_matches_log(tracker, log_, at_ms(1200), at_ms(1800));

  log_.log_rrc(RrcState::kDch, RrcState::kFach, at_ms(8000));
  log_.log_rrc(RrcState::kFach, RrcState::kDch, at_ms(8000));
  log_.log_rrc(RrcState::kDch, RrcState::kFach, at_ms(12000));
  log_.log_rrc(RrcState::kFach, RrcState::kPch, at_ms(15000));
  tracker.sync();
  expect_tracker_matches_log(tracker, log_, at_ms(0), at_ms(20000));
  expect_tracker_matches_log(tracker, log_, at_ms(7900), at_ms(8100));

  // sync() is idempotent.
  tracker.sync();
  expect_tracker_matches_log(tracker, log_, at_ms(0), at_ms(20000));
}

TEST_F(HandBuiltLogTest, StateAndCountersFollowTheLog) {
  fill_log();
  RrcStateTracker tracker(log_, cfg_);
  EXPECT_EQ(tracker.state_at(at_ms(500)), RrcState::kPch);
  EXPECT_EQ(tracker.state_at(at_ms(1000)), RrcState::kFach);  // tie -> latest
  EXPECT_EQ(tracker.state_at(at_ms(8000)), RrcState::kDch);   // pair applied
  EXPECT_EQ(tracker.state_at(at_ms(16000)), RrcState::kPch);
  // Promotions: PCH->FACH, FACH->DCH, and the 8s FACH->DCH re-promotion.
  EXPECT_EQ(tracker.promotions(), 3u);
  // Demotions: both DCH->FACH drops plus the final FACH->PCH.
  EXPECT_EQ(tracker.demotions(), 3u);
  EXPECT_EQ(tracker.consumed_transitions(), log_.rrc_log().size());

  radio::PduRecord pdu;
  pdu.payload_len = 40;
  pdu.at = at_ms(2000);
  log_.log_pdu(pdu);
  log_.log_pdu(pdu);
  tracker.sync();
  EXPECT_EQ(tracker.pdus_seen(), 2u);
  EXPECT_EQ(tracker.pdu_bytes(), 80u);
}

TEST_F(HandBuiltLogTest, IdleDchTailMatchesHandComputation) {
  // PCH until 1 s, DCH until 6 s, FACH until 10 s, then PCH; one PDU at
  // 1 s, so only [1.0, 1.2] s of DCH is active. Power levels: PCH 1 mW,
  // FACH 460 mW, DCH 800 mW.
  log_.log_rrc(RrcState::kPch, RrcState::kDch, at_ms(1000));
  log_.log_rrc(RrcState::kDch, RrcState::kFach, at_ms(6000));
  log_.log_rrc(RrcState::kFach, RrcState::kPch, at_ms(10000));
  log_pdu_at(1000);
  const RrcStateTracker tracker(log_, cfg_);
  const EnergyBreakdown eb = tracker.energy_breakdown(at_ms(0), at_ms(12000));
  // total = 0.001 W * 3 s + 0.8 W * 5 s + 0.46 W * 4 s = 5.843 J
  EXPECT_NEAR(eb.total_joules, 5.843, 1e-9);
  // tail = 0.8 W * (5 - 0.2) s + 0.46 W * 4 s = 3.84 + 1.84 = 5.68 J
  EXPECT_NEAR(eb.tail_joules, 5.68, 1e-9);
  EXPECT_NEAR(eb.non_tail_joules, 0.163, 1e-9);
}

TEST_F(HandBuiltLogTest, LatePduRecordStillCountsAsActivity) {
  // DCH from 1.0 s; PDUs at 1.0, 1.3 and 1.6 s, whose ±200 ms guards cover
  // [1.0, 1.6] s without a gap. The 1.3 s record is committed last, with
  // its timestamp intact, as a delayed capture releases it.
  log_.log_rrc(RrcState::kPch, RrcState::kDch, at_ms(1000));
  log_pdu_at(1000);
  log_pdu_at(1600);
  log_pdu_at(1300);
  const RrcStateTracker tracker(log_, cfg_);
  const EnergyBreakdown eb = tracker.energy_breakdown(at_ms(1000), at_ms(1600));
  EXPECT_DOUBLE_EQ(eb.total_joules, 0.48);  // 0.8 W * 0.6 s
  EXPECT_EQ(eb.tail_joules, 0.0);
  EXPECT_EQ(tracker.pdus_in_count(at_ms(1000), at_ms(1600)), 3u);
}

// Full-field equality between the streaming tracker's whole-run view and
// the batch long-jump mapper over the same stores.
void expect_stream_equals_batch(const core::MappingResult& live,
                                const core::MappingResult& ref,
                                const char* where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(live.mapped_count, ref.mapped_count);
  EXPECT_EQ(live.mapped_bytes, ref.mapped_bytes);
  EXPECT_EQ(live.retx_pdus, ref.retx_pdus);
  EXPECT_EQ(live.corrupt_pdus, ref.corrupt_pdus);
  ASSERT_EQ(live.packets.size(), ref.packets.size());
  for (std::size_t i = 0; i < ref.packets.size(); ++i) {
    const core::PacketMapping& a = live.packets[i];
    const core::PacketMapping& b = ref.packets[i];
    EXPECT_EQ(a.packet_uid, b.packet_uid) << "packet " << i;
    EXPECT_EQ(a.packet_ts, b.packet_ts) << "packet " << i;
    EXPECT_EQ(a.packet_size, b.packet_size) << "packet " << i;
    EXPECT_EQ(a.mapped, b.mapped) << "packet " << i;
    EXPECT_EQ(a.pdu_seqs, b.pdu_seqs) << "packet " << i;
    EXPECT_EQ(a.first_pdu_at, b.first_pdu_at) << "packet " << i;
    EXPECT_EQ(a.last_pdu_at, b.last_pdu_at) << "packet " << i;
  }
}

// The packet counts RlcChainTracker::window reports, recomputed by a scan
// of a batch mapping result.
RlcChainTracker::WindowStats scan_window(const core::MappingResult& result,
                                         sim::TimePoint start,
                                         sim::TimePoint end) {
  RlcChainTracker::WindowStats out;
  for (const core::PacketMapping& pm : result.packets) {
    if (pm.packet_ts < start || pm.packet_ts > end) continue;
    ++out.packets;
    if (pm.mapped) {
      ++out.mapped;
      out.mapped_bytes += pm.packet_size;
    }
  }
  return out;
}

// --- Live engine over a real end-to-end run ---

class LiveDiagTest : public ::testing::Test {
 protected:
  LiveDiagTest() : bed_(21), server_(bed_.network(), bed_.next_server_ip()) {
    dev_ = bed_.make_device("galaxy-s3");
  }

  void start(bool cellular = true) {
    if (cellular) {
      dev_->attach_cellular(radio::CellularConfig::umts());
    } else {
      dev_->attach_wifi();
    }
    app_ = std::make_unique<apps::SocialApp>(*dev_);
    app_->launch();
    doctor_ = std::make_unique<core::QoeDoctor>(*dev_, *app_);
    // CI reruns this suite under QOED_FAULT_PLAN (delay-free plans only:
    // the live/batch equality below holds by construction for every fault
    // except bounded delay); null in a clean environment.
    faults_ = fault::injector_from_env(21);
    if (faults_ != nullptr) faults_->install(*doctor_);
    engine_ = &doctor_->enable_diagnosis();
    driver_ =
        std::make_unique<core::FacebookDriver>(doctor_->controller(), *app_);
    app_->login("alice");
    bed_.advance(sim::sec(15));
  }

  core::BehaviorRecord upload() {
    core::BehaviorRecord rec;
    driver_->upload_post(apps::PostKind::kStatus,
                         [&](const core::BehaviorRecord& r) { rec = r; });
    bed_.advance(sim::sec(30));
    return rec;
  }

  // Asserts the finding reproduces the batch analyzers bit-exact.
  void expect_finding_matches_batch(const Finding& f) {
    const core::BehaviorRecord& rec =
        doctor_->log().records()[f.behavior_index];
    const core::QoeWindow w = core::QoeWindow::for_traffic(rec);
    EXPECT_EQ(f.window_start, w.start);
    EXPECT_EQ(f.window_end, w.end);
    EXPECT_EQ(f.action, rec.action);
    EXPECT_EQ(f.timed_out, rec.timed_out);

    const core::DeviceNetworkSplit split =
        core::device_network_split(doctor_->flows(), rec, "");
    EXPECT_EQ(f.total_s, split.total_s);
    EXPECT_EQ(f.device_s, split.device_s);
    EXPECT_EQ(f.network_s, split.network_s);
    EXPECT_EQ(f.network_on_critical_path, split.network_on_critical_path);
    EXPECT_EQ(f.has_flow, split.flow != nullptr);
    if (split.flow != nullptr) {
      EXPECT_EQ(f.flow, split.flow->key.to_string());
      EXPECT_EQ(f.hostname, split.flow->hostname);
    }
    EXPECT_EQ(f.window_bytes,
              doctor_->flows().bytes_in_window(w.start, w.end, "").total());

    radio::CellularLink* cell = dev_->cellular();
    EXPECT_EQ(f.has_radio, cell != nullptr);
    if (cell != nullptr) {
      // A tracker built over the finished log is the batch analysis.
      const RrcStateTracker batch(cell->qxdm(), cell->config().rrc);
      expect_tracker_matches_log(batch, cell->qxdm(), w.start, w.end);
      EXPECT_EQ(f.promotion_overlap, batch.promotion_in(w.start, w.end));
      EXPECT_EQ(f.transitions, batch.transitions_in_count(w.start, w.end));
      EXPECT_EQ(f.energy_j, batch.energy_joules(w.start, w.end));
      const EnergyBreakdown eb = batch.energy_breakdown(w.start, w.end);
      EXPECT_EQ(f.tail_j, eb.tail_joules);
      EXPECT_EQ(f.tail_share,
                eb.total_joules > 0 ? eb.tail_joules / eb.total_joules : 0.0);
    } else {
      EXPECT_EQ(f.energy_j, 0.0);
      EXPECT_EQ(f.transitions, 0u);
    }

    // RLC evidence: the finding's per-window counts must reproduce a fresh
    // window query (the PDUs anchoring a window's packets arrive inside the
    // window, so the end-of-run fold answers identically to the streaming
    // snapshot taken at finalize time).
    EXPECT_EQ(f.has_rlc, engine_->rlc_tracker() != nullptr);
    if (RlcChainTracker* rlc = engine_->rlc_tracker()) {
      rlc->sync();
      const auto up = rlc->window(net::Direction::kUplink, w.start, w.end);
      const auto down = rlc->window(net::Direction::kDownlink, w.start, w.end);
      EXPECT_EQ(f.rlc_retx_ul, up.retx);
      EXPECT_EQ(f.rlc_retx_dl, down.retx);
      EXPECT_EQ(f.rlc_window_packets, up.packets + down.packets);
      EXPECT_EQ(f.rlc_window_mapped, up.mapped + down.mapped);
    }
    EXPECT_EQ(f.rlc_degraded,
              f.has_rlc && f.rlc_window_packets > 0 &&
                  f.rlc_mapped_ratio < engine_->config().rlc_degraded_ratio);
  }

  core::Testbed bed_;
  apps::SocialServer server_;
  std::unique_ptr<device::Device> dev_;
  std::unique_ptr<apps::SocialApp> app_;
  std::unique_ptr<core::QoeDoctor> doctor_;
  std::unique_ptr<fault::FaultInjector> faults_;
  std::unique_ptr<core::FacebookDriver> driver_;
  DiagnosisEngine* engine_ = nullptr;
};

TEST_F(LiveDiagTest, TrackerMatchesBatchOverRealRadioLog) {
  start();
  ASSERT_FALSE(upload().timed_out);
  ASSERT_FALSE(upload().timed_out);

  RrcStateTracker* tracker = engine_->tracker();
  ASSERT_NE(tracker, nullptr);
  tracker->sync();
  ASSERT_GT(tracker->consumed_transitions(), 0u);

  const sim::TimePoint now = bed_.loop().now();
  const std::pair<double, double> windows[] = {
      {0, sim::to_seconds(now - sim::kTimeZero)},
      {10, 20},
      {14.5, 16.5},
      {0, 5},
  };
  for (const auto& [a, b] : windows) {
    expect_tracker_matches_log(*tracker, dev_->cellular()->qxdm(),
                               sim::kTimeZero + sim::sec_f(a),
                               sim::kTimeZero + sim::sec_f(b));
  }
}

TEST_F(LiveDiagTest, RlcTrackerMatchesBatchMapperMidRunAndAtEnd) {
  start();
  RlcChainTracker* rlc = engine_->rlc_tracker();
  ASSERT_NE(rlc, nullptr);

  // The downlink log loses ~9% of PDU records (QxDM-style intrinsic loss),
  // so this run exercises desync + LI re-anchoring inside the stream; the
  // equality below must hold regardless.
  const auto expect_matches_batch_now = [&](const char* where) {
    rlc->sync();
    for (const net::Direction dir :
         {net::Direction::kUplink, net::Direction::kDownlink}) {
      const core::MappingResult ref = core::RlcMapper::map(
          dev_->trace().records(), dev_->cellular()->qxdm().pdu_log(), dir);
      expect_stream_equals_batch(rlc->result(dir), ref, where);
    }
  };

  expect_matches_batch_now("after login");  // mid-run query #1
  ASSERT_FALSE(upload().timed_out);
  expect_matches_batch_now("after upload 1");  // mid-run query #2
  ASSERT_FALSE(upload().timed_out);
  expect_matches_batch_now("at end");
  ASSERT_GT(rlc->result(net::Direction::kUplink).mapped_count, 0u);
  ASSERT_GT(rlc->result(net::Direction::kDownlink).packets.size(), 0u);
}

TEST_F(LiveDiagTest, RlcWindowStatsMatchManualScanOfBatchResult) {
  start();
  ASSERT_FALSE(upload().timed_out);
  ASSERT_FALSE(upload().timed_out);
  RlcChainTracker* rlc = engine_->rlc_tracker();
  ASSERT_NE(rlc, nullptr);
  rlc->sync();

  const sim::TimePoint now = bed_.loop().now();
  const std::pair<double, double> windows[] = {
      {0, sim::to_seconds(now - sim::kTimeZero)}, {14, 18}, {15.5, 16.0},
      {200, 300},  // empty: past the end of the run
  };
  for (const net::Direction dir :
       {net::Direction::kUplink, net::Direction::kDownlink}) {
    const core::MappingResult ref = core::RlcMapper::map(
        dev_->trace().records(), dev_->cellular()->qxdm().pdu_log(), dir);
    for (const auto& [a, b] : windows) {
      const sim::TimePoint start = sim::kTimeZero + sim::sec_f(a);
      const sim::TimePoint end = sim::kTimeZero + sim::sec_f(b);
      const RlcChainTracker::WindowStats ws = rlc->window(dir, start, end);
      const RlcChainTracker::WindowStats manual = scan_window(ref, start, end);
      EXPECT_EQ(ws.packets, manual.packets) << "[" << a << ", " << b << "]";
      EXPECT_EQ(ws.mapped, manual.mapped) << "[" << a << ", " << b << "]";
      EXPECT_EQ(ws.mapped_bytes, manual.mapped_bytes)
          << "[" << a << ", " << b << "]";
    }
    // The whole-run window's retransmission count is exactly the batch
    // mapper's total for the direction.
    EXPECT_EQ(rlc->window(dir, sim::kTimeZero, now).retx, ref.retx_pdus);
  }
}

TEST_F(LiveDiagTest, FindingsMatchBatchAnalyzersFieldForField) {
  start();
  for (int i = 0; i < 3; ++i) ASSERT_FALSE(upload().timed_out);
  engine_->finalize_all();

  const auto& findings = engine_->findings();
  ASSERT_EQ(findings.size(), doctor_->log().records().size());
  ASSERT_EQ(findings.size(), 3u);
  for (const Finding& f : findings) expect_finding_matches_batch(f);
}

TEST_F(LiveDiagTest, FindingsStreamOutMidRunBeforeFinalizeAll) {
  start();
  ASSERT_FALSE(upload().timed_out);
  // The 30 s the upload advanced are well past the window's trailing probe,
  // and the radio tail demotions that follow the transfer delivered events
  // behind it — the finding must already be finalized, no flush needed.
  EXPECT_EQ(engine_->findings().size(), 1u);
  EXPECT_EQ(engine_->pending(), 0u);
  expect_finding_matches_batch(engine_->findings()[0]);
}

TEST_F(LiveDiagTest, WifiRunDiagnosesWithoutRadio) {
  start(/*cellular=*/false);
  ASSERT_FALSE(upload().timed_out);
  engine_->finalize_all();
  ASSERT_EQ(engine_->findings().size(), 1u);
  const Finding& f = engine_->findings()[0];
  EXPECT_FALSE(f.has_radio);
  EXPECT_EQ(engine_->tracker(), nullptr);
  EXPECT_EQ(engine_->rlc_tracker(), nullptr);  // no cellular link, no mapper
  EXPECT_FALSE(f.has_rlc);
  expect_finding_matches_batch(f);
}

TEST_F(LiveDiagTest, ResetCollectionStartsAFreshDiagnosisPhase) {
  start();
  ASSERT_FALSE(upload().timed_out);
  engine_->finalize_all();
  ASSERT_EQ(engine_->findings().size(), 1u);

  doctor_->reset_collection();
  EXPECT_EQ(engine_->findings().size(), 0u);
  EXPECT_EQ(engine_->pending(), 0u);

  ASSERT_FALSE(upload().timed_out);
  engine_->finalize_all();
  ASSERT_EQ(engine_->findings().size(), 1u);
  expect_finding_matches_batch(engine_->findings()[0]);
}

TEST_F(LiveDiagTest, CountersAndTableSurfaceFindings) {
  start();
  ASSERT_FALSE(upload().timed_out);
  engine_->finalize_all();
  ASSERT_EQ(engine_->findings().size(), 1u);

  obs::MetricsRegistry reg;
  engine_->export_metrics(reg);
  EXPECT_EQ(reg.counters().at("diag.findings"), 1.0);
  EXPECT_EQ(reg.counters().at("diag.energy_j"),
            engine_->findings()[0].energy_j);
  EXPECT_EQ(reg.counters().at("diag.tail_j"), engine_->findings()[0].tail_j);
  EXPECT_TRUE(reg.counters().count("diag.network_critical"));
  EXPECT_TRUE(reg.counters().count("diag.promotion_overlap"));
  engine_->findings_table();  // renders without crashing
}

// --- RlcChainTracker over a long synthetic uplink stream ---

// An uplink trace plus the RLC segmentation the radio layer would log for
// it: fixed 500-byte PDUs walking the concatenated wire stream, LIs at
// packet ends, first_two from the deterministic wire bytes. About 0.3% of
// the PDU records are lost (resync) and 0.4% duplicated as
// retransmissions; sequence numbers start 96 short of the 12-bit AM wrap
// (3GPP TS 25.322) and cross it several times.
struct SyntheticRlcStream {
  std::vector<net::PacketRecord> packets;
  std::vector<radio::PduRecord> pdus;
  // Index of the last packet contributing bytes to pdus[i]; the record is
  // observable once that packet has been captured.
  std::vector<std::size_t> pdu_done_pkt;
};

SyntheticRlcStream make_rlc_stream(std::uint64_t seed,
                                   std::size_t packet_count) {
  sim::Rng rng(seed);
  SyntheticRlcStream s;
  sim::TimePoint now = sim::kTimeZero;
  for (std::size_t i = 0; i < packet_count; ++i) {
    now = now + sim::usec(rng.uniform_int(40, 400));
    net::PacketRecord r;
    r.uid = i + 1;
    r.timestamp = now;
    r.direction = net::Direction::kUplink;
    r.src_ip = net::IpAddr(10, 0, 0, 2);
    r.src_port = 40000;
    r.dst_ip = net::IpAddr(31, 13, 1, 7);
    r.dst_port = 443;
    r.payload_size = static_cast<std::uint32_t>(rng.uniform_int(160, 1360));
    r.flags.ack = true;
    s.packets.push_back(r);
  }

  constexpr std::uint16_t kPduPayload = 500;
  std::uint32_t seq = core::RlcMapper::kSnModulus - 96;
  std::size_t p = 0;
  std::uint32_t o = 0;  // bytes of packet p already segmented
  sim::TimePoint pdu_now = sim::kTimeZero;
  while (p < s.packets.size()) {
    const std::uint32_t size = s.packets[p].total_size();
    radio::PduRecord rec;
    rec.dir = net::Direction::kUplink;
    rec.seq = seq;
    seq = (seq + 1) % core::RlcMapper::kSnModulus;
    pdu_now = std::max(pdu_now + sim::usec(5),
                       s.packets[p].timestamp + sim::usec(20));
    rec.at = pdu_now;
    rec.first_two[0] = net::wire_byte(s.packets[p].uid, o);
    if (o + 1 < size) {
      rec.first_two[1] = net::wire_byte(s.packets[p].uid, o + 1);
    } else if (p + 1 < s.packets.size()) {
      rec.first_two[1] = net::wire_byte(s.packets[p + 1].uid, 0);
    }
    std::uint16_t remaining = kPduPayload;
    std::uint16_t cursor = 0;
    while (remaining > 0 && p < s.packets.size()) {
      const std::uint32_t take =
          std::min<std::uint32_t>(remaining, s.packets[p].total_size() - o);
      o += take;
      cursor = static_cast<std::uint16_t>(cursor + take);
      remaining = static_cast<std::uint16_t>(remaining - take);
      if (o == s.packets[p].total_size()) {
        rec.li_ends.push_back(cursor);
        ++p;
        o = 0;
      }
    }
    rec.payload_len = cursor;
    const std::size_t done = o == 0 ? p - 1 : p;
    if (rng.uniform() < 0.003) continue;  // lost from the log
    s.pdus.push_back(rec);
    s.pdu_done_pkt.push_back(done);
    if (rng.uniform() < 0.004) {
      rec.retransmission = true;
      s.pdus.push_back(rec);
      s.pdu_done_pkt.push_back(done);
    }
  }
  return s;
}

TEST(RlcChainTrackerTest, WindowsMatchBatchAcrossSnWrapsWithLossAndDups) {
  const SyntheticRlcStream stream = make_rlc_stream(47, 8000);
  std::size_t wraps = 0, lost = 0, dups = 0;
  for (std::size_t i = 1; i < stream.pdus.size(); ++i) {
    const std::uint32_t prev = stream.pdus[i - 1].seq;
    const std::uint32_t cur = stream.pdus[i].seq;
    if (cur < prev) ++wraps;
    if (stream.pdus[i].retransmission) ++dups;
    const std::uint32_t step = (cur + core::RlcMapper::kSnModulus - prev) %
                               core::RlcMapper::kSnModulus;
    if (step > 1) lost += step - 1;
  }
  ASSERT_GE(wraps, 4u);
  ASSERT_GT(lost, 0u);
  ASSERT_GT(dups, 0u);

  // Feed the stream in 64 chunks. After each, the tracker's window over
  // the chunk must equal a scan of one batch map over everything so far.
  constexpr std::size_t kCheckpoints = 64;
  const std::size_t chunk =
      (stream.packets.size() + kCheckpoints - 1) / kCheckpoints;
  std::vector<net::PacketRecord> trace;
  radio::QxdmLogger log{sim::Rng(1)};
  RlcChainTracker tracker(trace, log);
  std::size_t next_pdu = 0;
  std::size_t checkpoints = 0;
  for (std::size_t first = 0; first < stream.packets.size(); first += chunk) {
    const std::size_t last = std::min(stream.packets.size(), first + chunk);
    trace.insert(trace.end(), stream.packets.begin() + first,
                 stream.packets.begin() + last);
    for (; next_pdu < stream.pdus.size() &&
           stream.pdu_done_pkt[next_pdu] < last;
         ++next_pdu) {
      log.commit_pdu(stream.pdus[next_pdu]);
    }
    tracker.sync();
    const sim::TimePoint start = stream.packets[first].timestamp;
    const sim::TimePoint end = stream.packets[last - 1].timestamp;
    const RlcChainTracker::WindowStats live =
        tracker.window(net::Direction::kUplink, start, end);
    const RlcChainTracker::WindowStats batch = scan_window(
        core::RlcMapper::map(trace, log.pdu_log(), net::Direction::kUplink),
        start, end);
    EXPECT_EQ(live.packets, batch.packets) << "checkpoint " << checkpoints;
    EXPECT_EQ(live.mapped, batch.mapped) << "checkpoint " << checkpoints;
    EXPECT_EQ(live.mapped_bytes, batch.mapped_bytes)
        << "checkpoint " << checkpoints;
    ++checkpoints;
  }
  EXPECT_EQ(checkpoints, kCheckpoints);
  EXPECT_GT(tracker.mapped_ratio(net::Direction::kUplink), 0.9);

  // The final state equals one batch map over the complete logs.
  expect_stream_equals_batch(
      tracker.result(net::Direction::kUplink),
      core::RlcMapper::map(stream.packets, stream.pdus,
                           net::Direction::kUplink),
      "whole stream");
}

// --- Findings export determinism ---

std::string run_and_export_findings(std::uint64_t seed) {
  core::Testbed bed(seed);
  apps::SocialServer server(bed.network(), bed.next_server_ip());
  auto dev = bed.make_device("phone");
  dev->attach_cellular(radio::CellularConfig::umts());
  apps::SocialApp app(*dev);
  app.launch();
  core::QoeDoctor doctor(*dev, app);
  auto faults = fault::injector_from_env(seed);
  if (faults != nullptr) faults->install(doctor);
  DiagnosisEngine& engine = doctor.enable_diagnosis();
  core::FacebookDriver driver(doctor.controller(), app);
  app.login("bob");
  bed.advance(sim::sec(10));
  for (int i = 0; i < 2; ++i) {
    driver.upload_post(apps::PostKind::kStatus,
                       [](const core::BehaviorRecord&) {});
    bed.advance(sim::sec(20));
  }
  if (faults != nullptr) faults->flush();
  engine.finalize_all();
  return FindingsJsonlSink(engine).to_string();
}

TEST(FindingsSinkTest, ByteIdenticalAcrossIdenticalRuns) {
  const std::string a = run_and_export_findings(77);
  const std::string b = run_and_export_findings(77);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);

  std::istringstream lines(a);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"action\":"), std::string::npos);
    EXPECT_NE(line.find("\"energy_j\":"), std::string::npos);
  }
  EXPECT_EQ(n, 2u);  // one line per finding
}

TEST(FindingsSinkTest, CampaignJsonWithDiagCountersIdenticalAcrossJobs) {
  const auto factory = [](std::uint64_t seed, const core::RunSpec&) {
    core::RunResult out;
    core::Testbed bed(seed);
    apps::SocialServer server(bed.network(), bed.next_server_ip());
    auto dev = bed.make_device("phone");
    dev->attach_cellular(radio::CellularConfig::umts());
    apps::SocialApp app(*dev);
    app.launch();
    core::QoeDoctor doctor(*dev, app);
    auto faults = fault::injector_from_env(seed);
    if (faults != nullptr) faults->install(doctor);
    DiagnosisEngine& engine = doctor.enable_diagnosis();
    core::FacebookDriver driver(doctor.controller(), app);
    app.login("carol");
    bed.advance(sim::sec(10));
    driver.upload_post(apps::PostKind::kStatus,
                       [](const core::BehaviorRecord&) {});
    bed.advance(sim::sec(20));
    if (faults != nullptr) faults->flush();
    engine.finalize_all();
    for (const Finding& f : engine.findings()) {
      out.add_sample("diag.total_s", f.total_s);
      out.add_sample("diag.energy_j", f.energy_j);
    }
    engine.export_metrics(out.registry);
    return out;
  };

  core::CampaignConfig cfg;
  cfg.name = "diag-campaign";
  cfg.runs = 4;
  cfg.master_seed = 5;
  cfg.jobs = 1;
  const core::CampaignResult serial = core::Campaign(cfg).run(factory);
  cfg.jobs = 3;
  const core::CampaignResult parallel = core::Campaign(cfg).run(factory);

  const auto& counters = serial.registry.counters();
  EXPECT_GT(counters.at("diag.findings"), 0.0);
  // The whole-run RLC mapper counters ride along with the diag export and
  // must pool identically across jobs.
  EXPECT_GT(counters.at("rlc.ul.packets"), 0.0);
  EXPECT_TRUE(counters.count("rlc.corrupt_pdu"));
  EXPECT_TRUE(counters.count("rlc.dl.retx"));
  // jobs is part of the export (it describes the execution); mask it so the
  // comparison covers exactly the deterministic payload.
  std::string a = core::CampaignJsonSink(serial).to_string();
  std::string b = core::CampaignJsonSink(parallel).to_string();
  const auto mask = [](std::string& s) {
    const auto pos = s.find("\"jobs\":");
    ASSERT_NE(pos, std::string::npos);
    const auto end = s.find(',', pos);
    s.erase(pos, end - pos);
  };
  mask(a);
  mask(b);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace qoed::diag
