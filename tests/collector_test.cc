// Tests of the unified collection spine (core::Collector): the merged
// cross-layer timeline, subscriber API, per-layer counters, the shared
// start/stop/clear contract, and the export sinks built on top.
#include "core/collector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <sstream>
#include <vector>

#include "apps/social_server.h"
#include "core/export_sink.h"
#include "core/pcap_writer.h"
#include "core/qoe_doctor.h"

namespace qoed::core {
namespace {

// --- QxdmLogger front-end contract (regression: clear() must reset the
// record-loss drop counter alongside the logs, so a post-clear phase reports
// only its own losses) ---

TEST(QxdmLoggerTest, ClearResetsDropAndSuppressCounters) {
  radio::QxdmLogger log(sim::Rng(7));
  log.set_record_loss(1.0, 1.0);  // every PDU record silently lost
  radio::PduRecord pdu;
  pdu.payload_len = 40;
  log.log_pdu(pdu);
  log.log_pdu(pdu);
  EXPECT_TRUE(log.pdu_log().empty());
  EXPECT_EQ(log.pdus_dropped_from_log(), 2u);

  log.stop();
  log.log_rrc(radio::RrcState::kPch, radio::RrcState::kDch, sim::kTimeZero);
  log.log_pdu(pdu);
  log.log_status({});
  EXPECT_EQ(log.records_suppressed(), 3u);
  EXPECT_TRUE(log.rrc_log().empty());

  log.clear();
  EXPECT_EQ(log.pdus_dropped_from_log(), 0u);
  EXPECT_EQ(log.records_suppressed(), 0u);
  EXPECT_TRUE(log.pdu_log().empty());
  EXPECT_TRUE(log.rrc_log().empty());
  EXPECT_TRUE(log.status_log().empty());

  // Still stopped after clear — start() is the only way to resume.
  log.log_pdu(pdu);
  EXPECT_EQ(log.records_suppressed(), 1u);
  log.start();
  log.set_record_loss(0.0, 0.0);
  log.log_pdu(pdu);
  EXPECT_EQ(log.pdu_log().size(), 1u);
}

// --- Spine over a real end-to-end run ---

class CollectorSpineTest : public ::testing::Test {
 protected:
  CollectorSpineTest()
      : bed_(21), server_(bed_.network(), bed_.next_server_ip()) {
    dev_ = bed_.make_device("galaxy-s3");
  }

  void start() {
    dev_->attach_cellular(radio::CellularConfig::umts());
    app_ = std::make_unique<apps::SocialApp>(*dev_);
    app_->launch();
    doctor_ = std::make_unique<QoeDoctor>(*dev_, *app_);
    driver_ = std::make_unique<FacebookDriver>(doctor_->controller(), *app_);
    app_->login("alice");
    bed_.advance(sim::sec(15));
  }

  // Drives one status upload to completion; returns the behavior record.
  BehaviorRecord upload() {
    BehaviorRecord rec;
    driver_->upload_post(apps::PostKind::kStatus,
                         [&](const BehaviorRecord& r) { rec = r; });
    bed_.advance(sim::sec(30));
    return rec;
  }

  Testbed bed_;
  apps::SocialServer server_;
  std::unique_ptr<device::Device> dev_;
  std::unique_ptr<apps::SocialApp> app_;
  std::unique_ptr<QoeDoctor> doctor_;
  std::unique_ptr<FacebookDriver> driver_;
};

TEST_F(CollectorSpineTest, SubscriberSeesInterleavedLayersInOrder) {
  start();
  Collector& c = doctor_->collector();

  std::vector<Event> seen;
  CollectorSink* sub = c.subscribe(
      kLayerAll,
      [&](const Collector&, const Event& e) { seen.push_back(e); });
  const std::size_t timeline_before = c.timeline().size();
  const BehaviorRecord rec = upload();
  ASSERT_FALSE(rec.timed_out);
  c.unsubscribe(sub);

  // The upload produced live events on every layer, delivered in capture
  // order (nondecreasing timestamps, strictly increasing seq).
  ASSERT_FALSE(seen.empty());
  std::set<Layer> layers;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    layers.insert(seen[i].layer);
    if (i > 0) {
      EXPECT_GE(seen[i].at, seen[i - 1].at);
      EXPECT_GT(seen[i].seq, seen[i - 1].seq);
    }
  }
  EXPECT_TRUE(layers.count(kLayerUi));
  EXPECT_TRUE(layers.count(kLayerPacket));
  EXPECT_TRUE(layers.count(kLayerRadio));

  // Live events extended the merged timeline, and payload lookup round-trips
  // through the envelope back to the front-end stores.
  EXPECT_EQ(c.timeline().size(), timeline_before + seen.size());
  for (const Event& e : seen) {
    switch (e.kind) {
      case EventKind::kBehavior:
        EXPECT_EQ(&c.behavior(e), &doctor_->log().records()[e.index]);
        break;
      case EventKind::kPacket:
        EXPECT_EQ(&c.packet(e), &dev_->trace().records()[e.index]);
        break;
      case EventKind::kPdu:
        EXPECT_EQ(&c.pdu(e), &dev_->cellular()->qxdm().pdu_log()[e.index]);
        break;
      case EventKind::kRrcTransition:
        EXPECT_EQ(&c.rrc_transition(e),
                  &dev_->cellular()->qxdm().rrc_log()[e.index]);
        break;
      case EventKind::kStatus:
        EXPECT_EQ(&c.status(e),
                  &dev_->cellular()->qxdm().status_log()[e.index]);
        break;
    }
  }

  // The full timeline (backfill + live) is itself timestamp-ordered.
  const auto& tl = c.timeline();
  for (std::size_t i = 1; i < tl.size(); ++i) {
    EXPECT_GE(tl[i].at, tl[i - 1].at);
  }
}

TEST_F(CollectorSpineTest, LayerMaskFiltersEvents) {
  start();
  Collector& c = doctor_->collector();
  std::vector<Event> packets, radio;
  c.subscribe(kLayerPacket,
              [&](const Collector&, const Event& e) { packets.push_back(e); });
  c.subscribe(kLayerRadio,
              [&](const Collector&, const Event& e) { radio.push_back(e); });
  ASSERT_FALSE(upload().timed_out);

  ASSERT_FALSE(packets.empty());
  ASSERT_FALSE(radio.empty());
  for (const Event& e : packets) {
    EXPECT_EQ(e.layer, kLayerPacket);
    EXPECT_EQ(e.kind, EventKind::kPacket);
  }
  for (const Event& e : radio) EXPECT_EQ(e.layer, kLayerRadio);
}

TEST_F(CollectorSpineTest, CountersMatchFrontEndStores) {
  start();
  ASSERT_FALSE(upload().timed_out);
  const Collector& c = doctor_->collector();
  const auto& qxdm = dev_->cellular()->qxdm();

  const LayerCounters ui = c.counters(kLayerUi);
  const LayerCounters pkt = c.counters(kLayerPacket);
  const LayerCounters rad = c.counters(kLayerRadio);
  EXPECT_EQ(ui.events, doctor_->log().records().size());
  EXPECT_EQ(pkt.events, dev_->trace().records().size());
  EXPECT_EQ(rad.events, qxdm.rrc_log().size() + qxdm.pdu_log().size() +
                            qxdm.status_log().size());
  EXPECT_EQ(c.total_events(), ui.events + pkt.events + rad.events);
  EXPECT_EQ(c.timeline().size(), c.total_events());

  // Packet bytes = total IP bytes in both directions.
  EXPECT_EQ(pkt.bytes, dev_->trace().bytes(net::Direction::kUplink) +
                           dev_->trace().bytes(net::Direction::kDownlink));
  // Radio drops surface QxDM's intrinsic record loss.
  EXPECT_EQ(rad.dropped, qxdm.pdus_dropped_from_log());
  EXPECT_EQ(ui.high_water, ui.events);
  EXPECT_EQ(pkt.high_water, pkt.events);

  // The metrics surface carries the same numbers.
  obs::MetricsRegistry reg;
  c.export_metrics(reg);
  EXPECT_EQ(reg.counters().at("collector.packet.events"),
            static_cast<double>(pkt.events));
  EXPECT_EQ(reg.counters().at("collector.radio.dropped"),
            static_cast<double>(rad.dropped));
  EXPECT_EQ(reg.counters().at("collector.ui.events"),
            static_cast<double>(ui.events));
}

TEST_F(CollectorSpineTest, StopCountsDropsAndClearResetsAllLayers) {
  start();
  ASSERT_FALSE(upload().timed_out);
  Collector& c = doctor_->collector();
  const std::uint64_t packet_events = c.counters(kLayerPacket).events;
  ASSERT_GT(packet_events, 0u);

  // Stopped spine: front-ends drop instead of storing, and the timeline
  // does not grow.
  c.stop();
  EXPECT_FALSE(dev_->trace().running());
  EXPECT_FALSE(doctor_->log().running());
  EXPECT_FALSE(dev_->cellular()->qxdm().running());
  const BehaviorRecord stopped_rec = upload();  // runs, but nothing recorded
  EXPECT_FALSE(stopped_rec.timed_out);
  EXPECT_EQ(c.counters(kLayerPacket).events, packet_events);
  EXPECT_GT(c.counters(kLayerPacket).dropped, 0u);
  EXPECT_GT(c.counters(kLayerUi).dropped, 0u);
  EXPECT_GT(c.counters(kLayerRadio).dropped, 0u);

  // clear() empties every store, resets drop counters, keeps high-water.
  const std::uint64_t hw = c.counters(kLayerPacket).high_water;
  c.clear();
  EXPECT_TRUE(c.timeline().empty());
  EXPECT_EQ(c.total_events(), 0u);
  for (Layer layer : {kLayerUi, kLayerPacket, kLayerRadio}) {
    EXPECT_EQ(c.counters(layer).events, 0u);
    EXPECT_EQ(c.counters(layer).dropped, 0u);
  }
  EXPECT_EQ(c.counters(kLayerPacket).high_water, hw);
  EXPECT_TRUE(dev_->trace().records().empty());
  EXPECT_TRUE(doctor_->log().records().empty());
  EXPECT_TRUE(dev_->cellular()->qxdm().pdu_log().empty());

  // start() resumes collection end-to-end.
  c.start();
  ASSERT_FALSE(upload().timed_out);
  EXPECT_GT(c.counters(kLayerPacket).events, 0u);
  EXPECT_EQ(c.counters(kLayerPacket).dropped, 0u);
}

TEST_F(CollectorSpineTest, FrontEndClearRemovesLayerFromTimeline) {
  start();
  ASSERT_FALSE(upload().timed_out);
  Collector& c = doctor_->collector();
  ASSERT_GT(c.counters(kLayerPacket).events, 0u);
  ASSERT_GT(c.counters(kLayerRadio).events, 0u);

  std::uint32_t cleared_mask = 0;
  class ClearWatch final : public CollectorSink {
   public:
    explicit ClearWatch(std::uint32_t& mask) : mask_(mask) {}
    void on_event(const Collector&, const Event&) override {}
    void on_layers_cleared(const Collector&, std::uint32_t m) override {
      mask_ |= m;
    }

   private:
    std::uint32_t& mask_;
  } watch(cleared_mask);
  c.subscribe(kLayerAll, &watch);

  // Clearing one front-end directly must drop exactly that layer's
  // envelopes — indices never dangle.
  dev_->trace().clear();
  c.unsubscribe(&watch);
  EXPECT_EQ(cleared_mask, static_cast<std::uint32_t>(kLayerPacket));
  EXPECT_EQ(c.counters(kLayerPacket).events, 0u);
  EXPECT_GT(c.counters(kLayerRadio).events, 0u);
  EXPECT_GT(c.counters(kLayerUi).events, 0u);
  for (const Event& e : c.timeline()) {
    EXPECT_NE(e.layer, kLayerPacket);
  }
}

TEST_F(CollectorSpineTest, UnsubscribedOwnedFunctionSinkStopsDelivery) {
  start();
  Collector& c = doctor_->collector();
  std::size_t delivered = 0;
  CollectorSink* owned = c.subscribe(
      kLayerAll, [&](const Collector&, const Event&) { ++delivered; });
  ASSERT_FALSE(upload().timed_out);
  ASSERT_GT(delivered, 0u);

  // Unsubscribing the collector-owned handle must stop delivery cold; the
  // next upload's events don't reach the dead sink.
  c.unsubscribe(owned);
  const std::size_t at_unsubscribe = delivered;
  ASSERT_FALSE(upload().timed_out);
  EXPECT_EQ(delivered, at_unsubscribe);
}

TEST_F(CollectorSpineTest, SubscriberAddedMidRunSeesOnlySubsequentEvents) {
  start();
  ASSERT_FALSE(upload().timed_out);
  Collector& c = doctor_->collector();
  const std::uint64_t seq_floor = c.timeline().back().seq;

  std::vector<Event> seen;
  c.subscribe(kLayerAll,
              [&](const Collector&, const Event& e) { seen.push_back(e); });
  ASSERT_FALSE(upload().timed_out);

  // Nothing already in the timeline is replayed to a late subscriber; every
  // delivered event postdates the subscription point.
  ASSERT_FALSE(seen.empty());
  for (const Event& e : seen) EXPECT_GT(e.seq, seq_floor);
}

TEST_F(CollectorSpineTest, TimelineJsonlOnEmptyTimelineIsEmpty) {
  start();
  Collector& c = doctor_->collector();
  ASSERT_FALSE(upload().timed_out);
  c.clear();
  ASSERT_TRUE(c.timeline().empty());
  EXPECT_EQ(TimelineJsonlSink(c).to_string(), "");

  // A detached spine (no front-ends at all) exports the same nothing.
  Collector detached;
  EXPECT_EQ(TimelineJsonlSink(detached).to_string(), "");
}

// --- Export sinks ---

TEST_F(CollectorSpineTest, SinksMatchLegacyExporters) {
  start();
  ASSERT_FALSE(upload().timed_out);
  const auto& trace = dev_->trace().records();
  const auto pcap_bytes = to_pcap(trace);
  const std::string pcap_str = PcapSink(trace).to_string();
  ASSERT_EQ(pcap_str.size(), pcap_bytes.size());
  EXPECT_EQ(0, std::memcmp(pcap_str.data(), pcap_bytes.data(),
                           pcap_bytes.size()));
}

TEST_F(CollectorSpineTest, TimelineJsonlDeterministicOneLinePerEvent) {
  start();
  ASSERT_FALSE(upload().timed_out);
  const Collector& c = doctor_->collector();

  const std::string a = TimelineJsonlSink(c).to_string();
  const std::string b = TimelineJsonlSink(c).to_string();
  EXPECT_EQ(a, b);  // deterministic

  std::istringstream lines(a);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"t\":"), std::string::npos);
    EXPECT_NE(line.find("\"layer\":"), std::string::npos);
  }
  EXPECT_EQ(n, c.timeline().size());
}

// --- per-layer health states (degraded-mode diagnosis) ---

sim::TimePoint health_at(double s) { return sim::kTimeZero + sim::sec_f(s); }

class CollectorHealthTest : public ::testing::Test {
 protected:
  CollectorHealthTest() : bed_(3) {
    dev_ = bed_.make_device("phone");
    dev_->attach_cellular(radio::CellularConfig::umts());
    collector_.attach(*dev_, log_);
  }

  void add_packet(double at_s) {
    net::PacketRecord p;
    p.timestamp = health_at(at_s);
    p.payload_size = 100;
    dev_->trace().add(p);
  }

  Testbed bed_;
  std::unique_ptr<device::Device> dev_;
  AppBehaviorLog log_;
  Collector collector_;
};

TEST_F(CollectorHealthTest, IdleAttachedLayersAreHealthy) {
  EXPECT_EQ(collector_.health(kLayerUi), LayerHealth::kHealthy);
  EXPECT_EQ(collector_.health(kLayerPacket), LayerHealth::kHealthy);
  EXPECT_EQ(collector_.health(kLayerRadio), LayerHealth::kHealthy);
  EXPECT_STREQ(to_string(LayerHealth::kHealthy), "healthy");
  EXPECT_STREQ(to_string(LayerHealth::kDegraded), "degraded");
  EXPECT_STREQ(to_string(LayerHealth::kLost), "lost");
}

TEST_F(CollectorHealthTest, OutOfOrderArrivalsDegradeTheLayer) {
  add_packet(1.0);
  EXPECT_EQ(collector_.health(kLayerPacket), LayerHealth::kHealthy);
  add_packet(0.5);  // back-stamped: capture went backwards
  EXPECT_EQ(collector_.counters(kLayerPacket).out_of_order, 1u);
  EXPECT_EQ(collector_.health(kLayerPacket), LayerHealth::kDegraded);
}

TEST_F(CollectorHealthTest, SilentLayerDegradesThenIsLostThenRecovers) {
  auto& qxdm = dev_->cellular()->qxdm();
  qxdm.log_rrc(radio::RrcState::kPch, radio::RrcState::kFach, health_at(1));
  add_packet(1.0);
  EXPECT_EQ(collector_.health(kLayerRadio), LayerHealth::kHealthy);

  // Packets keep arriving while the radio log stays silent: the gap to the
  // spine's newest event crosses stale_after (5 s), then lost_after (20 s).
  add_packet(10.0);
  EXPECT_EQ(collector_.health(kLayerRadio), LayerHealth::kDegraded);
  EXPECT_EQ(collector_.health(kLayerPacket), LayerHealth::kHealthy);
  add_packet(25.0);
  EXPECT_EQ(collector_.health(kLayerRadio), LayerHealth::kLost);

  // A fresh radio record closes the gap — health is a live signal.
  qxdm.log_rrc(radio::RrcState::kFach, radio::RrcState::kDch, health_at(25));
  EXPECT_EQ(collector_.health(kLayerRadio), LayerHealth::kHealthy);
}

TEST_F(CollectorHealthTest, ExcessiveDropsDegradeButToleratedDropsDoNot) {
  // One drop out of two offers (50%) is far past the 2% tolerance.
  collector_.stop();
  add_packet(1.0);
  collector_.start();
  add_packet(1.5);
  EXPECT_EQ(collector_.counters(kLayerPacket).dropped, 1u);
  EXPECT_EQ(collector_.health(kLayerPacket), LayerHealth::kDegraded);

  // With enough delivered records the same single drop falls back inside
  // the tolerated fraction (QxDM-style intrinsic loss must not flag).
  for (int i = 0; i < 60; ++i) add_packet(1.5 + i * 0.01);
  EXPECT_EQ(collector_.health(kLayerPacket), LayerHealth::kHealthy);
}

TEST_F(CollectorHealthTest, DetachedLayerIsLostAndPayloadIsNull) {
  add_packet(1.0);
  ASSERT_EQ(collector_.timeline().size(), 1u);
  const Event e = collector_.timeline()[0];
  EXPECT_NE(std::get<const net::PacketRecord*>(collector_.payload(e)),
            nullptr);

  collector_.detach();
  EXPECT_EQ(collector_.health(kLayerUi), LayerHealth::kLost);
  EXPECT_EQ(collector_.health(kLayerPacket), LayerHealth::kLost);
  EXPECT_EQ(collector_.health(kLayerRadio), LayerHealth::kLost);
  // A held envelope resolves to a defined null payload, not UB.
  EXPECT_EQ(std::get<const net::PacketRecord*>(collector_.payload(e)),
            nullptr);
}

TEST_F(CollectorHealthTest, StaleEnvelopeIndexYieldsNullPayload) {
  add_packet(1.0);
  const Event e = collector_.timeline()[0];
  dev_->trace().clear();  // store emptied; the held envelope is now stale
  EXPECT_EQ(std::get<const net::PacketRecord*>(collector_.payload(e)),
            nullptr);
}

TEST_F(CollectorHealthTest, CountersSurfaceHealthAndOutOfOrder) {
  add_packet(1.0);
  add_packet(0.5);
  obs::MetricsRegistry reg;
  collector_.export_metrics(reg);
  EXPECT_EQ(reg.counters().at("collector.packet.out_of_order"), 1.0);
  EXPECT_EQ(reg.counters().at("collector.packet.health"), 1.0);  // kDegraded
  EXPECT_EQ(reg.counters().at("collector.ui.health"), 0.0);      // kHealthy
  collector_.counters_table().print();  // renders the health column
}

// --- timeline ordering under back-stamps, backlog merges and clears ---

TEST_F(CollectorHealthTest, BackStampLandsAfterEqualTimestamps) {
  add_packet(1.0);
  add_packet(2.0);
  add_packet(3.0);
  add_packet(1.5);  // back-stamped: sorted insert
  add_packet(2.0);  // back-stamped onto an existing timestamp
  const std::vector<Event>& tl = collector_.timeline();
  ASSERT_EQ(tl.size(), 5u);
  EXPECT_TRUE(std::is_sorted(
      tl.begin(), tl.end(),
      [](const Event& a, const Event& b) { return a.at < b.at; }));
  // Store indices in timeline order: the second 2.0 s packet lands after
  // the first (upper_bound semantics), and the tail shifted right.
  std::vector<std::uint32_t> order;
  for (const Event& e : tl) order.push_back(e.index);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 3, 1, 4, 2}));
}

TEST_F(CollectorHealthTest, BackStampKeepsTimelineSortedAndAligned) {
  add_packet(1.0);
  add_packet(2.0);
  add_packet(1.5);  // back-stamped: sorted insert into the timeline
  const std::vector<Event>& tl = collector_.timeline();
  ASSERT_EQ(tl.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      tl.begin(), tl.end(),
      [](const Event& a, const Event& b) { return a.at < b.at; }));
  // Every envelope stays aligned with its store: its timestamp matches the
  // record its index points at, and its tags name the packet layer.
  const auto& records = dev_->trace().records();
  for (const Event& e : tl) {
    ASSERT_LT(e.index, records.size());
    EXPECT_EQ(e.at, records[e.index].timestamp);
    EXPECT_EQ(e.at, collector_.packet(e).timestamp);
    EXPECT_EQ(e.layer, kLayerPacket);
    EXPECT_EQ(e.kind, EventKind::kPacket);
  }
  EXPECT_EQ(collector_.counters(kLayerPacket).events, 3u);
}

TEST_F(CollectorHealthTest, AttachMergesRadioBacklogByTime) {
  // Stores filled while detached: packets at 0, 2, 4, 6 s and RRC records
  // at 1, 3, 4, 5, 7 s — the 4 s record ties a packet.
  collector_.detach();
  auto& qxdm = dev_->cellular()->qxdm();
  for (double at : {0.0, 2.0, 4.0, 6.0}) add_packet(at);
  for (double at : {1.0, 3.0, 4.0, 5.0, 7.0}) {
    qxdm.log_rrc(radio::RrcState::kPch, radio::RrcState::kFach, health_at(at));
  }
  // attach() backfills the packets, then merges the radio backlog into them.
  collector_.attach(*dev_, log_);
  const std::vector<Event>& tl = collector_.timeline();
  ASSERT_EQ(tl.size(), 9u);
  const std::vector<std::pair<Layer, std::uint32_t>> expected = {
      {kLayerPacket, 0}, {kLayerRadio, 0}, {kLayerPacket, 1},
      {kLayerRadio, 1},  {kLayerPacket, 2},  // on a tie, the packet stays first
      {kLayerRadio, 2},  {kLayerRadio, 3},  {kLayerPacket, 3},
      {kLayerRadio, 4}};
  for (std::size_t i = 0; i < tl.size(); ++i) {
    EXPECT_EQ(tl[i].layer, expected[i].first) << "event " << i;
    EXPECT_EQ(tl[i].index, expected[i].second) << "event " << i;
  }
  EXPECT_EQ(collector_.counters(kLayerRadio).events, 5u);
}

TEST_F(CollectorHealthTest, ClearingOneLayerCompactsTimelineKeepsOthers) {
  auto& qxdm = dev_->cellular()->qxdm();
  for (int i = 0; i < 4; ++i) {
    add_packet(2 * i);
    qxdm.log_rrc(radio::RrcState::kPch, radio::RrcState::kFach,
                 health_at(2 * i + 1));
  }
  ASSERT_EQ(collector_.timeline().size(), 8u);

  dev_->trace().clear();  // tap fires clear_layer(kLayerPacket)
  const std::vector<Event>& tl = collector_.timeline();
  ASSERT_EQ(tl.size(), 4u);
  for (std::size_t i = 0; i < tl.size(); ++i) {  // survivors keep their order
    EXPECT_EQ(tl[i].layer, kLayerRadio);
    EXPECT_EQ(tl[i].index, i);
    EXPECT_EQ(tl[i].at, health_at(2.0 * static_cast<double>(i) + 1));
  }
  EXPECT_EQ(collector_.counters(kLayerPacket).events, 0u);
  EXPECT_EQ(collector_.counters(kLayerRadio).events, 4u);

  // The layer keeps collecting after the clear, indexing the fresh store.
  add_packet(9.0);
  ASSERT_EQ(tl.size(), 5u);
  EXPECT_EQ(tl.back().layer, kLayerPacket);
  EXPECT_EQ(tl.back().index, 0u);
}

TEST_F(CollectorHealthTest, TimelineLayerCountsTrackCounters) {
  for (int i = 0; i < 7; ++i) add_packet(1.0 + i);
  auto& qxdm = dev_->cellular()->qxdm();
  radio::PduRecord pdu;
  pdu.at = health_at(2.0);
  pdu.payload_len = 40;
  qxdm.commit_pdu(pdu);
  const std::vector<Event>& tl = collector_.timeline();
  for (Layer layer : {kLayerUi, kLayerPacket, kLayerRadio}) {
    const auto n = std::count_if(tl.begin(), tl.end(), [&](const Event& e) {
      return e.layer == layer;
    });
    EXPECT_EQ(static_cast<std::uint64_t>(n), collector_.counters(layer).events)
        << to_string(layer);
  }
  EXPECT_EQ(tl.size(), collector_.total_events());
}

}  // namespace
}  // namespace qoed::core
