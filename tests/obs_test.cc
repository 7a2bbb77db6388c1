#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "core/campaign.h"
#include "core/export_sink.h"
#include "obs/observability.h"
#include "obs/tracer.h"
#include "sim/log.h"

namespace qoed {
namespace {

// Hand-computed bucketing over explicit bounds: lower_bound semantics put an
// observation equal to a bound INTO that bound's bucket, and anything past
// the last bound into the overflow bucket. Pure integer arithmetic, so these
// expectations hold on any platform.
TEST(MetricsRegistry, HistogramHandComputedBuckets) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::Histogram& h = reg.histogram("h", {10, 100, 1000});
  for (const std::int64_t micro : {5, 10, 11, 100, 101, 1000, 1001}) {
    h.observe(micro);
  }
  ASSERT_EQ(h.counts.size(), 4u);
  EXPECT_EQ(h.counts[0], 2u);  // 5, 10
  EXPECT_EQ(h.counts[1], 2u);  // 11, 100
  EXPECT_EQ(h.counts[2], 2u);  // 101, 1000
  EXPECT_EQ(h.counts[3], 1u);  // 1001 -> overflow
  EXPECT_EQ(h.count, 7u);
  EXPECT_EQ(h.sum, 5 + 10 + 11 + 100 + 101 + 1000 + 1001);
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(h.sum) / 1e6 / 7.0);
}

TEST(MetricsRegistry, DefaultBoundsAreThe125Series) {
  const auto& bounds = obs::default_bounds();
  ASSERT_EQ(bounds.size(), 28u);  // 9 decades x {1,2,5} + the 1e9 cap
  EXPECT_EQ(bounds.front(), 1);
  EXPECT_EQ(bounds[1], 2);
  EXPECT_EQ(bounds[2], 5);
  EXPECT_EQ(bounds[3], 10);
  EXPECT_EQ(bounds.back(), 1'000'000'000);

  // observe() rounds to micro-units before bucketing: 0.0015 base units ->
  // 1500 micro -> first bound >= 1500 is 2000, at index 10.
  obs::MetricsRegistry reg;
  reg.observe("lat", 0.0015);
  const auto* h = reg.find_histogram("lat");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->counts.size(), 29u);
  EXPECT_EQ(h->counts[10], 1u);
  EXPECT_EQ(h->count, 1u);
  EXPECT_EQ(h->sum, 1500);
}

TEST(MetricsRegistry, SnapshotExactBytes) {
  obs::MetricsRegistry reg;
  reg.add_counter("a.b", 2);
  reg.set_gauge("g", 1.5);
  reg.histogram("h", {10}).observe(7);
  EXPECT_EQ(reg.snapshot(),
            "{\"counters\":{\"a.b\":2},\"gauges\":{\"g\":1.5},"
            "\"histograms\":{\"h\":{\"bounds\":[10],\"counts\":[1,0],"
            "\"count\":1,\"sum\":7}}}");
}

TEST(MetricsRegistry, SnapshotByteStableAcrossInsertionOrder) {
  obs::MetricsRegistry a;
  a.add_counter("z", 1);
  a.add_counter("a", 2);
  a.set_gauge("g2", 4);
  a.set_gauge("g1", 3);
  a.observe("h", 0.5);

  obs::MetricsRegistry b;
  b.observe("h", 0.5);
  b.set_gauge("g1", 3);
  b.add_counter("a", 2);
  b.set_gauge("g2", 4);
  b.add_counter("z", 1);

  EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST(MetricsRegistry, MergeSumsCountersMaxesGaugesAddsHistograms) {
  obs::MetricsRegistry a;
  a.add_counter("c", 2);
  a.set_gauge("g", 5);
  a.histogram("h", {10, 100}).observe(3);

  obs::MetricsRegistry b;
  b.add_counter("c", 3);
  b.add_counter("only_b", 1);
  b.set_gauge("g", 4);
  b.histogram("h", {10, 100}).observe(50);

  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.counter("c"), 5.0);
  EXPECT_DOUBLE_EQ(a.counter("only_b"), 1.0);
  EXPECT_DOUBLE_EQ(a.gauges().at("g"), 5.0);  // max, not sum
  const auto* h = a.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->counts[0], 1u);
  EXPECT_EQ(h->counts[1], 1u);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->sum, 53);
}

TEST(MetricsRegistry, MergeFromJsonRoundTripsSnapshots) {
  obs::MetricsRegistry a;
  a.add_counter("c", 2.5);
  a.set_gauge("g", 5);
  a.observe("lat", 0.25);
  a.observe("lat", 1.5);
  a.histogram("h", {10, 100}).observe(42);

  std::ostringstream snap;
  a.write_json(snap);

  // Folding the parsed snapshot into an empty registry reproduces the
  // registry byte-for-byte — the invariant the sharded metrics merge
  // (ShardMetricsMergeSink) rests on.
  obs::MetricsRegistry b;
  std::string error;
  ASSERT_TRUE(b.merge_from_json(snap.str(), &error)) << error;
  std::ostringstream snap_b;
  b.write_json(snap_b);
  EXPECT_EQ(snap.str(), snap_b.str());

  // Folding snapshots is equivalent to merging registries.
  obs::MetricsRegistry c;
  c.add_counter("c", 1);
  c.observe("lat", 0.75);
  obs::MetricsRegistry via_merge;
  via_merge.merge_from(a);
  via_merge.merge_from(c);
  obs::MetricsRegistry via_json;
  std::ostringstream snap_c;
  c.write_json(snap_c);
  ASSERT_TRUE(via_json.merge_from_json(snap.str(), &error)) << error;
  ASSERT_TRUE(via_json.merge_from_json(snap_c.str(), &error)) << error;
  std::ostringstream merged_a, merged_b;
  via_merge.write_json(merged_a);
  via_json.write_json(merged_b);
  EXPECT_EQ(merged_a.str(), merged_b.str());

  // Malformed snapshots are rejected with a message, not folded partially.
  obs::MetricsRegistry d;
  EXPECT_FALSE(d.merge_from_json("{\"counters\":", &error));
  EXPECT_FALSE(error.empty());
}

TEST(MetricsRegistry, MergeFromJsonEmptyHistogramRoundTrips) {
  // A histogram created but never observed (the flow tracker pre-creates
  // its rollup histograms for key-set stability) must survive the
  // write_json -> merge_from_json round trip with zero counts intact.
  obs::MetricsRegistry a;
  a.histogram("empty", {10, 100});
  std::ostringstream snap;
  a.write_json(snap);

  obs::MetricsRegistry b;
  std::string error;
  ASSERT_TRUE(b.merge_from_json(snap.str(), &error)) << error;
  const auto* h = b.find_histogram("empty");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 0u);
  EXPECT_EQ(h->sum, 0);
  ASSERT_EQ(h->counts.size(), 3u);
  std::ostringstream snap_b;
  b.write_json(snap_b);
  EXPECT_EQ(snap.str(), snap_b.str());

  // Merging an empty histogram into a populated one adds nothing.
  obs::MetricsRegistry c;
  c.histogram("empty", {10, 100}).observe(50);
  ASSERT_TRUE(c.merge_from_json(snap.str(), &error)) << error;
  EXPECT_EQ(c.find_histogram("empty")->count, 1u);
}

TEST(MetricsRegistry, MergeFromJsonOverflowBucketOnlyHistogram) {
  // Every observation past the last bound: only the overflow bucket is
  // populated, and the fold must keep it there (not lose or re-bucket it).
  obs::MetricsRegistry a;
  obs::MetricsRegistry::Histogram& h = a.histogram("over", {10, 100});
  h.observe(5000);
  h.observe(7000);
  std::ostringstream snap;
  a.write_json(snap);

  obs::MetricsRegistry b;
  std::string error;
  ASSERT_TRUE(b.merge_from_json(snap.str(), &error)) << error;
  ASSERT_TRUE(b.merge_from_json(snap.str(), &error)) << error;  // fold twice
  const auto* merged = b.find_histogram("over");
  ASSERT_NE(merged, nullptr);
  ASSERT_EQ(merged->counts.size(), 3u);
  EXPECT_EQ(merged->counts[0], 0u);
  EXPECT_EQ(merged->counts[1], 0u);
  EXPECT_EQ(merged->counts[2], 4u);  // overflow bucket, doubled
  EXPECT_EQ(merged->count, 4u);
  EXPECT_EQ(merged->sum, 2 * (5000 + 7000));
}

TEST(MetricsRegistry, MergedThenReserializedSnapshotRoundTrips17g) {
  // Doubles that don't have short decimal forms: %.17g must round-trip
  // them exactly through serialize -> parse -> merge -> reserialize, the
  // chain every sharded-campaign metrics.json goes through.
  obs::MetricsRegistry a;
  a.add_counter("c.awkward", 0.1 + 0.2);  // 0.30000000000000004
  a.add_counter("c.third", 1.0 / 3.0);
  a.set_gauge("g.pi", 3.141592653589793);
  a.observe("lat", 1.0 / 7.0);
  obs::MetricsRegistry b;
  b.add_counter("c.awkward", 1e-17);
  b.observe("lat", 2.0 / 7.0);

  // Path 1: merge the registries, then serialize.
  obs::MetricsRegistry via_merge;
  via_merge.merge_from(a);
  via_merge.merge_from(b);

  // Path 2: serialize each, fold the snapshots, reserialize, re-fold.
  std::ostringstream snap_a, snap_b;
  a.write_json(snap_a);
  b.write_json(snap_b);
  obs::MetricsRegistry via_json;
  std::string error;
  ASSERT_TRUE(via_json.merge_from_json(snap_a.str(), &error)) << error;
  ASSERT_TRUE(via_json.merge_from_json(snap_b.str(), &error)) << error;
  EXPECT_EQ(via_merge.snapshot(), via_json.snapshot());

  // And the merged snapshot itself survives another parse/serialize hop.
  obs::MetricsRegistry rehop;
  ASSERT_TRUE(rehop.merge_from_json(via_json.snapshot(), &error)) << error;
  EXPECT_EQ(rehop.snapshot(), via_json.snapshot());
}

TEST(MetricsRegistry, HistogramQuantileInterpolatesWithinBuckets) {
  obs::MetricsRegistry r;
  // 100 observations uniformly 1..100 (original units) over default bounds.
  for (int i = 1; i <= 100; ++i) r.observe("h", i);
  const auto* h = r.find_histogram("h");
  ASSERT_NE(h, nullptr);
  const double p50 = obs::histogram_quantile(*h, 0.5);
  const double p90 = obs::histogram_quantile(*h, 0.9);
  const double p99 = obs::histogram_quantile(*h, 0.99);
  // Quantiles are monotone and land near the exact order statistics
  // (bucket-resolution accuracy, not exactness, is the contract).
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_NEAR(p50, 50, 30);
  EXPECT_NEAR(p99, 99, 30);
  // Degenerate cases: empty histogram and out-of-range q clamp sanely.
  obs::MetricsRegistry::Histogram empty;
  EXPECT_EQ(obs::histogram_quantile(empty, 0.5), 0.0);
  EXPECT_LE(obs::histogram_quantile(*h, 0.0), p50);
  EXPECT_GE(obs::histogram_quantile(*h, 1.0), p99);
}

TEST(Tracer, DisabledRecordsNothingAndCostsNoIds) {
  obs::Tracer tr;
  const auto track = tr.track("main");
  EXPECT_EQ(tr.span_open(track, "x", "c", sim::TimePoint{sim::msec(1)}), 0);
  tr.instant(track, "y", "c", sim::TimePoint{sim::msec(2)});
  tr.span_close(0, sim::TimePoint{sim::msec(3)});
  EXPECT_TRUE(tr.events().empty());
}

TEST(Tracer, ChromeJsonShape) {
  obs::Tracer tr;
  tr.set_enabled(true);
  const auto track = tr.track("main");
  const auto span = tr.span_open(track, "win", "diag",
                                 sim::TimePoint{sim::msec(1500)}, "{\"k\":1}");
  tr.instant(track, "tick", "x", sim::TimePoint{sim::msec(1600)});
  tr.span_close(span, sim::TimePoint{sim::msec(2500)});

  std::ostringstream os;
  tr.write_chrome_json(os, "proc");
  const std::string json = os.str();
  EXPECT_NE(json.find("{\"ph\":\"M\",\"pid\":0,\"tid\":0,"
                      "\"name\":\"process_name\",\"args\":{\"name\":\"proc\"}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"ph\":\"M\",\"pid\":0,\"tid\":0,"
                      "\"name\":\"thread_name\",\"args\":{\"name\":\"main\"}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"ph\":\"b\",\"pid\":0,\"tid\":0,\"ts\":1500000,"
                      "\"cat\":\"diag\",\"name\":\"win\",\"id\":\"0x1\","
                      "\"args\":{\"k\":1}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":1600000,"
                      "\"cat\":\"x\",\"name\":\"tick\",\"s\":\"t\"}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"ph\":\"e\",\"pid\":0,\"tid\":0,\"ts\":2500000,"
                      "\"cat\":\"diag\",\"name\":\"win\",\"id\":\"0x1\"}"),
            std::string::npos);
  const std::string tail = "\n],\"displayTimeUnit\":\"ms\"}\n";
  ASSERT_GE(json.size(), tail.size());
  EXPECT_EQ(json.substr(json.size() - tail.size()), tail);
}

TEST(Tracer, MergedJsonOffsetsSpanIdsPerTracer) {
  obs::Tracer a;
  a.set_enabled(true);
  const auto sa = a.span_open(a.track("t"), "x", "c",
                              sim::TimePoint{sim::msec(1)});
  a.span_close(sa, sim::TimePoint{sim::msec(2)});

  obs::Tracer b;
  b.set_enabled(true);
  const auto sb = b.span_open(b.track("t"), "y", "c",
                              sim::TimePoint{sim::msec(1)});
  b.span_close(sb, sim::TimePoint{sim::msec(2)});

  std::ostringstream os;
  obs::Tracer::write_merged_chrome_json(os, {{"p0", &a}, {"p1", &b}});
  const std::string json = os.str();
  // Both tracers used local span id 1; the merge keeps p0's as 0x1 and
  // shifts p1's past p0's id space.
  EXPECT_NE(json.find("\"name\":\"x\",\"id\":\"0x1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"y\",\"id\":\"0x3\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"y\",\"id\":\"0x1\""), std::string::npos);
}

TEST(Logger, CountsWarnErrorEvenWhenFiltered) {
  // Default level is kOff: nothing is emitted, but tallies still move.
  const sim::LogCounts before = sim::Logger::thread_counts();
  sim::log_warn(sim::kTimeZero, "obs_test", "w");
  sim::log_error(sim::kTimeZero, "obs_test", "e");
  sim::log_error(sim::kTimeZero, "obs_test", "e2");
  const sim::LogCounts after = sim::Logger::thread_counts();
  EXPECT_EQ(after.warn - before.warn, 1u);
  EXPECT_EQ(after.error - before.error, 2u);
}

// A cheap synthetic campaign run: deterministic samples/counters, a per-run
// tracer, and seed-independent log noise — everything derives from
// (seed, run_index) so artifacts must be bit-identical at any --jobs.
core::RunResult synthetic_run(std::uint64_t seed, const core::RunSpec& spec) {
  core::RunResult out;
  sim::log_warn(sim::kTimeZero, "obs_test", "per-run warning");
  if (spec.run_index % 2 == 0) {
    sim::log_error(sim::kTimeZero, "obs_test", "per-even-run error");
  }
  out.add_sample("lat_s", 0.001 * static_cast<double>(seed % 97));
  out.registry.add_counter("work", 1);

  obs::Tracer tr;
  tr.set_enabled(true);
  const auto track = tr.track("work");
  const auto span = tr.span_open(
      track, "run", "test",
      sim::TimePoint{sim::msec(static_cast<std::int64_t>(seed % 5))});
  tr.instant(track, "tick", "test", sim::TimePoint{sim::msec(10)});
  tr.span_close(span, sim::TimePoint{sim::msec(20)});
  out.trace = std::move(tr);
  out.virtual_seconds = 0.02;
  return out;
}

core::CampaignResult run_obs_campaign(std::size_t jobs) {
  core::CampaignConfig cfg;
  cfg.name = "obs";
  cfg.runs = 6;
  cfg.jobs = jobs;
  cfg.master_seed = 42;
  cfg.trace = true;
  core::Campaign campaign(cfg);
  return campaign.run(synthetic_run);
}

TEST(CampaignObs, ArtifactsByteIdenticalAcrossJobs) {
  const core::CampaignResult r1 = run_obs_campaign(1);
  const core::CampaignResult r4 = run_obs_campaign(4);

  EXPECT_EQ(r1.registry.snapshot(), r4.registry.snapshot());
  EXPECT_EQ(core::TraceEventSink(r1.trace_processes()).to_string(),
            core::TraceEventSink(r4.trace_processes()).to_string());

  // The campaign JSON records which pool size ran it ("jobs":N) — that is
  // the ONE field allowed to differ; everything else must match bytewise.
  auto normalized_json = [](const core::CampaignResult& r) {
    std::string s = core::CampaignJsonSink(r).to_string();
    const auto pos = s.find("\"jobs\":");
    const auto end = s.find(',', pos);
    return s.replace(pos, end - pos, "\"jobs\":X");
  };
  const std::string j1 = normalized_json(r1);
  EXPECT_EQ(j1, normalized_json(r4));
  EXPECT_NE(j1.find("\"registry\":{\"counters\":{"), std::string::npos);
}

TEST(CampaignObs, RegistryCarriesLogAndCampaignCounters) {
  const core::CampaignResult r = run_obs_campaign(3);
  EXPECT_DOUBLE_EQ(r.registry.counter("work"), 6.0);
  EXPECT_DOUBLE_EQ(r.registry.counter("log.warn"), 6.0);
  EXPECT_DOUBLE_EQ(r.registry.counter("log.error"), 3.0);
  EXPECT_DOUBLE_EQ(r.registry.counter("campaign.run_attempts"), 6.0);
  EXPECT_DOUBLE_EQ(r.registry.counter("campaign.quarantined"), 0.0);
  // Samples flow into registry histograms alongside the pooled aggregates.
  const auto* h = r.registry.find_histogram("lat_s");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 6u);
}

TEST(CampaignObs, SpineTraceHasOneRunTrackPerRun) {
  const core::CampaignResult r = run_obs_campaign(2);
  ASSERT_EQ(r.trace.tracks().size(), 6u);
  EXPECT_EQ(r.trace.tracks().front(), "run-0");
  EXPECT_EQ(r.trace.tracks().back(), "run-5");
  // One span open + close per run, no retries/quarantines in this campaign.
  EXPECT_EQ(r.trace.events().size(), 12u);
  // trace_processes: the spine plus the six per-run tracers.
  const auto procs = r.trace_processes();
  ASSERT_EQ(procs.size(), 7u);
  EXPECT_EQ(procs.front().first, "campaign:obs");
  EXPECT_EQ(procs.back().first, "run-5");
}

}  // namespace
}  // namespace qoed
