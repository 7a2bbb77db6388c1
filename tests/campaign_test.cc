#include "core/campaign.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "apps/web_server.h"
#include "core/export_sink.h"
#include "core/qoe_doctor.h"
#include "fault/fault_injector.h"

namespace qoed::core {
namespace {

// A full (but small) simulation run: fresh testbed, one device, one page
// load. This is what campaign workers execute concurrently, so it doubles as
// the ThreadSanitizer workload for run isolation.
RunResult page_load_run(std::uint64_t seed) {
  Testbed bed(seed);
  apps::WebServer server(bed.network(), bed.next_server_ip());
  sim::Rng pages_rng = bed.fork_rng("pages");
  for (auto& p : apps::make_page_dataset(pages_rng, 2)) server.add_page(p);
  auto device = bed.make_device("galaxy-s3");
  device->attach_cellular(radio::CellularConfig::umts());
  apps::BrowserApp browser(*device);
  browser.launch();
  QoeDoctor doctor(*device, browser);
  // Honors QOED_FAULT_PLAN so CI can re-run this whole suite under a
  // degraded capture; a no-op (null) when the environment is clean.
  auto faults = fault::injector_from_env(seed);
  if (faults != nullptr) faults->install(doctor);
  BrowserDriver driver(doctor.controller(), browser);

  RunResult out;
  driver.load_page("www.page.sim/page0", [&](const BehaviorRecord& rec) {
    if (!rec.timed_out) {
      out.add_sample("page_load_s",
                     sim::to_seconds(AppLayerAnalyzer::calibrate(rec)));
    }
  });
  bed.loop().run();
  if (faults != nullptr) {
    faults->flush();
    faults->export_metrics(out.registry);
  }
  out.registry.add_counter(
      "bytes_down",
      static_cast<double>(device->trace().bytes(net::Direction::kDownlink)));
  out.virtual_seconds = bed.loop().now().seconds();
  return out;
}

CampaignResult run_campaign(std::size_t jobs, std::size_t runs,
                            std::uint64_t master_seed) {
  CampaignConfig cfg;
  cfg.name = "determinism";
  cfg.runs = runs;
  cfg.jobs = jobs;
  cfg.master_seed = master_seed;
  Campaign campaign(cfg);
  return campaign.run([](std::uint64_t seed, const RunSpec&) {
    return page_load_run(seed);
  });
}

TEST(CampaignTest, RunSeedsAreStableAndDistinct) {
  // The derivation must never change: recorded seeds are the replay handle
  // for individual runs.
  EXPECT_EQ(Campaign::run_seed(1, 0), Campaign::run_seed(1, 0));
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 100; ++i) {
    seeds.insert(Campaign::run_seed(42, i));
  }
  EXPECT_EQ(seeds.size(), 100u);
  EXPECT_NE(Campaign::run_seed(1, 0), Campaign::run_seed(2, 0));
}

TEST(CampaignTest, BitIdenticalAcrossThreadCounts) {
  // Same master seed => identical aggregated output for 1 vs 8 workers,
  // compared through the byte-exact JSON export.
  const CampaignResult serial = run_campaign(/*jobs=*/1, /*runs=*/8, 7);
  const CampaignResult parallel = run_campaign(/*jobs=*/8, /*runs=*/8, 7);
  EXPECT_EQ(serial.jobs, 1u);
  EXPECT_EQ(parallel.jobs, 8u);

  const MetricAggregate* m = serial.metric("page_load_s");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->pooled.n, 8u);
  EXPECT_GT(m->pooled.mean, 0.0);

  // jobs is part of the export (it describes the execution); mask it so the
  // comparison covers exactly the deterministic payload.
  std::string a = CampaignJsonSink(serial).to_string();
  std::string b = CampaignJsonSink(parallel).to_string();
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

TEST(CampaignTest, DifferentMasterSeedsChangeResults) {
  const CampaignResult a = run_campaign(1, 4, 7);
  const CampaignResult b = run_campaign(1, 4, 8);
  ASSERT_NE(a.metric("page_load_s"), nullptr);
  ASSERT_NE(b.metric("page_load_s"), nullptr);
  EXPECT_NE(a.run_specs[0].seed, b.run_specs[0].seed);
}

TEST(CampaignTest, MergesInRunIndexOrderWithKnownValues) {
  CampaignConfig cfg;
  cfg.runs = 4;
  cfg.jobs = 2;
  Campaign campaign(cfg);
  const CampaignResult result =
      campaign.run([](std::uint64_t, const RunSpec& spec) {
        RunResult out;
        // Run i contributes samples {i, i+1} => per-run mean i + 0.5.
        const double i = static_cast<double>(spec.run_index);
        out.add_sample("m", i);
        out.add_sample("m", i + 1);
        out.registry.add_counter("c", 1);
        return out;
      });

  const MetricAggregate* m = result.metric("m");
  ASSERT_NE(m, nullptr);
  // Pooled over every run: 0,1,1,2,2,3,3,4.
  EXPECT_EQ(m->pooled.n, 8u);
  EXPECT_DOUBLE_EQ(m->pooled.mean, 2.0);
  EXPECT_EQ(m->pooled.min, 0.0);
  EXPECT_EQ(m->pooled.max, 4.0);
  EXPECT_EQ(m->per_run_means.n, 4u);
  EXPECT_DOUBLE_EQ(m->per_run_means.mean, 2.0);
  EXPECT_DOUBLE_EQ(m->per_run_means.min, 0.5);
  EXPECT_DOUBLE_EQ(m->per_run_means.max, 3.5);
  EXPECT_DOUBLE_EQ(result.registry.counters().at("c"), 4.0);
}

TEST(CampaignTest, CapturesPerRunExceptions) {
  CampaignConfig cfg;
  cfg.runs = 6;
  cfg.jobs = 3;
  Campaign campaign(cfg);
  const CampaignResult result =
      campaign.run([](std::uint64_t, const RunSpec& spec) -> RunResult {
        if (spec.run_index % 2 == 1) {
          throw std::runtime_error("boom " + std::to_string(spec.run_index));
        }
        RunResult out;
        out.add_sample("ok", 1.0);
        return out;
      });

  EXPECT_EQ(result.failed_runs(), 3u);
  ASSERT_EQ(result.run_errors.size(), 6u);
  EXPECT_EQ(result.run_errors[0], "");
  EXPECT_EQ(result.run_errors[1], "boom 1");
  EXPECT_EQ(result.run_errors[5], "boom 5");
  // Failed runs contribute nothing to the aggregates.
  const MetricAggregate* m = result.metric("ok");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->pooled.n, 3u);
}

TEST(CampaignTest, DefaultJobsUsesHardwareConcurrency) {
  CampaignConfig cfg;
  cfg.runs = 2;
  cfg.jobs = 0;
  Campaign campaign(cfg);
  const CampaignResult result =
      campaign.run([](std::uint64_t, const RunSpec&) { return RunResult{}; });
  EXPECT_GE(result.jobs, 1u);
  EXPECT_LE(result.jobs, 2u);  // clamped to the run count
  EXPECT_GE(campaign.last_wall_seconds(), 0.0);
}

TEST(CampaignTest, EmptyCampaignIsWellFormed) {
  CampaignConfig cfg;
  cfg.runs = 0;
  Campaign campaign(cfg);
  const CampaignResult result =
      campaign.run([](std::uint64_t, const RunSpec&) { return RunResult{}; });
  EXPECT_EQ(result.runs, 0u);
  EXPECT_TRUE(result.metrics.empty());
  EXPECT_EQ(result.failed_runs(), 0u);
}

TEST(CampaignTest, RetrySeedsAreStableAndDistinctFromRunSeeds) {
  EXPECT_EQ(Campaign::retry_seed(7, 3, 0), Campaign::run_seed(7, 3));
  EXPECT_EQ(Campaign::retry_seed(7, 3, 2), Campaign::retry_seed(7, 3, 2));
  std::set<std::uint64_t> seeds;
  for (std::size_t attempt = 0; attempt < 8; ++attempt) {
    seeds.insert(Campaign::retry_seed(7, 3, attempt));
  }
  EXPECT_EQ(seeds.size(), 8u);
}

TEST(CampaignTest, RetriesRecoverDeterministically) {
  // Odd runs fail on their first attempt only; with retries enabled the
  // campaign recovers them, reports the attempt counts, and stays
  // bit-identical across jobs counts.
  const auto flaky = [](std::uint64_t, const RunSpec& spec) -> RunResult {
    if (spec.run_index % 2 == 1 && spec.attempt == 0) {
      throw std::runtime_error("flaky " + std::to_string(spec.run_index));
    }
    RunResult out;
    out.add_sample("v", static_cast<double>(spec.run_index) +
                            static_cast<double>(spec.attempt) / 10);
    return out;
  };
  const auto run_with_jobs = [&](std::size_t jobs) {
    CampaignConfig cfg;
    cfg.runs = 6;
    cfg.jobs = jobs;
    cfg.master_seed = 5;
    cfg.max_retries = 2;
    Campaign campaign(cfg);
    return campaign.run(flaky);
  };
  const CampaignResult result = run_with_jobs(1);

  EXPECT_EQ(result.failed_runs(), 0u);
  EXPECT_TRUE(result.quarantined.empty());
  ASSERT_EQ(result.run_attempts.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(result.run_attempts[i], i % 2 == 1 ? 2u : 1u) << "run " << i;
    // run_specs keeps the first attempt's seed as the replay handle.
    EXPECT_EQ(result.run_specs[i].seed, Campaign::run_seed(5, i));
  }
  // Recovered runs contributed their retry-attempt sample: 0, 1.1, 2, 3.1,
  // 4, 5.1 (one sample per run, so the run means are the same values).
  const MetricAggregate* m = result.metric("v");
  ASSERT_NE(m, nullptr);
  for (const Summary* s : {&m->pooled, &m->per_run_means}) {
    EXPECT_EQ(s->n, 6u);
    EXPECT_DOUBLE_EQ(s->mean, 2.55);
    EXPECT_EQ(s->min, 0.0);
    EXPECT_DOUBLE_EQ(s->max, 5.1);
  }

  std::string a = CampaignJsonSink(result).to_string();
  std::string b = CampaignJsonSink(run_with_jobs(6)).to_string();
  const auto mask = [](std::string& s) {
    const auto pos = s.find("\"jobs\":");
    ASSERT_NE(pos, std::string::npos);
    s.erase(pos, s.find(',', pos) - pos);
  };
  mask(a);
  mask(b);
  EXPECT_EQ(a, b);
}

TEST(CampaignTest, QuarantineReportedNotDropped) {
  CampaignConfig cfg;
  cfg.runs = 4;
  cfg.jobs = 2;
  cfg.master_seed = 9;
  cfg.max_retries = 1;
  Campaign campaign(cfg);
  const CampaignResult result =
      campaign.run([](std::uint64_t, const RunSpec& spec) -> RunResult {
        if (spec.run_index == 2) throw std::runtime_error("always fails");
        RunResult out;
        out.add_sample("ok", 1.0);
        return out;
      });

  EXPECT_EQ(result.failed_runs(), 1u);
  ASSERT_EQ(result.quarantined.size(), 1u);
  const auto& q = result.quarantined[0];
  EXPECT_EQ(q.run_index, 2u);
  EXPECT_EQ(q.attempts, 2u);  // first attempt + one retry, both failed
  EXPECT_EQ(q.last_seed, Campaign::retry_seed(9, 2, 1));
  EXPECT_EQ(q.error, "always fails");
  // The quarantined run is visible in the JSON export, not silently thinner.
  const std::string json = CampaignJsonSink(result).to_string();
  EXPECT_NE(json.find("\"quarantined\":[{\"run\":2,\"attempts\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"run_attempts\":[1,1,2,1]"), std::string::npos);
}

TEST(CampaignTest, VirtualTimeWatchdogFailsOverlongRuns) {
  CampaignConfig cfg;
  cfg.runs = 3;
  cfg.jobs = 1;
  cfg.max_run_virtual_seconds = 100;
  Campaign campaign(cfg);
  const CampaignResult result =
      campaign.run([](std::uint64_t, const RunSpec& spec) {
        RunResult out;
        out.add_sample("ok", 1.0);
        // Run 1 reports a runaway virtual clock.
        out.virtual_seconds = spec.run_index == 1 ? 1e6 : 10;
        return out;
      });

  EXPECT_EQ(result.failed_runs(), 1u);
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].run_index, 1u);
  EXPECT_NE(result.run_errors[1].find("virtual-time watchdog"),
            std::string::npos);
  // The watchdog victim contributes no samples.
  const MetricAggregate* m = result.metric("ok");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->pooled.n, 2u);
}

TEST(CampaignTest, TraceProcessesSurviveMove) {
  // Regression: trace_processes() used to hand out pointers captured before
  // a move, leaving callers dangling. The refs are index-based now, so
  // resolving against the post-move object yields its own tracers.
  CampaignConfig cfg;
  cfg.name = "move";
  cfg.runs = 2;
  cfg.jobs = 1;
  cfg.master_seed = 5;
  cfg.trace = true;
  Campaign campaign(cfg);
  CampaignResult original = campaign.run(
      [](std::uint64_t seed, const RunSpec&) { return page_load_run(seed); });
  const auto before = original.trace_processes();
  ASSERT_FALSE(before.empty());

  const CampaignResult moved = std::move(original);
  const auto after = moved.trace_processes();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].first, before[i].first);
    // Every pointer resolves into `moved`, never the moved-from shell.
    const bool is_spine = after[i].second == &moved.trace;
    bool is_run_trace = false;
    for (const auto& t : moved.traces) is_run_trace |= after[i].second == &t;
    EXPECT_TRUE(is_spine || is_run_trace) << after[i].first;
  }
  // The index-based refs themselves are move-stable.
  const auto refs = moved.trace_process_refs();
  ASSERT_EQ(refs.size(), after.size());
  EXPECT_EQ(refs[0].run, -1);  // campaign spine first
}

TEST(CampaignTest, PageLoadSummariesStayWithinObservedRange) {
  CampaignConfig cfg;
  cfg.name = "range";
  cfg.runs = 3;
  cfg.jobs = 1;
  cfg.master_seed = 7;
  Campaign campaign(cfg);
  const CampaignResult result = campaign.run(
      [](std::uint64_t seed, const RunSpec&) { return page_load_run(seed); });
  const MetricAggregate* m = result.metric("page_load_s");
  ASSERT_NE(m, nullptr);
  EXPECT_GT(m->pooled.n, 0u);
  EXPECT_EQ(m->per_run_means.n, 3u);
  // Histogram percentiles are clamped into [min, max] and stay ordered.
  for (const Summary* s : {&m->pooled, &m->per_run_means}) {
    EXPECT_LE(s->min, s->mean);
    EXPECT_LE(s->mean, s->max);
    EXPECT_LE(s->min, s->p50);
    EXPECT_LE(s->p50, s->p90);
    EXPECT_LE(s->p90, s->p99);
    EXPECT_LE(s->p99, s->max);
  }
}

TEST(CampaignTest, JsonExportRecordsReplayHandles) {
  const CampaignResult result = run_campaign(1, 2, 99);
  const std::string json = CampaignJsonSink(result).to_string();
  EXPECT_NE(json.find("\"campaign\":\"determinism\""), std::string::npos);
  EXPECT_NE(json.find("\"master_seed\":99"), std::string::npos);
  EXPECT_NE(json.find("\"run_seeds\":[" +
                      std::to_string(Campaign::run_seed(99, 0))),
            std::string::npos);
  EXPECT_NE(json.find("\"page_load_s\""), std::string::npos);
  EXPECT_NE(json.find("\"per_run_means\""), std::string::npos);
}

}  // namespace
}  // namespace qoed::core
