// Sharded (constant-memory) campaign execution: byte-equality across jobs
// counts, shard budgets and submission orders, shard rotation,
// crash/resume, stale-file hygiene, and the readers of the metrics shards.
//
// The contract under test (DESIGN.md §5g): every campaign commits through
// ShardedCampaignSink; its merged findings/timeline/metrics artifacts and
// its CampaignResult fold are the same at any --jobs, shard budget or
// worker completion order, with or without an out_dir, and a killed
// campaign resumes from its durable frontier without changing a byte of
// the final output.
#include "core/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/campaign.h"
#include "core/export_sink.h"
#include "core/json_util.h"
#include "sim/rng.h"

namespace qoed::core {
namespace {

namespace fs = std::filesystem;

// Cheap deterministic run with realistic artifacts: a few timeline lines,
// one finding, two samples, a counter. No testbed — these tests exercise
// the shard plumbing, not the simulation.
RunResult synthetic_run(std::uint64_t seed) {
  sim::Rng rng(seed);
  RunResult out;
  std::ostringstream timeline;
  std::ostringstream findings;
  double t = 0;
  for (int i = 0; i < 6; ++i) {
    t += rng.uniform();
    timeline << "{\"t\":";
    put_json_number(timeline, t);
    timeline << ",\"seq\":" << i << ",\"layer\":\"packet\",\"len\":"
             << rng.uniform_int(40, 1500) << "}\n";
  }
  findings << "{\"rule\":\"test.flag\",\"t\":";
  put_json_number(findings, t);
  findings << "}\n";
  out.add_sample("latency_s", rng.uniform(0.1, 2.0));
  out.add_sample("latency_s", rng.uniform(0.1, 2.0));
  out.registry.add_counter("events", 6);
  out.virtual_seconds = 1 + rng.uniform();
  out.artifacts.timeline_jsonl = timeline.str();
  out.artifacts.findings_jsonl = findings.str();
  return out;
}

// Run i of a campaign with master seed `master` as Campaign::run submits
// it: one clean attempt of synthetic_run.
RunExecution synthetic_exec(std::uint64_t master, std::size_t i) {
  RunExecution ex;
  ex.last_seed = Campaign::run_seed(master, i);
  ex.result = synthetic_run(ex.last_seed);
  ex.attempts = 1;
  return ex;
}

// A run with a timeline but NO findings (like a scenario without a
// diagnosis engine attached).
RunResult bare_run(std::uint64_t seed) {
  sim::Rng rng(seed);
  RunResult out;
  out.add_sample("latency_s", rng.uniform(0.1, 2.0));
  out.artifacts.timeline_jsonl =
      "{\"t\":0.5,\"seq\":0,\"layer\":\"packet\",\"len\":100}\n";
  out.virtual_seconds = 1;
  return out;
}

// Fresh scratch dir under the test temp root; removed first so reruns
// never see a previous invocation's shards.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "qoed_shard_" + name;
  fs::remove_all(dir);
  return dir;
}

CampaignConfig sharded_config(const std::string& dir, std::size_t runs,
                              std::size_t jobs) {
  CampaignConfig cfg;
  cfg.name = "shard-test";
  cfg.runs = runs;
  cfg.jobs = jobs;
  cfg.master_seed = 4242;
  cfg.shard.out_dir = dir;
  return cfg;
}

struct Artifacts {
  std::string findings, timeline, metrics;
};

Artifacts merged_artifacts(const std::string& dir) {
  return {ShardFindingsMergeSink(dir).to_string(),
          ShardTimelineMergeSink(dir).to_string(),
          ShardMetricsMergeSink(dir).to_string()};
}

RunFn synthetic_factory() {
  return [](std::uint64_t seed, const RunSpec&) { return synthetic_run(seed); };
}

void expect_same_summary(const Summary& a, const Summary& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p90, b.p90);
  EXPECT_EQ(a.p99, b.p99);
}

// Field-for-field equality of two folds of the same campaign.
void expect_same_fold(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  ASSERT_EQ(a.run_specs.size(), b.run_specs.size());
  for (std::size_t i = 0; i < a.run_specs.size(); ++i) {
    EXPECT_EQ(a.run_specs[i].seed, b.run_specs[i].seed);
  }
  EXPECT_EQ(a.run_errors, b.run_errors);
  EXPECT_EQ(a.run_attempts, b.run_attempts);
  EXPECT_EQ(a.run_reschedules, b.run_reschedules);
  ASSERT_EQ(a.quarantined.size(), b.quarantined.size());
  for (std::size_t i = 0; i < a.quarantined.size(); ++i) {
    EXPECT_EQ(a.quarantined[i].run_index, b.quarantined[i].run_index);
    EXPECT_EQ(a.quarantined[i].attempts, b.quarantined[i].attempts);
    EXPECT_EQ(a.quarantined[i].last_seed, b.quarantined[i].last_seed);
    EXPECT_EQ(a.quarantined[i].error, b.quarantined[i].error);
  }
  EXPECT_EQ(a.registry.snapshot(), b.registry.snapshot());
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (const auto& [name, agg] : a.metrics) {
    const MetricAggregate* other = b.metric(name);
    ASSERT_NE(other, nullptr) << name;
    expect_same_summary(agg.pooled, other->pooled);
    expect_same_summary(agg.per_run_means, other->per_run_means);
  }
}

// The commit frontier under the worst completion order: at jobs=8, run i
// waits until run i+1 has spilled its pending file, so runs reach the sink
// in reverse index order and every run but run 0 (submitted last) spills.
// With 1-byte shards every commit rotates, and the park budget (jobs x
// shard bytes = 8 bytes) holds no run in memory, so each parked run takes
// the spill path. Merged bytes and the fold equal a jobs=1 campaign
// writing one unbounded shard.
TEST(CampaignShard, SpillingJobs8MatchesUnboundedJobs1) {
  constexpr std::size_t kRuns = 8;
  const std::string one_dir = scratch_dir("unbounded");
  CampaignConfig one = sharded_config(one_dir, kRuns, 1);
  one.shard.shard_bytes = 0;  // never rotate: one shard
  const CampaignResult one_result = Campaign(one).run(synthetic_factory());

  const std::string spill_dir = scratch_dir("spill");
  CampaignConfig spill = sharded_config(spill_dir, kRuns, kRuns);
  spill.shard.shard_bytes = 1;
  std::atomic<bool> reversed{true};
  const CampaignResult spill_result =
      Campaign(spill).run([&](std::uint64_t seed, const RunSpec& spec) {
        const std::size_t next = spec.run_index + 1;
        if (next < kRuns) {
          const std::string pending =
              spill_dir + "/pending-" + std::to_string(next);
          int waited_ms = 0;
          while (!fs::exists(pending) && waited_ms < 20000) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            waited_ms += 2;
          }
          if (!fs::exists(pending)) reversed = false;
        }
        return synthetic_run(seed);
      });
  EXPECT_TRUE(reversed.load()) << "runs did not reach the sink in reverse";

  ShardManifest one_manifest, spill_manifest;
  ASSERT_TRUE(read_shard_manifest(one_dir, &one_manifest));
  ASSERT_TRUE(read_shard_manifest(spill_dir, &spill_manifest));
  EXPECT_EQ(one_manifest.shards.size(), 1u);
  EXPECT_EQ(spill_manifest.shards.size(), kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) {
    EXPECT_FALSE(fs::exists(spill_dir + "/pending-" + std::to_string(i)));
  }

  const Artifacts a = merged_artifacts(one_dir);
  const Artifacts b = merged_artifacts(spill_dir);
  EXPECT_EQ(a.findings, b.findings);
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(ShardCapturesMergeSink(one_dir).to_string(),
            ShardCapturesMergeSink(spill_dir).to_string());
  EXPECT_EQ(a.metrics, MetricsJsonSink(one_result.registry).to_string());
  expect_same_fold(one_result, spill_result);
}

// Number of pending-* spill files in dir.
std::size_t pending_files(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    n += entry.path().filename().string().rfind("pending-", 0) == 0;
  }
  return n;
}

// Runs that arrive ahead of the frontier wait in memory while they fit the
// park budget (jobs x shard bytes) and spill past it. Submitted in reverse
// index order, a budget that holds them all leaves no pending file, one
// that holds about two spills the rest; both publish the artifacts (and
// manifest) of in-order submission.
TEST(CampaignShard, ParkedRunsStayInMemoryWithinTheBudget) {
  const std::uint64_t master = 4242;
  const std::size_t runs = 8;
  const auto run_sink = [&](const std::string& dir, std::size_t shard_bytes,
                            std::size_t jobs, bool reversed) {
    CampaignShardConfig cfg;
    cfg.out_dir = dir;
    cfg.shard_bytes = shard_bytes;
    ShardedCampaignSink sink(cfg, "park-test", master, runs, jobs);
    std::size_t most_pending = 0;
    for (std::size_t n = 0; n < runs; ++n) {
      const std::size_t i = reversed ? runs - 1 - n : n;
      sink.submit(i, synthetic_exec(master, i));
      most_pending = std::max(most_pending, pending_files(dir));
    }
    sink.finalize();
    EXPECT_EQ(pending_files(dir), 0u);
    return most_pending;
  };
  const std::string in_order = scratch_dir("park_in_order");
  EXPECT_EQ(run_sink(in_order, 1000, 2, false), 0u);

  // 4 x 4 MiB holds every parked run.
  const std::string roomy = scratch_dir("park_roomy");
  EXPECT_EQ(run_sink(roomy, 4u << 20, 4, true), 0u);
  // 2 x 1000 bytes holds about two of the seven parked runs (each is
  // several hundred bytes).
  const std::string tight = scratch_dir("park_tight");
  const std::size_t spilled = run_sink(tight, 1000, 2, true);
  EXPECT_GT(spilled, 0u);
  EXPECT_LT(spilled, runs - 1);

  const Artifacts want = merged_artifacts(in_order);
  for (const std::string& dir : {roomy, tight}) {
    const Artifacts got = merged_artifacts(dir);
    EXPECT_EQ(got.findings, want.findings) << dir;
    EXPECT_EQ(got.timeline, want.timeline) << dir;
    EXPECT_EQ(got.metrics, want.metrics) << dir;
  }
  const auto manifest = [](const std::string& dir) {
    std::ifstream in(dir + "/MANIFEST.json");
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  };
  EXPECT_EQ(manifest(tight), manifest(in_order));
}

// Without an out_dir the sink only orders and folds; the CampaignResult
// is the one a sharded run of the same campaign folds, retries and a
// quarantined run included.
TEST(CampaignShard, InMemoryFoldEqualsShardedFold) {
  const auto flaky = [](std::uint64_t seed, const RunSpec& spec) {
    if (spec.run_index == 3) throw std::runtime_error("device offline");
    if (spec.run_index % 4 == 1 && spec.attempt == 0) {
      throw std::runtime_error("flaky");
    }
    return synthetic_run(seed);
  };
  CampaignConfig memory = sharded_config("", 10, 4);
  memory.max_retries = 1;
  memory.trace = true;
  CampaignConfig sharded = memory;
  sharded.shard.out_dir = scratch_dir("fold");
  sharded.jobs = 3;
  const CampaignResult a = Campaign(memory).run(flaky);
  const CampaignResult b = Campaign(sharded).run(flaky);
  ASSERT_EQ(a.quarantined.size(), 1u);
  EXPECT_EQ(a.run_attempts[1], 2u);
  expect_same_fold(a, b);
  EXPECT_EQ(TraceEventSink(a.trace_processes()).to_string(),
            TraceEventSink(b.trace_processes()).to_string());
}

// Streamed percentiles come from 1-2-5 histogram buckets; interpolating
// inside the 0.2..0.5 bucket used to report p50/p90/p99 of a constant 0.5
// as 0.35/0.47/0.497. They are clamped to the observed [min, max].
TEST(CampaignShard, ConstantSamplesReportExactPercentiles) {
  const auto constant = [](std::uint64_t, const RunSpec&) {
    RunResult out;
    for (int i = 0; i < 3; ++i) out.add_sample("v", 0.5);
    return out;
  };
  for (const std::string& dir : {std::string(), scratch_dir("constant")}) {
    const CampaignResult result =
        Campaign(sharded_config(dir, 5, 2)).run(constant);
    const MetricAggregate* m = result.metric("v");
    ASSERT_NE(m, nullptr);
    for (const Summary* s : {&m->pooled, &m->per_run_means}) {
      EXPECT_EQ(s->min, 0.5);
      EXPECT_EQ(s->max, 0.5);
      EXPECT_EQ(s->p50, 0.5);
      EXPECT_EQ(s->p90, 0.5);
      EXPECT_EQ(s->p99, 0.5);
    }
  }
}

TEST(CampaignShard, ArtifactsInvariantAcrossJobs) {
  const std::string dir1 = scratch_dir("jobs1");
  const std::string dir8 = scratch_dir("jobs8");
  Campaign(sharded_config(dir1, 12, 1)).run(synthetic_factory());
  Campaign(sharded_config(dir8, 12, 8)).run(synthetic_factory());

  const Artifacts a1 = merged_artifacts(dir1);
  const Artifacts a8 = merged_artifacts(dir8);
  EXPECT_EQ(a1.findings, a8.findings);
  EXPECT_EQ(a1.timeline, a8.timeline);
  EXPECT_EQ(a1.metrics, a8.metrics);

  // The shard files themselves are identical too, not just the merge.
  std::ifstream m1(dir1 + "/MANIFEST.json");
  std::ifstream m8(dir8 + "/MANIFEST.json");
  std::stringstream s1, s8;
  s1 << m1.rdbuf();
  s8 << m8.rdbuf();
  EXPECT_EQ(s1.str(), s8.str());
}

TEST(CampaignShard, RotatesAtTinyBudgetAndManifestCoversAllRuns) {
  const std::string dir = scratch_dir("rotate");
  CampaignConfig cfg = sharded_config(dir, 7, 2);
  cfg.shard.shard_bytes = 200;  // every run overflows the budget
  Campaign(cfg).run(synthetic_factory());

  ShardManifest manifest;
  ASSERT_TRUE(read_shard_manifest(dir, &manifest));
  EXPECT_TRUE(manifest.complete);
  EXPECT_EQ(manifest.runs, 7u);
  ASSERT_GT(manifest.shards.size(), 1u);
  std::size_t expect_begin = 0;
  for (const ShardInfo& info : manifest.shards) {
    EXPECT_EQ(info.run_begin, expect_begin);
    EXPECT_GT(info.run_end, info.run_begin);
    for (const char* kind : {"findings", "timeline", "metrics"}) {
      char name[64];
      std::snprintf(name, sizeof name, "%s-%06zu.jsonl", kind, info.index);
      EXPECT_TRUE(fs::exists(dir + "/" + name)) << name;
    }
    expect_begin = info.run_end;
  }
  EXPECT_EQ(expect_begin, 7u);
}

// Workers write the shards they close outside the sink lock, so shards can
// finish out of order. A shard that cannot be written ends the listed
// prefix: the manifest keeps every shard before it and none after, and the
// campaign throws naming it.
TEST(CampaignShard, FailedShardWriteEndsTheListedPrefix) {
  const std::string dir = scratch_dir("write_fails");
  // A non-empty directory where shard 2's timeline temp file goes: the
  // sink's stale-file sweep cannot remove it, so that write fails.
  fs::create_directories(dir + "/timeline-000002.jsonl.tmp/keep");
  CampaignConfig cfg = sharded_config(dir, 12, 4);
  cfg.shard.shard_runs = 1;
  std::string error;
  try {
    Campaign(cfg).run(synthetic_factory());
  } catch (const std::runtime_error& e) {
    error = e.what();
  }
  EXPECT_NE(error.find("cannot write shard 2 "), std::string::npos) << error;

  ShardManifest manifest;
  ASSERT_TRUE(read_shard_manifest(dir, &manifest));
  EXPECT_FALSE(manifest.complete);
  ASSERT_EQ(manifest.shards.size(), 2u);
  EXPECT_EQ(manifest.shards[0].run_end, 1u);
  EXPECT_EQ(manifest.shards[1].run_end, 2u);
}

// Simulated kill: a sink is dropped without finalize() after closing some
// shards; a resume sink picks up at the durable frontier and the final
// artifacts are byte-identical to an uninterrupted run.
TEST(CampaignShard, SinkLevelResumeAfterKill) {
  const std::uint64_t master = 4242;
  const std::size_t runs = 6;

  const std::string clean_dir = scratch_dir("kill_clean");
  CampaignShardConfig clean_cfg;
  clean_cfg.out_dir = clean_dir;
  clean_cfg.shard_runs = 2;
  {
    ShardedCampaignSink sink(clean_cfg, "kill-test", master, runs);
    for (std::size_t i = 0; i < runs; ++i) {
      sink.submit(i, synthetic_exec(master, i));
    }
    sink.finalize();
  }

  const std::string dir = scratch_dir("kill");
  CampaignShardConfig cfg = clean_cfg;
  cfg.out_dir = dir;
  {
    // Killed mid-shard: runs 0..4 submitted, shards [0,2) and [2,4) are
    // closed and durable, run 4 sits in the open buffer and dies with the
    // process (no finalize()).
    ShardedCampaignSink sink(cfg, "kill-test", master, runs);
    for (std::size_t i = 0; i < 5; ++i) {
      sink.submit(i, synthetic_exec(master, i));
    }
  }
  ShardManifest partial;
  ASSERT_TRUE(read_shard_manifest(dir, &partial));
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.committed(), 4u);

  {
    CampaignShardConfig resume_cfg = cfg;
    resume_cfg.resume = true;
    ShardedCampaignSink sink(resume_cfg, "kill-test", master, runs);
    EXPECT_EQ(sink.committed(), 4u);
    // Resubmitting committed work (resume overlap) is dropped, not folded
    // twice.
    sink.submit(1, synthetic_exec(master, 1));
    for (std::size_t i = 4; i < runs; ++i) {
      sink.submit(i, synthetic_exec(master, i));
    }
    sink.finalize();

    CampaignResult folded;
    sink.fold_into(&folded, /*build_trace=*/false);
    EXPECT_EQ(folded.registry.counters().at("events"), 6.0 * runs);
  }

  const Artifacts resumed = merged_artifacts(dir);
  const Artifacts clean = merged_artifacts(clean_dir);
  EXPECT_EQ(resumed.findings, clean.findings);
  EXPECT_EQ(resumed.timeline, clean.timeline);
  EXPECT_EQ(resumed.metrics, clean.metrics);
}

TEST(CampaignShard, CampaignLevelResumeSkipsCommittedRuns) {
  const std::string dir = scratch_dir("campaign_resume");
  Campaign(sharded_config(dir, 8, 4)).run(synthetic_factory());
  const Artifacts first = merged_artifacts(dir);

  // Resuming a complete campaign is a no-op: zero factory invocations,
  // identical bytes.
  CampaignConfig cfg = sharded_config(dir, 8, 4);
  cfg.shard.resume = true;
  std::atomic<int> calls{0};
  const CampaignResult result =
      Campaign(cfg).run([&](std::uint64_t seed, const RunSpec&) {
        ++calls;
        return synthetic_run(seed);
      });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(result.runs, 8u);
  EXPECT_EQ(result.registry.counters().at("events"), 6.0 * 8);

  const Artifacts second = merged_artifacts(dir);
  EXPECT_EQ(first.findings, second.findings);
  EXPECT_EQ(first.timeline, second.timeline);
  EXPECT_EQ(first.metrics, second.metrics);
}

TEST(CampaignShard, ResumeIdentityMismatchThrows) {
  const std::string dir = scratch_dir("identity");
  CampaignShardConfig cfg;
  cfg.out_dir = dir;
  {
    ShardedCampaignSink sink(cfg, "identity-test", 7, 2);
    sink.finalize();
  }
  CampaignShardConfig resume_cfg = cfg;
  resume_cfg.resume = true;
  EXPECT_THROW(ShardedCampaignSink(resume_cfg, "identity-test", 8, 2),
               std::runtime_error);
  EXPECT_THROW(ShardedCampaignSink(resume_cfg, "other-campaign", 7, 2),
               std::runtime_error);
  EXPECT_NO_THROW(ShardedCampaignSink(resume_cfg, "identity-test", 7, 2));
}

TEST(CampaignShard, FreshStartClearsStaleFiles) {
  const std::string dir = scratch_dir("stale");
  fs::create_directories(dir);
  // Debris from a hypothetical interrupted earlier run under a DIFFERENT
  // config: a stale manifest, an orphaned pending spill, a torn temp file.
  std::ofstream(dir + "/MANIFEST.json") << "{\"campaign\":\"old\"}";
  std::ofstream(dir + "/pending-000003") << "junk";
  std::ofstream(dir + "/findings-000099.jsonl.tmp") << "junk";

  const std::string clean_dir = scratch_dir("stale_clean");
  Campaign(sharded_config(clean_dir, 5, 2)).run(synthetic_factory());
  Campaign(sharded_config(dir, 5, 2)).run(synthetic_factory());

  EXPECT_FALSE(fs::exists(dir + "/pending-000003"));
  EXPECT_FALSE(fs::exists(dir + "/findings-000099.jsonl.tmp"));
  const Artifacts a = merged_artifacts(dir);
  const Artifacts c = merged_artifacts(clean_dir);
  EXPECT_EQ(a.findings, c.findings);
  EXPECT_EQ(a.timeline, c.timeline);
  EXPECT_EQ(a.metrics, c.metrics);
}

// Regression: campaigns whose runs emit no findings must still export an
// (empty) merged findings.jsonl — a zero-length rdbuf insert used to set
// failbit and abort the whole write_file.
TEST(CampaignShard, EmptyFindingsStillExport) {
  const std::string dir = scratch_dir("no_findings");
  Campaign(sharded_config(dir, 3, 2))
      .run([](std::uint64_t seed, const RunSpec&) { return bare_run(seed); });

  EXPECT_EQ(ShardFindingsMergeSink(dir).to_string(), "");
  EXPECT_TRUE(ShardFindingsMergeSink(dir).write_file(dir + "/findings.jsonl"));
  EXPECT_TRUE(fs::exists(dir + "/findings.jsonl"));
  EXPECT_EQ(fs::file_size(dir + "/findings.jsonl"), 0u);
  EXPECT_FALSE(ShardTimelineMergeSink(dir).to_string().empty());
}

// A manifest-listed shard that is missing or unreadable fails its merged
// artifact: the export returns false, leaves no temp file and keeps the
// previous artifact, instead of writing one that silently leaves those runs
// out; a metrics shard fails read_run_outcomes the same way. A zero-length
// shard (every captures shard here) is legal and merges as nothing.
class CampaignShardMissing : public ::testing::TestWithParam<const char*> {};

std::unique_ptr<ExportSink> merge_sink(const std::string& family,
                                       const std::string& dir) {
  if (family == "findings") {
    return std::make_unique<ShardFindingsMergeSink>(dir);
  }
  if (family == "timeline") {
    return std::make_unique<ShardTimelineMergeSink>(dir);
  }
  if (family == "metrics") {
    return std::make_unique<ShardMetricsMergeSink>(dir);
  }
  return std::make_unique<ShardCapturesMergeSink>(dir);
}

TEST_P(CampaignShardMissing, FailsTheMergedArtifact) {
  const std::string family = GetParam();
  const std::string dir = scratch_dir("missing_" + family);
  CampaignConfig cfg = sharded_config(dir, 4, 2);
  cfg.shard.shard_runs = 2;
  Campaign(cfg).run(synthetic_factory());
  const std::unique_ptr<ExportSink> sink = merge_sink(family, dir);
  const std::string dest = dir + "/merged-" + family;
  ASSERT_TRUE(sink->write_file(dest));
  const std::string before = sink->to_string();
  std::map<std::string, RunOutcomeCounts> outcomes;
  ASSERT_TRUE(read_run_outcomes(dir, &outcomes));
  EXPECT_EQ(outcomes.size(), 4u);
  const bool outcomes_read = family != "metrics";

  const std::string shard = dir + "/" + family + "-000000.jsonl";
  ASSERT_TRUE(fs::remove(shard));
  EXPECT_FALSE(sink->write_file(dest));
  EXPECT_FALSE(fs::exists(dest + ".tmp"));
  EXPECT_EQ(read_run_outcomes(dir, &outcomes), outcomes_read);
  // Present but unreadable (a directory opens, then every read fails).
  ASSERT_TRUE(fs::create_directory(shard));
  EXPECT_FALSE(sink->write_file(dest));
  EXPECT_FALSE(fs::exists(dest + ".tmp"));
  EXPECT_EQ(read_run_outcomes(dir, &outcomes), outcomes_read);
  std::ifstream in(dest, std::ios::binary);
  std::stringstream kept;
  kept << in.rdbuf();
  EXPECT_EQ(kept.str(), before);
}

INSTANTIATE_TEST_SUITE_P(Families, CampaignShardMissing,
                         ::testing::Values("findings", "timeline", "metrics",
                                           "captures"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// ---- write_merged_artifacts: the one publisher of the merged set ----

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// A two-shard campaign whose runs also flush a capture slice, so all four
// merged families carry bytes.
std::string published_campaign(const std::string& name) {
  const std::string dir = scratch_dir(name);
  CampaignConfig cfg = sharded_config(dir, 4, 2);
  cfg.shard.shard_runs = 2;
  Campaign(cfg).run([](std::uint64_t seed, const RunSpec& spec) {
    RunResult r = synthetic_run(seed);
    r.artifacts.captures_jsonl =
        "{\"capture\":" + std::to_string(spec.run_index) + "}\n";
    return r;
  });
  return dir;
}

TEST(CampaignShard, WriteMergedArtifactsPublishesEveryMergeSink) {
  const std::string dir = published_campaign("publish");
  std::string error;
  ASSERT_TRUE(write_merged_artifacts(dir, &error)) << error;
  const std::pair<const char*, std::string> expected[] = {
      {"findings.jsonl", ShardFindingsMergeSink(dir).to_string()},
      {"timeline.jsonl", ShardTimelineMergeSink(dir).to_string()},
      {"metrics.json", ShardMetricsMergeSink(dir).to_string()},
      {"captures.jsonl", ShardCapturesMergeSink(dir).to_string()}};
  for (const auto& [name, bytes] : expected) {
    EXPECT_FALSE(bytes.empty()) << name;
    EXPECT_EQ(slurp(dir + "/" + name), bytes) << name;
  }
}

// Every file is attempted: one that cannot be renamed into place fails the
// call and is named, the other three are still published, and no temp file
// is left behind.
TEST(CampaignShard, WriteMergedArtifactsNamesTheFileItCannotWrite) {
  const std::string dir = published_campaign("publish_blocked");
  ASSERT_TRUE(fs::create_directory(dir + "/metrics.json"));
  std::string error;
  EXPECT_FALSE(write_merged_artifacts(dir, &error));
  EXPECT_NE(error.find("metrics.json"), std::string::npos) << error;
  for (const char* name : {"findings.jsonl", "timeline.jsonl",
                           "captures.jsonl"}) {
    EXPECT_TRUE(fs::is_regular_file(dir + "/" + name)) << name;
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

// More timeline shards than one merge pass holds open: the passes through
// temp files give the bytes of one k-way merge over every shard, full-key
// ties across shards included (they leave in shard order), and leave no
// temp file behind.
TEST(CampaignShard, TimelineMergeOverTheFanInEqualsOnePass) {
  const std::string dir = scratch_dir("fan_in");
  fs::create_directories(dir);
  const std::size_t shards = 2 * kTimelineMergeFanIn + 44;
  std::ostringstream manifest;
  manifest << "{\"campaign\":\"c\",\"master_seed\":1,\"runs\":" << shards
           << ",\"complete\":true,\"shards\":[";
  std::vector<std::string> texts;
  sim::Rng rng(99);
  for (std::size_t i = 0; i < shards; ++i) {
    manifest << (i ? "," : "") << "{\"index\":" << i << ",\"run_begin\":" << i
             << ",\"run_end\":" << i + 1 << '}';
    // Few distinct (t, device, seq) keys, so most lines tie across shards.
    std::vector<std::tuple<double, std::string, int>> keys;
    for (int k = 0; k < 6; ++k) {
      keys.emplace_back(0.5 * static_cast<double>(rng.uniform_int(1, 4)),
                        rng.bernoulli(0.5) ? "a" : "b",
                        static_cast<int>(rng.uniform_int(0, 1)));
    }
    std::sort(keys.begin(), keys.end());
    std::ostringstream text;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const auto& [t, device, seq] = keys[k];
      text << "{\"device\":\"" << device << "\",\"t\":" << t
           << ",\"seq\":" << seq << ",\"shard\":" << i << ",\"line\":" << k
           << "}\n";
    }
    texts.push_back(text.str());
    char name[32];
    std::snprintf(name, sizeof name, "/timeline-%06zu.jsonl", i);
    std::ofstream(dir + name, std::ios::binary) << texts.back();
  }
  manifest << "]}";
  std::ofstream(dir + "/MANIFEST.json", std::ios::binary) << manifest.str();

  std::vector<std::istringstream> streams;
  streams.reserve(texts.size());
  std::vector<std::istream*> inputs;
  for (const std::string& text : texts) {
    inputs.push_back(&streams.emplace_back(text));
  }
  std::ostringstream one_pass;
  EXPECT_EQ(merge_sorted_timeline_streams(inputs, one_pass), 6 * shards);
  EXPECT_EQ(ShardTimelineMergeSink(dir).to_string(), one_pass.str());
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

// A shard whose target path is a directory fails to write, and the one
// atomic writer removes the temp file it wrote first.
TEST(CampaignShard, FailedShardWriteLeavesNoTempFile) {
  const std::string dir = scratch_dir("write_target_is_dir");
  fs::create_directories(dir + "/timeline-000000.jsonl/keep");
  CampaignConfig cfg = sharded_config(dir, 2, 1);
  EXPECT_THROW(Campaign(cfg).run(synthetic_factory()), std::runtime_error);
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

// A manifest-listed shard that is missing fails its merged file, which is
// not published from the shards that are left.
TEST(CampaignShard, WriteMergedArtifactsFailsOnAMissingListedShard) {
  const std::string dir = published_campaign("publish_missing");
  ASSERT_TRUE(fs::remove(dir + "/timeline-000000.jsonl"));
  std::string error;
  EXPECT_FALSE(write_merged_artifacts(dir, &error));
  EXPECT_NE(error.find("timeline.jsonl"), std::string::npos) << error;
  EXPECT_FALSE(fs::exists(dir + "/timeline.jsonl"));
  EXPECT_FALSE(fs::exists(dir + "/timeline.jsonl.tmp"));
}

// A listed timeline shard that opens but cannot be read (here a
// directory) fails the partitioned merge too: write_file publishes nothing
// and leaves no temp file.
TEST(CampaignShard, UnreadableListedTimelineShardFailsTheMerge) {
  const std::string dir = published_campaign("publish_unreadable");
  ASSERT_TRUE(fs::remove(dir + "/timeline-000001.jsonl"));
  ASSERT_TRUE(fs::create_directory(dir + "/timeline-000001.jsonl"));
  EXPECT_FALSE(ShardTimelineMergeSink(dir).write_file(dir + "/timeline.jsonl"));
  EXPECT_FALSE(fs::exists(dir + "/timeline.jsonl"));
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

// A metrics line cut short (a torn write, a truncated copy) fails every
// reader of the metrics shards alike: the metrics.json merge, the outcome
// reader and a resume.
TEST(CampaignShard, TruncatedMetricsLineFailsEveryReader) {
  const std::string dir = scratch_dir("truncated");
  CampaignConfig cfg = sharded_config(dir, 4, 2);
  cfg.shard.shard_runs = 2;
  Campaign(cfg).run(synthetic_factory());
  std::map<std::string, RunOutcomeCounts> outcomes;
  ASSERT_TRUE(read_run_outcomes(dir, &outcomes));
  ASSERT_TRUE(ShardMetricsMergeSink(dir).write_file(dir + "/metrics.json"));

  // Cut the shard's last line after its registry, before the closing brace
  // of the line: every member before the cut still parses.
  const std::string shard = dir + "/metrics-000000.jsonl";
  std::string text;
  {
    std::ifstream in(shard, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  ASSERT_GE(text.size(), 2u);
  ASSERT_EQ(text.substr(text.size() - 2), "}\n");
  for (const std::size_t cut : {std::size_t{2}, text.size() / 4}) {
    std::ofstream(shard, std::ios::binary | std::ios::trunc)
        << text.substr(0, text.size() - cut);
    EXPECT_FALSE(ShardMetricsMergeSink(dir).write_file(dir + "/metrics.json"))
        << cut;
    EXPECT_FALSE(fs::exists(dir + "/metrics.json.tmp"));
    std::string error;
    EXPECT_FALSE(read_run_outcomes(dir, &outcomes, &error)) << cut;
    EXPECT_NE(error.find("metrics-000000.jsonl"), std::string::npos) << error;
    CampaignConfig resume = cfg;
    resume.shard.resume = true;
    EXPECT_THROW(Campaign(resume).run(synthetic_factory()),
                 std::runtime_error);
  }
}

TEST(CampaignShard, EmptyShardedCampaignIsWellFormed) {
  const std::string dir = scratch_dir("empty");
  CampaignConfig cfg = sharded_config(dir, 0, 2);
  const CampaignResult result = Campaign(cfg).run(synthetic_factory());
  EXPECT_EQ(result.runs, 0u);
  EXPECT_EQ(result.failed_runs(), 0u);

  ShardManifest manifest;
  ASSERT_TRUE(read_shard_manifest(dir, &manifest));
  EXPECT_TRUE(manifest.complete);
  EXPECT_TRUE(manifest.shards.empty());
  EXPECT_EQ(merged_artifacts(dir).findings, "");
}

TEST(CampaignShard, QuarantinedRunsReportedAndExcludedFromMetrics) {
  const std::string dir = scratch_dir("quarantine");
  CampaignConfig cfg = sharded_config(dir, 4, 2);
  const CampaignResult result =
      Campaign(cfg).run([](std::uint64_t seed, const RunSpec& spec) {
        if (spec.run_index == 2) throw std::runtime_error("device offline");
        return synthetic_run(seed);
      });
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].run_index, 2u);
  EXPECT_EQ(result.quarantined[0].error, "device offline");
  EXPECT_EQ(result.failed_runs(), 1u);
  // Quarantined runs contribute nothing to pooled metrics or counters.
  EXPECT_EQ(result.registry.counters().at("events"), 6.0 * 3);
  const MetricAggregate* agg = result.metric("latency_s");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->pooled.n, 2u * 3);
  // And the registry carries the campaign-level accounting.
  EXPECT_EQ(result.registry.counter("campaign.quarantined"), 1.0);
}

}  // namespace
}  // namespace qoed::core
