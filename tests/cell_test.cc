// Shared-cell contention subsystem: N=1 transparency, mechanism separation,
// RRC grant limits, and per-cell artifact determinism through a Campaign.
//
// The contracts under test (DESIGN.md §5h):
//   - an uncontended 1-member cell is bit-identical to the plain per-link
//     gate path (same samples, same artifact bytes);
//   - under contention the mechanisms separate in KIND: policing drops grow
//     with N while shaping buffers (deep shaper backlog, drops only at
//     overflow);
//   - per-cell merged artifacts are byte-identical at any --jobs and under
//     sharded --resume.
#include "cell/cell_run.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "cell/shared_cell.h"
#include "core/campaign.h"
#include "core/export_sink.h"
#include "core/shard.h"
#include "core/timeline_merge.h"

namespace qoed::cell {
namespace {

namespace fs = std::filesystem;

CellScenarioSpec small_spec(int n, const std::string& mechanism,
                            double capacity_kbps, long throttle_kbps) {
  CellScenarioSpec spec = CellScenarioSpec::uniform("browser", n,
                                                    /*stagger_s=*/2);
  spec.network = "3g";
  spec.seed = 7;
  spec.capacity_kbps = capacity_kbps;
  spec.throttle_kbps = throttle_kbps;
  spec.mechanism = mechanism;
  for (auto& d : spec.devices) d.actions = 2;
  return spec;
}

// The run's whole registry snapshot (counters, gauges and histograms) minus
// the keys only a shared cell exports (cell.gate.*, cell.sched.*,
// cell.rrc.*, cell.members, cell.member.*), which the plain path cannot have.
std::string non_cell_snapshot(const core::RunResult& res) {
  const auto cell_only = [](const std::string& key) {
    for (const char* prefix :
         {"cell.gate.", "cell.sched.", "cell.rrc.", "cell.member"}) {
      if (key.rfind(prefix, 0) == 0) return true;
    }
    return false;
  };
  obs::MetricsRegistry out;
  for (const auto& [key, value] : res.registry.counters()) {
    if (!cell_only(key)) out.add_counter(key, value);
  }
  for (const auto& [key, value] : res.registry.gauges()) {
    if (!cell_only(key)) out.set_gauge(key, value);
  }
  for (const auto& [key, hist] : res.registry.histograms()) {
    if (!cell_only(key)) out.histogram(key, hist.bounds) = hist;
  }
  return out.snapshot();
}

// An uncontended (capacity 0) one-member cell must be invisible: the shared
// gate sees exactly the traffic the private link gate would have seen, so
// samples, artifacts, and every non-cell metric match bit-for-bit.
TEST(SharedCellRun, SingleDeviceTransparencyBitForBit) {
  for (const char* mechanism : {"shaping", "policing"}) {
    CellScenarioSpec cell_spec = small_spec(1, mechanism, /*capacity=*/0,
                                            /*throttle=*/250);
    CellScenarioSpec plain_spec = cell_spec;
    plain_spec.use_cell = false;

    const core::RunResult with_cell = run_cell_scenario(cell_spec);
    const core::RunResult plain = run_cell_scenario(plain_spec);

    EXPECT_EQ(with_cell.samples, plain.samples) << mechanism;
    EXPECT_EQ(with_cell.artifacts.timeline_jsonl, plain.artifacts.timeline_jsonl)
        << mechanism;
    EXPECT_EQ(with_cell.artifacts.findings_jsonl, plain.artifacts.findings_jsonl)
        << mechanism;
    EXPECT_EQ(with_cell.virtual_seconds, plain.virtual_seconds) << mechanism;
    EXPECT_EQ(non_cell_snapshot(with_cell), non_cell_snapshot(plain))
        << mechanism;
    // The gate really ran: it accepted the same bytes the run delivered.
    EXPECT_GT(with_cell.registry.counter("cell.gate.accepted_bytes"), 0)
        << mechanism;
  }
}

TEST(SharedCellRun, SameSpecTwiceIsByteIdentical) {
  const CellScenarioSpec spec = small_spec(3, "shaping", 2000, 250);
  const core::RunResult a = run_cell_scenario(spec);
  const core::RunResult b = run_cell_scenario(spec);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.registry.snapshot(), b.registry.snapshot());
  EXPECT_EQ(a.artifacts.timeline_jsonl, b.artifacts.timeline_jsonl);
  EXPECT_EQ(a.artifacts.findings_jsonl, b.artifacts.findings_jsonl);
}

// The capstone separation: at N=8 policing turns contention into loss
// (drops ~linear in N, no gate backlog) while shaping turns it into buffered
// delay (deep shaper backlog, at most overflow drops).
TEST(SharedCellRun, MechanismsSeparateUnderContention) {
  const core::RunResult shaped = run_cell_scenario(small_spec(8, "shaping",
                                                              2000, 250));
  const core::RunResult policed = run_cell_scenario(small_spec(8, "policing",
                                                               2000, 250));

  const double shaped_drops =
      shaped.registry.counter("cell.gate.dropped_packets");
  const double policed_drops =
      policed.registry.counter("cell.gate.dropped_packets");
  EXPECT_GT(policed_drops, 5 * shaped_drops);
  EXPECT_GT(policed_drops, 100);

  // Shaping buffers the excess instead; policing never queues at the gate.
  EXPECT_GT(shaped.registry.gauges().at("cell.gate.max_queue_bytes"),
            10 * 1024);
  EXPECT_EQ(policed.registry.gauges().at("cell.gate.max_queue_bytes"), 0);

  // Contention is real on the air interface too: the PF scheduler queued.
  EXPECT_GT(shaped.registry.counter("cell.sched.queue_delay_s"), 0);
  EXPECT_GT(policed.registry.counter("cell.sched.queue_delay_s"), 0);
}

TEST(SharedCellRun, ContentionGrowsWithPopulation) {
  const core::RunResult one = run_cell_scenario(small_spec(1, "policing",
                                                           2000, 250));
  const core::RunResult eight = run_cell_scenario(small_spec(8, "policing",
                                                             2000, 250));
  EXPECT_GT(eight.registry.counter("cell.gate.dropped_packets"),
            one.registry.counter("cell.gate.dropped_packets"));
  // Every device produced page loads even under contention.
  const auto it = eight.samples.find("latency_s");
  ASSERT_NE(it, eight.samples.end());
  EXPECT_GE(it->second.size(), 8u);
}

// RRC signalling limits: with one grant and several devices promoting, later
// promotions pay the per-excess penalty.
TEST(SharedCellRun, GrantLimitDelaysPromotionsUnderLoad) {
  CellScenarioSpec limited = small_spec(4, "shaping", 2000, 0);
  limited.max_active_grants = 1;
  limited.promotion_penalty_ms = 300;
  CellScenarioSpec unlimited = limited;
  unlimited.max_active_grants = 0;

  const core::RunResult lim = run_cell_scenario(limited);
  const core::RunResult unlim = run_cell_scenario(unlimited);
  EXPECT_GT(lim.registry.counter("cell.rrc.delayed_promotions"), 0);
  EXPECT_EQ(unlim.registry.counter("cell.rrc.delayed_promotions"), 0);
  EXPECT_GT(lim.registry.counter("cell.rrc.extra_delay_s"), 0);
}

// Heterogeneous mixes: all three app classes run on one cell, each device's
// findings stream is stamped with its label, and the merged summary groups
// by device.
TEST(SharedCellRun, HeterogeneousMixProducesPerDeviceArtifacts) {
  CellScenarioSpec spec;
  spec.seed = 11;
  spec.capacity_kbps = 2000;
  spec.throttle_kbps = 250;
  spec.devices = {{"browser", 0, 2, 2}, {"social", 1, 2, 2},
                  {"video", 2, 1, 2}};
  const core::RunResult res = run_cell_scenario(spec);

  EXPECT_FALSE(res.samples.at("latency_s").empty());
  EXPECT_FALSE(res.samples.at("loading_s").empty());
  for (int i = 0; i < 3; ++i) {
    const std::string key = "cell.device." + cell_device_label(i) + ".findings";
    EXPECT_TRUE(res.registry.counters().count(key)) << key;
  }
  // Members end through the shared instrument epilogue, flow.* included.
  EXPECT_GT(res.registry.counter("flow.segments"), 0);

  const core::MergedSummary summary = core::summarize_merged(
      res.artifacts.timeline_jsonl, res.artifacts.findings_jsonl);
  ASSERT_EQ(summary.groups.size(), 3u);
  EXPECT_EQ(summary.groups[0].label, "dev-0000");
  EXPECT_EQ(summary.groups[2].label, "dev-0002");
  for (const auto& g : summary.groups) EXPECT_GT(g.timeline_lines, 0u);
}

TEST(SharedCellRun, SpecJsonRoundTrip) {
  CellScenarioSpec spec = small_spec(2, "policing", 1500, 128);
  spec.max_active_grants = 2;
  spec.promotion_penalty_ms = 450;
  spec.devices[1].app = "video";
  spec.devices[1].think_s = 9;

  CellScenarioSpec parsed;
  std::string error;
  ASSERT_TRUE(CellScenarioSpec::parse_json(spec.to_json(), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.to_json(), spec.to_json());

  EXPECT_FALSE(CellScenarioSpec::parse_json("{\"devices\":[]}", &parsed,
                                            &error));
  EXPECT_FALSE(CellScenarioSpec::parse_json(
      "{\"mechanism\":\"tarpit\",\"devices\":[{\"app\":\"browser\"}]}",
      &parsed, &error));
  // Misspelt keys, top-level or per device, are rejected by name.
  EXPECT_FALSE(CellScenarioSpec::parse_json(
      "{\"throttle_kbps\":200,\"devices\":[{\"app\":\"browser\"}]}",
      &parsed, &error));
  EXPECT_NE(error.find("\"throttle_kbps\""), std::string::npos) << error;
  EXPECT_FALSE(CellScenarioSpec::parse_json(
      "{\"devices\":[{\"app\":\"browser\",\"arival\":3}]}", &parsed,
      &error));
  EXPECT_NE(error.find("\"arival\""), std::string::npos) << error;
}

TEST(SharedCellRun, InvalidSpecThrows) {
  CellScenarioSpec spec;
  spec.devices.clear();
  EXPECT_THROW(run_cell_scenario(spec), std::invalid_argument);
  spec = small_spec(1, "shaping", 0, 0);
  spec.devices[0].app = "fax";
  EXPECT_THROW(run_cell_scenario(spec), std::invalid_argument);
}

// --- Campaign integration: per-cell artifacts through the sharded path ---

core::RunFn cell_factory() {
  return [](std::uint64_t seed, const core::RunSpec&) {
    CellScenarioSpec spec = small_spec(2, "policing", 2000, 250);
    spec.seed = seed;
    return run_cell_scenario(spec);
  };
}

std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "qoed_cell_" + name;
  fs::remove_all(dir);
  return dir;
}

core::CampaignConfig cell_campaign(const std::string& dir, std::size_t jobs) {
  core::CampaignConfig cfg;
  cfg.name = "cell-test";
  cfg.runs = 3;
  cfg.jobs = jobs;
  cfg.master_seed = 99;
  cfg.shard.out_dir = dir;
  return cfg;
}

TEST(SharedCellCampaign, ArtifactsInvariantAcrossJobs) {
  const std::string dir1 = scratch_dir("jobs1");
  const std::string dir4 = scratch_dir("jobs4");
  core::Campaign(cell_campaign(dir1, 1)).run(cell_factory());
  core::Campaign(cell_campaign(dir4, 4)).run(cell_factory());

  EXPECT_EQ(core::ShardFindingsMergeSink(dir1).to_string(),
            core::ShardFindingsMergeSink(dir4).to_string());
  EXPECT_EQ(core::ShardTimelineMergeSink(dir1).to_string(),
            core::ShardTimelineMergeSink(dir4).to_string());
  EXPECT_EQ(core::ShardMetricsMergeSink(dir1).to_string(),
            core::ShardMetricsMergeSink(dir4).to_string());
}

TEST(SharedCellCampaign, ResumeReproducesIdenticalBytes) {
  const std::string clean_dir = scratch_dir("resume_clean");
  core::CampaignConfig clean_cfg = cell_campaign(clean_dir, 2);
  clean_cfg.shard.shard_runs = 1;
  core::Campaign(clean_cfg).run(cell_factory());

  // Simulated kill: shard_runs=1 makes run 0 durable on submit; the sink is
  // dropped without finalize(), leaving an incomplete manifest.
  const std::string dir = scratch_dir("resume");
  core::CampaignShardConfig shard_cfg;
  shard_cfg.out_dir = dir;
  shard_cfg.shard_runs = 1;
  {
    core::ShardedCampaignSink sink(shard_cfg, "cell-test", 99, 3);
    core::RunExecution ex;
    ex.last_seed = core::Campaign::run_seed(99, 0);
    ex.result = cell_factory()(ex.last_seed, core::RunSpec{});
    ex.attempts = 1;
    sink.submit(0, std::move(ex));
  }

  // Campaign-level resume runs only the missing runs and the final bytes
  // match an uninterrupted campaign exactly.
  core::CampaignConfig resume_cfg = cell_campaign(dir, 2);
  resume_cfg.shard.shard_runs = 1;
  resume_cfg.shard.resume = true;
  core::Campaign(resume_cfg).run(cell_factory());

  EXPECT_EQ(core::ShardFindingsMergeSink(dir).to_string(),
            core::ShardFindingsMergeSink(clean_dir).to_string());
  EXPECT_EQ(core::ShardTimelineMergeSink(dir).to_string(),
            core::ShardTimelineMergeSink(clean_dir).to_string());
  EXPECT_EQ(core::ShardMetricsMergeSink(dir).to_string(),
            core::ShardMetricsMergeSink(clean_dir).to_string());
}

}  // namespace
}  // namespace qoed::cell
