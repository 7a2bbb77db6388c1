// Closed-loop control (src/ctrl) and the observability gates it feeds:
// policy grammar round-trip and byte-offset errors, PolicyEngine reactions
// (capture / extend / abort / reschedule) through real scenario runs, the
// ctrl reseed derivation shared by batch and serve, metrics-diff and
// trace-report. DESIGN.md §5i.
#include "ctrl/policy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/shard.h"
#include "ctrl/policy_engine.h"
#include "obs/metrics_diff.h"
#include "obs/trace_report.h"
#include "obs/tracer.h"
#include "sim/rng.h"
#include "svc/run_spec.h"
#include "svc/serve.h"

namespace qoed {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "qoed_ctrl_" + name;
  fs::remove_all(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string parse_error(const std::string& spec) {
  try {
    ctrl::Policy::parse(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// A post run whose radio capture blacks out mid-run: the ui/packet layers
// keep collecting, so layer.radio goes kLost once the silence outlasts
// HealthConfig::lost_after — the canonical reschedule trigger.
svc::ScenarioSpec blackout_spec(std::uint64_t seed) {
  svc::ScenarioSpec spec;
  spec.scenario = "post";
  spec.reps = 8;
  spec.seed = seed;
  spec.fault_plan = "radio:blackout=5..120";
  spec.policy = "on layer.radio==lost for 3s: abort+reschedule";
  return spec;
}

// ---- grammar ----

TEST(PolicyGrammar, ParsesAndRoundTrips) {
  const ctrl::Policy p = ctrl::Policy::parse(
      "on finding.confidence<0.8: capture; "
      "on layer.radio==lost for 5s: abort+reschedule; "
      "on window.latency_s>12.5: extend 10s");
  ASSERT_EQ(p.rules.size(), 3u);

  EXPECT_EQ(p.rules[0].subject, ctrl::Subject::kFindingConfidence);
  EXPECT_EQ(p.rules[0].op, ctrl::CmpOp::kLt);
  EXPECT_EQ(p.rules[0].value, 0.8);
  EXPECT_EQ(p.rules[0].sustain, sim::Duration::zero());
  ASSERT_EQ(p.rules[0].actions.size(), 1u);
  EXPECT_EQ(p.rules[0].actions[0].kind, ctrl::ActionKind::kCapture);

  EXPECT_EQ(p.rules[1].subject, ctrl::Subject::kLayerRadio);
  EXPECT_TRUE(p.rules[1].is_layer());
  EXPECT_EQ(p.rules[1].layer(), core::kLayerRadio);
  EXPECT_EQ(p.rules[1].value, 2);  // lost
  EXPECT_EQ(p.rules[1].sustain, sim::sec(5));
  ASSERT_EQ(p.rules[1].actions.size(), 2u);
  EXPECT_EQ(p.rules[1].actions[0].kind, ctrl::ActionKind::kAbort);
  EXPECT_EQ(p.rules[1].actions[1].kind, ctrl::ActionKind::kReschedule);

  EXPECT_EQ(p.rules[2].subject, ctrl::Subject::kWindowLatencyS);
  ASSERT_EQ(p.rules[2].actions.size(), 1u);
  EXPECT_EQ(p.rules[2].actions[0].kind, ctrl::ActionKind::kExtend);
  EXPECT_EQ(p.rules[2].actions[0].extend_s, 10);

  // Canonical form re-parses to the identical canonical form; health
  // values render as names, extend/sustain carry the 's' unit.
  const std::string canon = p.to_string();
  EXPECT_EQ(ctrl::Policy::parse(canon).to_string(), canon);
  EXPECT_NE(canon.find("layer.radio==lost for 5s"), std::string::npos);
  EXPECT_NE(canon.find("extend 10s"), std::string::npos);
}

TEST(PolicyGrammar, HealthOrdinalsAndNames) {
  // Bare ordinals are accepted and render back as names.
  const ctrl::Policy p = ctrl::Policy::parse("on layer.ui>=1: capture");
  ASSERT_EQ(p.rules.size(), 1u);
  EXPECT_EQ(p.rules[0].value, 1);
  EXPECT_EQ(p.rules[0].to_string(), "on layer.ui>=degraded: capture");
  EXPECT_EQ(
      ctrl::Policy::parse("on layer.packet!=healthy: capture").rules[0].value,
      0);
  // Ordinal order: healthy=0 < degraded=1 < lost=2.
  EXPECT_TRUE(
      ctrl::Policy::parse("on layer.radio>healthy: capture").rules[0].compare(
          2));
  EXPECT_FALSE(
      ctrl::Policy::parse("on layer.radio>degraded: capture").rules[0].compare(
          1));
}

TEST(PolicyGrammar, EmptyPolicyIsEmpty) {
  EXPECT_TRUE(ctrl::Policy::parse("").empty());
  EXPECT_TRUE(ctrl::Policy::parse("  \t ").empty());
  EXPECT_EQ(ctrl::Policy{}.to_string(), "");
}

TEST(PolicyGrammar, ErrorsCarryByteOffsetAndToken) {
  // Offsets are absolute bytes into the spec string.
  EXPECT_EQ(parse_error("on bogus>1: capture"),
            "policy: unknown subject at byte 3: 'bogus'");
  EXPECT_EQ(parse_error("on finding.confidence ~ 1: capture"),
            "policy: expected comparison operator at byte 22: '~'");
  EXPECT_EQ(parse_error("on finding.confidence<0.8: explode"),
            "policy: unknown action at byte 27: 'explode'");
  // 'for' sustain is only defined for continuously-sampled subjects.
  EXPECT_EQ(parse_error("on finding.confidence<0.8 for 5s: capture"),
            "policy: 'for' sustain requires a layer.* or flow.* subject at "
            "byte 26: 'for'");
  EXPECT_EQ(parse_error("on layer.radio==offline: capture"),
            "policy: expected a number for layer health at byte 16: "
            "'offline'");
  EXPECT_EQ(parse_error("on layer.radio==3: capture"),
            "policy: layer health must be healthy|degraded|lost (or 0|1|2) "
            "at byte 16: '3'");
  EXPECT_EQ(parse_error("on window.latency_s>"),
            "policy: expected a number for threshold at byte 20: "
            "'<end of input>'");
  EXPECT_EQ(parse_error("on window.latency_s>1: extend 0"),
            "policy: extend duration must be > 0 at byte 30: '0'");
  EXPECT_EQ(parse_error("on window.latency_s>1: capture extra"),
            "policy: expected ';' between rules at byte 31: 'e'");
}

// ---- engine reactions through real scenario runs ----

TEST(PolicyEngine, FindingRuleFiresCapture) {
  svc::ScenarioSpec spec;
  spec.scenario = "post";
  spec.reps = 2;
  spec.seed = 7;
  spec.policy = "on finding.confidence<=1: capture";
  const core::RunResult r = svc::run_scenario(spec);
  ASSERT_TRUE(r.ok) << r.error;
  // One capture per matching finding; the ctrl.* counter surface mirrors
  // the decision log.
  const auto& counters = r.registry.counters();
  EXPECT_GE(counters.at("ctrl.captures"), 1.0);
  EXPECT_EQ(counters.at("ctrl.decisions"), counters.at("ctrl.captures"));
  EXPECT_EQ(counters.at("ctrl.rules"), 1.0);
  EXPECT_EQ(counters.at("ctrl.aborts"), 0.0);
  EXPECT_GT(counters.at("ctrl.capture_packets"), 0.0);
  ASSERT_FALSE(r.artifacts.captures_jsonl.empty());
  // First slice header carries capture index, rule index and slice bounds.
  EXPECT_EQ(r.artifacts.captures_jsonl.rfind("{\"capture\":0,\"rule\":0,", 0),
            0u);
}

TEST(PolicyEngine, CaptureSlicePacketsStayInsideBounds) {
  svc::ScenarioSpec spec;
  spec.scenario = "post";
  spec.reps = 1;
  spec.seed = 9;
  spec.policy = "on finding.confidence<=1: capture";
  const core::RunResult r = svc::run_scenario(spec);
  ASSERT_TRUE(r.ok) << r.error;
  std::istringstream is(r.artifacts.captures_jsonl);
  std::string line;
  double start = 0, end = 0;
  std::size_t packets = 0, header_packets = 0;
  bool in_slice = false;
  while (std::getline(is, line)) {
    if (line.rfind("{\"capture\":", 0) == 0) {
      const auto s = line.find("\"start\":");
      const auto e = line.find("\"end\":");
      const auto n = line.find("\"packets\":");
      ASSERT_NE(s, std::string::npos) << line;
      ASSERT_NE(e, std::string::npos) << line;
      ASSERT_NE(n, std::string::npos) << line;
      start = std::strtod(line.c_str() + s + 8, nullptr);
      end = std::strtod(line.c_str() + e + 6, nullptr);
      header_packets += static_cast<std::size_t>(
          std::strtol(line.c_str() + n + 10, nullptr, 10));
      EXPECT_LE(start, end);
      EXPECT_GE(start, 0.0);  // clamped at virtual time zero
      in_slice = true;
      continue;
    }
    ASSERT_TRUE(in_slice) << "packet line before any header: " << line;
    ASSERT_EQ(line.rfind("{\"t\":", 0), 0u) << line;
    const double t = std::strtod(line.c_str() + 5, nullptr);
    EXPECT_GE(t, start);
    EXPECT_LE(t, end);
    ++packets;
  }
  EXPECT_EQ(packets, header_packets);
  EXPECT_EQ(static_cast<double>(packets),
            r.registry.counters().at("ctrl.capture_packets"));
}

TEST(PolicyEngine, ExtendPushesVirtualDeadline) {
  svc::ScenarioSpec spec;
  spec.scenario = "post";
  spec.reps = 1;
  spec.seed = 11;
  const core::RunResult plain = svc::run_scenario(spec);
  ASSERT_TRUE(plain.ok);

  spec.policy = "on window.latency_s>=0: extend 30";
  const core::RunResult extended = svc::run_scenario(spec);
  ASSERT_TRUE(extended.ok);
  const auto& counters = extended.registry.counters();
  EXPECT_GE(counters.at("ctrl.extends"), 1.0);
  EXPECT_EQ(counters.at("ctrl.extend_s"), 30.0 * counters.at("ctrl.extends"));
  // The run's virtual clock reached the extended deadline: strictly past
  // the plain run and at least one full extension long.
  EXPECT_GT(extended.virtual_seconds, plain.virtual_seconds);
  EXPECT_GE(extended.virtual_seconds, 30.0);
}

TEST(PolicyEngine, AbortStopsTheRunEarly) {
  svc::ScenarioSpec spec;
  spec.scenario = "post";
  spec.reps = 6;
  spec.seed = 13;
  const core::RunResult plain = svc::run_scenario(spec);
  ASSERT_TRUE(plain.ok);

  // The first finalized window aborts the run. Findings that finalize in
  // the epilogue may fire the rule again, so the count is >= 1, but the
  // clock froze at the first firing.
  spec.policy = "on finding.total_s>=0: abort";
  const core::RunResult aborted = svc::run_scenario(spec);
  ASSERT_TRUE(aborted.ok);
  EXPECT_GE(aborted.registry.counters().at("ctrl.aborts"), 1.0);
  EXPECT_LT(aborted.virtual_seconds, plain.virtual_seconds);
  EXPECT_FALSE(aborted.reschedule_requested);
}

TEST(PolicyEngine, LayerLostSustainRequestsReschedule) {
  const core::RunResult r = svc::run_scenario(blackout_spec(17));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.reschedule_requested);
  EXPECT_EQ(r.reschedule_reason, "layer.radio==lost for 3s");
  EXPECT_EQ(r.registry.counters().at("ctrl.reschedules"), 1.0);
  EXPECT_EQ(r.registry.counters().at("ctrl.aborts"), 1.0);
  // The blackout opens at 5s and kLost needs lost_after of silence, so the
  // sustained-lost abort lands well before the un-aborted run would end.
  EXPECT_GT(r.virtual_seconds, 5.0);
}

TEST(PolicyEngine, PolicyFreeRunsCarryNoCtrlSurface) {
  svc::ScenarioSpec spec;
  spec.scenario = "post";
  spec.reps = 1;
  spec.seed = 19;
  const core::RunResult r = svc::run_scenario(spec);
  ASSERT_TRUE(r.ok);
  for (const auto& [name, value] : r.registry.counters()) {
    EXPECT_NE(name.rfind("ctrl.", 0), 0u) << name << "=" << value;
  }
  EXPECT_TRUE(r.artifacts.captures_jsonl.empty());
  EXPECT_FALSE(r.reschedule_requested);
}

TEST(PolicyEngine, SpecJsonRoundTripsPolicyAndRejectsBadPolicy) {
  svc::ScenarioSpec spec;
  spec.scenario = "post";
  spec.policy = "on layer.radio==lost for 5s: abort+reschedule";
  svc::ScenarioSpec parsed;
  std::string error;
  ASSERT_TRUE(svc::ScenarioSpec::parse_json(spec.to_json(), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.policy, spec.policy);
  EXPECT_EQ(parsed.to_json(), spec.to_json());
  // A malformed policy is rejected at spec-parse (serve submit) time, byte
  // offset intact — not deferred to a quarantined run.
  EXPECT_FALSE(svc::ScenarioSpec::parse_json(
      "{\"scenario\":\"post\",\"policy\":\"on bogus>1: capture\"}", &parsed,
      &error));
  EXPECT_NE(error.find("at byte 3: 'bogus'"), std::string::npos) << error;
}

// ---- seed derivation: golden values and stream separation ----

// Hard-coded goldens: any change to the derivation chain (fork tags, hash,
// ordering) breaks replayability of recorded campaigns and must show up
// here as a deliberate, visible diff.
TEST(CtrlReseed, GoldenSeedValues) {
  using core::Campaign;
  EXPECT_EQ(Campaign::run_seed(1, 0), 2035427230173391081ull);
  EXPECT_EQ(Campaign::run_seed(7, 3), 13592711164833080049ull);
  EXPECT_EQ(Campaign::retry_seed(7, 3, 1), 4529801691394191600ull);
  EXPECT_EQ(Campaign::retry_seed(7, 3, 2), 3678474613209358591ull);
  EXPECT_EQ(Campaign::ctrl_reseed(7, 3, 1), 16525562610585018770ull);
  EXPECT_EQ(Campaign::ctrl_reseed(7, 3, 2), 8895624993198071658ull);
  EXPECT_EQ(Campaign::ctrl_reseed(1, 0, 1), 17482592516186139817ull);
  // The svc-side reschedule reseed (rooted at spec.seed, not the campaign
  // run seed) uses the same "ctrl/N" fork tag.
  EXPECT_EQ(sim::Rng(42).fork("ctrl/1").seed(), 7819366347865454982ull);
  EXPECT_EQ(sim::Rng(42).fork("ctrl/2").seed(), 3616375100522205934ull);
}

TEST(CtrlReseed, StreamsAreDistinct) {
  using core::Campaign;
  // Round 0 of both streams is the run seed itself; later rounds never
  // collide — a rescheduled run must not replay a retried run's draws.
  EXPECT_EQ(Campaign::ctrl_reseed(7, 3, 0), Campaign::run_seed(7, 3));
  EXPECT_EQ(Campaign::retry_seed(7, 3, 0), Campaign::run_seed(7, 3));
  std::set<std::uint64_t> seeds;
  for (std::size_t k = 0; k < 4; ++k) {
    seeds.insert(Campaign::retry_seed(7, 3, k));
    seeds.insert(Campaign::ctrl_reseed(7, 3, k));
  }
  EXPECT_EQ(seeds.size(), 7u);  // only round 0 coincides
}

TEST(CtrlReseed, RunSpecOverloadReseedsFromSpecSeed) {
  svc::ScenarioSpec spec;
  spec.scenario = "post";
  spec.reps = 1;
  spec.seed = 42;

  core::RunSpec rs;
  rs.reschedule = 1;
  const core::RunResult round1 = svc::run_scenario(spec, rs);

  svc::ScenarioSpec reseeded = spec;
  reseeded.seed = sim::Rng(42).fork("ctrl/1").seed();
  const core::RunResult direct = svc::run_scenario(reseeded);

  ASSERT_TRUE(round1.ok) << round1.error;
  ASSERT_TRUE(direct.ok) << direct.error;
  EXPECT_EQ(round1.artifacts.timeline_jsonl, direct.artifacts.timeline_jsonl);
  EXPECT_EQ(round1.artifacts.findings_jsonl, direct.artifacts.findings_jsonl);

  // Round 0 runs the spec itself, untouched.
  rs.reschedule = 0;
  EXPECT_EQ(svc::run_scenario(spec, rs).artifacts.timeline_jsonl,
            svc::run_scenario(spec).artifacts.timeline_jsonl);
}

// ---- end-to-end reschedule: batch and serve stay byte-identical ----

TEST(CtrlReschedule, BatchFleetReschedulesAndCounts) {
  const std::string dir = scratch_dir("batch_resched");
  std::vector<svc::ScenarioSpec> specs = {blackout_spec(23)};
  core::CampaignConfig cfg;
  cfg.name = "fleet";
  cfg.runs = specs.size();
  cfg.jobs = 1;
  cfg.shard.out_dir = dir;
  core::Campaign campaign(cfg);
  const core::CampaignResult result =
      campaign.run([&specs](std::uint64_t, const core::RunSpec& rs) {
        return svc::run_scenario(specs[rs.run_index], rs);
      });
  ASSERT_EQ(result.run_reschedules.size(), 1u);
  EXPECT_EQ(result.run_reschedules[0], 1u);  // budget of 1 round, consumed
  EXPECT_EQ(result.registry.counter("campaign.rescheduled"), 1.0);
  EXPECT_TRUE(result.quarantined.empty());

  // The shard metrics lines record the rounds; the outcome reader joins
  // them back per device label for fleet rollups.
  std::map<std::string, core::RunOutcomeCounts> outcomes;
  ASSERT_TRUE(core::read_run_outcomes(dir, &outcomes));
  ASSERT_EQ(outcomes.count("run-0"), 1u);
  EXPECT_EQ(outcomes.at("run-0").rescheduled, 1u);
  EXPECT_EQ(outcomes.at("run-0").quarantined, 0u);
}

TEST(CtrlReschedule, ServeMatchesBatchByteForByte) {
  std::vector<svc::ScenarioSpec> specs = {blackout_spec(29),
                                          blackout_spec(31)};

  const std::string serve_dir = scratch_dir("resched_serve");
  std::string serve_output;
  {
    std::string input;
    for (const svc::ScenarioSpec& s : specs) {
      input += "{\"cmd\":\"submit\"," + s.to_json().substr(1) + "\n";
    }
    input += "{\"cmd\":\"shutdown\"}\n";
    std::istringstream in(input);
    std::ostringstream out;
    core::CampaignConfig cfg;
    cfg.name = "serve";
    cfg.jobs = 2;
    cfg.shard.out_dir = serve_dir;
    svc::ServeEngine engine(in, out, cfg);
    ASSERT_EQ(engine.run(), 0);
    serve_output = out.str();
  }
  // The serve stream narrates the reschedule in commit order, and the run
  // summary separates reschedule rounds from failure retries.
  EXPECT_NE(
      serve_output.find("{\"event\":\"reschedule\",\"id\":0,\"round\":1}"),
      std::string::npos)
      << serve_output;
  EXPECT_NE(
      serve_output.find("{\"event\":\"reschedule\",\"id\":1,\"round\":1}"),
      std::string::npos);
  EXPECT_NE(serve_output.find("\"attempts\":2,\"resched\":1"),
            std::string::npos)
      << serve_output;

  const std::string batch_dir = scratch_dir("resched_batch");
  {
    core::CampaignConfig cfg;
    cfg.name = "serve";  // the serve engine's campaign identity
    cfg.runs = specs.size();
    cfg.jobs = 1;  // a different pool size must not matter
    cfg.shard.out_dir = batch_dir;
    core::Campaign campaign(cfg);
    campaign.run([&specs](std::uint64_t, const core::RunSpec& rs) {
      return svc::run_scenario(specs[rs.run_index], rs);
    });
    std::string error;
    ASSERT_TRUE(core::write_merged_artifacts(batch_dir, &error)) << error;
  }
  for (const char* name : {"MANIFEST.json", "findings.jsonl",
                           "timeline.jsonl", "metrics.json",
                           "captures.jsonl"}) {
    EXPECT_EQ(slurp(serve_dir + "/" + name), slurp(batch_dir + "/" + name))
        << name;
  }
}

TEST(CtrlReschedule, PolicyDecisionsAreJobsInvariant) {
  std::vector<svc::ScenarioSpec> specs;
  for (std::uint64_t seed : {41, 43, 47}) specs.push_back(blackout_spec(seed));
  const auto run_at = [&specs](std::size_t jobs, const std::string& dir) {
    core::CampaignConfig cfg;
    cfg.name = "fleet";
    cfg.runs = specs.size();
    cfg.jobs = jobs;
    cfg.shard.out_dir = dir;
    core::Campaign campaign(cfg);
    campaign.run([&specs](std::uint64_t, const core::RunSpec& rs) {
      return svc::run_scenario(specs[rs.run_index], rs);
    });
    std::string error;
    EXPECT_TRUE(core::write_merged_artifacts(dir, &error)) << error;
  };
  const std::string d1 = scratch_dir("jobs1");
  const std::string d4 = scratch_dir("jobs4");
  run_at(1, d1);
  run_at(4, d4);
  for (const char* name : {"findings.jsonl", "timeline.jsonl", "metrics.json",
                           "captures.jsonl"}) {
    EXPECT_EQ(slurp(d1 + "/" + name), slurp(d4 + "/" + name)) << name;
  }
}

TEST(CtrlReschedule, BudgetBoundsRounds) {
  std::vector<svc::ScenarioSpec> specs = {blackout_spec(53)};
  // The blackout persists at every reseed, so every round re-requests a
  // reschedule and the budget alone decides how many rounds run.
  const auto rounds_with_budget = [&specs](std::size_t budget) {
    core::CampaignConfig cfg;
    cfg.name = "fleet";
    cfg.runs = 1;
    cfg.jobs = 1;
    cfg.max_reschedules = budget;
    core::Campaign campaign(cfg);
    const core::CampaignResult r =
        campaign.run([&specs](std::uint64_t, const core::RunSpec& rs) {
          return svc::run_scenario(specs[rs.run_index], rs);
        });
    return r.run_reschedules[0];
  };
  EXPECT_EQ(rounds_with_budget(0), 0u);
  EXPECT_EQ(rounds_with_budget(2), 2u);
}

// ---- metrics-diff ----

TEST(MetricsDiff, ClassifiesDriftMissingAndAdded) {
  obs::MetricsRegistry base;
  base.add_counter("a.events", 100);
  base.add_counter("a.bytes", 1000);
  base.add_counter("b.gone", 5);
  base.set_gauge("g.level", 2);
  obs::MetricsRegistry cur;
  cur.add_counter("a.events", 100);  // unchanged
  cur.add_counter("a.bytes", 1001);  // ~1e-3 drift
  cur.add_counter("c.new", 7);       // added (informational)
  cur.set_gauge("g.level", 2);

  obs::DiffOptions opts;
  const obs::DiffReport strict = obs::diff_registries(base, cur, opts);
  EXPECT_EQ(strict.regressions, 2u);  // a.bytes drifted, b.gone missing
  EXPECT_EQ(strict.added, 1u);
  EXPECT_FALSE(strict.ok());

  // Within tolerance the drift passes; the missing key still fails.
  opts.tolerances.emplace_back("a.", 1e-2);
  EXPECT_EQ(obs::diff_registries(base, cur, opts).regressions, 1u);

  // +inf ignores a subtree entirely — even a missing key.
  opts.tolerances.emplace_back("b.", std::numeric_limits<double>::infinity());
  EXPECT_TRUE(obs::diff_registries(base, cur, opts).ok());
}

TEST(MetricsDiff, LongestPrefixWinsAndHistogramsReduce) {
  obs::MetricsRegistry base;
  base.add_counter("net.tcp.retx", 10);
  base.observe("lat", 1.5);
  obs::MetricsRegistry cur;
  cur.add_counter("net.tcp.retx", 20);
  cur.observe("lat", 1.5);
  cur.observe("lat", 2.5);  // count and sum both change

  obs::DiffOptions opts;
  opts.tolerances.emplace_back("net.",
                               std::numeric_limits<double>::infinity());
  opts.tolerances.emplace_back("net.tcp.", 0.0);  // longer prefix re-tightens
  const obs::DiffReport report = obs::diff_registries(base, cur, opts);
  EXPECT_EQ(report.regressions, 3u);  // retx + histogram count + sum
  bool saw_count = false, saw_sum = false;
  for (const obs::DiffEntry& e : report.entries) {
    if (e.key == "histogram.count lat") saw_count = true;
    if (e.key == "histogram.sum lat") saw_sum = true;
  }
  EXPECT_TRUE(saw_count);
  EXPECT_TRUE(saw_sum);

  std::ostringstream os;
  obs::print_diff(os, report);
  EXPECT_NE(os.str().find("REGRESSION"), std::string::npos);
  EXPECT_NE(os.str().find("3 regressions"), std::string::npos);
}

TEST(MetricsDiff, ParseTolerances) {
  const auto tols = obs::parse_tolerances("a.=1e-6,b.=inf,=0.5");
  ASSERT_EQ(tols.size(), 3u);
  EXPECT_EQ(tols[0].first, "a.");
  EXPECT_EQ(tols[0].second, 1e-6);
  EXPECT_TRUE(std::isinf(tols[1].second));
  EXPECT_EQ(tols[2].first, "");  // empty prefix = every key
  EXPECT_TRUE(obs::parse_tolerances("").empty());
  EXPECT_THROW(obs::parse_tolerances("oops"), std::invalid_argument);
  EXPECT_THROW(obs::parse_tolerances("a.=-1"), std::invalid_argument);
}

// ---- trace-report ----

TEST(TraceReport, CrossReferencesWindowsAndInstants) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  const std::uint32_t track = tracer.track("device:phone");
  const auto id = tracer.span_open(track, "page_load", "diag",
                                   sim::kTimeZero + sim::sec(2));
  tracer.instant(track, "blackout", "fault", sim::kTimeZero + sim::sec(3));
  tracer.instant(track, "capture", "ctrl", sim::kTimeZero + sim::sec(4));
  tracer.span_close(id, sim::kTimeZero + sim::sec(6));
  tracer.instant(track, "drop", "fault", sim::kTimeZero + sim::sec(9));

  std::ostringstream json;
  tracer.write_chrome_json(json, "device:phone");

  obs::TraceReport report;
  std::string error;
  ASSERT_TRUE(obs::analyze_trace(json.str(), &report, &error)) << error;
  ASSERT_EQ(report.windows.size(), 1u);
  EXPECT_EQ(report.windows[0].name, "page_load");
  EXPECT_EQ(report.windows[0].start_s, 2.0);
  EXPECT_EQ(report.windows[0].end_s, 6.0);
  ASSERT_EQ(report.windows[0].faults.size(), 1u);
  EXPECT_EQ(report.windows[0].faults[0].name, "blackout");
  ASSERT_EQ(report.windows[0].ctrl.size(), 1u);
  EXPECT_EQ(report.windows[0].ctrl[0].name, "capture");
  EXPECT_EQ(report.fault_instants, 2u);
  EXPECT_EQ(report.ctrl_instants, 1u);
  EXPECT_EQ(report.unmatched_faults, 1u);  // the 9s drop is outside
  EXPECT_EQ(report.unmatched_ctrl, 0u);

  std::ostringstream os;
  obs::print_trace_report(os, report);
  EXPECT_NE(
      os.str().find("trace-report: 1 diag windows, 2 fault instants, 1 ctrl"),
      std::string::npos);
  EXPECT_NE(os.str().find("outside windows: 1 fault, 0 ctrl"),
            std::string::npos);

  EXPECT_FALSE(obs::analyze_trace("{\"noTraceEvents\":1}", &report, &error));
  EXPECT_NE(error.find("no traceEvents"), std::string::npos);
  EXPECT_FALSE(obs::analyze_trace("not json", &report, &error));
}

}  // namespace
}  // namespace qoed
