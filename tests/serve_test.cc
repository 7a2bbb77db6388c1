// Service mode (`qoed_cli serve`): protocol behavior over in-memory
// streams, and the batch-equivalence contract — a serve session with a
// shard out_dir leaves the identical shard directory a batch fleet over the
// same specs would.
#include "svc/serve.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/shard.h"
#include "svc/run_spec.h"

namespace qoed::svc {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "qoed_serve_" + name;
  fs::remove_all(dir);
  return dir;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

// A serve session's settings: the batch campaign's own type, open-ended.
core::CampaignConfig serve_config(const std::string& out_dir,
                                  std::size_t jobs = 1) {
  core::CampaignConfig cfg;
  cfg.name = "serve";
  cfg.jobs = jobs;
  cfg.shard.out_dir = out_dir;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::size_t count_containing(const std::vector<std::string>& lines,
                             const std::string& needle) {
  std::size_t n = 0;
  for (const auto& l : lines) {
    if (l.find(needle) != std::string::npos) ++n;
  }
  return n;
}

// Cheap specs: the "post" scenario with one repetition finishes in a few
// milliseconds of wall time per run.
std::string submit_line(std::uint64_t seed) {
  return "{\"cmd\":\"submit\",\"scenario\":\"post\",\"seed\":" +
         std::to_string(seed) + ",\"reps\":1}\n";
}

TEST(Serve, SubmitStatusDrainShutdown) {
  const std::string dir = scratch_dir("basic");
  std::istringstream in(submit_line(11) + submit_line(12) +
                        "{\"cmd\":\"status\"}\n"
                        "{\"cmd\":\"drain\"}\n"
                        "{\"cmd\":\"shutdown\"}\n");
  std::ostringstream out;
  ServeEngine engine(in, out, serve_config(dir, 2));
  EXPECT_EQ(engine.run(), 0);

  const std::vector<std::string> lines = lines_of(out.str());
  // 2 submit acks with ids 0 and 1.
  EXPECT_EQ(count_containing(lines, "{\"ok\":true,\"id\":0}"), 1u);
  EXPECT_EQ(count_containing(lines, "{\"ok\":true,\"id\":1}"), 1u);
  // One run event per submission, in submission order.
  EXPECT_EQ(count_containing(lines, "\"event\":\"run\""), 2u);
  EXPECT_EQ(count_containing(lines, "\"drained\":2"), 1u);
  EXPECT_EQ(count_containing(lines, "\"shutdown\":true,\"runs\":2"), 1u);

  // Acks precede the run's own events.
  std::size_t ack0 = lines.size(), run0 = lines.size();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find("{\"ok\":true,\"id\":0}") != std::string::npos) ack0 = i;
    if (lines[i].find("\"event\":\"run\",\"id\":0") != std::string::npos &&
        run0 == lines.size()) {
      run0 = i;
    }
  }
  EXPECT_LT(ack0, run0);

  // Shutdown wrote the merged artifacts next to the shards.
  EXPECT_TRUE(fs::exists(dir + "/MANIFEST.json"));
  EXPECT_TRUE(fs::exists(dir + "/findings.jsonl"));
  EXPECT_TRUE(fs::exists(dir + "/timeline.jsonl"));
  EXPECT_TRUE(fs::exists(dir + "/metrics.json"));
}

TEST(Serve, EofIsImplicitShutdown) {
  const std::string dir = scratch_dir("eof");
  std::istringstream in(submit_line(21));
  std::ostringstream out;
  ServeEngine engine(in, out, serve_config(dir));
  EXPECT_EQ(engine.run(), 0);
  // No shutdown ack on EOF, but the session still drains and finalizes.
  EXPECT_EQ(count_containing(lines_of(out.str()), "\"shutdown\""), 0u);
  EXPECT_TRUE(fs::exists(dir + "/MANIFEST.json"));
  EXPECT_TRUE(fs::exists(dir + "/findings.jsonl"));
}

// A merged artifact that cannot be written fails the shutdown: the ack
// says ok:false with the path, run() returns 1 and no temp file is left.
TEST(Serve, ShutdownFailsWhenAMergedArtifactCannotBeWritten) {
  const std::string dir = scratch_dir("unwritable");
  fs::create_directories(dir + "/metrics.json");  // rename over it fails
  std::istringstream in(submit_line(41) + "{\"cmd\":\"shutdown\"}\n");
  std::ostringstream out;
  ServeEngine engine(in, out, serve_config(dir));
  EXPECT_EQ(engine.run(), 1);

  const std::vector<std::string> lines = lines_of(out.str());
  EXPECT_EQ(count_containing(lines, "\"shutdown\":true"), 0u);
  ASSERT_EQ(count_containing(lines, "{\"ok\":false,\"error\":"), 1u);
  EXPECT_EQ(count_containing(lines, "metrics.json"), 1u);
  EXPECT_FALSE(fs::exists(dir + "/metrics.json.tmp"));
  // The other merged artifacts are still written.
  EXPECT_TRUE(fs::exists(dir + "/findings.jsonl"));
  EXPECT_TRUE(fs::exists(dir + "/captures.jsonl"));
}

TEST(Serve, RejectsMalformedInput) {
  std::istringstream in(
      "{\"cmd\":\"bogus\"}\n"
      "not json at all\n"
      "{\"cmd\":\"submit\",\"scenario\":\"no-such-scenario\"}\n"
      "{\"cmd\":\"status\"}\n"
      "{\"cmd\":\"shutdown\"}\n");
  std::ostringstream out;
  ServeEngine engine(in, out, core::CampaignConfig{});
  EXPECT_EQ(engine.run(), 0);
  const std::vector<std::string> lines = lines_of(out.str());
  EXPECT_EQ(count_containing(lines, "\"ok\":false"), 3u);
  // Nothing was scheduled.
  EXPECT_EQ(count_containing(lines, "\"submitted\":0,\"committed\":0"), 1u);
  EXPECT_EQ(count_containing(lines, "\"shutdown\":true,\"runs\":0"), 1u);
}

// A submit that fails the spec reader is refused naming its key and takes
// no id, and the session keeps serving: the next valid submit runs as id 0.
TEST(Serve, MalformedSubmitNamesTheKeyAndTakesNoId) {
  const std::string dir = scratch_dir("malformed_submit");
  std::istringstream in(
      "{\"cmd\":\"submit\",\"scenario\":\"video\",\"videos\":-1}\n"
      "{\"cmd\":\"submit\",\"scenario\":\"post\",\"reps\":1e300}\n"
      "{\"cmd\":\"submit\",\"pages\":0x10}\n"
      "{\"cmd\":\"submit\",\"pages\":9 \"seed\":4}\n" +
      submit_line(31) + "{\"cmd\":\"drain\"}\n{\"cmd\":\"shutdown\"}\n");
  std::ostringstream out;
  ServeEngine engine(in, out, serve_config(dir));
  EXPECT_EQ(engine.run(), 0);
  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_GE(lines.size(), 5u);
  const char* const keys[] = {"videos", "reps", "pages", "pages"};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(lines[i].rfind("{\"ok\":false,\"error\":", 0), 0u) << lines[i];
    EXPECT_NE(lines[i].find(std::string("\\\"") + keys[i] + "\\\""),
              std::string::npos)
        << lines[i];
  }
  EXPECT_EQ(lines[4], "{\"ok\":true,\"id\":0}");
  EXPECT_EQ(count_containing(lines, "\"event\":\"run\",\"id\":0"), 1u);
  EXPECT_EQ(count_containing(lines, "\"shutdown\":true,\"runs\":1"), 1u);
}

// The determinism contract: serve commits runs through the same sink and
// seeds runs from the spec itself, so a serve session and a batch fleet
// over the same spec list, configured from one CampaignConfig, leave
// byte-identical shard directories and merged artifacts.
TEST(Serve, ShardDirMatchesBatchFleet) {
  std::vector<ScenarioSpec> specs;
  for (std::uint64_t seed : {31, 32, 33}) {
    ScenarioSpec s;
    s.scenario = "post";
    s.reps = 1;
    s.seed = seed;
    specs.push_back(s);
  }

  const std::string serve_dir = scratch_dir("vs_batch_serve");
  const core::CampaignConfig cfg = serve_config(serve_dir, 3);
  {
    std::string input;
    for (const ScenarioSpec& s : specs) {
      input += "{\"cmd\":\"submit\"," + s.to_json().substr(1) + "\n";
    }
    input += "{\"cmd\":\"shutdown\"}\n";
    std::istringstream in(input);
    std::ostringstream out;
    ServeEngine engine(in, out, cfg);
    ASSERT_EQ(engine.run(), 0);
  }

  const std::string batch_dir = scratch_dir("vs_batch_fleet");
  {
    core::CampaignConfig batch = cfg;
    batch.runs = specs.size();
    batch.jobs = 2;  // different pool size must not matter
    batch.shard.out_dir = batch_dir;
    core::Campaign campaign(batch);
    campaign.run([&specs](std::uint64_t, const core::RunSpec& rs) {
      return run_scenario(specs[rs.run_index]);
    });
    std::string error;
    ASSERT_TRUE(core::write_merged_artifacts(batch_dir, &error)) << error;
  }

  for (const char* name : {"MANIFEST.json", "findings.jsonl", "timeline.jsonl",
                           "metrics.json", "captures.jsonl"}) {
    ASSERT_TRUE(fs::exists(serve_dir + "/" + name)) << name;
    ASSERT_TRUE(fs::exists(batch_dir + "/" + name)) << name;
    EXPECT_EQ(slurp(serve_dir + "/" + name), slurp(batch_dir + "/" + name))
        << name;
  }
}

// An open-ended session has no run count to plan, no campaign trace to
// build and no manifest to resume: a config setting any of them is
// rejected before anything runs or touches the out_dir, instead of being
// silently ignored.
TEST(Serve, RejectsConfigItCannotHonour) {
  const std::string dir = scratch_dir("rejected");
  core::CampaignConfig runs = serve_config(dir);
  runs.runs = 3;
  core::CampaignConfig trace = serve_config(dir);
  trace.trace = true;
  core::CampaignConfig resume = serve_config(dir);
  resume.shard.resume = true;
  for (const auto& [cfg, field] :
       {std::pair{runs, "runs"}, std::pair{trace, "trace"},
        std::pair{resume, "shard.resume"}}) {
    std::istringstream in(submit_line(51) + "{\"cmd\":\"shutdown\"}\n");
    std::ostringstream out;
    try {
      ServeEngine engine(in, out, cfg);
      ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(out.str(), "") << field;
    EXPECT_THROW(serve_over_socket(dir + ".sock", cfg), std::invalid_argument)
        << field;
  }
  EXPECT_FALSE(fs::exists(dir));
  EXPECT_FALSE(fs::exists(dir + ".sock"));
}

// Reaction events on the serve stream: a run whose control policy requested
// a reschedule narrates each round before its findings, and a run that
// exhausts its attempts emits a quarantine marker before the run summary —
// all in commit order, so a dashboard tailing the stream sees reactions
// exactly where the shard artifacts record them.
TEST(Serve, EmitsRescheduleEventsInCommitOrder) {
  std::istringstream in(
      "{\"cmd\":\"submit\",\"scenario\":\"post\",\"reps\":8,\"seed\":5,"
      "\"fault_plan\":\"radio:blackout=5..120\","
      "\"policy\":\"on layer.radio==lost for 3s: abort+reschedule\"}\n"
      "{\"cmd\":\"shutdown\"}\n");
  std::ostringstream out;
  ServeEngine engine(in, out, core::CampaignConfig{});
  EXPECT_EQ(engine.run(), 0);

  const std::vector<std::string> lines = lines_of(out.str());
  EXPECT_EQ(count_containing(
                lines, "{\"event\":\"reschedule\",\"id\":0,\"round\":1}"),
            1u);
  // The run summary separates reschedule rounds from failure retries: two
  // rounds of one attempt each, no quarantine (the run itself succeeded).
  EXPECT_EQ(count_containing(lines, "\"attempts\":2,\"resched\":1"), 1u);
  EXPECT_EQ(count_containing(lines, "\"event\":\"quarantine\""), 0u);

  // Reschedule events precede the run's findings and summary.
  std::size_t resched_at = lines.size(), run_at = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find("\"event\":\"reschedule\"") != std::string::npos) {
      resched_at = std::min(resched_at, i);
    }
    if (lines[i].find("\"event\":\"run\"") != std::string::npos) run_at = i;
  }
  EXPECT_LT(resched_at, run_at);
}

TEST(Serve, EmitsQuarantineEventForFailedRuns) {
  std::istringstream in(submit_line(41) + "{\"cmd\":\"shutdown\"}\n");
  std::ostringstream out;
  core::CampaignConfig cfg;
  // A virtual-time watchdog far below any real post run fails the single
  // allowed attempt, so the run quarantines.
  cfg.max_run_virtual_seconds = 0.5;
  ServeEngine engine(in, out, cfg);
  EXPECT_EQ(engine.run(), 0);

  const std::vector<std::string> lines = lines_of(out.str());
  EXPECT_EQ(count_containing(
                lines, "{\"event\":\"quarantine\",\"id\":0,\"attempts\":1"),
            1u);
  EXPECT_EQ(count_containing(lines, "virtual-time watchdog"), 2u)
      << "quarantine event and run summary both carry the error";
  EXPECT_EQ(count_containing(lines, "\"ok\":false"), 1u);

  // The quarantine marker lands between the (absent) findings and the run
  // summary: strictly before the run event.
  std::size_t quarantine_at = lines.size(), run_at = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find("\"event\":\"quarantine\"") != std::string::npos) {
      quarantine_at = i;
    }
    if (lines[i].find("\"event\":\"run\"") != std::string::npos) run_at = i;
  }
  EXPECT_LT(quarantine_at, run_at);
}

TEST(ScenarioSpec, JsonRoundTripAndValidation) {
  ScenarioSpec spec;
  spec.scenario = "video";
  spec.network = "lte";
  spec.seed = 9000000000000000001ull;  // > 2^53: must survive as an integer
  spec.videos = 2;
  spec.throttle_kbps = 200;
  spec.mechanism = "policing";

  ScenarioSpec parsed;
  std::string error;
  ASSERT_TRUE(ScenarioSpec::parse_json(spec.to_json(), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.to_json(), spec.to_json());
  EXPECT_EQ(parsed.seed, spec.seed);

  EXPECT_FALSE(
      ScenarioSpec::parse_json("{\"scenario\":\"nope\"}", &parsed, &error));
  EXPECT_FALSE(ScenarioSpec::parse_json("{\"network\":\"dialup\"}", &parsed,
                                        &error));
  EXPECT_FALSE(ScenarioSpec::parse_json("not json", &parsed, &error));
  // A misspelt key is rejected by name instead of running with the default.
  EXPECT_FALSE(ScenarioSpec::parse_json(
      "{\"scenario\":\"video\",\"throttle_kbps\":200}", &parsed, &error));
  EXPECT_NE(error.find("\"throttle_kbps\""), std::string::npos) << error;
  // A fault plan that does not parse is rejected at parse time, with its
  // byte offset, instead of quarantining the run.
  EXPECT_FALSE(ScenarioSpec::parse_json("{\"fault_plan\":\"packet:lose=1\"}",
                                        &parsed, &error));
  EXPECT_NE(error.find("at byte"), std::string::npos) << error;
  // The serve protocol's envelope keys (cmd/id) are skipped.
  EXPECT_TRUE(ScenarioSpec::parse_json(
      "{\"cmd\":\"submit\",\"id\":4,\"scenario\":\"pageload\"}", &parsed,
      &error))
      << error;
  EXPECT_EQ(parsed.scenario, "pageload");
}

}  // namespace
}  // namespace qoed::svc
