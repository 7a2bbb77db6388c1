// Fleet-scale campaign engine: sharded (constant-memory) vs in-memory.
//
// Runs one large synthetic campaign — tens of thousands of cheap,
// deterministic runs, each emitting realistic findings/timeline/metrics
// artifacts — through both execution modes and reports the fleet figures
// of merit: simulated device-hours per wall-second and peak RSS. The
// sharded path must stay O(shard budget) in memory no matter the run
// count, while the in-memory path grows linearly; the bench makes that
// difference measurable and gates on the two modes producing
// byte-identical merged artifacts.
//
// Peak RSS (getrusage ru_maxrss) is a process-lifetime high-water mark,
// so `--mode both` re-executes this binary (via /proc/self/exe) once per
// mode as a child process and reads each child's rusage from wait4 —
// running both modes in one process would conflate the two peaks.
//
//   bench_fleet --runs 10000 --jobs 8 --out-dir /tmp/fleet
//               --bench-json BENCH_fleet.json
//
// emits one JSON line per mode plus a summary line with the equality
// verdict. Exit status is non-zero if the modes disagree.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/rng.h"

namespace qoed {
namespace {

using namespace core;

struct FleetOptions {
  std::string mode = "both";  // sharded | memory | both
  std::string bench_json;     // BENCH_fleet.json path ("" = don't write)
  double min_dh_per_wall_s = 0;  // throughput floor (0 = report only)
  bench::BenchOptions common;
};

// One synthetic fleet run: no testbed, just a deterministic stream of
// artifacts seeded from the campaign's per-run seed. Sized to roughly
// match a short real run (a few KB of timeline + findings) so shard
// rotation and merge behave as they would in production.
RunResult synthetic_run(std::uint64_t seed) {
  sim::Rng rng(seed);
  RunResult out;
  std::ostringstream timeline;
  std::ostringstream findings;
  double t = 0;
  const int events = static_cast<int>(rng.uniform_int(24, 32));
  for (int i = 0; i < events; ++i) {
    t += rng.uniform() * 240;
    timeline << "{\"t\":";
    put_json_number(timeline, t);
    timeline << ",\"seq\":" << i << ",\"layer\":\""
             << (i % 3 == 0 ? "ui" : i % 3 == 1 ? "packet" : "radio")
             << "\",\"bytes\":" << rng.uniform_int(64, 1500) << "}\n";
    if (i % 4 == 0) out.add_sample("latency_s", rng.uniform(0.2, 2.5));
  }
  const int nfindings = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < nfindings; ++i) {
    findings << "{\"t\":";
    put_json_number(findings, rng.uniform() * t);
    findings << ",\"rule\":\"fleet.synthetic_stall\",\"severity\":\""
             << (rng.bernoulli(0.2) ? "error" : "warn")
             << "\",\"window\":" << i << "}\n";
    out.add_sample("stall_s", rng.uniform(0.05, 1.2));
  }
  out.registry.add_counter("fleet.events", events);
  out.registry.add_counter("fleet.findings", nfindings);
  out.virtual_seconds = 3600 * rng.uniform(0.5, 1.5);
  // Folded across runs by the campaign, giving total device-seconds in
  // both modes without keeping per-run results around.
  out.registry.add_counter("fleet.device_seconds", out.virtual_seconds);
  out.artifacts.timeline_jsonl = timeline.str();
  out.artifacts.findings_jsonl = findings.str();
  return out;
}

std::string mode_dir(const FleetOptions& opt, const std::string& mode) {
  return opt.common.out_dir + "/" + mode;
}

double maxrss_mib(const rusage& ru) {
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// Runs the campaign in ONE mode inside this process and writes the three
// merged artifacts under <out-dir>/<mode>/. Returns the campaign result's
// device-seconds total.
int run_one_mode(const FleetOptions& opt, const std::string& mode) {
  const std::string dir = mode_dir(opt, mode);
  CampaignConfig cfg;
  cfg.name = "fleet/" + mode;
  cfg.runs = opt.common.runs ? opt.common.runs : 10000;
  cfg.jobs = opt.common.jobs;
  cfg.master_seed = opt.common.seed ? opt.common.seed : 7700;
  if (mode == "sharded") {
    cfg.shard.out_dir = dir;
    cfg.shard.shard_bytes = opt.common.shard_bytes;
    cfg.shard.shard_runs = opt.common.shard_runs;
  } else {
    cfg.keep_artifacts = true;
  }

  Campaign campaign(cfg);
  const CampaignResult result = campaign.run(
      [](std::uint64_t seed, const RunSpec&) { return synthetic_run(seed); });
  const double wall = campaign.last_wall_seconds();

  bool wrote = true;
  if (mode == "sharded") {
    wrote = ShardFindingsMergeSink(dir).write_file(dir + "/findings.jsonl") &&
            ShardTimelineMergeSink(dir).write_file(dir + "/timeline.jsonl") &&
            ShardMetricsMergeSink(dir).write_file(dir + "/metrics.json");
  } else {
    std::filesystem::create_directories(dir);
    wrote = CampaignFindingsSink(result).write_file(dir + "/findings.jsonl") &&
            CampaignTimelineSink(result).write_file(dir + "/timeline.jsonl") &&
            MetricsJsonSink(result.registry).write_file(dir + "/metrics.json");
  }
  if (!wrote) {
    std::fprintf(stderr, "FAILED to write merged artifacts under %s\n",
                 dir.c_str());
    return 1;
  }

  const double device_hours =
      result.registry.counter("fleet.device_seconds") / 3600.0;
  const double dh_per_wall_s = wall > 0 ? device_hours / wall : 0;

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf(
      "fleet/%s: %zu runs over %zu workers in %.2fs | %.1f device-hours "
      "(%.1f dh/wall-s) | peak RSS %.1f MiB\n",
      mode.c_str(), result.runs, result.jobs, wall, device_hours,
      dh_per_wall_s, maxrss_mib(ru));
  if (!opt.bench_json.empty()) {
    bench::write_bench_json(
        opt.bench_json, "fleet/" + mode,
        {{"runs", static_cast<double>(result.runs)},
         {"jobs", static_cast<double>(result.jobs)},
         {"wall_s", wall},
         {"device_hours", device_hours},
         {"device_hours_per_wall_s", dh_per_wall_s},
         {"min_dh_per_wall_s", opt.min_dh_per_wall_s},
         {"failed_runs", static_cast<double>(result.failed_runs())},
         {"peak_rss_mib", maxrss_mib(ru)}});
  }
  if (opt.min_dh_per_wall_s > 0 && dh_per_wall_s < opt.min_dh_per_wall_s) {
    std::fprintf(stderr,
                 "THROUGHPUT GATE: fleet/%s %.2f dh/wall-s below floor %.2f\n",
                 mode.c_str(), dh_per_wall_s, opt.min_dh_per_wall_s);
    return 1;
  }
  return result.failed_runs() == 0 ? 0 : 1;
}

bool read_all(const std::string& path, std::string* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::ostringstream buf;
  buf << is.rdbuf();
  *out = buf.str();
  return true;
}

// Byte-compares one merged artifact across the two mode directories.
bool artifact_equal(const FleetOptions& opt, const char* name) {
  std::string a, b;
  if (!read_all(mode_dir(opt, "sharded") + "/" + name, &a) ||
      !read_all(mode_dir(opt, "memory") + "/" + name, &b)) {
    std::fprintf(stderr, "EQUALITY GATE: missing %s in a mode dir\n", name);
    return false;
  }
  if (a != b) {
    std::fprintf(stderr, "EQUALITY GATE: %s differs between modes\n", name);
    return false;
  }
  return true;
}

// Re-executes this binary in a single mode and returns its exit status,
// filling `ru` with the child's lifetime rusage.
int spawn_mode(const FleetOptions& opt, const std::string& mode,
               rusage* ru) {
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    std::vector<std::string> args = {
        "bench_fleet",
        "--mode", mode,
        "--runs", std::to_string(opt.common.runs ? opt.common.runs : 10000),
        "--jobs", std::to_string(opt.common.jobs),
        "--seed", std::to_string(opt.common.seed ? opt.common.seed : 7700),
        "--out-dir", opt.common.out_dir,
        "--shard-bytes", std::to_string(opt.common.shard_bytes)};
    if (opt.common.shard_runs) {
      args.push_back("--shards");
      args.push_back(std::to_string(opt.common.shard_runs));
    }
    if (!opt.bench_json.empty()) {
      args.push_back("--bench-json");
      args.push_back(opt.bench_json);
    }
    if (opt.min_dh_per_wall_s > 0) {
      args.push_back("--min-dh-per-wall-s");
      args.push_back(std::to_string(opt.min_dh_per_wall_s));
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv("/proc/self/exe", argv.data());
    std::perror("execv");  // only reached on failure
    _exit(127);
  }
  int status = 0;
  if (wait4(pid, &status, 0, ru) < 0) {
    std::perror("wait4");
    return 1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

}  // namespace
}  // namespace qoed

int main(int argc, char** argv) {
  using namespace qoed;
  FleetOptions opt;
  // Split bench_fleet-specific flags out, hand the rest to the shared
  // parser so --runs/--jobs/--seed/--out-dir/--shard-bytes/--shards keep
  // their usual spelling.
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--mode") {
      opt.mode = value();
    } else if (arg == "--bench-json") {
      opt.bench_json = value();
    } else if (arg == "--min-dh-per-wall-s") {
      opt.min_dh_per_wall_s = std::strtod(value(), nullptr);
    } else {
      rest.push_back(argv[i]);
    }
  }
  opt.common = bench::parse_options(static_cast<int>(rest.size()),
                                    rest.data());
  if (opt.common.out_dir.empty()) opt.common.out_dir = "bench_fleet_out";
  if (opt.mode != "sharded" && opt.mode != "memory" && opt.mode != "both") {
    std::fprintf(stderr, "--mode must be sharded, memory or both\n");
    return 2;
  }

  if (opt.mode != "both") return run_one_mode(opt, opt.mode);

  bench::banner("Fleet-scale campaign engine: sharded vs in-memory",
                "constant-memory campaign scaling (DESIGN.md §5g)");
  rusage ru_sharded{};
  rusage ru_memory{};
  int rc = spawn_mode(opt, "sharded", &ru_sharded);
  rc |= spawn_mode(opt, "memory", &ru_memory);
  const bool equal = artifact_equal(opt, "findings.jsonl") &&
                     artifact_equal(opt, "timeline.jsonl") &&
                     artifact_equal(opt, "metrics.json");
  std::printf("peak RSS: sharded %.1f MiB vs in-memory %.1f MiB | "
              "artifacts %s\n",
              maxrss_mib(ru_sharded), maxrss_mib(ru_memory),
              equal ? "byte-identical" : "DIFFER");
  if (!opt.bench_json.empty()) {
    bench::write_bench_json(
        opt.bench_json, "fleet/summary",
        {{"peak_rss_sharded_mib", maxrss_mib(ru_sharded)},
         {"peak_rss_memory_mib", maxrss_mib(ru_memory)},
         {"artifacts_equal", equal ? 1.0 : 0.0}});
  }
  return rc != 0 || !equal ? 1 : 0;
}
