// Fleet-scale campaign engine: sharded (constant-memory) campaign scaling.
//
// Runs one large synthetic campaign — tens of thousands of cheap,
// deterministic runs, each emitting realistic findings/timeline/metrics
// artifacts — through the sharded commit path and reports the fleet
// figures of merit: simulated device-hours per wall-second and peak RSS.
// The sharded path must stay O(shard budget) in memory no matter the run
// count. This measures campaign plumbing only: no simulator runs.
//
//   bench_fleet --runs 10000 --jobs 8 --out-dir /tmp/fleet
//               --bench-json BENCH_fleet.json --min-dh-per-wall-s 10
//
// emits one JSON line. Exit status is non-zero when a run failed, a merged
// artifact could not be written or the throughput floor was missed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/rng.h"

namespace qoed {
namespace {

using namespace core;

struct FleetOptions {
  std::string bench_json;        // BENCH_fleet.json path ("" = don't write)
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
  // Folded across runs by the campaign, giving total device-seconds
  // without keeping per-run results around.
  out.registry.add_counter("fleet.device_seconds", out.virtual_seconds);
  out.artifacts.timeline_jsonl = timeline.str();
  out.artifacts.findings_jsonl = findings.str();
  return out;
}

double maxrss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// Runs the campaign sharded under <out-dir>/sharded/ and writes the three
// merged artifacts there.
int run_fleet(const FleetOptions& opt) {
  const std::string dir = opt.common.out_dir + "/sharded";
  CampaignConfig cfg;
  cfg.name = "fleet/sharded";
  cfg.runs = opt.common.runs ? opt.common.runs : 10000;
  cfg.jobs = opt.common.jobs;
  cfg.master_seed = opt.common.seed ? opt.common.seed : 7700;
  cfg.shard.out_dir = dir;
  cfg.shard.shard_bytes = opt.common.shard_bytes;
  cfg.shard.shard_runs = opt.common.shard_runs;

  Campaign campaign(cfg);
  const CampaignResult result = campaign.run(
      [](std::uint64_t seed, const RunSpec&) { return synthetic_run(seed); });
  const double wall = campaign.last_wall_seconds();

  const bool wrote =
      ShardFindingsMergeSink(dir).write_file(dir + "/findings.jsonl") &&
      ShardTimelineMergeSink(dir).write_file(dir + "/timeline.jsonl") &&
      ShardMetricsMergeSink(dir).write_file(dir + "/metrics.json");
  if (!wrote) {
    std::fprintf(stderr, "FAILED to write merged artifacts under %s\n",
                 dir.c_str());
    return 1;
  }

  const double device_hours =
      result.registry.counter("fleet.device_seconds") / 3600.0;
  const double dh_per_wall_s = wall > 0 ? device_hours / wall : 0;
  const double rss = maxrss_mib();
  std::printf(
      "fleet/sharded: %zu runs over %zu workers in %.2fs | %.1f "
      "device-hours (%.1f dh/wall-s) | peak RSS %.1f MiB\n",
      result.runs, result.jobs, wall, device_hours, dh_per_wall_s, rss);
  if (!opt.bench_json.empty()) {
    bench::write_bench_json(
        opt.bench_json, "fleet/sharded",
        {{"runs", static_cast<double>(result.runs)},
         {"jobs", static_cast<double>(result.jobs)},
         {"wall_s", wall},
         {"device_hours", device_hours},
         {"device_hours_per_wall_s", dh_per_wall_s},
         {"min_dh_per_wall_s", opt.min_dh_per_wall_s},
         {"failed_runs", static_cast<double>(result.failed_runs())},
         {"peak_rss_mib", rss}});
  }
  if (opt.min_dh_per_wall_s > 0 && dh_per_wall_s < opt.min_dh_per_wall_s) {
    std::fprintf(stderr,
                 "THROUGHPUT GATE: fleet/sharded %.2f dh/wall-s below floor "
                 "%.2f\n",
                 dh_per_wall_s, opt.min_dh_per_wall_s);
    return 1;
  }
  return result.failed_runs() == 0 ? 0 : 1;
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
    if (arg == "--bench-json") {
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

  bench::banner("Fleet-scale campaign engine: sharded campaign scaling",
                "constant-memory campaign scaling (DESIGN.md §5g)");
  return run_fleet(opt);
}
