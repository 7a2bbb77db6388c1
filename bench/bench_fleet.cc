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
#include <sstream>
#include <string>

#include "bench_util.h"
#include "sim/rng.h"

namespace qoed {
namespace {

using namespace core;

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

// Runs the campaign sharded under <out-dir>/fleet_sharded/ and publishes
// the merged artifacts there.
int run_fleet(const bench::BenchOptions& opts) {
  Campaign campaign(bench::campaign_config(opts, "fleet/sharded",
                                           /*default_runs=*/10000,
                                           /*default_seed=*/7700));
  const CampaignResult result = campaign.run(
      [](std::uint64_t seed, const RunSpec&) { return synthetic_run(seed); });
  const double wall = campaign.last_wall_seconds();
  if (!bench::report_campaign(campaign, result, opts)) return 1;

  const double device_hours =
      result.registry.counter("fleet.device_seconds") / 3600.0;
  const double dh_per_wall_s = wall > 0 ? device_hours / wall : 0;
  const double rss = maxrss_mib();
  std::printf(
      "fleet/sharded: %zu runs over %zu workers in %.2fs | %.1f "
      "device-hours (%.1f dh/wall-s) | peak RSS %.1f MiB\n",
      result.runs, result.jobs, wall, device_hours, dh_per_wall_s, rss);
  if (!opts.bench_json.empty()) {
    bench::write_bench_json(
        opts.bench_json, "fleet/sharded",
        {{"runs", static_cast<double>(result.runs)},
         {"jobs", static_cast<double>(result.jobs)},
         {"wall_s", wall},
         {"device_hours", device_hours},
         {"device_hours_per_wall_s", dh_per_wall_s},
         {"min_dh_per_wall_s", opts.min_dh_per_wall_s},
         {"failed_runs", static_cast<double>(result.failed_runs())},
         {"peak_rss_mib", rss}});
  }
  if (opts.min_dh_per_wall_s > 0 && dh_per_wall_s < opts.min_dh_per_wall_s) {
    std::fprintf(stderr,
                 "THROUGHPUT GATE: fleet/sharded %.2f dh/wall-s below floor "
                 "%.2f\n",
                 dh_per_wall_s, opts.min_dh_per_wall_s);
    return 1;
  }
  return result.failed_runs() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace qoed

int main(int argc, char** argv) {
  using namespace qoed;
  bench::BenchOptions opts =
      bench::parse_options(argc, argv, {.throughput_gate = true});
  if (opts.out_dir.empty()) opts.out_dir = "bench_fleet_out";

  bench::banner("Fleet-scale campaign engine: sharded campaign scaling",
                "constant-memory campaign scaling (DESIGN.md §5g)");
  return run_fleet(opts);
}
