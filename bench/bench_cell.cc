// Shared-cell contention subsystem: correctness gates + throughput floor.
//
// Sweeps the capstone contention study (N devices x shaping/policing on one
// base station, §7.5 Finding 7 as a per-cell effect) and enforces the three
// properties the subsystem promises:
//
//   1. TRANSPARENCY — an uncontended 1-member cell is byte-identical to the
//      plain per-link gate path (samples + artifacts), for both mechanisms;
//   2. SEPARATION — at N=8 policing gate drops exceed 5x shaping's, while
//      shaping shows deep shaper backlog and policing none;
//   3. THROUGHPUT — simulated device-hours per wall-second stays above
//      --min-dh-per-wall-s (the fleet-scaling figure of merit, computed
//      from the fleet.device_seconds counter every cell run folds).
//
// With --out-dir the bench additionally streams a sharded cell campaign and
// writes the merged findings/timeline/metrics/captures artifacts there — CI
// runs it at --jobs 1 and --jobs 8 and byte-compares the outputs (jobs
// invariance).
//
//   bench_cell --bench-json BENCH_cell.json --min-dh-per-wall-s 0.1
//
// Exit status is non-zero if any gate fails.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "cell/cell_run.h"

namespace qoed {
namespace {

cell::CellScenarioSpec sweep_spec(int n, const char* mechanism,
                                  std::uint64_t seed) {
  cell::CellScenarioSpec spec =
      cell::CellScenarioSpec::uniform("browser", n, /*stagger_s=*/2);
  spec.network = "3g";
  spec.seed = seed;
  spec.capacity_kbps = 2000;
  spec.throttle_kbps = 250;
  spec.mechanism = mechanism;
  for (auto& d : spec.devices) d.actions = 2;
  return spec;
}

// Gate 1: uncontended 1-member cell == plain per-link gate, byte for byte.
bool transparency_gate() {
  bool ok = true;
  for (const char* mechanism : {"shaping", "policing"}) {
    cell::CellScenarioSpec with_cell = sweep_spec(1, mechanism, 7);
    with_cell.capacity_kbps = 0;
    cell::CellScenarioSpec plain = with_cell;
    plain.use_cell = false;
    const core::RunResult a = cell::run_cell_scenario(with_cell);
    const core::RunResult b = cell::run_cell_scenario(plain);
    const bool equal =
        a.samples == b.samples &&
        a.artifacts.timeline_jsonl == b.artifacts.timeline_jsonl &&
        a.artifacts.findings_jsonl == b.artifacts.findings_jsonl;
    std::printf("transparency (%s): N=1 cell vs plain gate — %s\n", mechanism,
                equal ? "byte-identical" : "DIFFER");
    ok = ok && equal;
  }
  return ok;
}

}  // namespace
}  // namespace qoed

int main(int argc, char** argv) {
  using namespace qoed;

  const bench::BenchOptions opts =
      bench::parse_options(argc, argv, {.throughput_gate = true});
  const std::string& bench_json = opts.bench_json;
  const double min_dh_per_wall_s = opts.min_dh_per_wall_s;

  bench::banner("Shared-cell contention: shaping vs policing under load",
                "Finding 7 (§7.5) as a per-cell effect (DESIGN.md §5h)");

  const bool transparent = transparency_gate();

  std::printf("\n%3s  %-9s %10s %13s %12s %9s\n", "N", "mechanism",
              "gate drops", "gate backlog", "device-sec", "wall");
  double total_device_seconds = 0;
  double total_wall = 0;
  double shaped8_drops = 0, policed8_drops = 0;
  double shaped8_backlog = 0, policed8_backlog = 0;
  for (const int n : {1, 4, 8}) {
    for (const char* mechanism : {"shaping", "policing"}) {
      const auto start = std::chrono::steady_clock::now();
      const core::RunResult res =
          cell::run_cell_scenario(sweep_spec(n, mechanism, 7));
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const obs::MetricsRegistry& reg = res.registry;
      const double drops = reg.counter("cell.gate.dropped_packets");
      const double backlog = reg.gauges().at("cell.gate.max_queue_bytes");
      const double device_seconds = reg.counter("fleet.device_seconds");
      total_device_seconds += device_seconds;
      total_wall += wall;
      if (n == 8 && std::strcmp(mechanism, "shaping") == 0) {
        shaped8_drops = drops;
        shaped8_backlog = backlog;
      }
      if (n == 8 && std::strcmp(mechanism, "policing") == 0) {
        policed8_drops = drops;
        policed8_backlog = backlog;
      }
      std::printf("%3d  %-9s %10.0f %12.0fB %12.0f %8.2fs\n", n, mechanism,
                  drops, backlog, device_seconds, wall);
      if (!bench_json.empty()) {
        bench::write_bench_json(
            bench_json, std::string("cell/") + mechanism,
            {{"devices", static_cast<double>(n)},
             {"gate_dropped_packets", drops},
             {"gate_dropped_bytes", reg.counter("cell.gate.dropped_bytes")},
             {"gate_max_queue_bytes", backlog},
             {"sched_queue_delay_s", reg.counter("cell.sched.queue_delay_s")},
             {"device_seconds", device_seconds},
             {"wall_s", wall}});
      }
    }
  }

  // Gate 2: the mechanisms separate in kind at N=8.
  const bool separated = policed8_drops > 5 * shaped8_drops &&
                         policed8_backlog == 0 &&
                         shaped8_backlog > 10 * 1024;
  std::printf("\nseparation: N=8 policing drops %.0f vs shaping %.0f, "
              "backlog %.0fB vs %.0fB — %s\n",
              policed8_drops, shaped8_drops, policed8_backlog,
              shaped8_backlog, separated ? "ok" : "GATE FAILED");

  // Gate 3: fleet throughput floor.
  const double device_hours = total_device_seconds / 3600.0;
  const double dh_per_wall_s = total_wall > 0 ? device_hours / total_wall : 0;
  const bool fast_enough =
      min_dh_per_wall_s <= 0 || dh_per_wall_s >= min_dh_per_wall_s;
  std::printf("throughput: %.2f device-hours in %.2fs wall = %.2f dh/wall-s "
              "(floor %.2f) — %s\n",
              device_hours, total_wall, dh_per_wall_s, min_dh_per_wall_s,
              fast_enough ? "ok" : "GATE FAILED");

  // Optional sharded campaign for the CI jobs-invariance cmp: several cell
  // scenarios streamed through the constant-memory path.
  if (opts.sharded()) {
    core::CampaignConfig cfg =
        bench::campaign_config(opts, "cell/contention", /*default_runs=*/6,
                               /*default_seed=*/4100);
    core::Campaign campaign(cfg);
    const core::CampaignResult result =
        campaign.run([](std::uint64_t seed, const core::RunSpec&) {
          cell::CellScenarioSpec spec = sweep_spec(2, "policing", seed);
          spec.seed = seed;
          return cell::run_cell_scenario(spec);
        });
    if (!bench::report_campaign(campaign, result, opts) ||
        result.failed_runs() != 0) {
      return 1;
    }
  }

  if (!bench_json.empty()) {
    bench::write_bench_json(
        bench_json, "cell/summary",
        {{"transparency_equal", transparent ? 1.0 : 0.0},
         {"separation_ok", separated ? 1.0 : 0.0},
         {"device_hours", device_hours},
         {"device_hours_per_wall_s", dh_per_wall_s},
         {"min_dh_per_wall_s", min_dh_per_wall_s}});
  }
  return transparent && separated && fast_enough ? 0 : 1;
}
