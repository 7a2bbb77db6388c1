// Shared-cell contention study: shaping vs policing under 1 -> N devices.
//
// The paper's Finding 7 distinguishes traffic SHAPING (3G: excess queued,
// smooth goodput) from traffic POLICING (LTE: excess dropped, TCP loss) for
// a single throttled subscriber. This study asks what happens when the same
// token bucket is a PER-CELL commitment instead: N devices share one base
// station whose aggregate downlink passes through the carrier gate before a
// proportional-fair scheduler splits the air interface.
//
// At N=1 the cell is transparent and the single-device distinction
// reproduces exactly. As N grows, the two mechanisms diverge in *kind*:
//   - shaping absorbs the aggregate into the shaper's backlog (gate drops
//     stay at zero until that buffer finally overflows; the backlog depth
//     grows with N);
//   - policing drops the excess at the gate immediately (drops grow roughly
//     linearly with N — TCP sees loss, not delay).
//
//   ./build/examples/cell_contention_study
#include <algorithm>
#include <cstdio>
#include <vector>

#include "cell/cell_run.h"

namespace {

using namespace qoed;

struct Row {
  int n = 0;
  const char* mechanism = "";
  double dropped_packets = 0;
  double dropped_bytes = 0;
  double gate_backlog_bytes = 0;
  double median_latency_s = 0;
  std::size_t samples = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Row run_point(int n, const char* mechanism) {
  cell::CellScenarioSpec spec = cell::CellScenarioSpec::uniform("browser", n,
                                                               /*stagger=*/2);
  spec.network = "3g";
  spec.seed = 7;
  spec.capacity_kbps = 2000;
  spec.throttle_kbps = 250;
  spec.mechanism = mechanism;
  for (auto& d : spec.devices) d.actions = 2;

  core::RunResult res = cell::run_cell_scenario(spec);
  Row row;
  row.n = n;
  row.mechanism = mechanism;
  row.dropped_packets = res.registry.counter("cell.gate.dropped_packets");
  row.dropped_bytes = res.registry.counter("cell.gate.dropped_bytes");
  row.gate_backlog_bytes =
      res.registry.gauges().at("cell.gate.max_queue_bytes");
  const auto it = res.samples.find("latency_s");
  if (it != res.samples.end()) {
    row.samples = it->second.size();
    row.median_latency_s = median(it->second);
  }
  return row;
}

}  // namespace

int main() {
  std::printf("shared-cell contention: 250 kbps carrier gate on the member "
              "aggregate,\n2 Mbps PF-scheduled air interface\n\n");
  std::printf("%3s  %-9s %10s %12s %13s %12s\n", "N", "mechanism",
              "gate drops", "drop bytes", "gate backlog", "median load");
  for (const int n : {1, 4, 8}) {
    for (const char* mechanism : {"shaping", "policing"}) {
      const Row r = run_point(n, mechanism);
      std::printf("%3d  %-9s %10.0f %12.0f %12.0fB %11.2fs  (%zu loads)\n",
                  r.n, r.mechanism, r.dropped_packets, r.dropped_bytes,
                  r.gate_backlog_bytes, r.median_latency_s, r.samples);
    }
  }
  std::printf(
      "\nReading the table: the robust separation is WHERE the excess goes.\n"
      "Shaping buffers it — gate drops stay at zero until the shaper queue\n"
      "itself overflows at high N, while its backlog deepens with every\n"
      "added device. Policing never buffers — its backlog column is zero and\n"
      "drops grow roughly linearly with N, so TCP sees loss instead of\n"
      "delay. That is the paper's single-subscriber Finding 7 (3G shaping\n"
      "vs LTE policing), recovered as a per-cell effect under contention.\n");
  return 0;
}
