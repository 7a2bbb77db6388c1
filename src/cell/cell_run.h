// Headless shared-cell scenario runs: N devices, one contended base station.
//
// A CellScenarioSpec describes one cell-level experiment — the cell's
// capacity/throttle/grant limits plus a heterogeneous device list (browser,
// social, video) with staggered session arrivals. run_cell_scenario executes
// all devices on ONE event loop attached to ONE SharedCell, each with its
// own Collector + DiagnosisEngine, so every device diagnoses genuinely
// contended traffic.
//
// Artifacts follow the campaign conventions:
//   - timeline: core::merge_timelines over the per-device exports, ordered
//     by (t, device, seq); device labels are zero-padded ("dev-0003") so
//     lexicographic order equals member order;
//   - findings: per-device FindingsJsonlSink streams stamped with
//     {"device":"dev-NNNN",...} and concatenated in device order.
// Both are pure functions of the spec, hence byte-identical at any --jobs
// and under --resume when driven through a Campaign.
//
// With use_cell=false the *identical* construction path runs with plain
// per-link gates instead of the shared cell — the N=1 transparency baseline
// cell_test compares against bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cell/shared_cell.h"
#include "core/campaign.h"

namespace qoed::cell {

struct CellDeviceSpec {
  std::string app = "browser";  // browser | social | video
  double arrival_s = 0;         // session start offset into the run
  long actions = 3;             // pages / posts / videos
  long think_s = 5;             // browser think time between pages
};

struct CellScenarioSpec {
  std::string network = "3g";  // 3g | 3g-simplified | lte (cellular only)
  std::uint64_t seed = 1;

  // false = same devices/apps/arrivals with plain per-link gates (no shared
  // cell); the baseline for the N=1 transparency gate.
  bool use_cell = true;

  // SharedCell parameters (see CellConfig).
  double capacity_kbps = 0;  // 0 = uncontended air interface
  long throttle_kbps = 0;    // shared carrier throttle; 0 = none
  std::string mechanism = "shaping";  // shaping | policing
  int max_active_grants = 0;          // 0 = unlimited RRC grants
  long promotion_penalty_ms = 200;

  std::vector<CellDeviceSpec> devices;  // at least one

  // N identical devices with arrivals staggered by `stagger_s`.
  static CellScenarioSpec uniform(const std::string& app, int n,
                                  double stagger_s = 1.0);

  // Parses one spec from a JSON object line (canonical form below; missing
  // keys keep defaults). False with *error naming the key on malformed JSON
  // (text after the object included), an unknown key, a seed, throttle,
  // grant limit, promotion penalty, action count or think time that is not
  // a JSON integer of its field's type, or any value run_cell_scenario
  // rejects: an invalid enum value, a negative count or penalty, a negative
  // or non-finite arrival or capacity, or an empty device list.
  static bool parse_json(std::string_view json, CellScenarioSpec* out,
                         std::string* error);

  // Canonical JSON form (parse_json round-trips it).
  std::string to_json() const;
};

// Zero-padded device label for member index i ("dev-0000", "dev-0001", ...).
std::string cell_device_label(int i);

// Executes one cell scenario and returns its RunResult: pooled samples
// ("latency_s" for page loads and posts, "loading_s" for videos), merged
// per-cell artifacts, every member's instrument metrics (diag.*, fault.*,
// collector.*, flow.*, rlc.*, through svc::Instruments), per-device finding
// counters (cell.device.<label>.findings), cell.* registry metrics, and
// fleet.device_seconds = |devices| * virtual_seconds for device-hours
// throughput accounting. Honors the QOED_FAULT_PLAN environment fallback
// per device (fault-matrix CI). Throws on an invalid spec.
core::RunResult run_cell_scenario(const CellScenarioSpec& spec);

}  // namespace qoed::cell
