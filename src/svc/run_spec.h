// Scenario run specs for fleet/service mode (DESIGN.md §5g).
//
// A ScenarioSpec is the JSON-serializable description of ONE headless
// measurement run — the same pageload/post/video scenarios qoed_cli drives
// interactively, minus the terminal output. `qoed_cli fleet` reads one spec
// per line from a file and executes them as a campaign; `qoed_cli serve`
// accepts the same grammar over stdin or a Unix socket at runtime.
//
// Determinism: run_scenario derives everything stochastic from spec.seed,
// so a spec executed by a batch fleet, a resumed fleet, or a serve worker
// produces the identical RunResult (and therefore identical artifacts).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/campaign.h"

namespace qoed::svc {

struct ScenarioSpec {
  std::string scenario = "pageload";  // pageload | post | video
  std::string network = "3g";         // wifi | 3g | 3g-simplified | lte
  std::uint64_t seed = 1;

  // pageload
  long pages = 5;
  long think_s = 20;

  // post
  std::string kind = "status";  // status | checkin | photos
  long reps = 10;

  // video
  long videos = 3;
  long throttle_kbps = 0;            // 0 = no throttle
  std::string mechanism = "shaping";  // shaping | policing

  // Session start offset into the run's virtual timeline (seconds). The
  // population generator (src/pop) uses it to place users on a diurnal
  // arrival curve; merged campaign timelines then interleave runs by their
  // actual virtual times instead of all starting at t=0.
  double arrival_s = 0;

  // Capture-fault injection (explicit only — the QOED_FAULT_PLAN env
  // fallback is a per-process knob and service runs must not depend on
  // ambient environment).
  std::string fault_plan;
  std::uint64_t fault_seed = 1;

  // Closed-loop control policy (ctrl::Policy grammar; empty = none). Rules
  // react to findings and layer health during the run: capture / extend /
  // abort / reschedule (see DESIGN.md §5i).
  std::string policy;

  // Parses one spec from a JSON object line; missing keys keep their
  // defaults and the serve protocol's "cmd" and "id" are skipped. False on
  // malformed JSON, an unknown key (a misspelt "throttle" must not silently
  // run unthrottled) or an unknown scenario/network/kind value, with a
  // reason naming it in *error.
  static bool parse_json(std::string_view json, ScenarioSpec* out,
                         std::string* error);

  // Canonical JSON form (parse_json round-trips it).
  std::string to_json() const;
};

// Executes one scenario headlessly and returns its RunResult: samples
// ("latency_s" per action; video adds "loading_s" and a video.stalls
// counter), the unified registry, diagnosis/fault/collector counters, and
// RunArtifacts carrying this run's findings and timeline JSONL. Diagnosis
// is always enabled. Throws on an unknown scenario or a bad fault/policy
// spec — the campaign retry policy turns that into a quarantined run.
core::RunResult run_scenario(const ScenarioSpec& spec);

// Campaign-context variant: the one entry point both the batch fleet
// factory and the serve worker use. Applies the ctrl reschedule reseed when
// rs.reschedule > 0 (deriving the round seed from spec.seed, exactly like
// Campaign::ctrl_reseed derives it from the run seed), so a rescheduled run
// produces identical artifacts on the batch and serve paths.
core::RunResult run_scenario(const ScenarioSpec& spec,
                             const core::RunSpec& rs);

}  // namespace qoed::svc
