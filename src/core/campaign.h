// Multi-threaded campaign runner: fan N repeated experiments out over a
// worker pool and merge their metrics.
//
// The paper's evaluation (§6-7) repeats every Facebook/YouTube/browser
// experiment dozens of times per configuration and reports aggregate CDFs.
// A Campaign scales that protocol: the caller supplies a factory describing
// ONE self-contained run (its own EventLoop, Testbed, device and app, seeded
// from the per-run seed), and the campaign executes `runs` of them across a
// fixed-size thread pool.
//
// Determinism contract: results are bit-identical regardless of `jobs`.
//   - per-run seeds derive from the campaign master seed and the run index
//     only (Campaign::run_seed), never from thread identity or wall clock;
//   - runs share nothing — no RNG, no event loop, no accumulators;
//   - merging walks runs in index order, so floating-point accumulation
//     order is fixed.
// Wall-clock time is deliberately kept OUT of CampaignResult (it would break
// the bit-identical guarantee); read Campaign::last_wall_seconds() instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/stats.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace qoed::core {

// Identity of one run within a campaign — enough to replay it alone.
struct RunSpec {
  std::size_t run_index = 0;
  std::uint64_t seed = 0;         // per-run seed, derived from master_seed
  std::uint64_t master_seed = 0;  // the campaign's master seed
  // Which attempt this is (0 = first). Retries re-run the factory with a
  // reseeded spec (Campaign::retry_seed), so a run that failed on a
  // stochastic edge gets a genuinely different draw sequence.
  std::size_t attempt = 0;
  // Which control-policy reschedule round this is (0 = first). A run whose
  // policy requested `reschedule` re-enters the retry machinery with a
  // fresh Campaign::ctrl_reseed base — counted separately from failure
  // retries, with a fresh retry budget per round.
  std::size_t reschedule = 0;
};

// Per-run export artifacts a factory may attach to its RunResult: the raw
// (unstamped) findings and timeline JSONL for that one run. A sharded
// campaign streams them into shard files, from which the merged
// campaign-level findings.jsonl / timeline.jsonl are produced; without an
// out_dir they are dropped at commit.
struct RunArtifacts {
  std::string findings_jsonl;  // FindingsJsonlSink::to_string() of this run
  std::string timeline_jsonl;  // TimelineJsonlSink::to_string() of this run
  // Targeted capture slices the run's control policy flushed (one header
  // line + packet lines per capture, see ctrl::PolicyEngine). Empty when no
  // policy fired a capture.
  std::string captures_jsonl;
};

// What one run hands back: named sample sets (e.g. latencies in seconds,
// one value per replayed action) and the run's metrics registry.
struct RunResult {
  // Raw sample values, folded into the campaign's per-metric summaries.
  std::map<std::string, std::vector<double>> samples;
  // The run's metrics: every counter (e.g. bytes transferred, videos
  // completed, each component's export_metrics), gauge and histogram;
  // add_sample also observes into it. Merged across runs in index order
  // into CampaignResult::registry.
  obs::MetricsRegistry registry;
  // The run's span trace (virtual time), moved from the factory's doctor
  // when tracing is on; moved into CampaignResult::traces when
  // CampaignConfig::trace is set and merged into the campaign trace
  // artifact as one process per run. Empty/disabled otherwise.
  obs::Tracer trace;
  bool ok = true;
  std::string error;  // set when the factory threw; run contributes nothing
  // Virtual time the run consumed, reported by the factory (e.g. the event
  // loop's final now()). The campaign's virtual-time watchdog fails runs
  // exceeding CampaignConfig::max_run_virtual_seconds; zero = not reported.
  double virtual_seconds = 0;
  // Optional per-run export artifacts (see RunArtifacts), streamed to shard
  // files when the campaign has an out_dir.
  RunArtifacts artifacts;
  // Set by the run's control policy (ctrl::PolicyEngine) when a
  // `reschedule` action fired: the run completed but its collection layers
  // were degraded/lost, so execute_run_with_policy re-runs it with a
  // ctrl_reseed base (up to CampaignConfig::max_reschedules rounds).
  bool reschedule_requested = false;
  std::string reschedule_reason;

  void add_sample(const std::string& metric, double v) {
    samples[metric].push_back(v);
    registry.observe(metric, v);
  }
};

// Cross-run aggregation of one named metric, folded by
// ShardedCampaignSink in run-index order (DESIGN.md §5g): exact n/min/max,
// Welford mean and stddev, percentiles from 1-2-5 histogram buckets
// clamped to [min, max].
struct MetricAggregate {
  // Summary over every sample of every clean run.
  Summary pooled;
  // Summary over the per-run means ("mean of runs" — each run weighs the
  // same regardless of how many samples it produced).
  Summary per_run_means;
};

struct CampaignResult {
  std::string name;
  std::uint64_t master_seed = 0;
  std::size_t runs = 0;
  std::size_t jobs = 0;  // pool size actually used

  // Per-run replay info, ordered by run index. run_specs[i].seed is the
  // FIRST attempt's seed (replay identity); run_errors[i] is empty for a
  // clean run and carries the final attempt's exception message otherwise.
  std::vector<RunSpec> run_specs;
  std::vector<std::string> run_errors;
  // Attempts consumed per run (1 = no retry needed), ordered by run index.
  std::vector<std::size_t> run_attempts;
  // Control-policy reschedule rounds consumed per run (0 = none), ordered
  // by run index. Summed into the campaign.rescheduled registry counter.
  std::vector<std::size_t> run_reschedules;

  // A run whose last allowed attempt still failed. Quarantined runs
  // contribute no samples or metrics but are reported — campaign JSON carries
  // them, so degraded fleets are visible rather than silently thinner.
  struct QuarantinedRun {
    std::size_t run_index = 0;
    std::size_t attempts = 0;       // attempts consumed (all failed)
    std::uint64_t last_seed = 0;    // seed of the final attempt
    std::string error;              // its failure message
  };
  std::vector<QuarantinedRun> quarantined;

  std::map<std::string, MetricAggregate> metrics;

  // Unified registry: every clean run's RunResult::registry merged in index
  // order, plus campaign-level counters (campaign.run_attempts,
  // campaign.quarantined, campaign.rescheduled). Byte-identical snapshot at
  // any --jobs.
  obs::MetricsRegistry registry;

  // Campaign-spine trace (only when CampaignConfig::trace): one "run-N"
  // track per run carrying its run span (virtual 0 .. virtual_seconds) with
  // retry/quarantine instants. Built post-hoc in index order — worker
  // identity never leaks in.
  obs::Tracer trace;
  // Per-run traces moved out of RunResult, indexed by run (only when
  // CampaignConfig::trace; runs a resume skipped hold empty tracers).
  std::vector<obs::Tracer> traces;

  // Move-stable description of one trace process: the spine (run == -1) or
  // the per-run tracer at traces[run]. Resolve against the CampaignResult
  // you hold NOW — indices survive moves, pointers would not.
  struct TraceProcess {
    std::string label;
    int run = -1;  // -1 = campaign spine; otherwise index into `traces`
  };
  std::vector<TraceProcess> trace_process_refs() const;

  // (label, tracer) pairs for TraceEventSink: the campaign spine plus every
  // run trace that recorded events, labeled "run-N". The pointers borrow
  // from THIS object as it is at call time — they are materialized per call,
  // so after moving a CampaignResult, call trace_processes() again on the
  // destination (pairs obtained from the moved-from object dangle). Use
  // trace_process_refs() when the result may move between lookup and use.
  std::vector<std::pair<std::string, const obs::Tracer*>> trace_processes()
      const;

  std::size_t failed_runs() const;
  const MetricAggregate* metric(const std::string& name) const;
};

// Where Campaign::run's commit sink writes its shards (the layout is in
// core/shard.h).
struct CampaignShardConfig {
  std::string out_dir;  // empty => fold in memory, write no files
  std::size_t shard_bytes = 4u << 20;  // rotate when payload exceeds this
  std::size_t shard_runs = 0;          // also rotate every N runs (0 = off)
  // Adopt an existing MANIFEST.json in out_dir: replay closed shards into
  // the aggregates and continue at the durable frontier. Campaign identity
  // (name, master_seed, runs) must match or Campaign::run throws.
  bool resume = false;
};

// The one campaign settings type: Campaign::run, svc::ServeEngine (which
// rejects `runs`, `trace` and `shard.resume`: a session is open-ended),
// `qoed_cli fleet|serve` and the campaign benches all take it.
struct CampaignConfig {
  std::string name = "campaign";
  std::size_t runs = 0;  // runs to execute (0 in an open-ended serve session)
  std::size_t jobs = 0;  // 0 => std::thread::hardware_concurrency()
  std::uint64_t master_seed = 1;

  // --- robustness policy (defaults preserve pre-existing behavior) ---
  // Extra attempts after a failed one; each retry reruns the factory with a
  // reseeded RunSpec. 0 = fail fast.
  std::size_t max_retries = 0;
  // Per-run virtual-time watchdog: a run reporting
  // RunResult::virtual_seconds beyond this is treated as failed (and
  // retried/quarantined like a thrown run). 0 = disabled.
  double max_run_virtual_seconds = 0;
  // Control-policy reschedule rounds allowed per run beyond the first (see
  // RunResult::reschedule_requested). Each round gets a ctrl_reseed base
  // and a fresh retry budget; counted separately from failure retries.
  std::size_t max_reschedules = 1;
  // Build the campaign-spine trace (CampaignResult::trace) and keep each
  // run's RunResult::trace in CampaignResult::traces. Factories opt their
  // own per-run tracers in independently.
  bool trace = false;

  // Where the commit sink writes shards. With an empty out_dir it only
  // orders and folds, and runs finishing ahead of the frontier wait in
  // memory instead of in pending files.
  CampaignShardConfig shard;
};

// Factory for one self-contained run (see RunFn below) executed through the
// full per-run policy: retry loop with reseeded attempts, exception capture
// and the virtual-time watchdog. Shared by Campaign::run's workers and the
// service-mode scheduler so both paths fail/retry/quarantine identically.
struct RunExecution {
  RunResult result;
  std::size_t attempts = 0;     // attempts consumed, all rounds (1 = clean)
  std::size_t reschedules = 0;  // policy reschedule rounds consumed (0 = none)
  std::uint64_t last_seed = 0;  // seed of the final attempt
};

// Factory for one self-contained run. Must not touch state shared with other
// runs; everything stochastic must derive from `seed` (== spec.seed).
using RunFn = std::function<RunResult(std::uint64_t seed, const RunSpec&)>;

// Executes ONE run through the campaign's retry/watchdog policy
// (only the policy fields of `cfg` are read). Seeds derive from
// (base.master_seed, base.run_index, attempt) via Campaign::retry_seed, so
// the outcome is deterministic regardless of which thread or process runs
// it — this is what lets `qoed_cli serve` schedule ad-hoc submissions with
// exactly the batch campaign's failure semantics.
RunExecution execute_run_with_policy(const CampaignConfig& cfg,
                                     const RunFn& fn, RunSpec base);

class Campaign {
 public:
  explicit Campaign(CampaignConfig cfg);

  // Executes all runs (blocking) and merges their results.
  CampaignResult run(const RunFn& fn);

  // Deterministic per-run seed derivation (stable across versions of the
  // pool: depends on master seed and run index only).
  static std::uint64_t run_seed(std::uint64_t master_seed,
                                std::size_t run_index);
  // Seed for retry `attempt` (0 = run_seed itself); depends only on
  // (master_seed, run_index, attempt), so retried campaigns stay
  // bit-identical across jobs counts.
  static std::uint64_t retry_seed(std::uint64_t master_seed,
                                  std::size_t run_index, std::size_t attempt);
  // Base seed for control-policy reschedule round `reschedule` (0 =
  // run_seed itself); depends only on (master_seed, run_index, reschedule).
  // Distinct from retry_seed's stream — a rescheduled run and a retried run
  // never replay each other's draws.
  static std::uint64_t ctrl_reseed(std::uint64_t master_seed,
                                   std::size_t run_index,
                                   std::size_t reschedule);

  // Wall-clock duration of the most recent run() — reported separately so
  // CampaignResult stays bit-identical across thread counts.
  double last_wall_seconds() const { return last_wall_seconds_; }

 private:
  CampaignConfig cfg_;
  double last_wall_seconds_ = 0;
};

}  // namespace qoed::core
