#include "core/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "core/shard.h"
#include "sim/log.h"
#include "sim/rng.h"

namespace qoed::core {

std::size_t CampaignResult::failed_runs() const {
  std::size_t n = 0;
  for (const auto& e : run_errors) {
    if (!e.empty()) ++n;
  }
  return n;
}

const MetricAggregate* CampaignResult::metric(const std::string& name) const {
  auto it = metrics.find(name);
  return it == metrics.end() ? nullptr : &it->second;
}

std::vector<CampaignResult::TraceProcess>
CampaignResult::trace_process_refs() const {
  std::vector<TraceProcess> out;
  if (!trace.events().empty()) out.push_back({"campaign:" + name, -1});
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (!traces[i].events().empty()) {
      out.push_back({"run-" + std::to_string(i), static_cast<int>(i)});
    }
  }
  return out;
}

std::vector<std::pair<std::string, const obs::Tracer*>>
CampaignResult::trace_processes() const {
  std::vector<std::pair<std::string, const obs::Tracer*>> out;
  for (TraceProcess& p : trace_process_refs()) {
    out.emplace_back(std::move(p.label),
                     p.run < 0 ? &trace : &traces[static_cast<size_t>(p.run)]);
  }
  return out;
}

Campaign::Campaign(CampaignConfig cfg) : cfg_(std::move(cfg)) {}

std::uint64_t Campaign::run_seed(std::uint64_t master_seed,
                                 std::size_t run_index) {
  // Reuse the named-stream fork so run seeds live in the same derivation
  // family as every other stream in the simulation.
  return sim::Rng(master_seed)
      .fork("campaign/run/" + std::to_string(run_index))
      .seed();
}

std::uint64_t Campaign::retry_seed(std::uint64_t master_seed,
                                   std::size_t run_index, std::size_t attempt) {
  const std::uint64_t base = run_seed(master_seed, run_index);
  if (attempt == 0) return base;
  return sim::Rng(base).fork("retry/" + std::to_string(attempt)).seed();
}

std::uint64_t Campaign::ctrl_reseed(std::uint64_t master_seed,
                                    std::size_t run_index,
                                    std::size_t reschedule) {
  const std::uint64_t base = run_seed(master_seed, run_index);
  if (reschedule == 0) return base;
  return sim::Rng(base).fork("ctrl/" + std::to_string(reschedule)).seed();
}

RunExecution execute_run_with_policy(const CampaignConfig& cfg,
                                     const RunFn& fn, RunSpec base) {
  RunExecution ex;
  std::size_t attempts_total = 0;
  for (std::size_t resched = 0;; ++resched) {
    // Each reschedule round restarts the retry ladder from a fresh base
    // seed; round 0 reproduces the original retry_seed sequence exactly.
    const std::uint64_t round_base =
        Campaign::ctrl_reseed(base.master_seed, base.run_index, resched);
    for (std::size_t attempt = 0;; ++attempt) {
      RunSpec spec = base;
      spec.attempt = attempt;
      spec.reschedule = resched;
      spec.seed =
          attempt == 0
              ? round_base
              : sim::Rng(round_base)
                    .fork("retry/" + std::to_string(attempt))
                    .seed();
      ex.attempts = ++attempts_total;
      ex.last_seed = spec.seed;
      // The run is single-threaded on this worker, so the thread-local
      // logger tallies delta-attributed here belong to exactly this attempt.
      const sim::LogCounts log_before = sim::Logger::thread_counts();
      try {
        ex.result = fn(spec.seed, spec);
      } catch (const std::exception& e) {
        ex.result = RunResult{};
        ex.result.ok = false;
        ex.result.error = e.what();
      } catch (...) {
        ex.result = RunResult{};
        ex.result.ok = false;
        ex.result.error = "unknown exception";
      }
      const sim::LogCounts log_after = sim::Logger::thread_counts();
      ex.result.registry.add_counter(
          "log.warn", static_cast<double>(log_after.warn - log_before.warn));
      ex.result.registry.add_counter(
          "log.error", static_cast<double>(log_after.error - log_before.error));
      // Virtual-time watchdog: a run that "succeeded" but consumed more
      // simulated time than allowed is as suspect as one that threw — fail it
      // with a deterministic message so retry/quarantine handle it uniformly.
      if (ex.result.ok && cfg.max_run_virtual_seconds > 0 &&
          ex.result.virtual_seconds > cfg.max_run_virtual_seconds) {
        const double got = ex.result.virtual_seconds;
        ex.result = RunResult{};
        ex.result.ok = false;
        ex.result.error = "virtual-time watchdog: run consumed " +
                          std::to_string(got) + "s (limit " +
                          std::to_string(cfg.max_run_virtual_seconds) + "s)";
      }
      if (ex.result.ok || attempt >= cfg.max_retries) break;
    }
    ex.reschedules = resched;
    // Reschedule applies to runs that completed with a policy verdict; a
    // quarantined run already exhausted the failure-retry machinery.
    if (!ex.result.ok || !ex.result.reschedule_requested ||
        resched >= cfg.max_reschedules) {
      return ex;
    }
  }
}

CampaignResult Campaign::run(const RunFn& fn) {
  const std::size_t runs = cfg_.runs;
  std::size_t jobs = cfg_.jobs;
  if (jobs == 0) {
    jobs = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (runs > 0) jobs = std::min(jobs, runs);
  jobs = std::max<std::size_t>(jobs, 1);

  CampaignResult out;
  out.name = cfg_.name;
  out.master_seed = cfg_.master_seed;
  out.runs = runs;
  out.jobs = jobs;
  out.run_specs.reserve(runs);
  for (std::size_t i = 0; i < runs; ++i) {
    RunSpec spec;
    spec.run_index = i;
    spec.seed = run_seed(cfg_.master_seed, i);
    spec.master_seed = cfg_.master_seed;
    out.run_specs.push_back(std::move(spec));
  }

  if (cfg_.trace) out.traces.resize(runs);

  // Every run commits through the sink: it orders and folds, and with an
  // out_dir also writes the shards. Resume skips the durable prefix.
  ShardedCampaignSink sink(cfg_.shard, cfg_.name, cfg_.master_seed, runs,
                           jobs);
  const std::size_t start = sink.committed();

  std::atomic<std::size_t> next{start};
  const auto t0 = std::chrono::steady_clock::now();
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= runs) return;
      RunExecution ex = execute_run_with_policy(cfg_, fn, out.run_specs[i]);
      if (cfg_.trace) out.traces[i] = std::move(ex.result.trace);
      sink.submit(i, std::move(ex));
    }
  };

  const std::size_t todo = runs > start ? runs - start : 0;
  if (jobs <= 1 || todo <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t i = 0; i < jobs; ++i) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  last_wall_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  sink.finalize();  // throws on shard I/O failure — don't mask it
  sink.fold_into(&out, cfg_.trace);
  return out;
}

}  // namespace qoed::core
