// Seeded fault injector for the collection front-ends.
//
// The injector installs intake filters on the three collection front-ends
// (AppBehaviorLog, net::TraceCapture, radio::QxdmLogger), perturbing records
// *at capture* — before they reach the per-layer stores or the Collector
// timeline. That placement matters: analyzers read the front-end stores
// directly, so both the streaming (tap-fed) and batch (store-scanning) paths
// see exactly the same faulted world, and live-vs-batch equality is
// preserved by construction for every fault except bounded delay (where the
// DiagnosisEngine needs watermark_slack >= FaultPlan::max_lateness()).
//
// Determinism: each lane (ui, packet, radio/rrc, radio/pdu, radio/status)
// draws from its own sim::Rng forked from the injector seed, and every
// offered record consumes a fixed number of draws regardless of the fault
// outcome, so the decision stream is a pure function of the record sequence.
// Nothing reads the wall clock: the same (plan, seed, scenario seed) triple
// reproduces the same faulted timeline bit-for-bit under any --jobs.
//
// Delay faults ("bounded reorder") hold a record back and release it —
// timestamp intact — when a later record of the same kind arrives at or
// after the release time, or on flush(). Call flush() after the scenario
// loop and before end-of-run analysis/export so held-back records land.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "fault/fault_plan.h"
#include "obs/metrics.h"

namespace qoed::core {
class AppBehaviorLog;
class QoeDoctor;
class Table;
}  // namespace qoed::core

namespace qoed::net {
class TraceCapture;
}

namespace qoed::radio {
class QxdmLogger;
}

namespace qoed::fault {

// Per-layer injection outcome counters. `offered` counts records entering
// the filter; every offered record lands in exactly one of delivered /
// dropped / delayed / truncated / blacked_out (delayed records are counted
// again under delivered when they are released).
struct LaneCounters {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t truncated = 0;
  std::uint64_t blacked_out = 0;
  std::uint64_t retimed = 0;
  LaneCounters& operator+=(const LaneCounters& o);
};

class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t seed);
  ~FaultInjector();  // uninstalls
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Installs intake filters on the doctor's front-ends (radio only when the
  // device currently has a cellular link) and watches the doctor's Collector
  // for layer clears so held-back records never leak across an experiment
  // phase reset.
  void install(core::QoeDoctor& doctor);
  // Lower-level form: any subset of front-ends; null pointers are skipped.
  // Layers whose spec has no faults are left untouched.
  void install(core::AppBehaviorLog* behavior, net::TraceCapture* trace,
               radio::QxdmLogger* qxdm, core::Collector* collector = nullptr);
  void uninstall();

  // Releases every held-back (delayed) record into its store, in release
  // order. Call after the scenario loop, before analysis/export.
  void flush();
  // Discards held-back records instead (counted as dropped).
  void clear_buffers();

  const FaultPlan& plan() const { return plan_; }
  std::uint64_t seed() const { return seed_; }

  LaneCounters counters(core::Layer layer) const;
  // One row per layer with any fault configured.
  core::Table counters_table() const;
  // Metrics surface: "<prefix><layer>.<offered|delivered|...>" for each
  // layer with any fault configured.
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix = "fault.") const;

 private:
  struct Impl;
  FaultPlan plan_;
  std::uint64_t seed_ = 0;
  std::unique_ptr<Impl> impl_;
};

// Builds (without installing) an injector from the QOED_FAULT_PLAN /
// QOED_FAULT_SEED environment variables (the CI fault-matrix hook): returns
// null when QOED_FAULT_PLAN is unset or empty, throws std::invalid_argument
// on a malformed plan or a QOED_FAULT_SEED that is not an unsigned 64-bit
// JSON integer. The injector seed is forked from the env seed (default 1)
// and `seed_hint`, so per-run callers can pass their run seed and get
// distinct-but-reproducible fault streams.
std::unique_ptr<FaultInjector> injector_from_env(std::uint64_t seed_hint = 0);

}  // namespace qoed::fault
