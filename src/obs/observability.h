// Wiring types that hand the observability layer to instrumented components.
//
// Two clocks, two sinks, never mixed:
//  - Virtual time (sim::TimePoint) -> Tracer spans/instants and the
//    deterministic MetricsRegistry. Pure function of the seed.
//  - Wall time (steady_clock) -> a SEPARATE "profile" registry (`prof.*`
//    keys) via ScopedWallTimer. Useful for finding real hot spots; excluded
//    from campaign JSON, merge artifacts and anything byte-compared.
//
// Components take an obs::Context by value and keep it; all pointers may be
// null (the default Context is a full no-op). The enabled() check keeps the
// disabled cost to a branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace qoed::obs {

// Per-component handle: which tracer to write to, which track this component
// records on, and (optionally) where wall-clock profile samples go. The
// profiling flag is read through a pointer so the owner can flip it on/off
// after contexts have been handed out; when off, profile() is null and the
// per-call cost at an instrumented site is a branch.
struct Context {
  Tracer* tracer = nullptr;
  MetricsRegistry* profile_reg = nullptr;  // wall clock; NOT deterministic
  const bool* profiling = nullptr;
  std::uint32_t track = 0;

  bool tracing() const { return tracer != nullptr && tracer->enabled(); }
  MetricsRegistry* profile() const {
    return (profiling != nullptr && *profiling) ? profile_reg : nullptr;
  }
};

// One bundle per device/run: the wall-clock profile registry and the
// tracer. Owned by QoeDoctor (per device) and by Campaign (per run + one for
// the campaign spine). Deterministic metrics go to RunResult::registry.
struct Observability {
  MetricsRegistry profile;  // wall-clock; stays out of deterministic artifacts
  Tracer tracer;
  // Wall-clock profiling mode — separate from (and orthogonal to) tracing;
  // off by default so hot paths pay no clock reads.
  bool profiling = false;

  Context context(std::uint32_t track = 0) {
    return Context{&tracer, &profile, &profiling, track};
  }
};

// RAII wall-clock timer feeding a profile-registry histogram (micro-seconds).
// Cheap no-op when `profile` is null. Never point this at a registry that
// feeds deterministic output.
class ScopedWallTimer {
 public:
  ScopedWallTimer(MetricsRegistry* profile, std::string_view name)
      : profile_(profile) {
    if (profile_ != nullptr) {
      name_ = name;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedWallTimer() {
    if (profile_ != nullptr) {
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_);
      profile_->observe_us(name_, us.count());
    }
  }
  ScopedWallTimer(const ScopedWallTimer&) = delete;
  ScopedWallTimer& operator=(const ScopedWallTimer&) = delete;

 private:
  MetricsRegistry* profile_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace qoed::obs
