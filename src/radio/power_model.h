// RRC-state-based network energy model (§5.3).
//
// The paper computes device network energy from QxDM RRC logs using
// per-state power levels measured with a Monsoon power monitor (following
// Huang et al.). We do exactly that: integrate per-state power over the
// state residency implied by the RRC transition log.
#pragma once

#include <map>
#include <vector>

#include "radio/qxdm_logger.h"
#include "radio/rrc_config.h"
#include "sim/time.h"

namespace qoed::radio {

struct StateResidency {
  std::map<RrcState, sim::Duration> time_in_state;

  sim::Duration total() const;
  sim::Duration in(RrcState s) const;
};

// Walks the transition log over [start, end]; `initial` is the state at the
// beginning of the log (transitions before `start` are applied to find the
// state at `start`). The log must be sorted by `at` (captured logs always
// are); the window is located by binary search, so the cost is
// O(log n + transitions inside the window), not O(log size).
StateResidency compute_residency(const std::vector<RrcTransitionRecord>& log,
                                 RrcState initial, sim::TimePoint start,
                                 sim::TimePoint end);

// Total energy in joules for the residency under `cfg`'s power levels.
double energy_joules(const StateResidency& residency, const RrcConfig& cfg);

}  // namespace qoed::radio
