#include "radio/power_model.h"

#include <algorithm>

#include "radio/record_search.h"

namespace qoed::radio {

sim::Duration StateResidency::total() const {
  sim::Duration sum{};
  for (const auto& [state, d] : time_in_state) sum += d;
  return sum;
}

sim::Duration StateResidency::in(RrcState s) const {
  auto it = time_in_state.find(s);
  return it == time_in_state.end() ? sim::Duration::zero() : it->second;
}

StateResidency compute_residency(const std::vector<RrcTransitionRecord>& log,
                                 RrcState initial, sim::TimePoint start,
                                 sim::TimePoint end) {
  StateResidency out;
  if (end <= start) return out;

  // The state at `start` is set by the last transition at or before it
  // (ties resolve to the latest, as the linear scan applied them in order);
  // only transitions strictly inside (start, end) then split the window.
  std::size_t i = first_after(log, start);
  RrcState state = i > 0 ? log[i - 1].to : initial;
  sim::TimePoint cursor = start;
  for (; i < log.size() && log[i].at < end; ++i) {
    out.time_in_state[state] += log[i].at - cursor;
    cursor = log[i].at;
    state = log[i].to;
  }
  out.time_in_state[state] += end - cursor;
  return out;
}

double energy_joules(const StateResidency& residency, const RrcConfig& cfg) {
  double joules = 0;
  for (const auto& [state, d] : residency.time_in_state) {
    joules += cfg.params(state).power_mw / 1000.0 * sim::to_seconds(d);
  }
  return joules;
}

}  // namespace qoed::radio
