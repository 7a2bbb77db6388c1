// Binary-search helpers over time-ordered record vectors.
//
// A QxdmLogger appends records in virtual-time order — the simulation is
// single-threaded in virtual time — so on a clean capture record
// timestamps are nondecreasing and window queries can locate their
// [start, end] subrange with two binary searches instead of scanning the
// whole log. radio::compute_residency and browser_rrc_study's transition
// listing use these helpers; their window semantics (inclusive on both
// ends) match diag::RrcStateTracker's.
//
// Precondition: `log` is sorted by `.at` (nondecreasing). A capture fault
// that delays records (fault/fault_injector.h) commits them late with
// their timestamps intact and breaks it; code that must tolerate such a
// log sorts the timestamps first, as RrcStateTracker does for PDU records.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace qoed::radio {

// [lo, hi) index range of records with `at` in [start, end] (inclusive).
template <class Rec>
std::pair<std::size_t, std::size_t> record_range(const std::vector<Rec>& log,
                                                 sim::TimePoint start,
                                                 sim::TimePoint end) {
  const auto lo = std::lower_bound(
      log.begin(), log.end(), start,
      [](const Rec& r, sim::TimePoint t) { return r.at < t; });
  const auto hi = std::upper_bound(
      lo, log.end(), end,
      [](sim::TimePoint t, const Rec& r) { return t < r.at; });
  return {static_cast<std::size_t>(lo - log.begin()),
          static_cast<std::size_t>(hi - log.begin())};
}

// Index of the first record with `at` > t (== log.size() when none). The
// record before it, if any, is the last one with `at` <= t — ties resolve
// to the latest record, matching how the linear scans applied same-time
// transitions in append order.
template <class Rec>
std::size_t first_after(const std::vector<Rec>& log, sim::TimePoint t) {
  const auto it = std::upper_bound(
      log.begin(), log.end(), t,
      [](sim::TimePoint tp, const Rec& r) { return tp < r.at; });
  return static_cast<std::size_t>(it - log.begin());
}

}  // namespace qoed::radio
