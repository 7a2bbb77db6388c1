#include "diag/rrc_state_tracker.h"

#include <algorithm>
#include <utility>

namespace qoed::diag {

namespace {

std::size_t slot(radio::RrcState s) { return static_cast<std::size_t>(s); }

bool is_promotion(const radio::RrcTransitionRecord& t) {
  return radio::is_low_power(t.from) ||
         (t.from == radio::RrcState::kFach && t.to == radio::RrcState::kDch);
}

bool is_demotion(const radio::RrcTransitionRecord& t) {
  return (!radio::is_low_power(t.from) && radio::is_low_power(t.to)) ||
         (t.from == radio::RrcState::kDch && t.to == radio::RrcState::kFach);
}

using Times = std::vector<sim::TimePoint>;

// The sorted `times` in [start, end] (inclusive), as an iterator range.
std::pair<Times::const_iterator, Times::const_iterator> in_window(
    const Times& times, sim::TimePoint start, sim::TimePoint end) {
  const auto lo = std::lower_bound(times.begin(), times.end(), start);
  return {lo, std::upper_bound(lo, times.end(), end)};
}

// Index of the first of the sorted `times` after t, so the entry before it
// is the last at or before t (ties resolve to the latest record).
std::size_t first_after(const Times& times, sim::TimePoint t) {
  return static_cast<std::size_t>(
      std::upper_bound(times.begin(), times.end(), t) - times.begin());
}

}  // namespace

RrcStateTracker::RrcStateTracker(const radio::QxdmLogger& log,
                                 radio::RrcConfig config)
    : log_(&log), cfg_(std::move(config)) {
  sync();
}

RrcStateTracker::~RrcStateTracker() {
  if (collector_ != nullptr) collector_->unsubscribe(this);
}

void RrcStateTracker::attach(core::Collector& collector) {
  collector.subscribe(core::kLayerRadio, this);
  collector_ = &collector;
  sync();
}

void RrcStateTracker::sync() {
  if (log_ == nullptr) return;
  const auto& rrc = log_->rrc_log();
  for (; consumed_rrc_ < rrc.size(); ++consumed_rrc_) {
    const auto& t = rrc[consumed_rrc_];
    CumResidency cum{};
    if (cp_at_.empty()) {
      cum[slot(cfg_.idle_state())] = (t.at - sim::kTimeZero).count();
    } else {
      cum = cp_cum_.back();
      cum[slot(cp_state_.back())] += (t.at - cp_at_.back()).count();
    }
    cp_at_.push_back(t.at);
    cp_state_.push_back(t.to);
    cp_cum_.push_back(cum);
    if (is_promotion(t)) {
      promotion_at_.push_back(t.at);
      ++promotions_;
    }
    if (is_demotion(t)) ++demotions_;
  }
  const auto& pdus = log_->pdu_log();
  for (; consumed_pdu_ < pdus.size(); ++consumed_pdu_) {
    ++pdus_seen_;
    pdu_bytes_ += pdus[consumed_pdu_].payload_len;
    const sim::TimePoint at = pdus[consumed_pdu_].at;
    // Capture order is normally time order, so this is an append; a
    // reordered (fault-released) record costs one sorted insert.
    if (pdu_at_.empty() || !(at < pdu_at_.back())) {
      pdu_at_.push_back(at);
    } else {
      pdu_at_.insert(std::upper_bound(pdu_at_.begin(), pdu_at_.end(), at), at);
    }
  }
}

void RrcStateTracker::reset() {
  cp_at_.clear();
  cp_state_.clear();
  cp_cum_.clear();
  promotion_at_.clear();
  pdu_at_.clear();
  consumed_rrc_ = 0;
  consumed_pdu_ = 0;
  promotions_ = 0;
  demotions_ = 0;
  pdus_seen_ = 0;
  pdu_bytes_ = 0;
}

RrcStateTracker::CumResidency RrcStateTracker::cum_at(sim::TimePoint t) const {
  const std::size_t i = first_after(cp_at_, t);
  if (i == 0) {
    CumResidency cum{};
    cum[slot(cfg_.idle_state())] = (t - sim::kTimeZero).count();
    return cum;
  }
  CumResidency cum = cp_cum_[i - 1];
  cum[slot(cp_state_[i - 1])] += (t - cp_at_[i - 1]).count();
  return cum;
}

radio::StateResidency RrcStateTracker::residency(sim::TimePoint start,
                                                 sim::TimePoint end) const {
  radio::StateResidency out;
  if (end <= start) return out;
  const auto a = cum_at(start);
  const auto b = cum_at(end);
  for (std::size_t s = 0; s < kStateCount; ++s) {
    const sim::Duration::rep d = b[s] - a[s];
    if (d != 0) {
      out.time_in_state[static_cast<radio::RrcState>(s)] = sim::Duration{d};
    }
  }
  return out;
}

double RrcStateTracker::energy_joules(sim::TimePoint start,
                                      sim::TimePoint end) const {
  return radio::energy_joules(residency(start, end), cfg_);
}

EnergyBreakdown RrcStateTracker::energy_breakdown(sim::TimePoint start,
                                                  sim::TimePoint end) const {
  EnergyBreakdown out;
  if (end <= start) return out;

  // Merged [lo, hi] intervals around the window's PDU records.
  std::vector<std::pair<sim::TimePoint, sim::TimePoint>> activity;
  const auto [first, last] = in_window(pdu_at_, start, end);
  for (auto it = first; it != last; ++it) {
    const sim::TimePoint lo = *it - kActivityGuard;
    const sim::TimePoint hi = *it + kActivityGuard;
    if (!activity.empty() && lo <= activity.back().second) {
      activity.back().second = std::max(activity.back().second, hi);
    } else {
      activity.emplace_back(lo, hi);
    }
  }

  // Piecewise state timeline over [start, end], in log order: the last
  // transition at or before `start` sets the state there.
  std::size_t next = first_after(cp_at_, start);
  radio::RrcState state = next > 0 ? cp_state_[next - 1] : cfg_.idle_state();
  sim::TimePoint cursor = start;
  auto emit = [&](sim::TimePoint seg_start, sim::TimePoint seg_end,
                  radio::RrcState s) {
    if (seg_end <= seg_start) return;
    const double power_w = cfg_.params(s).power_mw / 1000.0;
    const double joules = power_w * sim::to_seconds(seg_end - seg_start);
    out.total_joules += joules;
    if (!radio::is_high_power(s)) return;  // low power: never tail
    // Split the high-power segment into active vs idle (tail) parts.
    sim::Duration active{};
    for (const auto& [lo, hi] : activity) {
      const sim::TimePoint a = std::max(lo, seg_start);
      const sim::TimePoint b = std::min(hi, seg_end);
      if (b > a) active += b - a;
    }
    const double active_j = power_w * sim::to_seconds(active);
    out.tail_joules += joules - active_j;
  };
  for (; next < cp_at_.size() && cp_at_[next] < end; ++next) {
    emit(cursor, cp_at_[next], state);
    cursor = cp_at_[next];
    state = cp_state_[next];
  }
  emit(cursor, end, state);
  out.non_tail_joules = out.total_joules - out.tail_joules;
  return out;
}

bool RrcStateTracker::promotion_in(sim::TimePoint start,
                                   sim::TimePoint end) const {
  const auto [lo, hi] = in_window(promotion_at_, start, end);
  return lo != hi;
}

std::size_t RrcStateTracker::transitions_in_count(sim::TimePoint start,
                                                  sim::TimePoint end) const {
  const auto [lo, hi] = in_window(cp_at_, start, end);
  return static_cast<std::size_t>(hi - lo);
}

std::size_t RrcStateTracker::pdus_in_count(sim::TimePoint start,
                                           sim::TimePoint end) const {
  const auto [lo, hi] = in_window(pdu_at_, start, end);
  return static_cast<std::size_t>(hi - lo);
}

radio::RrcState RrcStateTracker::state_at(sim::TimePoint t) const {
  const std::size_t i = first_after(cp_at_, t);
  return i > 0 ? cp_state_[i - 1] : cfg_.idle_state();
}

void RrcStateTracker::on_event(const core::Collector& collector,
                               const core::Event& event) {
  (void)collector;
  (void)event;
  // Fold everything unconsumed rather than just this event's record.
  sync();
}

void RrcStateTracker::on_events(const core::Collector& collector,
                                const core::Event* events, std::size_t count) {
  (void)collector;
  (void)events;
  (void)count;
  // A merged backlog (late cellular attach): one fold covers all of it.
  sync();
}

void RrcStateTracker::on_layers_cleared(const core::Collector& collector,
                                        std::uint32_t layer_mask) {
  if ((layer_mask & core::kLayerRadio) == 0) return;
  reset();
  // The store may be gone (cellular detach) or replaced (re-attach).
  log_ = collector.qxdm();
  sync();
}

}  // namespace qoed::diag
