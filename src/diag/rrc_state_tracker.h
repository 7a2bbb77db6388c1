// RRC state tracker: the one RRC residency, energy and tail-energy
// analyzer (§5.3), live or batch.
//
// The tracker folds the QxDM RrcTransitionRecord/PduRecord stream — online
// as a CollectorSink on the spine's radio layer, or in one pass over a
// finished log — into per-transition checkpoints carrying cumulative
// per-state residency (integer microseconds since time zero), plus
// promotion/demotion counters, a sorted promotion-time index and the sorted
// PDU timestamps. Any window query is then a few binary searches, the same
// design as FlowAnalyzer's WindowIndex. Batch use is construct-then-query:
// the constructor folds everything the log already holds.
//
// Equivalence contract (enforced by diag_test): for every window whose
// records have been folded in, residency() is bit-identical to
// radio::compute_residency over the same log — residencies are exact
// integer durations, so the prefix-sum difference C(end) - C(start)
// reproduces the reference walk's per-state totals — and energy_joules()
// to radio::energy_joules of it, since both sum states in the same (enum)
// order over the same doubles.
//
// Ingestion follows the FlowAnalyzer idiom: the tracker borrows the
// QxdmLogger's record vectors (which only grow between syncs), keeps
// consumed counts, and folds new records on sync(). attach() subscribes to
// the collector's radio events so the tracker stays current automatically;
// a radio-layer clear (phase reset, cellular detach) resets the derived
// state and re-resolves the log from the collector.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/collector.h"
#include "radio/power_model.h"
#include "radio/qxdm_logger.h"
#include "radio/rrc_config.h"
#include "sim/time.h"

namespace qoed::diag {

// Tail-energy accounting (§5.3, following the paper's cited definition):
// energy spent in high-power RRC states while no data-plane PDUs are moving
// (i.e. the inactivity-timer residency after each burst). Everything else is
// non-tail.
struct EnergyBreakdown {
  double total_joules = 0;
  double tail_joules = 0;
  double non_tail_joules = 0;  // total - tail
};

class RrcStateTracker : public core::CollectorSink {
 public:
  // One slot per RrcState enumerator.
  static constexpr std::size_t kStateCount = 7;
  // How far around a PDU record the radio counts as active.
  static constexpr sim::Duration kActivityGuard = sim::msec(200);

  // Borrows `log` (must outlive the tracker, or be superseded via a
  // radio-layer clear notification) and folds in everything it holds.
  RrcStateTracker(const radio::QxdmLogger& log, radio::RrcConfig config);
  ~RrcStateTracker() override;
  RrcStateTracker(const RrcStateTracker&) = delete;
  RrcStateTracker& operator=(const RrcStateTracker&) = delete;

  // Subscribes to the spine's radio events; every captured transition/PDU
  // is folded in as it arrives. Radio backfills (Collector::wire_radio)
  // arrive as one batched on_events notification and fold in a single pass.
  void attach(core::Collector& collector);

  // Folds in records appended to the borrowed log since the last sync.
  void sync();

  // Drops all derived state (checkpoints, counters); the next sync()
  // re-folds the borrowed log from the start.
  void reset();

  // --- window queries (valid through the last synced record) ---

  // Per-state residency over [start, end]; bit-identical to
  // radio::compute_residency over the folded log (zero-duration entries
  // are omitted — in() and energy sums are unaffected).
  radio::StateResidency residency(sim::TimePoint start,
                                  sim::TimePoint end) const;
  // Energy of the residency under the tracked RrcConfig.
  double energy_joules(sim::TimePoint start, sim::TimePoint end) const;
  // Splits the energy over [start, end] into tail and non-tail: the part of
  // each high-power segment farther than kActivityGuard from every PDU
  // record is tail. Reads PDU times from the sorted index, so a record a
  // capture fault released late still counts.
  EnergyBreakdown energy_breakdown(sim::TimePoint start,
                                   sim::TimePoint end) const;
  // True when a promotion (low-power origin, or FACH->DCH) lies in
  // [start, end].
  bool promotion_in(sim::TimePoint start, sim::TimePoint end) const;
  // Number of transitions with timestamp in [start, end].
  std::size_t transitions_in_count(sim::TimePoint start,
                                   sim::TimePoint end) const;
  // Number of folded PDU records with timestamp in [start, end]. Zero over
  // a window with application traffic is the radio-blackout signature the
  // DiagnosisEngine uses to mark radio fields unavailable.
  std::size_t pdus_in_count(sim::TimePoint start, sim::TimePoint end) const;
  // The state at time t (last transition at or before t; idle initially).
  radio::RrcState state_at(sim::TimePoint t) const;

  // --- running counters over everything folded so far ---
  std::uint64_t promotions() const { return promotions_; }
  std::uint64_t demotions() const { return demotions_; }
  std::uint64_t pdus_seen() const { return pdus_seen_; }
  std::uint64_t pdu_bytes() const { return pdu_bytes_; }
  std::size_t consumed_transitions() const { return consumed_rrc_; }

  const radio::RrcConfig& config() const { return cfg_; }

  // CollectorSink: radio events -> sync (batched backlogs fold once);
  // radio-layer clear -> reset and re-resolve the borrowed log (it may
  // have been destroyed or replaced).
  void on_event(const core::Collector& collector,
                const core::Event& event) override;
  void on_events(const core::Collector& collector, const core::Event* events,
                 std::size_t count) override;
  void on_layers_cleared(const core::Collector& collector,
                         std::uint32_t layer_mask) override;

 private:
  using CumResidency = std::array<sim::Duration::rep, kStateCount>;

  CumResidency cum_at(sim::TimePoint t) const;

  const radio::QxdmLogger* log_;
  radio::RrcConfig cfg_;
  core::Collector* collector_ = nullptr;

  // Checkpoints in structure-of-arrays form: one entry per transition, with
  // the timestamps (the only field the binary searches touch) contiguous.
  // cp_cum_[i] is the cumulative per-state residency (integer microsecond
  // ticks) from time zero through cp_at_[i]; cp_state_[i] is the state
  // entered there.
  std::vector<sim::TimePoint> cp_at_;
  std::vector<radio::RrcState> cp_state_;
  std::vector<CumResidency> cp_cum_;
  std::vector<sim::TimePoint> promotion_at_;  // sorted (capture order)
  std::vector<sim::TimePoint> pdu_at_;        // sorted (insertion keeps order)
  std::size_t consumed_rrc_ = 0;
  std::size_t consumed_pdu_ = 0;
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
  std::uint64_t pdus_seen_ = 0;
  std::uint64_t pdu_bytes_ = 0;
};

}  // namespace qoed::diag
