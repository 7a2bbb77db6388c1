// Streaming RLC long-jump mapper (live half of §5.4.2).
//
// The batch RlcMapper answers "which RLC PDUs carried this packet?" after
// the run. This tracker drives the same fold online — as a CollectorSink on
// the spine's packet and radio layers — through one core::RlcStream per
// direction, and keeps per-packet cumulative checkpoints (mapped packets,
// mapped bytes) plus a sorted retransmission-time index, so any mid-run
// window query is two binary searches and a prefix-sum subtraction.
//
// Equivalence contract (enforced by diag_test / rlc_mapper_test): after
// sync(), result(dir) is bit-identical to RlcMapper::map over the borrowed
// trace and PDU log as they stand — including under truncate/blackout fault
// plans and across the 12-bit SN wrap. The RlcStream maintains that
// invariant internally (frontier checkpoints and rewinds); this class only
// layers the window index on top.
//
// Ingestion follows the FlowAnalyzer/RrcStateTracker idiom: the tracker
// borrows the trace and QxdmLogger record vectors (append-only between
// syncs), keeps consumed counts, and folds new records on sync(). A
// packet- or radio-layer clear resets the derived state and re-resolves
// the stores from the collector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/collector.h"
#include "core/rlc_mapper.h"
#include "net/trace.h"
#include "obs/observability.h"
#include "radio/qxdm_logger.h"
#include "sim/time.h"

namespace qoed::diag {

class RlcChainTracker : public core::CollectorSink {
 public:
  // Per-direction RLC evidence for one time window.
  struct WindowStats {
    std::size_t packets = 0;        // IP packets with timestamp in window
    std::size_t mapped = 0;         // of those, long-jump mapped
    std::uint64_t mapped_bytes = 0; // wire bytes of the mapped ones
    std::size_t retx = 0;           // retransmitted PDU records in window
    double mapped_ratio() const {
      return packets == 0 ? 0
                          : static_cast<double>(mapped) /
                                static_cast<double>(packets);
    }
  };

  // Borrows `trace` and `log` (both must outlive the tracker, or be
  // superseded via a layer-clear notification) and folds in everything
  // they hold.
  RlcChainTracker(const std::vector<net::PacketRecord>& trace,
                  const radio::QxdmLogger& log,
                  std::size_t resync_lookahead =
                      core::RlcMapper::kDefaultResyncLookahead);
  ~RlcChainTracker() override;
  RlcChainTracker(const RlcChainTracker&) = delete;
  RlcChainTracker& operator=(const RlcChainTracker&) = delete;

  // Subscribes to the spine's packet + radio events; every captured packet
  // or PDU advances the fold as it arrives.
  void attach(core::Collector& collector);

  // Folds in records appended to the borrowed stores since the last sync
  // and brings the window index up to date; window() answers as of the
  // last sync. Events only fold, so the index is rebuilt once per query
  // rather than once per packet or PDU.
  void sync();

  // Drops all derived state; the next sync() re-folds the borrowed stores
  // from the start.
  void reset();

  // --- window queries (valid as of the last sync()) ---
  // RLC evidence for packets/PDU records with timestamp in [start, end].
  WindowStats window(net::Direction dir, sim::TimePoint start,
                     sim::TimePoint end) const;

  // --- whole-run views, bit-identical to the batch mapper after sync() ---
  const core::MappingResult& result(net::Direction dir) const;
  double mapped_ratio(net::Direction dir) const;
  std::size_t corrupt_pdus() const;  // both directions
  std::uint64_t refolds() const;     // fold replays (cost, not correctness)

  // Metrics surface: "<prefix><ul|dl>.<packets|mapped|mapped_bytes|retx>"
  // plus "<prefix>corrupt_pdu" and "<prefix>refolds".
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix = "rlc.") const;

  // CollectorSink: packet/radio events -> fold (batched backlogs fold
  // once); packet- or radio-layer clear -> reset and re-resolve stores.
  void on_event(const core::Collector& collector,
                const core::Event& event) override;
  void on_events(const core::Collector& collector, const core::Event* events,
                 std::size_t count) override;
  void on_layers_cleared(const core::Collector& collector,
                         std::uint32_t layer_mask) override;

 private:
  struct DirState {
    explicit DirState(net::Direction dir, std::size_t lookahead)
        : stream(dir, lookahead) {}
    core::RlcStream stream;
    // SoA checkpoint arrays over the stream's packets: pkt_at holds the
    // packet timestamps, cum_* are N+1 prefix sums (cum[0] = 0), rebuilt
    // by sync() from the lowest index the stream rewound since the last
    // one (its dirty floor keeps the minimum across folds).
    std::vector<sim::TimePoint> pkt_at;
    std::vector<std::uint32_t> cum_mapped;
    std::vector<std::uint64_t> cum_bytes;
    std::vector<sim::TimePoint> retx_at;  // sorted retransmission times
    std::size_t built = 0;     // packets indexed so far
    bool time_ordered = true;  // pkt_at nondecreasing (binary search valid)
  };

  // Feeds the unconsumed records to the streams; the index waits for sync.
  void fold();
  void rebuild(DirState& d);
  const DirState& dir_state(net::Direction dir) const {
    return dir == net::Direction::kUplink ? ul_ : dl_;
  }

  const std::vector<net::PacketRecord>* trace_;
  const radio::QxdmLogger* log_;
  core::Collector* collector_ = nullptr;

  DirState ul_;
  DirState dl_;
  std::size_t consumed_pkts_ = 0;
  std::size_t consumed_pdus_ = 0;
};

}  // namespace qoed::diag
