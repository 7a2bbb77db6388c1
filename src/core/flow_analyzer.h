// Transport/network layer analyzer (§5.2).
//
// Parses the device's tcpdump-style trace into TCP flows, associates each
// flow with a server hostname via the DNS lookups captured in the same trace,
// and computes per-flow data consumption, retransmissions, RTT and
// throughput — the raw material for mobile-data metrics and for the
// cross-layer analyses.
//
// The analyzer is *incremental*: it borrows the trace vector (zero copy) and
// folds packets into FlowStats one record at a time, so it can either be
// built over a finished trace or subscribe to the collection spine's packet
// events and stay current while the experiment runs (attach()). Repeated
// analysis passes (QoeDoctor::flows) therefore reuse one analyzer instead
// of copying the trace and rebuilding per call.
//
// Lifetime rules: the borrowed trace vector must outlive the analyzer and
// must only grow (append) between sync() calls — the per-layer stores behind
// core::Collector satisfy this, and a clear is delivered as
// on_layers_cleared which resets the analyzer. Hostnames attach to a flow
// from the DNS facts seen so far; a response arriving after the flow's first
// packet backfills the name, so the end state matches a batch build over the
// same trace.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/collector.h"
#include "core/stats.h"
#include "net/trace.h"

namespace qoed::core {

struct FlowStats {
  // Canonical key oriented from the device (src = device side).
  net::FlowKey key;
  std::string hostname;  // empty when no DNS lookup preceded the flow

  sim::TimePoint first_packet;
  sim::TimePoint last_packet;
  std::uint64_t uplink_bytes = 0;
  std::uint64_t downlink_bytes = 0;
  std::uint64_t uplink_packets = 0;
  std::uint64_t downlink_packets = 0;
  std::uint64_t retransmissions = 0;  // re-sent data ranges, both directions
  std::optional<double> handshake_rtt;  // SYN -> SYN-ACK, seconds
  std::vector<double> rtt_samples;      // data -> cumulative ACK, seconds

  std::vector<std::size_t> packet_indices;  // into the analyzed trace

  std::uint64_t total_bytes() const { return uplink_bytes + downlink_bytes; }
  double mean_rtt() const;
  double duration_seconds() const {
    return sim::to_seconds(last_packet - first_packet);
  }
};

class FlowAnalyzer : public CollectorSink {
 public:
  // Borrows `trace` (no copy) and ingests everything it currently holds.
  explicit FlowAnalyzer(const std::vector<net::PacketRecord>& trace);
  ~FlowAnalyzer() override;
  FlowAnalyzer(const FlowAnalyzer&) = delete;
  FlowAnalyzer& operator=(const FlowAnalyzer&) = delete;

  // Subscribes to the spine's packet events: every captured packet is folded
  // in as it arrives, and a packet-layer clear resets the analysis. The
  // collector's trace store must be the vector this analyzer borrows.
  void attach(Collector& collector);

  // Folds in any records appended to the borrowed trace since the last
  // sync/ingest. (No-op when attached to a collector — events keep us
  // current.)
  void sync();

  // Observability: sparse virtual-time instants (one per detected
  // retransmission, cat "flow") plus wall-clock sync profiling. Disabled
  // cost: one branch per ingested packet.
  void set_observability(const obs::Context& ctx) { obs_ = ctx; }

  // Number of trace records folded in so far.
  std::size_t consumed() const { return consumed_; }

  const std::vector<FlowStats>& flows() const { return flows_; }
  const std::vector<net::PacketRecord>& trace() const { return *trace_; }

  // CollectorSink: packet events -> sync (a batched backlog folds in one
  // pass); packet-layer clear -> reset.
  void on_event(const Collector& collector, const Event& event) override;
  void on_events(const Collector& collector, const Event* events,
                 std::size_t count) override;
  void on_layers_cleared(const Collector& collector,
                         std::uint32_t layer_mask) override;

  // Hostname an address resolved to in this trace (empty if none).
  std::string hostname_of(net::IpAddr addr) const;

  // Flows whose associated hostname contains `hostname_substr`.
  std::vector<const FlowStats*> flows_to_host(
      const std::string& hostname_substr) const;

  // Flows with at least one packet inside [start, end].
  std::vector<const FlowStats*> flows_in_window(sim::TimePoint start,
                                                sim::TimePoint end) const;

  // The flow responsible for a QoE window: most bytes transferred inside it
  // (optionally restricted by hostname substring). Null if no traffic.
  const FlowStats* dominant_flow(sim::TimePoint start, sim::TimePoint end,
                                 const std::string& hostname_substr = "") const;

  struct Volume {
    std::uint64_t uplink = 0;
    std::uint64_t downlink = 0;
    std::uint64_t total() const { return uplink + downlink; }
  };
  // TCP/UDP bytes inside the window, optionally hostname-filtered.
  Volume bytes_in_window(sim::TimePoint start, sim::TimePoint end,
                         const std::string& hostname_substr = "") const;

  // First/last packet timestamps of `flow` inside [start, end]; the gap is
  // the paper's per-window network latency. Nullopt when no packets fall in.
  std::optional<std::pair<sim::TimePoint, sim::TimePoint>> flow_span_in_window(
      const FlowStats& flow, sim::TimePoint start, sim::TimePoint end) const;

  // (bin_end_seconds, throughput_bps) series of `dir` traffic in fixed bins.
  std::vector<std::pair<double, double>> throughput_series(
      net::Direction dir, sim::Duration bin,
      const std::string& hostname_substr = "") const;

  // Count of capture-order timestamp inversions whose timestamps both fall
  // inside [start, end] — evidence that the trace for this window arrived
  // late/reordered, so window attributions over it are degraded. O(number
  // of inversions seen), not O(trace).
  std::size_t disorder_in_window(sim::TimePoint start, sim::TimePoint end) const;

 private:
  // Per-flow transient state carried across ingests.
  struct BuildState {
    std::uint64_t max_seq_end_up = 0;
    std::uint64_t max_seq_end_down = 0;
    std::optional<sim::TimePoint> syn_at;
    // Outstanding uplink data segments awaiting a cumulative ACK, as
    // (seq_end -> send time); retransmitted ranges are dropped (Karn).
    std::map<std::uint64_t, sim::TimePoint> pending_up;
  };

  // Per-group window index: packet timestamps (nondecreasing for captured
  // traces — virtual time is monotone) with cumulative per-direction byte
  // sums, so window queries cost two binary searches instead of a scan over
  // every record. Sums are exact (uint64), so the fast path returns the
  // same values the linear scan would.
  struct WindowIndex {
    std::vector<sim::TimePoint> at;
    std::vector<std::uint64_t> cum_up;
    std::vector<std::uint64_t> cum_down;

    void push(sim::TimePoint t, net::Direction dir, std::uint64_t bytes);
    // [lo, hi) range of entries with at in [start, end].
    std::pair<std::size_t, std::size_t> range(sim::TimePoint start,
                                              sim::TimePoint end) const;
    Volume bytes_between(sim::TimePoint start, sim::TimePoint end) const;
  };

  void ingest(const net::PacketRecord& r, std::size_t index);
  void reset();
  Volume bytes_in_window_linear(sim::TimePoint start, sim::TimePoint end,
                                const std::string& hostname_substr) const;
  // Index of `flow` within flows_, or npos when it isn't ours.
  std::size_t index_of(const FlowStats& flow) const;

  const std::vector<net::PacketRecord>* trace_;
  std::size_t consumed_ = 0;
  Collector* collector_ = nullptr;
  obs::Context obs_;

  std::map<net::IpAddr, std::string> dns_table_;
  std::vector<FlowStats> flows_;
  std::map<net::FlowKey, std::size_t> flow_index_;
  std::map<net::FlowKey, BuildState> build_;

  // Window indexes: one per flow (parallel to flows_) plus one per remote
  // address for non-TCP traffic. `time_ordered_` drops to false if the
  // borrowed trace ever steps backwards in time (hand-built traces); the
  // window queries then fall back to linear scans.
  std::vector<WindowIndex> flow_window_;
  std::map<net::IpAddr, WindowIndex> other_window_;
  bool time_ordered_ = true;
  sim::TimePoint last_ts_;
  // One entry per inversion: (the late record's timestamp, the newest
  // timestamp seen before it). Rare by construction, so window disorder
  // queries just scan this list.
  std::vector<std::pair<sim::TimePoint, sim::TimePoint>> inversions_;
};

}  // namespace qoed::core
