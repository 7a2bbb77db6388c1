// Pluggable export sinks.
//
// Every exporter the tool knows — the tcpdump-like trace text, the QxDM-like
// radio text, the behavior-log text, the binary pcap and the campaign JSON —
// is exposed through one ExportSink interface: a named artifact that can
// serialize itself to any std::ostream, a file, or a string. On top of the
// collection spine there is additionally a merged JSON-lines timeline export
// (one event envelope + payload per line, all three layers interleaved in
// capture order) for offline tooling.
//
// Sinks borrow their sources (trace vector, QxdmLogger, Collector, …); a
// sink must not outlive what it was constructed over, and writes snapshot
// whatever the source holds at write() time.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/behavior_log.h"
#include "core/campaign.h"
#include "core/collector.h"
#include "core/pcap_writer.h"
#include "net/trace.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "radio/qxdm_logger.h"

namespace qoed::core {

class ExportSink {
 public:
  virtual ~ExportSink() = default;

  // Artifact identity, conventionally a file name ("trace.txt",
  // "timeline.jsonl", "trace.pcap").
  virtual std::string_view id() const = 0;
  virtual void write(std::ostream& os) const = 0;

  // Writes the artifact to `path` (binary-safe); false on I/O failure.
  bool write_file(const std::string& path) const;
  // The artifact as one string. A sink that renders into a string anyway
  // overrides this to hand that string over instead of copying a stream.
  virtual std::string to_string() const;
};

// Human-readable renderings of the collected logs, for eyeballing an
// experiment and diffing runs; the analyzers never parse these (they
// consume the structured records directly).
//
// One line per packet, tcpdump-style:
//   1.002334 UL 10.0.0.2:40000 > 203.0.113.10:443 TCP SA seq=0 ack=0 len=0
// `max_lines` > 0 truncates with a "... (N more)" line.
class TraceTextSink final : public ExportSink {
 public:
  explicit TraceTextSink(const std::vector<net::PacketRecord>& trace,
                         std::size_t max_lines = 0)
      : trace_(&trace), max_lines_(max_lines) {}
  std::string_view id() const override { return "trace.txt"; }
  void write(std::ostream& os) const override;

 private:
  const std::vector<net::PacketRecord>* trace_;
  std::size_t max_lines_;
};

// RRC transitions, then data-plane PDUs (the ones `max_lines` keeps), then
// STATUS PDUs, QxDM-style:
//   0.600000 RRC PCH -> FACH
//   0.612000 UL PDU seq=12 len=40 li=[40] poll first2=3fa9
class QxdmTextSink final : public ExportSink {
 public:
  explicit QxdmTextSink(const radio::QxdmLogger& log,
                        std::size_t max_lines = 0)
      : log_(&log), max_lines_(max_lines) {}
  std::string_view id() const override { return "qxdm.txt"; }
  void write(std::ostream& os) const override;

 private:
  const radio::QxdmLogger* log_;
  std::size_t max_lines_;
};

// AppBehaviorLog rendering with raw and calibrated latencies.
class BehaviorTextSink final : public ExportSink {
 public:
  explicit BehaviorTextSink(const AppBehaviorLog& log) : log_(&log) {}
  std::string_view id() const override { return "behavior.txt"; }
  void write(std::ostream& os) const override;

 private:
  const AppBehaviorLog* log_;
};

// Binary libpcap capture of the packet trace (see pcap_writer.h).
class PcapSink final : public ExportSink {
 public:
  explicit PcapSink(const std::vector<net::PacketRecord>& trace,
                    PcapOptions options = {})
      : trace_(&trace), options_(options) {}
  std::string_view id() const override { return "trace.pcap"; }
  void write(std::ostream& os) const override;

 private:
  const std::vector<net::PacketRecord>* trace_;
  PcapOptions options_;
};

// CampaignResult as one JSON line: campaign identity, per-run seeds/errors
// (enough to replay any run alone), per-metric aggregates (pooled summary,
// mean-of-run-means) and the merged registry. Doubles are emitted with
// round-trip precision, so two bit-identical results produce byte-identical
// JSON.
class CampaignJsonSink final : public ExportSink {
 public:
  explicit CampaignJsonSink(const CampaignResult& result) : result_(&result) {}
  std::string_view id() const override { return "campaign.json"; }
  void write(std::ostream& os) const override;

 private:
  const CampaignResult* result_;
};

// Merged cross-layer timeline as JSON lines: one object per event, in the
// spine's capture order, e.g.
//   {"t":1.002334,"seq":7,"layer":"packet","kind":"packet","dir":"uplink",...}
//   {"t":1.032334,"seq":8,"layer":"radio","kind":"pdu","dir":"uplink",...}
//   {"t":1.062334,"seq":9,"layer":"ui","kind":"behavior","action":"...",...}
// Doubles are emitted with round-trip precision, so two bit-identical runs
// produce byte-identical exports. The whole timeline is rendered by
// appending into one string (to_string); write() writes that string.
class TimelineJsonlSink final : public ExportSink {
 public:
  explicit TimelineJsonlSink(const Collector& collector)
      : collector_(&collector) {}
  std::string_view id() const override { return "timeline.jsonl"; }
  void write(std::ostream& os) const override;
  std::string to_string() const override;

 private:
  const Collector* collector_;
};

// Appends a packet record's timeline fields, from `,"dir":` through
// `,"len":N`. The timeline's packet lines and the policy engine's capture
// slices share them, so the two stay grep-compatible.
void append_packet_fields(std::string& out, const net::PacketRecord& r);

// Chrome trace-event JSON (Perfetto / chrome://tracing) over one or more
// tracers. The multi-tracer form renders each (label, tracer) pair as one
// process and interleaves events by (t, label, seq) — the same total order
// core::merge_timelines uses — so the artifact is byte-identical no matter
// how the tracers were produced (e.g. campaign --jobs).
class TraceEventSink final : public ExportSink {
 public:
  TraceEventSink(const obs::Tracer& tracer, std::string label = "qoed")
      : tracers_{{std::move(label), &tracer}} {}
  explicit TraceEventSink(
      std::vector<std::pair<std::string, const obs::Tracer*>> tracers)
      : tracers_(std::move(tracers)) {}
  std::string_view id() const override { return "trace.json"; }
  void write(std::ostream& os) const override;

 private:
  std::vector<std::pair<std::string, const obs::Tracer*>> tracers_;
};

// MetricsRegistry snapshot as byte-stable JSON.
class MetricsJsonSink final : public ExportSink {
 public:
  explicit MetricsJsonSink(const obs::MetricsRegistry& registry)
      : registry_(&registry) {}
  std::string_view id() const override { return "metrics.json"; }
  void write(std::ostream& os) const override;

 private:
  const obs::MetricsRegistry* registry_;
};

}  // namespace qoed::core
