// Cross-layer span tracing on virtual time, exported as Chrome trace-event
// JSON (loads in Perfetto / chrome://tracing).
//
// QoE Doctor's thesis is that QoE problems only make sense when the UI,
// transport and radio timelines are viewed together; the same is true of the
// doctor's own pipeline. The Tracer records what each component did and WHEN
// in *virtual* time — collector intake instants, fault-lane decisions,
// diagnosis-window spans, campaign run spans — so a run's trace is a pure
// function of its seed: bit-identical at any --jobs, diffable between runs,
// and byte-stable on disk.
//
// Span model: spans are ASYNC ("b"/"e" phases with an id), not begin/end
// stack events, because diagnosis windows overlap freely (pipelined UI
// actions) and stack events would require strict nesting per track. Instants
// are thread-scoped. A "track" is a thread-of-execution label — one per
// device ("device:phone") or per campaign run ("run-3"); never a real thread
// id, which would break jobs-invariance.
//
// Cost contract: when disabled (the default) every recording call is a
// single branch — cheap enough to leave compiled into the hot paths
// (disabled_tracing_test holds a wired, disabled tracer to the exact heap
// allocations of no tracer). Callers that build args strings should guard
// with `t != nullptr && t->enabled()` so the formatting cost is also skipped.
//
// Wall-clock time never enters a Tracer. Real-time profiling belongs in the
// separate profile registry (see observability.h).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace qoed::obs {

enum class TracePhase : std::uint8_t {
  kSpanBegin,  // async span open  -> chrome "b"
  kSpanEnd,    // async span close -> chrome "e"
  kInstant,    // point event      -> chrome "i"
  kCounter,    // counter sample   -> chrome "C"
};

struct TraceEvent {
  std::int64_t t_us = 0;  // virtual time, microseconds since run start
  std::int64_t id = 0;    // async span id (0 for instants)
  TracePhase phase = TracePhase::kInstant;
  std::uint32_t track = 0;  // index into Tracer::tracks()
  std::uint64_t seq = 0;    // per-tracer arrival counter (total order)
  std::string name;
  std::string cat;
  std::string args_json;  // pre-rendered JSON object ("{...}"), or empty
};

class Tracer {
 public:
  using SpanId = std::int64_t;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Registers (or finds) a named track; the returned index is stable for
  // the tracer's lifetime.
  std::uint32_t track(std::string_view name);
  const std::vector<std::string>& tracks() const { return tracks_; }

  // Opens an async span; returns 0 (a no-op id) when disabled. The close is
  // matched by id, so overlapping spans on one track are fine.
  SpanId span_open(std::uint32_t track, std::string_view name,
                   std::string_view cat, sim::TimePoint at,
                   std::string args_json = {});
  void span_close(SpanId id, sim::TimePoint at, std::string args_json = {});
  void instant(std::uint32_t track, std::string_view name,
               std::string_view cat, sim::TimePoint at,
               std::string args_json = {});
  // Counter sample (Perfetto renders each args key as a counter-track
  // series). `args_json` must be a pre-rendered object whose values are
  // numbers, e.g. {"bytes":8400}; successive samples with the same (track,
  // name) form one stepped series next to the spans.
  void counter(std::uint32_t track, std::string_view name,
               std::string_view cat, sim::TimePoint at,
               std::string args_json);

  const std::vector<TraceEvent>& events() const { return events_; }
  void clear();

  // Chrome trace-event JSON for this tracer alone, as one process named
  // `label`. Events are ordered by (t_us, seq); metadata rows name the
  // process and tracks. Byte-stable.
  void write_chrome_json(std::ostream& os, std::string_view label = "qoed",
                         std::uint32_t pid = 0) const;

  // Multi-device / multi-run merge: each (label, tracer) pair becomes one
  // process (pid = position), and all events interleave ordered by
  // (t, label, seq) — the same total order core::merge_timelines uses — so
  // the merged artifact is a pure function of the input *set*.
  static void write_merged_chrome_json(
      std::ostream& os,
      const std::vector<std::pair<std::string, const Tracer*>>& tracers);

 private:
  bool enabled_ = false;
  std::vector<std::string> tracks_;
  std::vector<TraceEvent> events_;
  SpanId next_span_ = 1;
  std::uint64_t next_seq_ = 0;

  struct OpenSpan {
    SpanId id;
    std::uint32_t track;
    std::string name;
    std::string cat;
  };
  std::vector<OpenSpan> open_;  // small; spans close promptly
};

}  // namespace qoed::obs
