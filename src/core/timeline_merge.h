// Multi-device timeline merge.
//
// Each device's collection spine exports one timeline.jsonl (see
// TimelineJsonlSink); a campaign over several devices produces several.
// merge_timelines interleaves them into a single stream ordered by
// (t, device, seq) — timestamp first, then device label, then the
// device-local capture sequence — and stamps every line with its device:
//   {"device":"galaxy-s3","t":1.002334,"seq":7,"layer":"packet",...}
// The ordering key is total for distinct device labels, so the merge is a
// pure function of the *set* of inputs: feeding the same timelines in any
// order yields byte-identical output (determinism test in
// timeline_merge_test). Lines whose full key ties keep their input order.
//
// Every merge reads a line's key from its JSON text without copying the
// line (read_timeline_key). The key is defined by a substring scan: the
// value after the first `"t":`, `"seq":` and (stream merge only;
// merge_timelines keys on the input's label) `"device":` substring, read
// through the one number grammar of core/json_util.h. "t" must be a
// complete JSON number (not "+1", "0x10" or "2.5x") that fits a finite
// double; "seq" orders as 0 unless it is an unsigned 64-bit integer;
// "device" is a JSON string, compared decoded. Lines the writers emit open
// in a canonical shape — `{`, zero or more `"device":"<label without an
// escape>",` members, then `"t":<number>,"seq":` — and are keyed straight
// from that prefix, which gives the scan's key without scanning.
//
// Both merges merge rather than sort. merge_timelines_checked keys each
// input once, sorts an input only when it is not already in (t, seq) order
// (a run's own timeline is; a cell run's merged timeline is not, its lines
// carry member-local seq values), then k-way merges the inputs by
// (t, label, seq, input) — the order one global stable sort gives. The
// shard close streams that merge into its file through a reused 1 MiB
// buffer. merge_sorted_timeline_streams reads each input in blocks through
// a reused buffer, views lines in place, keeps emitting from the leading
// input while it stays ahead of the runner-up, and writes in 1 MiB chunks.
// Over a 128-user video fleet's 88 shards (9.0 M lines, 1.44 GB), keying
// the lines takes 0.8–1.1 s against 2.5 s for the scan alone, and the
// final merge 1.7–2.2 s of CPU to /dev/null against 3.7–4.1 s for the
// scan, sort and getline merges (DESIGN.md §5g).
//
// Robustness: real exports get truncated by crashes and corrupted in
// transit. merge_timelines_checked quarantines malformed lines (not a JSON
// object, or no usable "t" field) instead of merging garbage, counts them
// per input, and flags out-of-order timestamps within an input (still
// merged — the sort repairs them — but a symptom worth surfacing). The
// plain merge_timelines wrapper keeps the original drop-silently contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace qoed::core {

struct DeviceTimeline {
  std::string device;  // label injected into every merged line
  std::string jsonl;   // raw timeline.jsonl content
};

// Per-input accounting from a checked merge.
struct TimelineMergeStats {
  std::string device;
  std::size_t lines = 0;         // non-blank lines seen
  std::size_t malformed = 0;     // quarantined (not merged)
  std::size_t out_of_order = 0;  // t went backwards vs previous good line
};

struct TimelineMergeResult {
  std::string jsonl;  // the merged stream (well-formed lines only)
  std::vector<TimelineMergeStats> inputs;  // one entry per input, in order

  std::size_t total_malformed() const {
    std::size_t n = 0;
    for (const auto& s : inputs) n += s.malformed;
    return n;
  }
};

TimelineMergeResult merge_timelines_checked(
    const std::vector<DeviceTimeline>& inputs);

// Back-compat wrapper: merged stream only, corruption dropped silently.
std::string merge_timelines(const std::vector<DeviceTimeline>& inputs);
// The same bytes written to `out` in chunks of about 1 MiB, never held
// whole (the shard close).
void merge_timelines(const std::vector<DeviceTimeline>& inputs,
                     std::ostream& out);

// A line's merge key. device views the line, or the decoded buffer for an
// escaped label; it is empty unless the key was read with_device.
struct TimelineKey {
  double t = 0;
  std::uint64_t seq = 0;
  std::string_view device;
};

// The key by its definition, the substring scan above. False when the
// line's "t" is missing or not a complete JSON number that fits a finite
// double, or (with_device) it has no "device" string; such a line is not
// merged. *decoded holds an escaped label.
bool scan_timeline_key(std::string_view line, bool with_device,
                       std::string* decoded, TimelineKey* key);
// The key from the line's canonical prefix: false, key unspecified, when
// the line does not open in that shape (with_device: with at least one
// "device" member), else the key scan_timeline_key gives.
bool prefix_timeline_key(std::string_view line, bool with_device,
                         TimelineKey* key);
// What both merges key a line by: the prefix read, else the scan.
inline bool read_timeline_key(std::string_view line, bool with_device,
                              std::string* decoded, TimelineKey* key) {
  return prefix_timeline_key(line, with_device, key) ||
         scan_timeline_key(line, with_device, decoded, key);
}

// Per-group rollup over merged artifacts (`qoed_cli merge --summary`).
// Groups are keyed by each line's "device" string; lines stamped by the
// sharded campaign path with {"run":N,...} and no "device" fall into a
// synthetic "run-N" group, so both stamp conventions summarize uniformly.
struct MergedGroupSummary {
  std::string label;
  std::size_t timeline_lines = 0;
  std::size_t findings = 0;
  // Median of the findings' "total_s" latency field (seconds); meaningful
  // only when has_latency (at least one finding carried the field).
  bool has_latency = false;
  double median_total_s = 0;
};

struct MergedSummary {
  std::vector<MergedGroupSummary> groups;  // sorted by label
  std::size_t timeline_lines = 0;          // totals across groups
  std::size_t findings = 0;
};

// Builds the rollup from a merged timeline stream and (optionally) a
// stamped findings stream; either may be empty. Malformed lines are
// ignored, matching the merge contracts above.
MergedSummary summarize_merged(std::string_view timeline_jsonl,
                               std::string_view findings_jsonl);

// Fixed-width text rendering (one group per row plus a totals row).
void print_merged_summary(std::ostream& os, const MergedSummary& summary);

// External k-way merge for the sharded campaign path: each input is an
// already-stamped, already-(t,device,seq)-sorted timeline stream (the
// output format of merge_timelines — shard files qualify by construction),
// and the merge interleaves them by the same (t, device, seq) key without
// ever materializing more than one line per input. Because the key is
// total across distinct device labels, merging sorted shards produces the
// same bytes as one global merge_timelines over all the runs — this is
// what keeps a campaign's merged timeline the same bytes however its runs
// were cut into shards. The key's device is the line's first "device" member (a cell
// campaign's lines carry the run stamp first, then the member's label).
// Lines without a usable "t" or a "device" string are dropped (same
// contract as merge_timelines). An input that goes bad() ends at the last
// complete line of its last whole read block (the caller checks each
// stream and fails the artifact). A last line without '\n' is merged.
// Returns the number of lines written. ShardTimelineMergeSink hands one
// call at most kTimelineMergeFanIn files.
std::size_t merge_sorted_timeline_streams(
    const std::vector<std::istream*>& inputs, std::ostream& out);

}  // namespace qoed::core
