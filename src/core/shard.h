// Constant-memory sharded campaign execution (DESIGN.md §5g).
//
// Every Campaign::run commits its runs through one ShardedCampaignSink.
// With a CampaignShardConfig::out_dir, workers stream each run's artifacts
// into bounded shard files there, rotated at shard_bytes (or every
// shard_runs runs) and written atomically (tmp+rename) BEFORE the manifest
// records them, so a killed campaign leaves a consistent prefix that a
// resume continues from:
//   findings-NNNNNN.jsonl   stamped {"run":N,...} findings, run-index order
//   timeline-NNNNNN.jsonl   stamped {"device":"run-N",...} lines, sorted by
//                           the (t, device, seq) merge key: the closing
//                           worker merges the runs' timelines straight into
//                           the file (merge_timelines to a stream), outside
//                           the sink lock
//   metrics-NNNNNN.jsonl    one per-run line: outcome, samples, registry
//   captures-NNNNNN.jsonl   stamped {"run":N,...} policy capture slices
//   MANIFEST.json           shard index + durable commit frontier
// Without an out_dir the sink only orders and folds. write_merged_artifacts
// publishes the merged set beside the shards, from an external merge:
//   findings.jsonl  = concatenation of findings shards (run-index order)
//   timeline.jsonl  = k-way merge of the per-shard (t, device, seq)-sorted
//                     timeline shards, cut into key-range partitions that
//                     every CPU of the affinity mask merges, written in
//                     order (core::merge_sorted_timeline_files)
//   metrics.json    = the sink's fold replayed over the metrics shards
//   captures.jsonl  = concatenation of captures shards (run-index order)
//
// Determinism: runs are committed strictly in run-index order regardless of
// worker completion order; every fold happens at commit from the
// serialized metrics line, the line resume and the metrics merge replay,
// and %.17g doubles round-trip exactly — so the merged artifacts and the
// CampaignResult are byte-identical at any --jobs.
//
// Memory: a run that arrives ahead of the commit frontier waits in memory
// while the parked runs fit jobs x shard_bytes, and past that spills to a
// pending file (spilling every one made fleet-video-throttled write and
// read back 49-56 of its 128 runs under the sink lock). Memory stays
// O(jobs x shard budget): those parked runs, plus at most the shard each
// worker closed while it writes it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.h"
#include "core/export_sink.h"
#include "core/timeline_merge.h"
#include "obs/metrics.h"

namespace qoed::core {

struct ShardInfo {
  std::size_t index = 0;
  std::size_t run_begin = 0;  // first run committed to this shard
  std::size_t run_end = 0;    // one past the last
};

// out_dir/MANIFEST.json — the durable index of a sharded campaign. Only
// shards listed here exist as far as readers are concerned; files written
// after the last manifest update are overwritten on resume.
struct ShardManifest {
  std::string campaign;
  std::uint64_t master_seed = 0;
  std::size_t runs = 0;   // planned campaign size (0 = open-ended service)
  bool complete = false;  // finalize() saw every planned run committed
  std::vector<ShardInfo> shards;

  // Durable commit frontier: every run below this is safely on disk.
  std::size_t committed() const {
    return shards.empty() ? 0 : shards.back().run_end;
  }
};

// Reads out_dir/MANIFEST.json; false when absent or malformed.
bool read_shard_manifest(const std::string& out_dir, ShardManifest* out,
                         std::string* error = nullptr);

// Stamps each object line of one run's raw findings (or captures) JSONL
// with `member` as its first key: member "run":7 turns {"i":0,...} into
// {"run":7,"i":0,...}. Merged campaign artifacts stamp "run":N and cell
// runs stamp "device":"dev-NNNN" through this one transformation, so their
// outputs are byte-comparable.
void stamp_findings(std::string_view member, std::string_view findings_jsonl,
                    std::string* out);

// Thread-safe streaming sink for campaign runs. Workers submit completed
// RunExecutions in any order; the sink commits them strictly in run-index
// order, folding aggregates and buffering artifact bytes until the open
// shard exceeds its budget and rotates to disk. With an empty out_dir it
// is only the ordering and fold stage (a Campaign or `qoed_cli serve`
// without an artifact directory).
class ShardedCampaignSink {
 public:
  // What a commit hook observes — fired under the sink lock, strictly in
  // run-index order. Views borrow from the commit in flight; copy to keep.
  struct Commit {
    std::size_t run_index = 0;
    std::size_t attempts = 0;
    std::size_t reschedules = 0;  // ctrl-policy reschedule rounds consumed
    std::uint64_t last_seed = 0;
    bool ok = true;
    std::string_view error;
    double virtual_seconds = 0;
    std::string_view findings_jsonl;  // raw (unstamped) findings lines
    std::string_view registry_json;   // this run's registry snapshot
  };
  using CommitHook = std::function<void(const Commit&)>;

  // Creates out_dir if needed. `jobs`, the number of workers submitting,
  // sizes the park budget: up to jobs x cfg.shard_bytes bytes of runs that
  // arrive ahead of the commit frontier wait in memory, and runs past it
  // spill to pending files (all of them when shard_bytes is 0). With
  // cfg.resume and a matching manifest,
  // replays the closed shards into the aggregates and continues at the
  // durable frontier; a manifest disagreeing on (campaign, master_seed,
  // runs), or a listed metrics shard that is missing, unreadable or holds
  // a malformed line, throws std::runtime_error. Without resume, stale
  // manifest and pending files in out_dir are removed.
  ShardedCampaignSink(const CampaignShardConfig& cfg, std::string campaign,
                      std::uint64_t master_seed, std::size_t planned_runs,
                      std::size_t jobs = 1);

  // Folds the manifest-listed metrics shards of out_dir through the resume
  // replay, leaving the directory untouched: what metrics.json and
  // read_run_outcomes report. Null, with *error set, when the manifest is
  // unreadable or a listed metrics shard is missing, unreadable or holds a
  // malformed line.
  static std::unique_ptr<ShardedCampaignSink> replay(
      const std::string& out_dir, std::string* error = nullptr);

  // The commit frontier: every run below it is folded (and durable when
  // sharding to disk). Campaign::run starts its index counter here.
  std::size_t committed() const;

  void set_commit_hook(CommitHook hook);

  // Thread-safe. Accepts any run index >= the frontier; indices already
  // committed (resume overlap) are dropped.
  void submit(std::size_t run_index, RunExecution&& ex);

  // Closes the open shard, writes the final manifest (complete=true when
  // every planned run is in). Call once, after all workers joined.
  void finalize();

  // Canonical merged-metrics snapshot of everything committed so far: the
  // streaming aggregate registry plus the campaign.run_attempts /
  // quarantined / rescheduled outcome counters, serialized with
  // MetricsRegistry::write_json — the exact bytes ShardMetricsMergeSink
  // writes to metrics.json (minus the trailing newline), including runs
  // still buffered in the open shard. Thread-safe; the serve `stats` verb
  // reads it live, so a drained session's snapshot byte-matches the batch
  // fleet's merged artifact.
  std::string metrics_snapshot() const;

  // Fills a CampaignResult from the streaming aggregates: run_errors /
  // run_attempts / run_reschedules / quarantined / registry (+ campaign.*
  // totals), metric summaries (exact n/min/max, Welford mean and stddev,
  // histogram percentiles clamped to [min, max] — see DESIGN.md §5g), and
  // the spine trace when build_trace.
  void fold_into(CampaignResult* out, bool build_trace) const;

  const ShardManifest& manifest() const { return manifest_; }

 private:
  struct RunMeta {
    std::uint32_t attempts = 0;
    std::uint32_t reschedules = 0;
    bool ok = true;
    std::uint64_t last_seed = 0;
    double virtual_seconds = 0;
    std::string error;  // empty for clean runs
  };
  struct Welford {
    std::uint64_t n = 0;
    double mean = 0, m2 = 0, min = 0, max = 0;
    void add(double v);
  };
  struct MetricAccum {
    Welford pooled;               // every sample, folded in run-index order
    Welford run_means;            // one entry per contributing run
    obs::MetricsRegistry::Histogram mean_hist;  // percentiles of run means
  };
  struct ParsedOutcome {
    std::size_t run = 0;
    std::size_t attempts = 0;
    std::size_t reschedules = 0;
    std::uint64_t seed = 0;
    bool ok = true;
    std::string error;
    double virtual_seconds = 0;
    std::string_view registry;  // raw section within the line
  };
  struct Pending {
    bool spilled = false;  // payload lives in pending file, not here
    std::string metrics, findings, timeline, captures;
  };
  // A closed shard's contents: taken from the open-shard buffers under the
  // lock, merged and written by the worker that closed it outside the lock.
  struct ShardWrite {
    ShardInfo info;
    std::string findings, metrics, captures;
    std::vector<DeviceTimeline> timelines;
  };

  ShardedCampaignSink() = default;  // for replay()

  // The one decoder of a metrics-shard line: folds its samples and
  // registry into the aggregates. False on a malformed or truncated line.
  bool fold_metrics_line(std::string_view line, ParsedOutcome* out);
  // Per-run metadata and outcome totals of one folded line (live commit
  // and resume replay alike).
  void record_outcome(std::size_t run_index, const ParsedOutcome& po);
  // Commits run_index if it is the frontier, then every parked successor;
  // parks it otherwise, in memory or past the park budget in a pending
  // file. Shards the commits close go to *closed.
  void submit_locked(std::size_t run_index, std::string& metrics_line,
                     std::string&& findings, std::string&& timeline,
                     std::string&& captures, std::vector<ShardWrite>* closed);
  void commit_locked(std::size_t run_index, const std::string& metrics_line,
                     std::string&& findings, std::string&& timeline,
                     std::string&& captures, std::vector<ShardWrite>* closed);
  // Moves the open shard to *closed under the next index; nothing when it
  // is empty, there is no out_dir or a shard write has failed.
  void take_shard_locked(std::vector<ShardWrite>* closed);
  // Writes a closed shard's four files without the lock, then takes it to
  // list every shard now written in index order in the manifest.
  void write_shard(ShardWrite&& w);
  void write_manifest_locked();
  std::string shard_path(const char* kind, std::size_t index) const;
  std::string pending_path(std::size_t run_index) const;
  // Folds the manifest-listed metrics shards; false with *error naming
  // the first shard that is missing, unreadable or malformed.
  bool replay_closed_shards(std::string* error);

  mutable std::mutex mu_;
  CampaignShardConfig cfg_;
  ShardManifest manifest_;
  std::size_t frontier_ = 0;
  // First shard I/O failure; sticky. Writes stop extending the manifest and
  // finalize() rethrows it on the caller's thread (workers must not throw).
  std::string io_error_;
  std::map<std::size_t, Pending> pending_;
  // Bytes of the pending_ runs held in memory, kept within park_budget_
  // when sharding to disk.
  std::size_t park_budget_ = 0;
  std::size_t parked_bytes_ = 0;
  CommitHook hook_;
  std::size_t next_shard_ = 0;  // index of the next shard taken
  // Shards written but not yet listed: a shard before them is still being
  // written by another worker.
  std::map<std::size_t, ShardInfo> written_;

  // Open-shard buffers (bounded by the rotation budget).
  std::string findings_buf_, metrics_buf_, captures_buf_;
  std::vector<DeviceTimeline> timeline_entries_;
  std::size_t timeline_bytes_ = 0;
  std::size_t shard_run_begin_ = 0;

  // Streaming aggregates (O(runs) metadata, O(1) per metric — never
  // O(artifact bytes)).
  obs::MetricsRegistry registry_;
  std::map<std::string, MetricAccum> metrics_;
  std::vector<RunMeta> meta_;
  std::size_t total_attempts_ = 0;
  std::size_t total_reschedules_ = 0;
  std::size_t quarantined_ = 0;
};

// ---- merged-artifact sinks over a shard directory ----
// Each reads MANIFEST.json at write() time and merges only manifest-listed
// shards, so stale files from an interrupted run are never consulted. An
// unreadable manifest, or a listed shard that cannot be opened or read (a
// metrics shard also when a line is malformed), fails the stream, so
// write_file returns false and publishes nothing rather than an artifact
// missing those runs; a zero-length shard is legal.

class ShardFindingsMergeSink final : public ExportSink {
 public:
  explicit ShardFindingsMergeSink(std::string out_dir)
      : out_dir_(std::move(out_dir)) {}
  std::string_view id() const override { return "findings.jsonl"; }
  void write(std::ostream& os) const override;

 private:
  std::string out_dir_;
};

// Timeline shards one merge pass holds open. More shards merge in passes:
// each run of this many consecutive files becomes one sorted temp file
// beside the shards, in their place in the input order (the merge's last
// tie-break), so the bytes are those of one pass; the temps are removed.
// Above every fleetbench workload's shard count, which stay one pass.
// Every pass is a merge_sorted_timeline_files on timeline_merge_threads()
// threads, at kTimelinePartitionBytes partitions.
inline constexpr std::size_t kTimelineMergeFanIn = 128;

class ShardTimelineMergeSink final : public ExportSink {
 public:
  explicit ShardTimelineMergeSink(std::string out_dir)
      : out_dir_(std::move(out_dir)) {}
  std::string_view id() const override { return "timeline.jsonl"; }
  void write(std::ostream& os) const override;

 private:
  std::string out_dir_;
};

// The registry of ShardedCampaignSink::replay plus the campaign.* outcome
// counters: the bytes metrics_snapshot() gives the live campaign.
class ShardMetricsMergeSink final : public ExportSink {
 public:
  explicit ShardMetricsMergeSink(std::string out_dir)
      : out_dir_(std::move(out_dir)) {}
  std::string_view id() const override { return "metrics.json"; }
  void write(std::ostream& os) const override;

 private:
  std::string out_dir_;
};

// Targeted-capture slices, stamped {"run":N,...} and concatenated in
// run-index order — same shape rule as findings.
class ShardCapturesMergeSink final : public ExportSink {
 public:
  explicit ShardCapturesMergeSink(std::string out_dir)
      : out_dir_(std::move(out_dir)) {}
  std::string_view id() const override { return "captures.jsonl"; }
  void write(std::ostream& os) const override;

 private:
  std::string out_dir_;
};

// The one publisher of a campaign's merged artifact set: writes
// findings.jsonl, timeline.jsonl, metrics.json and captures.jsonl beside
// the shards in out_dir, through the four merge sinks above and in that
// order. Every file is attempted; false, with *error naming the first one
// that could not be written, when any failed (that file keeps its earlier
// contents and leaves no temp file behind).
bool write_merged_artifacts(const std::string& out_dir, std::string* error);

// Per-run rescheduled/quarantined reaction counts, read back from a shard
// directory's manifest-listed metrics lines through
// ShardedCampaignSink::replay. Keyed "run-N" — the label the merged
// timeline/findings use — so fleet rollups can join on it. False, with
// *error set, where replay fails.
struct RunOutcomeCounts {
  std::size_t rescheduled = 0;
  std::size_t quarantined = 0;  // 0 or 1 per run
};
bool read_run_outcomes(const std::string& out_dir,
                       std::map<std::string, RunOutcomeCounts>* out,
                       std::string* error = nullptr);

}  // namespace qoed::core
