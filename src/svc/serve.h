// `qoed_cli serve` — long-lived measurement service (DESIGN.md §5g).
//
// A ServeEngine reads line-delimited JSON commands from an input stream
// (stdin, or one Unix-socket connection via serve_over_socket), schedules
// submitted runs onto a worker pool with the batch campaign's exact
// retry/watchdog/quarantine policy (core::execute_run_with_policy), and
// streams results back as runs COMMIT — strictly in submission order, via
// the same ShardedCampaignSink the batch fleet uses, so a serve session
// with a shard out_dir leaves the identical shard directory a batch fleet
// over the same specs would.
//
// The session is configured by the batch campaign's own settings type,
// core::CampaignConfig: its name, master seed, retry, watchdog and
// reschedule policy, `jobs` (0 = hardware concurrency) and shard settings.
// A session is open-ended, so a config setting `runs`, `trace` or
// `shard.resume` is rejected with std::invalid_argument.
//
// Protocol (one JSON object per line; replies/events on the output stream):
//   {"cmd":"submit", <ScenarioSpec fields>}  -> {"ok":true,"id":N}
//   {"cmd":"status"}    -> {"ok":true,"submitted":S,"committed":C,"pending":P}
//   {"cmd":"stats"}     -> {"ok":true,"committed":C,"metrics":{...}} where
//                          the metrics value is the live merged
//                          MetricsRegistry snapshot in canonical write_json
//                          bytes — after a drain it equals (plus a trailing
//                          newline) the metrics.json a batch fleet over the
//                          same specs writes
//   {"cmd":"drain"}     -> blocks, then {"ok":true,"drained":C}
//   {"cmd":"shutdown"}  -> drain + finalize + merged artifacts, then
//                          {"ok":true,"shutdown":true,"runs":C}, or
//                          {"ok":false,"error":...} when a shard or merged
//                          artifact could not be written
//   EOF                 -> implicit shutdown (no ack)
// As each run commits the engine emits, in this order:
//   {"event":"reschedule","id":N,"round":R}       (one per ctrl reschedule)
//   {"event":"finding","id":N,<finding fields>}   (one per finding line)
//   {"event":"quarantine","id":N,"attempts":A,"error":...}  (failed runs)
//   {"event":"run","id":N,"ok":...,"attempts":...,"resched":...,"seed":...,
//    "error":...,"virtual_s":...,"registry":{...}}
// Acks always precede the submitted run's events (the ack is written under
// the same output lock the commit hook takes).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "core/shard.h"
#include "svc/run_spec.h"

namespace qoed::svc {

class ServeEngine {
 public:
  // With cfg.shard.out_dir set, committed runs stream into shard files and
  // shutdown publishes the merged artifacts there
  // (core::write_merged_artifacts).
  ServeEngine(std::istream& in, std::ostream& out, core::CampaignConfig cfg);
  ~ServeEngine();

  // Blocks until shutdown or EOF; returns a process exit code (0 on a clean
  // shutdown, 1 when finalize hit a shard I/O error or a merged artifact
  // could not be written).
  int run();

 private:
  void worker_main();
  void handle_line(const std::string& line, bool* shutdown);
  void reply(const std::string& line);
  void wait_drained();
  int shutdown_now(bool ack);

  std::istream& in_;
  std::ostream& out_;
  core::CampaignConfig cfg_;
  std::unique_ptr<core::ShardedCampaignSink> sink_;

  // Output lock: protocol acks and commit-hook events interleave here.
  // Order: the sink's internal lock may be held when the hook takes out_mu_,
  // so nothing may call into the sink while holding out_mu_.
  std::mutex out_mu_;

  // Task queue (indices into specs_).
  std::mutex q_mu_;
  std::condition_variable q_cv_;
  std::deque<std::size_t> queue_;
  std::vector<ScenarioSpec> specs_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  // Progress signal for drain: atomics only — the waiter's predicate must
  // not touch the sink (the hook holds the sink lock while notifying).
  std::atomic<std::size_t> submitted_{0};
  std::atomic<std::size_t> committed_{0};
  std::mutex progress_mu_;
  std::condition_variable progress_cv_;
};

// Binds a Unix-domain socket at `path`, serves one client connection with a
// ServeEngine, then unlinks the socket. Returns the engine's exit code, or
// 2 when the socket cannot be created. Rejects a config ServeEngine rejects
// before binding.
int serve_over_socket(const std::string& path, const core::CampaignConfig& cfg);

}  // namespace qoed::svc
