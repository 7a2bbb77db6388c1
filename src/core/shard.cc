#include "core/shard.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>

#include "core/json_util.h"

namespace qoed::core {

namespace fs = std::filesystem;

namespace {

std::string shard_file(const std::string& out_dir, const char* kind,
                       std::size_t index) {
  char num[16];
  std::snprintf(num, sizeof(num), "%06zu", index);
  return out_dir + "/" + kind + "-" + num + ".jsonl";
}

std::string manifest_path(const std::string& out_dir) {
  return out_dir + "/MANIFEST.json";
}

}  // namespace

bool read_shard_manifest(const std::string& out_dir, ShardManifest* out,
                         std::string* error) {
  const auto fail = [error](const char* msg) {
    if (error) *error = msg;
    return false;
  };
  std::ifstream in(manifest_path(out_dir), std::ios::binary);
  if (!in) return fail("no manifest");
  std::ostringstream content;
  content << in.rdbuf();
  const std::string text = content.str();
  JsonLiteParser p(text);
  if (!p.enter_object()) return fail("manifest: expected object");
  *out = ShardManifest{};
  std::string key;
  while (p.next_key(&key)) {
    bool parsed = true;
    if (key == "campaign") {
      parsed = p.read_string(&out->campaign);
    } else if (key == "master_seed") {
      parsed = p.read_number(&out->master_seed);
    } else if (key == "runs") {
      parsed = p.read_number(&out->runs);
    } else if (key == "complete") {
      parsed = p.read_bool(&out->complete);
    } else if (key == "shards") {
      parsed = p.enter_array();
      while (parsed && p.array_next()) {
        parsed = p.enter_object();
        ShardInfo info;
        std::string skey;
        while (parsed && p.next_key(&skey)) {
          std::size_t* const field = skey == "index"       ? &info.index
                                     : skey == "run_begin" ? &info.run_begin
                                     : skey == "run_end"   ? &info.run_end
                                                           : nullptr;
          parsed = field != nullptr ? p.read_number(field) : p.skip_value();
        }
        out->shards.push_back(info);
      }
    } else {
      parsed = p.skip_value();
    }
    if (!parsed) return fail("manifest: malformed value");
  }
  return p.at_end() || fail("manifest: malformed JSON");
}

void stamp_findings(std::string_view member, std::string_view findings_jsonl,
                    std::string* out) {
  std::string_view rest = findings_jsonl;
  while (!rest.empty()) {
    const auto nl = rest.find('\n');
    const std::string_view line = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view{}
                                        : rest.substr(nl + 1);
    if (line.empty()) continue;
    if (line.front() == '{') {
      const std::string_view body = line.substr(1);
      out->push_back('{');
      out->append(member);
      if (body != "}") out->push_back(',');
      out->append(body);
    } else {
      out->append(line);  // non-object lines pass through unchanged
    }
    out->push_back('\n');
  }
}

namespace {

// Campaign-level outcome counters: campaign.run_attempts (attempts over
// all runs), campaign.quarantined and campaign.rescheduled (policy rounds).
void add_campaign_counters(obs::MetricsRegistry& reg, std::size_t attempts,
                           std::size_t quarantined, std::size_t rescheduled) {
  reg.add_counter("campaign.run_attempts", static_cast<double>(attempts));
  reg.add_counter("campaign.quarantined", static_cast<double>(quarantined));
  reg.add_counter("campaign.rescheduled", static_cast<double>(rescheduled));
}

// Appends one run's campaign-spine row to `trace`: a "run-N" track holding
// the run span (virtual 0 .. virtual_seconds, named after the campaign,
// args seed + attempts), one "retry" instant per extra attempt, one
// "rescheduled" instant per policy round and a "quarantined" instant when
// the run failed.
void add_spine_row(obs::Tracer& trace, const std::string& campaign,
                   std::size_t run_index, std::uint64_t last_seed,
                   std::size_t attempts, std::size_t reschedules, bool ok,
                   double virtual_seconds) {
  const std::uint32_t track = trace.track("run-" + std::to_string(run_index));
  const sim::TimePoint t0;
  const sim::TimePoint t1{sim::sec_f(virtual_seconds)};
  const auto id = trace.span_open(
      track, campaign, "campaign", t0,
      "{\"seed\":" + std::to_string(last_seed) +
          ",\"attempts\":" + std::to_string(attempts) + "}");
  for (std::size_t a = 1; a < attempts; ++a) {
    trace.instant(track, "retry", "campaign", t0);
  }
  for (std::size_t rs = 0; rs < reschedules; ++rs) {
    trace.instant(track, "rescheduled", "ctrl", t0);
  }
  if (!ok) trace.instant(track, "quarantined", "campaign", t1);
  trace.span_close(id, t1);
}

// One metrics-shard line: the run's identity, outcome, samples and registry
// snapshot. The line is the unit of the aggregate fold and of crash
// recovery — ShardedCampaignSink::fold_metrics_line is its one decoder.
std::string encode_metrics_line(std::size_t run_index,
                                const RunExecution& ex) {
  const RunResult& r = ex.result;
  std::ostringstream os;
  os << "{\"run\":" << run_index << ",\"attempts\":" << ex.attempts
     << ",\"resched\":" << ex.reschedules << ",\"seed\":" << ex.last_seed
     << ",\"ok\":" << (r.ok ? "true" : "false") << ",\"error\":";
  put_json_string(os, r.error);
  os << ",\"virtual_s\":";
  put_json_number(os, r.virtual_seconds);
  os << ",\"samples\":{";
  bool first = true;
  for (const auto& [name, vals] : r.samples) {
    if (!first) os << ',';
    first = false;
    put_json_string(os, name);
    os << ":[";
    for (std::size_t i = 0; i < vals.size(); ++i) {
      if (i) os << ',';
      put_json_number(os, vals[i]);
    }
    os << ']';
  }
  os << "},\"registry\":";
  r.registry.write_json(os);
  os << '}';
  return os.str();
}

}  // namespace

// ---- ShardedCampaignSink ----

void ShardedCampaignSink::Welford::add(double v) {
  if (n == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  ++n;
  const double d = v - mean;
  mean += d / static_cast<double>(n);
  m2 += d * (v - mean);
}

ShardedCampaignSink::ShardedCampaignSink(const CampaignShardConfig& cfg,
                                         std::string campaign,
                                         std::uint64_t master_seed,
                                         std::size_t planned_runs,
                                         std::size_t jobs)
    : cfg_(cfg),
      park_budget_(jobs > 0 && cfg.shard_bytes > SIZE_MAX / jobs
                       ? SIZE_MAX
                       : jobs * cfg.shard_bytes) {
  manifest_.campaign = std::move(campaign);
  manifest_.master_seed = master_seed;
  manifest_.runs = planned_runs;
  if (planned_runs > 0) meta_.resize(planned_runs);
  if (cfg_.out_dir.empty()) return;

  std::error_code ec;
  fs::create_directories(cfg_.out_dir, ec);
  if (ec) {
    throw std::runtime_error("shard: cannot create out dir " + cfg_.out_dir);
  }
  ShardManifest existing;
  if (cfg_.resume && read_shard_manifest(cfg_.out_dir, &existing)) {
    if (existing.campaign != manifest_.campaign ||
        existing.master_seed != manifest_.master_seed ||
        (planned_runs > 0 && existing.runs != planned_runs)) {
      throw std::runtime_error(
          "shard resume: MANIFEST.json in " + cfg_.out_dir +
          " belongs to a different campaign (name/master_seed/runs "
          "mismatch)");
    }
    manifest_.shards = existing.shards;
    std::string error;
    if (!replay_closed_shards(&error)) {
      throw std::runtime_error("shard resume: " + error);
    }
    frontier_ = manifest_.committed();
    shard_run_begin_ = frontier_;
    next_shard_ = manifest_.shards.size();
  } else if (!cfg_.resume) {
    fs::remove(manifest_path(cfg_.out_dir), ec);
  }
  // Pending spill files never survive a process: stale ones belong to runs
  // past the durable frontier, which will be re-executed.
  for (const auto& entry : fs::directory_iterator(cfg_.out_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("pending-", 0) == 0 ||
        (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0)) {
      fs::remove(entry.path(), ec);
    }
  }
}

std::size_t ShardedCampaignSink::committed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frontier_;
}

void ShardedCampaignSink::set_commit_hook(CommitHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  hook_ = std::move(hook);
}

std::string ShardedCampaignSink::shard_path(const char* kind,
                                            std::size_t index) const {
  return shard_file(cfg_.out_dir, kind, index);
}

std::string ShardedCampaignSink::pending_path(std::size_t run_index) const {
  return cfg_.out_dir + "/pending-" + std::to_string(run_index);
}

void ShardedCampaignSink::submit(std::size_t run_index, RunExecution&& ex) {
  // Serialization happens on the worker, outside the lock.
  std::string metrics_line = encode_metrics_line(run_index, ex);
  std::vector<ShardWrite> closed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    submit_locked(run_index, metrics_line,
                  std::move(ex.result.artifacts.findings_jsonl),
                  std::move(ex.result.artifacts.timeline_jsonl),
                  std::move(ex.result.artifacts.captures_jsonl), &closed);
  }
  // The shards this commit closed are merged and written outside the lock,
  // so the other workers keep committing meanwhile.
  for (ShardWrite& w : closed) write_shard(std::move(w));
}

void ShardedCampaignSink::submit_locked(std::size_t run_index,
                                        std::string& metrics_line,
                                        std::string&& findings,
                                        std::string&& timeline,
                                        std::string&& captures,
                                        std::vector<ShardWrite>* closed) {
  if (run_index < frontier_) return;  // resume overlap; already durable
  if (run_index != frontier_) {
    Pending p;
    const std::size_t bytes = metrics_line.size() + findings.size() +
                              timeline.size() + captures.size();
    const bool fits = parked_bytes_ <= park_budget_ &&
                      bytes <= park_budget_ - parked_bytes_;
    if (!cfg_.out_dir.empty() && !fits) {
      // Spill the out-of-order completions past the park budget, so memory
      // stays O(jobs x shard budget) even when one slow run stalls the
      // frontier.
      std::ofstream os(pending_path(run_index),
                       std::ios::binary | std::ios::trunc);
      os << metrics_line.size() << ' ' << findings.size() << ' '
         << timeline.size() << ' ' << captures.size() << '\n';
      os.write(metrics_line.data(),
               static_cast<std::streamsize>(metrics_line.size()));
      os.write(findings.data(), static_cast<std::streamsize>(findings.size()));
      os.write(timeline.data(), static_cast<std::streamsize>(timeline.size()));
      os.write(captures.data(), static_cast<std::streamsize>(captures.size()));
      p.spilled = static_cast<bool>(os);
    }
    if (!p.spilled) {  // parked in memory (also on disk trouble)
      parked_bytes_ += bytes;
      p.metrics = std::move(metrics_line);
      p.findings = std::move(findings);
      p.timeline = std::move(timeline);
      p.captures = std::move(captures);
    }
    pending_.emplace(run_index, std::move(p));
    return;
  }
  commit_locked(run_index, metrics_line, std::move(findings),
                std::move(timeline), std::move(captures), closed);
  // Drain every spilled/parked successor the new frontier unblocks.
  for (auto it = pending_.find(frontier_); it != pending_.end();
       it = pending_.find(frontier_)) {
    Pending p = std::move(it->second);
    pending_.erase(it);
    const std::size_t idx = frontier_;
    if (p.spilled) {
      std::ifstream in(pending_path(idx), std::ios::binary);
      std::size_t m = 0, f = 0, t = 0, c = 0;
      in >> m >> f >> t >> c;
      in.get();  // the '\n' after the header
      p.metrics.resize(m);
      p.findings.resize(f);
      p.timeline.resize(t);
      p.captures.resize(c);
      in.read(p.metrics.data(), static_cast<std::streamsize>(m));
      in.read(p.findings.data(), static_cast<std::streamsize>(f));
      in.read(p.timeline.data(), static_cast<std::streamsize>(t));
      in.read(p.captures.data(), static_cast<std::streamsize>(c));
      if (!in) {
        io_error_ = "shard: cannot read back " + pending_path(idx);
        return;
      }
      std::error_code ec;
      fs::remove(pending_path(idx), ec);
    } else {
      parked_bytes_ -= p.metrics.size() + p.findings.size() +
                       p.timeline.size() + p.captures.size();
    }
    commit_locked(idx, p.metrics, std::move(p.findings), std::move(p.timeline),
                  std::move(p.captures), closed);
  }
}

bool ShardedCampaignSink::fold_metrics_line(std::string_view line,
                                            ParsedOutcome* out) {
  JsonLiteParser p(line);
  if (!p.enter_object()) return false;
  std::string key;
  while (p.next_key(&key)) {
    bool parsed = true;
    if (key == "run") {
      parsed = p.read_number(&out->run);
    } else if (key == "attempts") {
      parsed = p.read_number(&out->attempts);
    } else if (key == "resched") {
      parsed = p.read_number(&out->reschedules);
    } else if (key == "seed") {
      parsed = p.read_number(&out->seed);
    } else if (key == "ok") {
      parsed = p.read_bool(&out->ok);
    } else if (key == "error") {
      parsed = p.read_string(&out->error);
    } else if (key == "virtual_s") {
      parsed = p.read_number(&out->virtual_seconds);
    } else if (key == "samples") {
      // Quarantined runs contribute nothing. "ok" precedes the payload
      // sections in the line format.
      if (!out->ok) {
        parsed = p.skip_value();
      } else {
        parsed = p.enter_object();
        std::string name;
        double v = 0;
        while (parsed && p.next_key(&name)) {
          parsed = p.enter_array();
          MetricAccum& acc = metrics_[name];
          double sum = 0;
          std::uint64_t count = 0;
          while (parsed && p.array_next()) {
            parsed = p.read_number(&v);
            acc.pooled.add(v);
            sum += v;
            ++count;
          }
          if (count > 0) {
            const double run_mean = sum / static_cast<double>(count);
            acc.run_means.add(run_mean);
            if (acc.mean_hist.counts.empty()) {
              acc.mean_hist.bounds = obs::default_bounds();
              acc.mean_hist.counts.assign(acc.mean_hist.bounds.size() + 1, 0);
            }
            acc.mean_hist.observe(std::llround(run_mean * 1e6));
          }
        }
      }
    } else if (key == "registry") {
      parsed = p.raw_value(&out->registry);
      if (parsed && out->ok) {
        parsed = registry_.merge_from_json(out->registry);
      }
    } else {
      parsed = p.skip_value();
    }
    if (!parsed) return false;
  }
  return p.at_end();
}

void ShardedCampaignSink::record_outcome(std::size_t run_index,
                                         const ParsedOutcome& po) {
  if (meta_.size() <= run_index) meta_.resize(run_index + 1);
  RunMeta& m = meta_[run_index];
  m.attempts = static_cast<std::uint32_t>(po.attempts);
  m.reschedules = static_cast<std::uint32_t>(po.reschedules);
  m.ok = po.ok;
  m.last_seed = po.seed;
  m.virtual_seconds = po.virtual_seconds;
  m.error = po.ok ? std::string() : po.error;
  total_attempts_ += po.attempts;
  total_reschedules_ += po.reschedules;
  if (!po.ok) ++quarantined_;
}

void ShardedCampaignSink::commit_locked(std::size_t run_index,
                                        const std::string& metrics_line,
                                        std::string&& findings,
                                        std::string&& timeline,
                                        std::string&& captures,
                                        std::vector<ShardWrite>* closed) {
  ParsedOutcome po;
  if (!fold_metrics_line(metrics_line, &po)) {
    po = ParsedOutcome{};
    po.run = run_index;
    po.attempts = 1;
    po.ok = false;
    po.error = "shard: malformed metrics line";
  }
  record_outcome(run_index, po);

  if (!cfg_.out_dir.empty()) {
    const std::string stamp = "\"run\":" + std::to_string(run_index);
    stamp_findings(stamp, findings, &findings_buf_);
    stamp_findings(stamp, captures, &captures_buf_);
    metrics_buf_ += metrics_line;
    metrics_buf_ += '\n';
    timeline_bytes_ += timeline.size();
    timeline_entries_.push_back(
        {"run-" + std::to_string(run_index), std::move(timeline)});
  }
  if (hook_) {
    Commit c;
    c.run_index = run_index;
    c.attempts = po.attempts;
    c.reschedules = po.reschedules;
    c.last_seed = po.seed;
    c.ok = po.ok;
    c.error = po.error;
    c.virtual_seconds = po.virtual_seconds;
    c.findings_jsonl = findings;
    c.registry_json = po.registry;
    hook_(c);
  }
  ++frontier_;

  if (cfg_.out_dir.empty()) return;
  const std::size_t bytes = findings_buf_.size() + metrics_buf_.size() +
                            captures_buf_.size() + timeline_bytes_;
  const std::size_t runs_in_shard = frontier_ - shard_run_begin_;
  if ((cfg_.shard_bytes > 0 && bytes >= cfg_.shard_bytes) ||
      (cfg_.shard_runs > 0 && runs_in_shard >= cfg_.shard_runs)) {
    take_shard_locked(closed);
  }
}

void ShardedCampaignSink::take_shard_locked(std::vector<ShardWrite>* closed) {
  if (frontier_ == shard_run_begin_ || cfg_.out_dir.empty()) return;
  if (!io_error_.empty()) return;  // don't extend a broken prefix
  ShardWrite w;
  w.info = {next_shard_++, shard_run_begin_, frontier_};
  w.findings.swap(findings_buf_);
  w.metrics.swap(metrics_buf_);
  w.captures.swap(captures_buf_);
  w.timelines.swap(timeline_entries_);
  timeline_bytes_ = 0;
  shard_run_begin_ = frontier_;
  closed->push_back(std::move(w));
}

void ShardedCampaignSink::write_shard(ShardWrite&& w) {
  // Artifacts first, manifest last: a crash in between leaves unlisted
  // files that the next resume simply overwrites.
  const std::size_t index = w.info.index;
  const bool ok =
      write_file_atomic(shard_path("findings", index), w.findings) &&
      write_file_atomic(shard_path("timeline", index),
                        [&w](std::ostream& os) {
                          merge_timelines(w.timelines, os);
                        }) &&
      write_file_atomic(shard_path("metrics", index), w.metrics) &&
      write_file_atomic(shard_path("captures", index), w.captures);
  std::lock_guard<std::mutex> lock(mu_);
  if (!ok) {
    if (io_error_.empty()) {
      io_error_ = "shard: cannot write shard " + std::to_string(index) +
                  " under " + cfg_.out_dir;
    }
    return;
  }
  // Workers finish their shards in any order; the manifest lists them in
  // index order, each once every shard before it is written. A failed
  // shard never arrives here, so nothing after it is listed.
  written_.emplace(index, w.info);
  const std::size_t listed = manifest_.shards.size();
  for (auto it = written_.find(manifest_.shards.size()); it != written_.end();
       it = written_.find(manifest_.shards.size())) {
    manifest_.shards.push_back(it->second);
    written_.erase(it);
  }
  if (manifest_.shards.size() > listed) write_manifest_locked();
}

void ShardedCampaignSink::write_manifest_locked() {
  std::ostringstream os;
  os << "{\"campaign\":";
  put_json_string(os, manifest_.campaign);
  os << ",\"master_seed\":" << manifest_.master_seed
     << ",\"runs\":" << manifest_.runs
     << ",\"complete\":" << (manifest_.complete ? "true" : "false")
     << ",\"shards\":[";
  for (std::size_t i = 0; i < manifest_.shards.size(); ++i) {
    const ShardInfo& s = manifest_.shards[i];
    if (i) os << ',';
    os << "{\"index\":" << s.index << ",\"run_begin\":" << s.run_begin
       << ",\"run_end\":" << s.run_end << '}';
  }
  os << "]}";
  if (!write_file_atomic(manifest_path(cfg_.out_dir), os.str())) {
    io_error_ = "shard: cannot write MANIFEST.json under " + cfg_.out_dir;
  }
}

bool ShardedCampaignSink::replay_closed_shards(std::string* error) {
  for (const ShardInfo& info : manifest_.shards) {
    const std::string path = shard_path("metrics", info.index);
    std::ifstream in(path, std::ios::binary);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      ParsedOutcome po;
      if (!fold_metrics_line(line, &po) || po.run < info.run_begin ||
          po.run >= info.run_end) {
        *error = "malformed metrics line in " + path;
        return false;
      }
      record_outcome(po.run, po);
    }
    // A directory opens, then its first read fails.
    if (!in.is_open() || in.bad()) {
      *error = "manifest lists " + path + " but it cannot be read";
      return false;
    }
  }
  return true;
}

std::unique_ptr<ShardedCampaignSink> ShardedCampaignSink::replay(
    const std::string& out_dir, std::string* error) {
  std::string why;
  std::unique_ptr<ShardedCampaignSink> sink(new ShardedCampaignSink);
  sink->cfg_.out_dir = out_dir;
  if (!read_shard_manifest(out_dir, &sink->manifest_, &why) ||
      !sink->replay_closed_shards(&why)) {
    if (error) *error = out_dir + ": " + why;
    return nullptr;
  }
  sink->frontier_ = sink->manifest_.committed();
  return sink;
}

void ShardedCampaignSink::finalize() {
  std::vector<ShardWrite> closed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    take_shard_locked(&closed);
  }
  for (ShardWrite& w : closed) write_shard(std::move(w));
  std::lock_guard<std::mutex> lock(mu_);
  if (manifest_.runs == 0) manifest_.runs = frontier_;  // open-ended service
  manifest_.complete =
      io_error_.empty() && pending_.empty() && frontier_ >= manifest_.runs;
  if (!cfg_.out_dir.empty()) write_manifest_locked();
  if (!io_error_.empty()) throw std::runtime_error(io_error_);
}

namespace {

Summary streaming_summary(std::uint64_t n, double mean, double m2, double min,
                          double max,
                          const obs::MetricsRegistry::Histogram* hist) {
  Summary s;
  if (n == 0) return s;
  s.n = static_cast<std::size_t>(n);
  s.mean = mean;
  s.stddev = std::sqrt(std::max(0.0, m2 / static_cast<double>(n)));
  s.min = min;
  s.max = max;
  if (hist != nullptr && hist->count > 0) {
    // Interpolation inside a 1-2-5 bucket can land outside the observed
    // range (every sample 0.5 reads p50 0.35 in the 0.2..0.5 bucket).
    const auto quantile = [&](double q) {
      return std::clamp(obs::histogram_quantile(*hist, q), min, max);
    };
    s.p50 = quantile(0.50);
    s.p90 = quantile(0.90);
    s.p99 = quantile(0.99);
  }
  return s;
}

}  // namespace

std::string ShardedCampaignSink::metrics_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  obs::MetricsRegistry merged = registry_;
  add_campaign_counters(merged, total_attempts_, quarantined_,
                        total_reschedules_);
  return merged.snapshot();
}

void ShardedCampaignSink::fold_into(CampaignResult* out,
                                    bool build_trace) const {
  std::lock_guard<std::mutex> lock(mu_);
  out->run_errors.reserve(meta_.size());
  out->run_attempts.reserve(meta_.size());
  out->run_reschedules.reserve(meta_.size());
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    const RunMeta& m = meta_[i];
    out->run_errors.push_back(m.error);
    out->run_attempts.push_back(m.attempts);
    out->run_reschedules.push_back(m.reschedules);
    if (!m.ok) {
      out->quarantined.push_back({i, m.attempts, m.last_seed, m.error});
    }
  }
  out->registry = registry_;
  add_campaign_counters(out->registry, total_attempts_, quarantined_,
                        total_reschedules_);
  for (const auto& [name, acc] : metrics_) {
    MetricAggregate& agg = out->metrics[name];
    agg.pooled =
        streaming_summary(acc.pooled.n, acc.pooled.mean, acc.pooled.m2,
                          acc.pooled.min, acc.pooled.max,
                          out->registry.find_histogram(name));
    agg.per_run_means = streaming_summary(
        acc.run_means.n, acc.run_means.mean, acc.run_means.m2,
        acc.run_means.min, acc.run_means.max,
        acc.mean_hist.count > 0 ? &acc.mean_hist : nullptr);
  }
  out->trace.set_enabled(build_trace);
  if (build_trace) {
    for (std::size_t i = 0; i < meta_.size(); ++i) {
      const RunMeta& m = meta_[i];
      add_spine_row(out->trace, out->name, i, m.last_seed, m.attempts,
                    m.reschedules, m.ok, m.virtual_seconds);
    }
  }
}

// ---- merged-artifact sinks ----

namespace {

// Copies one shard file into os; false when it cannot be opened or read.
bool append_shard(const std::string& path, std::ostream& os) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  // A zero-length rdbuf insert would set failbit on `os`.
  if (in.peek() == std::char_traits<char>::eof()) return !in.bad();
  os << in.rdbuf();
  return static_cast<bool>(os);
}

void concat_shards(const std::string& out_dir, const char* kind,
                   std::ostream& os) {
  ShardManifest manifest;
  if (!read_shard_manifest(out_dir, &manifest)) {
    os.setstate(std::ios::failbit);
    return;
  }
  for (const ShardInfo& info : manifest.shards) {
    if (!append_shard(shard_file(out_dir, kind, info.index), os)) {
      os.setstate(std::ios::failbit);
      return;
    }
  }
}

// k-way merges the sorted timeline files at `paths` into os; false when one
// cannot be opened or read.
bool merge_timeline_files(std::span<const std::string> paths,
                          std::ostream& os) {
  std::vector<std::ifstream> files;
  files.reserve(paths.size());
  std::vector<std::istream*> streams;
  for (const std::string& path : paths) {
    files.emplace_back(path, std::ios::binary);
    if (!files.back()) return false;
    streams.push_back(&files.back());
  }
  merge_sorted_timeline_streams(streams, os);
  return std::none_of(files.begin(), files.end(),
                      [](const std::ifstream& f) { return f.bad(); });
}

}  // namespace

void ShardFindingsMergeSink::write(std::ostream& os) const {
  concat_shards(out_dir_, "findings", os);
}

void ShardTimelineMergeSink::write(std::ostream& os) const {
  ShardManifest manifest;
  if (!read_shard_manifest(out_dir_, &manifest)) {
    os.setstate(std::ios::failbit);
    return;
  }
  std::vector<std::string> paths;
  for (const ShardInfo& info : manifest.shards) {
    paths.push_back(shard_file(out_dir_, "timeline", info.index));
  }
  std::vector<std::string> temps;
  bool ok = true;
  while (ok && paths.size() > kTimelineMergeFanIn) {
    std::vector<std::string> next;
    for (std::size_t i = 0; ok && i < paths.size(); i += kTimelineMergeFanIn) {
      const auto group = std::span(paths).subspan(
          i, std::min(kTimelineMergeFanIn, paths.size() - i));
      temps.push_back(out_dir_ + "/timeline-pass-" +
                      std::to_string(temps.size()) + ".tmp");
      next.push_back(temps.back());
      ok = write_file_atomic(temps.back(), [group](std::ostream& out) {
        if (!merge_timeline_files(group, out)) out.setstate(std::ios::failbit);
      });
    }
    paths = std::move(next);
  }
  if (!ok || !merge_timeline_files(paths, os)) os.setstate(std::ios::failbit);
  std::error_code ec;
  for (const std::string& temp : temps) fs::remove(temp, ec);
}

void ShardMetricsMergeSink::write(std::ostream& os) const {
  const std::unique_ptr<ShardedCampaignSink> fold =
      ShardedCampaignSink::replay(out_dir_);
  if (fold == nullptr) {
    os.setstate(std::ios::failbit);
    return;
  }
  os << fold->metrics_snapshot() << '\n';
}

void ShardCapturesMergeSink::write(std::ostream& os) const {
  concat_shards(out_dir_, "captures", os);
}

bool write_merged_artifacts(const std::string& out_dir, std::string* error) {
  const ShardFindingsMergeSink findings(out_dir);
  const ShardTimelineMergeSink timeline(out_dir);
  const ShardMetricsMergeSink metrics(out_dir);
  const ShardCapturesMergeSink captures(out_dir);
  const ExportSink* const sinks[] = {&findings, &timeline, &metrics,
                                     &captures};
  bool ok = true;
  for (const ExportSink* sink : sinks) {
    const std::string path = out_dir + "/" + std::string(sink->id());
    if (!sink->write_file(path) && ok) {
      ok = false;
      if (error != nullptr) *error = "cannot write " + path;
    }
  }
  return ok;
}

bool read_run_outcomes(const std::string& out_dir,
                       std::map<std::string, RunOutcomeCounts>* out,
                       std::string* error) {
  const std::unique_ptr<ShardedCampaignSink> fold =
      ShardedCampaignSink::replay(out_dir, error);
  if (fold == nullptr) return false;
  CampaignResult result;
  fold->fold_into(&result, /*build_trace=*/false);
  out->clear();
  for (std::size_t i = 0; i < result.run_reschedules.size(); ++i) {
    (*out)["run-" + std::to_string(i)].rescheduled = result.run_reschedules[i];
  }
  for (const CampaignResult::QuarantinedRun& q : result.quarantined) {
    (*out)["run-" + std::to_string(q.run_index)].quarantined = 1;
  }
  return true;
}

}  // namespace qoed::core
