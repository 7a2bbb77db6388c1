// Shared helpers for the experiment benches.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/export_sink.h"
#include "core/json_util.h"
#include "core/qoe_doctor.h"
#include "core/shard.h"
#include "obs/tracer.h"

namespace qoed::bench {

// Command-line options shared by the campaign-based benches.
//   --jobs N      worker threads (0 = hardware concurrency, the default)
//   --runs N      campaign runs (0 = bench default)
//   --seed S      master seed (0 = bench default)
//   --json F      write each CampaignResult as JSON to F (appends)
//   --metrics F   write each campaign's merged metrics registry to F
//                 (appends, one {"campaign":...,"registry":...} per line)
//   --out-dir D   sharded (constant-memory) campaigns: each campaign streams
//                 its runs into shard files under D/<campaign>/ and writes
//                 the merged findings.jsonl/timeline.jsonl/metrics.json/
//                 captures.jsonl there (byte-identical at any --jobs)
//   --shard-bytes N  shard rotation budget in bytes [4 MiB]
//   --shards N    also rotate every N runs (0 = byte budget only)
// Benches whose runs keep their doctor's tracer ({.trace = true}) also take:
//   --trace F     write ONE merged Chrome trace-event JSON covering every
//                 campaign to F (overwrites; the format cannot be appended)
// Elsewhere --trace exits 2, since there would be no trace to write.
// Throughput-gated benches ({.throughput_gate = true}) also take:
//   --bench-json F          append the bench's result series to F
//   --min-dh-per-wall-s X   fail below X simulated device-hours per
//                           wall-second (0 = report only)
struct BenchFlags {
  bool trace = false;
  bool throughput_gate = false;
};

struct BenchOptions {
  std::size_t jobs = 0;
  std::size_t runs = 0;
  std::uint64_t seed = 0;
  std::string json_path;
  std::string metrics_path;
  std::string trace_path;
  std::string out_dir;
  std::size_t shard_bytes = 4u << 20;
  std::size_t shard_runs = 0;
  std::string bench_json;
  double min_dh_per_wall_s = 0;

  bool tracing() const { return !trace_path.empty(); }
  bool sharded() const { return !out_dir.empty(); }
};

// Exits 2 on an unknown flag, a flag this bench does not take, a missing
// value or a malformed number.
inline BenchOptions parse_options(int argc, char** argv,
                                  BenchFlags accepts = {}) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // Reads the value into *out as a non-negative number of its type,
    // written the way JSON writes it (core::parse_json_number): no space,
    // suffix, "+" or leading zero.
    auto parse = [&](auto* out) {
      const std::string_view text = value();
      if (!core::parse_json_number(text, out) || text.front() == '-') {
        std::fprintf(stderr, "invalid number for %s: '%s'\n", arg.c_str(),
                     std::string(text).c_str());
        std::exit(2);
      }
    };
    if (arg == "--jobs") {
      parse(&opts.jobs);
    } else if (arg == "--runs") {
      parse(&opts.runs);
    } else if (arg == "--seed") {
      parse(&opts.seed);
    } else if (arg == "--json") {
      opts.json_path = value();
    } else if (arg == "--metrics") {
      opts.metrics_path = value();
    } else if (accepts.trace && arg == "--trace") {
      opts.trace_path = value();
    } else if (arg == "--out-dir") {
      opts.out_dir = value();
    } else if (arg == "--shard-bytes") {
      parse(&opts.shard_bytes);
    } else if (arg == "--shards") {
      parse(&opts.shard_runs);
    } else if (accepts.throughput_gate && arg == "--bench-json") {
      opts.bench_json = value();
    } else if (accepts.throughput_gate && arg == "--min-dh-per-wall-s") {
      parse(&opts.min_dh_per_wall_s);
    } else if (arg == "-h" || arg == "--help") {
      std::printf(
          "usage: %s [--jobs N] [--runs N] [--seed S] [--json FILE]"
          " [--metrics FILE] [--out-dir DIR] [--shard-bytes N]"
          " [--shards N]%s%s\n",
          argv[0], accepts.trace ? " [--trace FILE]" : "",
          accepts.throughput_gate
              ? " [--bench-json FILE] [--min-dh-per-wall-s X]"
              : "");
      std::exit(0);
    } else if (arg == "--trace") {
      std::fprintf(stderr, "--trace: %s runs record no trace\n", argv[0]);
      std::exit(2);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return opts;
}

// Campaign names may contain '/' (e.g. "accuracy/post"); flatten them for
// use as a shard subdirectory name.
inline std::string sanitize_campaign_dir(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '/' || c == ' ') c = '_';
  }
  return out;
}

// Applies the shared CLI options to a campaign config, keeping the bench's
// defaults where the user passed nothing. With --out-dir the campaign runs
// sharded, streaming into <out-dir>/<sanitized-name>/.
inline core::CampaignConfig campaign_config(const BenchOptions& opts,
                                            std::string name,
                                            std::size_t default_runs,
                                            std::uint64_t default_seed) {
  core::CampaignConfig cfg;
  cfg.name = std::move(name);
  cfg.runs = opts.runs ? opts.runs : default_runs;
  cfg.jobs = opts.jobs;
  cfg.master_seed = opts.seed ? opts.seed : default_seed;
  cfg.trace = opts.tracing();
  if (opts.sharded()) {
    cfg.shard.out_dir = opts.out_dir + "/" + sanitize_campaign_dir(cfg.name);
    cfg.shard.shard_bytes = opts.shard_bytes;
    cfg.shard.shard_runs = opts.shard_runs;
  }
  return cfg;
}

// Accumulates (label, tracer) rows across campaigns so everything lands in
// ONE merged Chrome trace JSON at exit — the format cannot be appended to.
// Borrows the tracers: every added CampaignResult must outlive write().
struct TraceCollector {
  std::vector<std::pair<std::string, const obs::Tracer*>> processes;

  void add(const core::CampaignResult& result) {
    for (auto& p : result.trace_processes()) processes.push_back(p);
  }
  // No-op when nothing was collected (e.g. tracing off).
  bool write(const std::string& path) const {
    if (path.empty() || processes.empty()) return false;
    const core::TraceEventSink sink(processes);
    if (!sink.write_file(path)) {
      std::fprintf(stderr, "FAILED to write %s\n", path.c_str());
      return false;
    }
    std::printf("wrote trace.json (%zu processes) to %s\n", processes.size(),
                path.c_str());
    return true;
  }
};

// "campaign 'x': 20 runs over 8 workers in 1.3s (0 failed)" + optional JSON
// artifacts. `traces`, when given, collects this campaign's tracers for the
// caller's final TraceCollector::write. False (after naming it on stderr)
// when an artifact could not be written; the bench then exits 1.
[[nodiscard]] inline bool report_campaign(const core::Campaign& campaign,
                                          const core::CampaignResult& result,
                                          const BenchOptions& opts,
                                          TraceCollector* traces = nullptr) {
  std::printf("campaign '%s': %zu runs over %zu workers in %.2fs (%zu failed)\n",
              result.name.c_str(), result.runs, result.jobs,
              campaign.last_wall_seconds(), result.failed_runs());
  bool ok = true;
  const auto check = [&ok](bool wrote, const std::string& path) {
    if (!wrote) {
      std::fprintf(stderr, "FAILED to write %s\n", path.c_str());
      ok = false;
    }
  };
  if (!opts.json_path.empty()) {
    std::ofstream os(opts.json_path, std::ios::app);
    core::CampaignJsonSink(result).write(os);
    check(static_cast<bool>(os.flush()), opts.json_path);
  }
  if (!opts.metrics_path.empty()) {
    std::ofstream os(opts.metrics_path, std::ios::app);
    os << "{\"campaign\":";
    core::put_json_string(os, result.name);
    os << ",\"registry\":";
    result.registry.write_json(os);
    os << "}\n";
    check(static_cast<bool>(os.flush()), opts.metrics_path);
  }
  if (traces != nullptr && opts.tracing()) traces->add(result);
  std::string error;
  if (opts.sharded() &&
      !core::write_merged_artifacts(
          opts.out_dir + "/" + sanitize_campaign_dir(result.name), &error)) {
    std::fprintf(stderr, "FAILED: %s\n", error.c_str());
    ok = false;
  }
  return ok;
}

// Writes one micro-benchmark result as a flat JSON object (appends, one
// object per line, so repeated runs accumulate a JSONL series).
inline void write_bench_json(
    const std::string& path, const std::string& name,
    const std::vector<std::pair<std::string, double>>& values) {
  std::ofstream os(path, std::ios::app);
  os << "{\"bench\":";
  core::put_json_string(os, name);
  for (const auto& [key, v] : values) {
    os << ',';
    core::put_json_string(os, key);
    os << ':';
    core::put_json_number(os, v);
  }
  os << "}\n";
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

// Prints a CDF as paper-style figure rows.
inline void print_cdf(const std::string& title, const std::string& unit,
                      std::vector<double> values, std::size_t points = 12) {
  core::print_series(title, unit, "CDF",
                     core::empirical_cdf(std::move(values), points));
}

}  // namespace qoed::bench
