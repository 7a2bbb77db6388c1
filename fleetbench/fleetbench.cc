// End-to-end fleet benchmark binary: one workload repetition per process.
//
//   fleetbench rep --workload NAME --seed N --out DIR [--traced 1]
//                  [--trace-file FILE]
//   fleetbench selftest
//
// `rep` builds the workload's inputs from the seed, runs them through the
// real fleet path and prints one JSON line of raw measurements:
//
//   setup     pop::PopulationGenerator::user_spec -> ScenarioSpec::to_json
//             -> ScenarioSpec::parse_json, every line checked to round-trip
//             byte-identically (cells: CellScenarioSpec built in code, same
//             round trip);
//   campaign  core::Campaign with a ShardedCampaignSink writing shards under
//             DIR, configured as `qoed_cli fleet` configures it; the factory
//             calls svc::run_scenario or cell::run_cell_scenario;
//   merge     the four Shard*MergeSinks, in `qoed_cli fleet` order.
//
// The timed interval runs from Campaign::run entry until the last merged
// artifact is written. Afterwards the merged artifacts are checked against
// what the factory returned and digested; then, as a negative self-test, the
// merged timeline's last line is truncated and the same check must fail.
// DIR is removed at the end. fleetbench/run.py
// spawns one process per repetition, so the child's ru_maxrss is the peak
// RSS of that repetition alone.
//
// With --traced 1 the factory also records one span per call (wall, thread
// CPU, worker thread, registry counts) and the rep reports the per-layer
// breakdown; --trace-file writes the spans as a Chrome trace.
//
// `selftest` checks the session device-hour arithmetic on a two-run fixture.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cell/cell_run.h"
#include "core/campaign.h"
#include "core/json_util.h"
#include "core/shard.h"
#include "obs/metrics.h"
#include "pop/population.h"
#include "sim/rng.h"
#include "svc/run_spec.h"

namespace fs = std::filesystem;

namespace qoed::fleetbench {
namespace {

// ---------------------------------------------------------------- clocks

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double process_cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated quantile of a sorted sample.
double quantile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------- workloads

// The fault plan and capture policy the CI fleet fixture uses.
constexpr const char* kFaultPlan = "packet:drop=0.02";
constexpr std::uint64_t kFaultSeed = 7;
constexpr const char* kCapturePolicy = "on finding.confidence<=1: capture";

// One PopulationGenerator configuration and how many users of each stratum
// ("post/photos", "post/status", "post/checkin", "video", "pageload") to keep
// from its output, in user-index order. Fixed quotas keep the workload's mix
// the same for every seed; the seed picks which users fill them.
struct Slice {
  std::string network;
  long throttle_kbps = 0;
  std::string mechanism = "shaping";
  std::map<std::string, int> quota;
};

struct FleetWorkload {
  pop::AppMix mix;
  long reps_min = 0, reps_max = 0;
  long pages_min = 0, pages_max = 0;
  long videos_min = 0, videos_max = 0;
  std::vector<Slice> slices;
  std::size_t fault_every = 0;  // every Nth user gets the CI fault + policy
};

struct CellConfigRow {
  const char* network;
  double capacity_kbps;
  long throttle_kbps;
  const char* mechanism;
  int max_active_grants;
};

struct CellWorkload {
  std::vector<CellConfigRow> cells;
  int devices = 16;
  double stagger_s = 3;  // device d arrives in [d, d+1) * stagger_s
};

struct Workload {
  std::string name;
  std::size_t jobs = 1;
  bool is_cell = false;
  FleetWorkload fleet;
  CellWorkload cell;
};

std::map<std::string, int> mix_quota(int photos, int status, int checkin,
                                     int video, int pageload) {
  return {{"post/photos", photos},
          {"post/status", status},
          {"post/checkin", checkin},
          {"video", video},
          {"pageload", pageload}};
}

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "fleet-mix") {
    // Default mobile mix (social 0.4 / video 0.3 / browser 0.3) on 3G and
    // LTE, plus a throttled slice shaped on 3G and policed on LTE. The
    // throttle sits above the 500 kbps media bitrate: below it, policed
    // video sessions stall for minutes and their length varies so much
    // from user to user that the mix's totals would swing with the seed
    // (fleet-video-throttled covers that regime).
    FleetWorkload& f = w.fleet;
    f.reps_min = 2, f.reps_max = 2;
    f.pages_min = 2, f.pages_max = 2;
    f.videos_min = 1, f.videos_max = 1;
    f.slices = {{"3g", 0, "shaping", mix_quota(9, 9, 9, 21, 21)},
                {"lte", 0, "shaping", mix_quota(9, 9, 9, 21, 21)},
                {"3g", 800, "shaping", mix_quota(4, 4, 4, 10, 10)},
                {"lte", 800, "policing", mix_quota(4, 4, 4, 10, 10)}};
    f.fault_every = 10;
    w.jobs = 1;
  } else if (name == "fleet-video-throttled") {
    // Video only, throttled below the 500 kbps media bitrate; half shaping,
    // half policing, on both networks.
    FleetWorkload& f = w.fleet;
    f.mix = pop::AppMix{0, 1, 0};
    f.reps_min = 2, f.reps_max = 2;
    f.pages_min = 2, f.pages_max = 2;
    f.videos_min = 2, f.videos_max = 2;
    f.slices = {{"3g", 250, "shaping", mix_quota(0, 0, 0, 32, 0)},
                {"3g", 250, "policing", mix_quota(0, 0, 0, 32, 0)},
                {"lte", 400, "shaping", mix_quota(0, 0, 0, 32, 0)},
                {"lte", 400, "policing", mix_quota(0, 0, 0, 32, 0)}};
    w.jobs = 4;
  } else if (name == "cell-contention") {
    // Capacity-limited cells with a shared carrier throttle and an RRC grant
    // limit below the member count. Six rounds of the four configurations:
    // a cell's cost per session-hour varies about fourfold with its seed,
    // so fewer cells let the seed move the workload's figures too far.
    w.is_cell = true;
    const CellConfigRow rows[] = {{"3g", 3000, 1500, "shaping", 6},
                                  {"lte", 12000, 6000, "policing", 6},
                                  {"3g", 3000, 1500, "policing", 6},
                                  {"lte", 12000, 6000, "shaping", 6}};
    for (int round = 0; round < 6; ++round) {
      w.cell.cells.insert(w.cell.cells.end(), std::begin(rows), std::end(rows));
    }
    w.jobs = 1;
  } else {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  return w;
}

std::string stratum(const svc::ScenarioSpec& s) {
  return s.scenario == "post" ? "post/" + s.kind : s.scenario;
}

// ---------------------------------------------------------------- setup

struct Inputs {
  std::vector<svc::ScenarioSpec> specs;       // fleet workloads
  std::vector<cell::CellScenarioSpec> cells;  // cell workload
  std::size_t runs() const { return specs.empty() ? cells.size() : specs.size(); }
};

struct SetupTiming {
  double generate_s = 0;
  double parse_s = 0;
};

// pop.generate: quota-filled users from one generator per slice, serialised
// with to_json. `throttle` receives the throttle each line's slice configures.
std::vector<std::string> generate_fleet(const FleetWorkload& f,
                                        std::uint64_t seed,
                                        std::vector<long>* throttle) {
  std::vector<svc::ScenarioSpec> users;
  throttle->clear();
  for (std::size_t s = 0; s < f.slices.size(); ++s) {
    const Slice& sl = f.slices[s];
    pop::PopulationConfig cfg;
    cfg.seed = sim::Rng(seed).fork("slice-" + std::to_string(s)).seed();
    cfg.users = 100000;  // draw budget; quotas stop far earlier
    cfg.mix = f.mix;
    cfg.network = sl.network;
    cfg.throttle_kbps = sl.throttle_kbps;
    cfg.mechanism = sl.mechanism;
    cfg.reps_min = f.reps_min, cfg.reps_max = f.reps_max;
    cfg.pages_min = f.pages_min, cfg.pages_max = f.pages_max;
    cfg.videos_min = f.videos_min, cfg.videos_max = f.videos_max;
    const pop::PopulationGenerator gen(cfg);

    std::map<std::string, int> need = sl.quota;
    int left = 0;
    for (const auto& [key, n] : need) left += n;
    std::map<std::string, std::vector<svc::ScenarioSpec>> kept;
    for (std::size_t i = 0; left > 0; ++i) {
      if (i >= cfg.users) {
        throw std::runtime_error("setup: slice " + std::to_string(s) +
                                 " quotas not filled");
      }
      svc::ScenarioSpec spec = gen.user_spec(i);
      const std::string key = stratum(spec);
      auto it = need.find(key);
      if (it == need.end() || it->second == 0) continue;
      --it->second;
      --left;
      kept[key].push_back(std::move(spec));
    }
    for (auto& [key, specs] : kept) {
      for (auto& spec : specs) {
        users.push_back(std::move(spec));
        throttle->push_back(sl.throttle_kbps);
      }
    }
  }
  std::vector<std::string> lines;
  lines.reserve(users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    svc::ScenarioSpec& spec = users[i];
    if (f.fault_every > 0 && i % f.fault_every == 0) {
      spec.fault_plan = kFaultPlan;
      spec.fault_seed = kFaultSeed;
      spec.policy = kCapturePolicy;
    }
    lines.push_back(spec.to_json());
  }
  return lines;
}

std::vector<std::string> generate_cells(const CellWorkload& c,
                                        std::uint64_t seed,
                                        std::vector<long>* throttle) {
  static constexpr const char* kApps[] = {"browser", "social", "video"};
  std::vector<std::string> lines;
  throttle->clear();
  for (std::size_t i = 0; i < c.cells.size(); ++i) {
    const CellConfigRow& row = c.cells[i];
    sim::Rng rng = sim::Rng(seed).fork("cell-" + std::to_string(i));
    cell::CellScenarioSpec spec;
    spec.network = row.network;
    spec.seed = rng.fork("seed").seed();
    spec.capacity_kbps = row.capacity_kbps;
    spec.throttle_kbps = row.throttle_kbps;
    spec.mechanism = row.mechanism;
    spec.max_active_grants = row.max_active_grants;
    for (int d = 0; d < c.devices; ++d) {
      cell::CellDeviceSpec dev;
      dev.app = kApps[d % 3];
      dev.arrival_s = (d + rng.uniform()) * c.stagger_s;
      dev.actions = 1;
      dev.think_s = 10;
      spec.devices.push_back(dev);
    }
    lines.push_back(spec.to_json());
    throttle->push_back(row.throttle_kbps);
  }
  return lines;
}

// One full set-up: generate, then parse every line back (svc.parse), checking
// the byte-identical round trip and that every line parses with the throttle
// the workload configured for it.
Inputs setup(const Workload& w, std::uint64_t seed, SetupTiming* timing) {
  const double t0 = wall_now();
  std::vector<long> throttle;
  const std::vector<std::string> lines =
      w.is_cell ? generate_cells(w.cell, seed, &throttle)
                : generate_fleet(w.fleet, seed, &throttle);
  const double t1 = wall_now();

  Inputs in;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string error;
    long parsed_throttle = 0;
    std::string again;
    if (w.is_cell) {
      cell::CellScenarioSpec spec;
      if (!cell::CellScenarioSpec::parse_json(lines[i], &spec, &error)) {
        throw std::runtime_error("setup: line " + std::to_string(i) + ": " +
                                 error);
      }
      again = spec.to_json();
      parsed_throttle = spec.throttle_kbps;
      in.cells.push_back(std::move(spec));
    } else {
      svc::ScenarioSpec spec;
      if (!svc::ScenarioSpec::parse_json(lines[i], &spec, &error)) {
        throw std::runtime_error("setup: line " + std::to_string(i) + ": " +
                                 error);
      }
      again = spec.to_json();
      parsed_throttle = spec.throttle_kbps;
      in.specs.push_back(std::move(spec));
    }
    if (again != lines[i]) {
      throw std::runtime_error("setup: line " + std::to_string(i) +
                               " does not round-trip: " + lines[i]);
    }
    if (parsed_throttle != throttle[i]) {
      throw std::runtime_error("setup: line " + std::to_string(i) +
                               " parses with throttle " +
                               std::to_string(parsed_throttle) + ", configured " +
                               std::to_string(throttle[i]) + ": " + lines[i]);
    }
  }
  const double t2 = wall_now();
  timing->generate_s = t1 - t0;
  timing->parse_s = t2 - t1;
  return in;
}

// ---------------------------------------------------------------- device-hours

// Session time of one fleet run: the virtual clock idles up to the user's
// diurnal arrival before the session starts, and that idle offset costs no
// simulation work, so it is not counted.
double fleet_session_s(double virtual_s, double arrival_s) {
  return virtual_s - arrival_s;
}

// Session time of one cell run: every device's session lasts from its own
// arrival to the end of the cell's run.
double cell_session_s(double virtual_s,
                      const std::vector<cell::CellDeviceSpec>& devices) {
  double s = 0;
  for (const auto& d : devices) s += virtual_s - d.arrival_s;
  return s;
}

// Virtual device-seconds including idle arrival offsets (fleet: the run's
// clock; cell: every device's clock runs from 0).
double cell_virtual_s(double virtual_s,
                      const std::vector<cell::CellDeviceSpec>& devices) {
  return virtual_s * static_cast<double>(devices.size());
}

// ---------------------------------------------------------------- checks

// 64-bit digest of a byte stream (multiply-xorshift over 8-byte words).
class Digest {
 public:
  void update(const char* p, std::size_t n) {
    bytes_ += n;
    while (n > 0) {
      const std::size_t take = std::min<std::size_t>(8 - fill_, n);
      std::memcpy(word_ + fill_, p, take);
      fill_ += take;
      p += take;
      n -= take;
      if (fill_ == 8) {
        mix_word();
        fill_ = 0;
      }
    }
  }
  std::string hex() {
    if (fill_ > 0) {
      std::memset(word_ + fill_, 0, 8 - fill_);
      mix_word();
      fill_ = 0;
    }
    std::uint64_t h = h_ ^ bytes_;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
  }

 private:
  void mix_word() {
    std::uint64_t w = 0;
    std::memcpy(&w, word_, 8);
    w *= 0x87c37b91114253d5ULL;
    w = (w << 31) | (w >> 33);
    h_ ^= w;
    h_ = ((h_ << 27) | (h_ >> 37)) * 5 + 0x52dce729;
  }
  std::uint64_t h_ = 0x9e3779b97f4a7c15ULL;
  std::uint64_t bytes_ = 0;
  char word_[8] = {};
  std::size_t fill_ = 0;
};

struct FileScan {
  bool readable = false;
  std::size_t lines = 0;
  std::size_t bad_lines = 0;  // not a complete {...} object line
  bool unterminated = false;  // last line lacks its newline
  std::string digest;
};

// Streams a JSONL artifact: counts lines, flags any line that is not a
// complete object ("{...}"), and digests the bytes. Constant memory.
FileScan scan_jsonl(const std::string& path) {
  FileScan out;
  std::ifstream is(path, std::ios::binary);
  if (!is) return out;
  out.readable = true;
  Digest dg;
  std::vector<char> buf(1 << 20);
  char first = 0, last = 0;
  bool in_line = false;
  for (;;) {
    is.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const std::size_t n = static_cast<std::size_t>(is.gcount());
    if (n == 0) break;
    dg.update(buf.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const char ch = buf[i];
      if (ch == '\n') {
        ++out.lines;
        if (!in_line || first != '{' || last != '}') ++out.bad_lines;
        in_line = false;
        continue;
      }
      if (!in_line) {
        first = ch;
        in_line = true;
      }
      last = ch;
    }
  }
  out.unterminated = in_line;
  out.digest = dg.hex();
  return out;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::ostringstream ss;
  ss << is.rdbuf();
  *out = ss.str();
  return static_cast<bool>(is) || is.eof();
}

std::size_t count_lines(const std::string& s) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
}

// Checks one merged JSONL artifact against the line total the factory
// returned; appends a reason to *failures on any mismatch.
FileScan check_jsonl(const std::string& path, std::size_t expected_lines,
                     std::vector<std::string>* failures) {
  FileScan scan = scan_jsonl(path);
  const std::string name = fs::path(path).filename().string();
  if (!scan.readable) {
    failures->push_back(name + ": missing");
  } else if (scan.lines != expected_lines || scan.bad_lines > 0 ||
             scan.unterminated) {
    failures->push_back(name + ": " + std::to_string(scan.lines) +
                        " lines (" + std::to_string(scan.bad_lines) +
                        " malformed" + (scan.unterminated ? ", unterminated" : "") +
                        "), expected " + std::to_string(expected_lines));
  }
  return scan;
}

// ---------------------------------------------------------------- the rep

// One factory call, recorded in traced repetitions.
struct CallSpan {
  double t0 = 0, t1 = 0, cpu_s = 0;
  std::thread::id thread;
  double maxrss_mib = 0;  // process peak RSS when the call returned
};

// What the factory returned for one run. A run index is executed by one
// worker at a time, so its slot needs no lock.
struct RunRecord {
  double session_s = 0;
  double virtual_device_s = 0;
  std::size_t timeline_lines = 0;
  std::size_t findings_lines = 0;
  std::size_t captures_lines = 0;
  std::map<std::string, double> counters;  // RunResult::registry counters
  std::vector<CallSpan> calls;             // traced repetitions only
};

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  std::string out;
  bool traced = false;
  std::string trace_file;
};

class JsonOut {
 public:
  void num(const std::string& k, double v) {
    key(k);
    put(v);
  }
  void str(const std::string& k, const std::string& v) {
    key(k);
    core::put_json_string(os_, v);
  }
  void arr(const std::string& k, const std::vector<double>& v) {
    key(k);
    os_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) os_ << ',';
      put(v[i]);
    }
    os_ << ']';
  }
  void open(const std::string& k = "") {
    if (!k.empty()) key(k);
    os_ << '{';
    fresh_ = true;
  }
  void close() {
    os_ << '}';
    fresh_ = false;
  }
  std::string text() const { return os_.str(); }

 private:
  void key(const std::string& k) {
    if (!fresh_) os_ << ',';
    os_ << '"' << k << "\":";
    fresh_ = false;
  }
  void put(double v) {
    if (std::isfinite(v)) {
      core::put_json_number(os_, v);
    } else {
      os_ << "null";
    }
  }
  std::ostringstream os_;
  bool fresh_ = true;
};

double counter(const std::map<std::string, double>& c, const char* key) {
  auto it = c.find(key);
  return it == c.end() ? 0 : it->second;
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

// First key whose value differs between the maps ("" when equal).
std::string first_difference(const std::map<std::string, double>& a,
                             const std::map<std::string, double>& b) {
  for (const auto& [k, v] : a) {
    auto it = b.find(k);
    if (it == b.end() || it->second != v) return k;
  }
  for (const auto& [k, v] : b) {
    if (!a.count(k)) return k;
  }
  return "";
}

// Chrome trace ("X" complete events, microseconds from `origin`).
class TraceWriter {
 public:
  explicit TraceWriter(double origin) : origin_(origin) {}
  void span(const std::string& name, double t0, double t1, int tid,
            const std::string& args_json = "") {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f",
                  name.c_str(), tid, (t0 - origin_) * 1e6, (t1 - t0) * 1e6);
    events_.push_back(std::string(buf) +
                      (args_json.empty() ? "" : ",\"args\":" + args_json) +
                      "}");
  }
  bool write(const std::string& path) const {
    std::ofstream os(path, std::ios::binary);
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      os << (i ? ",\n" : "\n") << events_[i];
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  double origin_;
  std::vector<std::string> events_;
};

constexpr int kSetupRepeats = 15;

// The timed interval: Campaign::run entry until the last merged artifact is
// written.
struct Timed {
  core::CampaignResult result;
  double t_start = 0, t_campaign = 0, t_end = 0;
  double cpu_s = 0;
  std::vector<std::pair<std::string, double>> merge_s;  // artifact, seconds
  std::vector<std::string> failures;
};

Timed run_timed(const Workload& w, const Inputs& in, const std::string& out,
                bool traced, std::vector<RunRecord>* records) {
  // Configured as `qoed_cli fleet` configures its campaign (CLI defaults).
  core::CampaignConfig cfg;
  cfg.name = "fleet";
  cfg.runs = in.runs();
  cfg.jobs = w.jobs;
  cfg.master_seed = 1;
  cfg.max_retries = 0;
  cfg.max_run_virtual_seconds = 0;
  cfg.max_reschedules = 1;
  cfg.shard.out_dir = out;
  cfg.shard.shard_bytes = 4 << 20;
  cfg.shard.shard_runs = 0;
  cfg.shard.resume = false;

  records->assign(in.runs(), RunRecord{});
  auto factory = [&](std::uint64_t, const core::RunSpec& rs) {
    RunRecord& rec = (*records)[rs.run_index];
    const double t0 = traced ? wall_now() : 0;
    const double c0 = traced ? thread_cpu_now() : 0;
    const auto record_call = [&] {
      if (traced) {
        rec.calls.push_back({t0, wall_now(), thread_cpu_now() - c0,
                             std::this_thread::get_id(), peak_rss_mib()});
      }
    };
    core::RunResult r;
    try {
      r = w.is_cell ? cell::run_cell_scenario(in.cells[rs.run_index])
                    : svc::run_scenario(in.specs[rs.run_index], rs);
    } catch (...) {
      record_call();
      throw;
    }
    record_call();
    if (w.is_cell) {
      const auto& devices = in.cells[rs.run_index].devices;
      rec.session_s = cell_session_s(r.virtual_seconds, devices);
      rec.virtual_device_s = cell_virtual_s(r.virtual_seconds, devices);
    } else {
      rec.session_s =
          fleet_session_s(r.virtual_seconds, in.specs[rs.run_index].arrival_s);
      rec.virtual_device_s = r.virtual_seconds;
    }
    rec.timeline_lines = count_lines(r.artifacts.timeline_jsonl);
    rec.findings_lines = count_lines(r.artifacts.findings_jsonl);
    rec.captures_lines = count_lines(r.artifacts.captures_jsonl);
    rec.counters.clear();
    for (const auto& [k, v] : r.registry.counters()) rec.counters[k] = v;
    return r;
  };

  std::error_code ec;
  fs::remove_all(out, ec);
  core::Campaign campaign(cfg);
  Timed t;
  const double cpu0 = process_cpu_now();
  t.t_start = wall_now();
  t.result = campaign.run(factory);
  t.t_campaign = wall_now();
  // Merged in `qoed_cli fleet` order.
  const std::unique_ptr<core::ExportSink> sinks[] = {
      std::make_unique<core::ShardFindingsMergeSink>(out),
      std::make_unique<core::ShardTimelineMergeSink>(out),
      std::make_unique<core::ShardMetricsMergeSink>(out),
      std::make_unique<core::ShardCapturesMergeSink>(out)};
  double t_prev = t.t_campaign;
  for (const auto& sink : sinks) {
    const std::string name(sink->id());
    if (!sink->write_file(out + "/" + name)) {
      t.failures.push_back("cannot write " + name);
    }
    const double now = wall_now();
    t.merge_s.emplace_back(name, now - t_prev);
    t_prev = now;
  }
  t.t_end = wall_now();
  t.cpu_s = process_cpu_now() - cpu0;
  return t;
}

// Sums over the per-run records, in run-index order (the order the sink
// folds metrics in, so the sums are bit-comparable).
struct Totals {
  double session_s = 0, virtual_device_s = 0;
  std::size_t timeline_lines = 0, findings_lines = 0, captures_lines = 0;
  std::map<std::string, double> counters;
};

Totals total(const std::vector<RunRecord>& records) {
  Totals t;
  for (const RunRecord& rec : records) {
    t.session_s += rec.session_s;
    t.virtual_device_s += rec.virtual_device_s;
    t.timeline_lines += rec.timeline_lines;
    t.findings_lines += rec.findings_lines;
    t.captures_lines += rec.captures_lines;
    for (const auto& [k, v] : rec.counters) t.counters[k] += v;
  }
  return t;
}

// What the output directory holds: shards (<family>-NNNNNN.jsonl), the
// merged artifacts and the manifest.
struct Listing {
  std::uintmax_t bytes = 0, merged_bytes = 0;
  std::map<std::string, std::uintmax_t> shard_bytes;  // by family
  std::size_t shard_files = 0, empty_shard_files = 0;
};

Listing list_output(const std::string& out) {
  Listing l;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(out, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const std::uintmax_t size = entry.file_size();
    l.bytes += size;
    const auto dash = name.find('-');
    if (dash != std::string::npos && name.ends_with(".jsonl")) {
      ++l.shard_files;
      if (size == 0) ++l.empty_shard_files;
      l.shard_bytes[name.substr(0, dash)] += size;
    } else if (name != "MANIFEST.json") {
      l.merged_bytes += size;
    }
  }
  return l;
}

// Checks the merged artifacts against what the factory returned; fills the
// digests and the merged metrics counters.
void check_output(const std::string& out, const Totals& tot,
                  std::vector<std::string>* failures,
                  std::map<std::string, std::string>* digests,
                  std::map<std::string, double>* merged_counters) {
  const std::string d = out + "/";
  (*digests)["findings.jsonl"] =
      check_jsonl(d + "findings.jsonl", tot.findings_lines, failures).digest;
  (*digests)["timeline.jsonl"] =
      check_jsonl(d + "timeline.jsonl", tot.timeline_lines, failures).digest;
  (*digests)["captures.jsonl"] =
      check_jsonl(d + "captures.jsonl", tot.captures_lines, failures).digest;

  std::string metrics_json, error;
  obs::MetricsRegistry merged;
  if (!read_file(d + "metrics.json", &metrics_json) ||
      !merged.merge_from_json(metrics_json, &error)) {
    failures->push_back("metrics.json: unreadable " + error);
    return;
  }
  Digest dg;
  dg.update(metrics_json.data(), metrics_json.size());
  (*digests)["metrics.json"] = dg.hex();
  // campaign.* outcome and log.* tallies are added by the campaign around
  // the factory call, not by the run.
  std::map<std::string, double> run_keys;
  for (const auto& [k, v] : merged.counters()) {
    (*merged_counters)[k] = v;
    if (k.rfind("campaign.", 0) != 0 && k.rfind("log.", 0) != 0) {
      run_keys[k] = v;
    }
  }
  const std::string diff = first_difference(tot.counters, run_keys);
  if (!diff.empty()) {
    failures->push_back("metrics.json counters differ from the per-run "
                        "registries (first: " + diff + ")");
  }
}

// Negative self-test: truncates the merged timeline's last line; the check
// that passed it must now fail. True when it does.
bool truncation_detected(const std::string& out, std::size_t timeline_lines) {
  const std::string path = out + "/timeline.jsonl";
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec || size < 2) return false;
  fs::resize_file(path, size - 2, ec);
  std::vector<std::string> probe;
  check_jsonl(path, timeline_lines, &probe);
  return !ec && !probe.empty();
}

// Deterministic per-layer counts: registry sums and shard bytes. They must
// repeat exactly across repetitions of one seed.
void put_counts(JsonOut& j, std::size_t runs, const Totals& tot,
                const Listing& l,
                const std::map<std::string, double>& merged_counters) {
  const double dh = tot.session_s / 3600.0;
  const auto& c = tot.counters;
  j.open("counts");
  j.num("svc.run_s.n", static_cast<double>(runs));
  j.num("core.shard.files", static_cast<double>(l.shard_files));
  j.num("core.shard.empty_files", static_cast<double>(l.empty_shard_files));
  for (const char* fam : {"findings", "timeline", "metrics", "captures"}) {
    auto it = l.shard_bytes.find(fam);
    const double bytes =
        it == l.shard_bytes.end() ? 0 : static_cast<double>(it->second);
    j.num(std::string("core.shard.") + fam + "_mb_per_dh",
          ratio(bytes / 1e6, dh));
  }
  j.num("core.merge.mb_per_dh",
        ratio(static_cast<double>(l.merged_bytes) / 1e6, dh));
  for (const char* key :
       {"collector.ui.events", "collector.packet.events", "flow.segments",
        "flow.retx_segments", "flow.rto_events", "collector.radio.events",
        "rlc.ul.packets", "rlc.dl.packets", "rlc.refolds", "diag.findings",
        "fault.packet.offered", "ctrl.captures", "cell.gate.dropped_packets",
        "cell.sched.queue_delay_s", "cell.rrc.delayed_promotions"}) {
    j.num(key, counter(c, key));
  }
  j.num("flow.goodput_frac", ratio(counter(c, "flow.bytes_acked"),
                                   counter(c, "flow.bytes_sent")));
  j.num("collector.radio.drop_frac",
        ratio(counter(c, "collector.radio.dropped"),
              counter(c, "collector.radio.events") +
                  counter(c, "collector.radio.dropped")));
  j.num("rlc.ul.mapped_frac",
        ratio(counter(c, "rlc.ul.mapped"), counter(c, "rlc.ul.packets")));
  j.num("rlc.dl.mapped_frac",
        ratio(counter(c, "rlc.dl.mapped"), counter(c, "rlc.dl.packets")));
  j.num("diag.degraded_frac", ratio(counter(c, "diag.degraded_findings"),
                                    counter(c, "diag.findings")));
  j.num("campaign.attempts_per_run",
        ratio(counter(merged_counters, "campaign.run_attempts"),
              static_cast<double>(runs)));
  j.close();
}

// Span-derived per-layer timings of a traced repetition.
void put_layers(JsonOut& j, const Workload& w, const Inputs& in,
                const std::vector<RunRecord>& records, const Timed& t,
                const Totals& tot, const std::vector<double>& generate_s,
                const std::vector<double>& parse_s) {
  j.open("layers");
  j.num("pop.generate_s", median(generate_s));
  j.num("svc.parse_s", median(parse_s));

  // A run's wall is the sum over its factory calls.
  std::vector<double> run_wall;
  std::map<std::string, double> by_kind = {
      {"pageload", 0}, {"post", 0}, {"video", 0}, {"cell", 0}};
  double run_sum = 0, cpu_sum = 0;
  std::map<std::thread::id, std::vector<std::pair<double, double>>> by_thread;
  for (std::size_t i = 0; i < records.size(); ++i) {
    double wall = 0;
    for (const CallSpan& c : records[i].calls) {
      wall += c.t1 - c.t0;
      cpu_sum += c.cpu_s;
      by_thread[c.thread].push_back({c.t0, c.t1});
    }
    run_wall.push_back(wall);
    run_sum += wall;
    by_kind[w.is_cell ? "cell" : in.specs[i].scenario] += wall;
  }
  std::sort(run_wall.begin(), run_wall.end());
  // Highest percentile of {99, 95, 90, 75} with at least ten runs beyond
  // it; the maximum when there are fewer than forty runs (p50 is reported
  // on its own).
  const double runs = static_cast<double>(records.size());
  double tail_q = 1.0;
  for (double q : {0.99, 0.95, 0.9, 0.75}) {
    if (runs * (1 - q) >= 10) {
      tail_q = q;
      break;
    }
  }
  j.num("svc.run_s.sum", run_sum);
  j.num("svc.run_s.p50", quantile_sorted(run_wall, 0.5));
  j.num("svc.run_s.tail", quantile_sorted(run_wall, tail_q));
  j.num("svc.run_s.tail_q", tail_q);
  for (const auto& [kind, s] : by_kind) j.num("svc.run_s." + kind, s);
  j.num("svc.run_cpu_s.sum", cpu_sum);
  j.num("svc.run_wait_frac", 1 - ratio(cpu_sum, run_sum));
  const double events = counter(tot.counters, "collector.ui.events") +
                        counter(tot.counters, "collector.packet.events") +
                        counter(tot.counters, "collector.radio.events");
  j.num("svc.events_per_cpu_s", ratio(events, cpu_sum));

  // Worker self time: the gaps between consecutive run spans on a thread
  // plus the tail to Campaign::run's return.
  const double campaign_wall = t.t_campaign - t.t_start;
  double self_s = 0;
  for (auto& [tid, spans] : by_thread) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t k = 1; k < spans.size(); ++k) {
      self_s += spans[k].first - spans[k - 1].second;
    }
    self_s += t.t_campaign - spans.back().second;
  }
  j.num("core.campaign.wall_s", campaign_wall);
  j.num("core.campaign.self_s", self_s);
  j.num("core.campaign.worker_busy_frac",
        ratio(run_sum, static_cast<double>(t.result.jobs) * campaign_wall));
  for (const auto& [name, s] : t.merge_s) {
    j.num("core.merge." + name.substr(0, name.find('.')) + "_s", s);
  }
  j.close();
}

void add_run_spans(TraceWriter& trace, const Workload& w, const Inputs& in,
                   const std::vector<RunRecord>& records, const Timed& t) {
  trace.span("core.campaign.run", t.t_start, t.t_campaign, 0,
             "{\"runs\":" + std::to_string(records.size()) + "}");
  std::map<std::thread::id, int> tids;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& cnt = records[i].counters;
    for (const CallSpan& c : records[i].calls) {
      const int tid = tids.emplace(c.thread, static_cast<int>(tids.size()) + 1)
                          .first->second;
      char args[512];
      std::snprintf(
          args, sizeof args,
          "{\"run\":%zu,\"scenario\":\"%s\",\"network\":\"%s\","
          "\"session_s\":%.3f,\"maxrss_mib\":%.1f,\"cpu_s\":%.6f,"
          "\"collector.ui.events\":%.0f,\"collector.packet.events\":%.0f,"
          "\"collector.radio.events\":%.0f,\"diag.findings\":%.0f}",
          i, w.is_cell ? "cell" : stratum(in.specs[i]).c_str(),
          w.is_cell ? in.cells[i].network.c_str()
                    : in.specs[i].network.c_str(),
          records[i].session_s, c.maxrss_mib, c.cpu_s,
          counter(cnt, "collector.ui.events"),
          counter(cnt, "collector.packet.events"),
          counter(cnt, "collector.radio.events"),
          counter(cnt, "diag.findings"));
      trace.span("svc.run_scenario", c.t0, c.t1, tid, args);
    }
  }
  double t0 = t.t_campaign;
  for (const auto& [name, s] : t.merge_s) {
    trace.span("core.merge." + name.substr(0, name.find('.')), t0, t0 + s, 0);
    t0 += s;
  }
}

int run_rep(const Options& opt) {
  const Workload w = make_workload(opt.workload);
  TraceWriter trace(wall_now());

  // Set-up, repeated; the last repetition's inputs are run.
  std::vector<double> setup_s, generate_s, parse_s;
  Inputs in;
  for (int k = 0; k < kSetupRepeats; ++k) {
    SetupTiming st;
    const double t0 = wall_now();
    in = setup(w, opt.seed, &st);
    const double t1 = wall_now();
    setup_s.push_back(t1 - t0);
    generate_s.push_back(st.generate_s);
    parse_s.push_back(st.parse_s);
    if (opt.traced) {
      trace.span("setup", t0, t1, 0);
      trace.span("pop.generate", t0, t0 + st.generate_s, 0);
      trace.span("svc.parse", t0 + st.generate_s,
                 t0 + st.generate_s + st.parse_s, 0);
    }
  }
  const std::size_t runs = in.runs();

  std::vector<RunRecord> records;
  Timed t = run_timed(w, in, opt.out, opt.traced, &records);

  // After the timed interval: totals, listing, checks, digests.
  const Totals tot = total(records);
  const Listing listing = list_output(opt.out);
  std::vector<std::string>& failures = t.failures;
  std::map<std::string, std::string> digests;
  std::map<std::string, double> merged_counters;
  if (failures.empty()) {
    check_output(opt.out, tot, &failures, &digests, &merged_counters);
    if (!truncation_detected(opt.out, tot.timeline_lines)) {
      failures.push_back("a truncated timeline line passed the check");
    }
  }
  std::error_code ec;
  fs::remove_all(opt.out, ec);
  // The merged artifacts cover every run, so a failed output check fails
  // them all.
  const std::size_t failed_runs =
      failures.empty() ? t.result.failed_runs() : runs;
  if (!t.result.quarantined.empty()) {
    failures.push_back(std::to_string(t.result.quarantined.size()) +
                       " runs quarantined");
  }

  JsonOut j;
  j.open();
  j.str("workload", w.name);
  j.num("seed", static_cast<double>(opt.seed));
  j.num("traced", opt.traced ? 1 : 0);
  j.num("runs", static_cast<double>(runs));
  j.num("jobs", static_cast<double>(t.result.jobs));
  j.num("runs_failed", static_cast<double>(failed_runs));
  j.arr("setup_s", setup_s);
  j.num("session_s", tot.session_s);
  j.num("virtual_s", tot.virtual_device_s);
  j.num("wall_s", t.t_end - t.t_start);
  j.num("cpu_s", t.cpu_s);
  j.num("artifact_bytes", static_cast<double>(listing.bytes));
  j.open("digests");
  for (const auto& [k, v] : digests) j.str(k, v);
  j.close();
  std::string all;
  for (const auto& f : failures) all += (all.empty() ? "" : "; ") + f;
  j.str("failures", all);
  put_counts(j, runs, tot, listing, merged_counters);
  if (opt.traced) {
    put_layers(j, w, in, records, t, tot, generate_s, parse_s);
    if (!opt.trace_file.empty()) {
      add_run_spans(trace, w, in, records, t);
      if (!trace.write(opt.trace_file)) {
        std::fprintf(stderr, "fleetbench: cannot write %s\n",
                     opt.trace_file.c_str());
      }
    }
  }
  j.close();
  std::printf("%s\n", j.text().c_str());
  std::fflush(stdout);
  return 0;
}

// ---------------------------------------------------------------- selftest

int run_selftest() {
  int bad = 0;
  const auto expect = [&bad](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++bad;
    }
  };

  // Two-run fixture: a fleet run idling 3600 s to its arrival before a
  // 100 s session, and a two-device cell ending at 60 s with arrivals 0 and
  // 10 s. Session time counts 100 + (60 + 50) = 210 s; virtual time counts
  // the idle arrival offset too: 3700 + 2 * 60 = 3820 s.
  std::vector<cell::CellDeviceSpec> devs(2);
  devs[0].arrival_s = 0;
  devs[1].arrival_s = 10;
  const double session = fleet_session_s(3700, 3600) + cell_session_s(60, devs);
  const double virt = 3700 + cell_virtual_s(60, devs);
  expect(session == 210, "session seconds of the two-run fixture");
  expect(virt == 3820, "virtual seconds of the two-run fixture");
  expect(std::fabs(session / 3600.0 - 0.058333333333333334) < 1e-15,
         "session device-hours of the two-run fixture");

  std::printf("selftest: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

bool parse_options(int argc, char** argv, Options* opt) {
  if (argc < 2 || (argc - 2) % 2 != 0) return false;
  opt->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      opt->workload = v;
    } else if (k == "--seed") {
      opt->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--out") {
      opt->out = v;
    } else if (k == "--traced") {
      opt->traced = v == "1";
    } else if (k == "--trace-file") {
      opt->trace_file = v;
    } else {
      return false;
    }
  }
  return opt->mode != "rep" || !opt->out.empty();
}

}  // namespace
}  // namespace qoed::fleetbench

int main(int argc, char** argv) {
  using namespace qoed::fleetbench;
  // Cell runs read a fault plan from the environment; the benchmark's inputs
  // must come from the seed alone.
  unsetenv("QOED_FAULT_PLAN");
  Options opt;
  if (!parse_options(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: fleetbench rep --workload NAME --seed N --out DIR "
                 "[--traced 1] [--trace-file F]\n"
                 "       fleetbench selftest\n");
    return 2;
  }
  try {
    if (opt.mode == "selftest") return run_selftest();
    if (opt.mode == "rep") return run_rep(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "fleetbench: unknown mode %s\n", opt.mode.c_str());
  return 2;
}
