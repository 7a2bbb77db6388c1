// qoed_cli — command-line front end for the simulated QoE Doctor.
//
// Runs one measurement scenario end-to-end and prints the multi-layer
// analysis; optionally exports the device trace as pcap and the radio log
// as QxDM-style text.
//
//   qoed_cli pageload --network=3g --pages=5 --think=20 --pcap=trace.pcap
//   qoed_cli post     --network=lte --kind=photos --reps=10
//   qoed_cli video    --network=lte --throttle=250 --mechanism=policing
//   qoed_cli merge    --out=all.jsonl phone1.jsonl phone2.jsonl
//   qoed_cli merge    --summary --findings=findings.jsonl phone1.jsonl ...
//   qoed_cli merge    --summary --merged --findings=f.jsonl timeline.jsonl
//   qoed_cli cell     --devices=8 --app=video --capacity=2000 --throttle=250
//   qoed_cli pop      --users=500 --mix=0.4,0.3,0.3 --out=specs.jsonl
//   qoed_cli fleet    --specs=runs.jsonl --jobs=8 --out-dir=fleet/
//   qoed_cli serve    --jobs=4 --out-dir=serve/
//   qoed_cli top      --shards=fleet/          (or --socket=serve.sock)
//   qoed_cli metrics-diff baseline.json current.json --tol=net.=1e-6
//   qoed_cli trace-report trace.json --top=5
//
// Options:
//   --network=wifi|3g|3g-simplified|lte   access network     [3g]
//   --seed=N                              simulation seed    [1]
//   --pcap=FILE                           write libpcap capture
//   --qxdm=FILE                           write QxDM-style text log
//   --timeline=FILE                       write merged cross-layer JSONL
//   --counters                            print collection-spine counters
//   --diagnose                            print the live diagnosis
//                                         findings (diagnosis always runs)
//   --findings=FILE                       write findings JSONL (implies
//                                         --diagnose)
//   --fault-plan=SPEC                     inject capture faults (see
//                                         fault/fault_plan.h grammar, e.g.
//                                         "packet:drop=0.02;radio:blackout=5..8")
//   --fault-seed=N                        fault stream seed  [1]
//   --trace=FILE                          write Chrome trace-event JSON
//                                         (load in Perfetto / about:tracing)
//   --metrics=FILE                        write metrics-registry JSON and
//                                         print the metrics table
//   --policy=RULES                        closed-loop control policy (see
//                                         ctrl/policy.h grammar, e.g.
//                                         "on finding.confidence<0.8: capture";
//                                         implies --diagnose)
//   --captures=FILE                       write policy capture slices JSONL
//   pageload: --pages=N [5]  --think=SECONDS [20]
//   post:     --kind=status|checkin|photos [status]  --reps=N [10]
//   video:    --videos=N [3] --throttle=KBPS [0=off]
//             --mechanism=shaping|policing [shaping]
//             pageload|post|video flags become a svc::ScenarioSpec run by
//             the fleet's own pipeline and checked like spec JSON: an
//             unknown flag or a bad value exits 2.
//   merge:    per-device timeline JSONL files; --out=FILE [stdout]
//             --strict: exit nonzero if any line was quarantined or
//             out of order
//             --summary: per-device rollup table (line/finding counts,
//             latency medians; join findings with --findings=FILE)
//             --merged: the single input is already merged/stamped
//             (a cell or fleet timeline.jsonl) — summarize as-is
//   fleet:    batch campaign over one ScenarioSpec JSON per line of --specs,
//             sharded (constant-memory) under --out-dir. The merged
//             findings.jsonl / timeline.jsonl / metrics.json /
//             captures.jsonl land beside the shards, byte-identical at any
//             --jobs. --resume continues a killed fleet; --merge-only just
//             rebuilds the merged artifacts from an existing shard dir.
//             Exits 1 when a merged artifact cannot be written (e.g. a
//             manifest-listed shard is missing).
//   serve:    long-lived scheduler; line-delimited JSON commands
//             (submit/status/drain/shutdown) on stdin or --socket=PATH.
//             Takes fleet's campaign flags (not --specs, --resume,
//             --merge-only or --json). See src/svc/serve.h for the
//             protocol.
//   top:      fleet summary (runs committed/quarantined/rescheduled,
//             finding counts, flow.* headline rates, shard frontier) from a
//             shard directory (--shards=DIR) or a live serve session
//             (--socket=PATH, sends {"cmd":"stats"}).
//   metrics-diff: compare two metrics.json snapshots; exit 4 when a key
//             drifted beyond tolerance, disappeared, or (unless
//             --allow-new-keys) appeared (the CI metrics gate).
//   trace-report: diag windows x fault/ctrl instants from a --trace file,
//             plus the --top=K slowest windows with peak flow counters.
//
// Every command checks its flags against its own table before reading
// one: an unknown flag, a positional argument to a command that takes no
// files, or a malformed number exits 2 without running anything.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cell/cell_run.h"
#include "core/export_sink.h"
#include "core/json_util.h"
#include "core/qoe_doctor.h"
#include "core/shard.h"
#include "core/speed_index.h"
#include "core/timeline_merge.h"
#include "ctrl/policy_engine.h"
#include "diag/diagnosis_engine.h"
#include "diag/findings_sink.h"
#include "fault/fault_injector.h"
#include "obs/metrics_diff.h"
#include "obs/trace_report.h"
#include "pop/population.h"
#include "sim/log.h"
#include "svc/run_spec.h"
#include "svc/serve.h"

namespace {

using namespace qoed;

// A complete non-negative integer.
bool parse_count(std::string_view text, std::uint64_t* out) {
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && stop == end;
}

// A complete non-negative finite number.
bool parse_number(std::string_view text, double* out) {
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && stop == end && std::isfinite(*out) &&
         *out >= 0;
}

struct Options {
  std::string command;
  std::map<std::string, std::string> kv;
  std::vector<std::string> positional;

  std::string get(const std::string& key, const std::string& def) const {
    auto it = kv.find(key);
    return it == kv.end() ? def : it->second;
  }
  // The value of a count or number flag, whose syntax check_flags vetted.
  std::uint64_t count(const std::string& key, std::uint64_t def) const {
    auto it = kv.find(key);
    if (it != kv.end()) parse_count(it->second, &def);
    return def;
  }
  double number(const std::string& key, double def) const {
    auto it = kv.find(key);
    if (it != kv.end()) parse_number(it->second, &def);
    return def;
  }
};

Options parse(int argc, char** argv) {
  Options opt;
  if (argc >= 2) opt.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      opt.positional.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      opt.kv[arg] = "1";
    } else {
      opt.kv[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  return opt;
}

bool run_sink(const core::ExportSink& sink, const std::string& path) {
  if (!sink.write_file(path)) {
    std::printf("FAILED to write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s to %s\n", std::string(sink.id()).c_str(),
              path.c_str());
  return true;
}

// Writes `content` to `path` and reports it as "wrote <what> to <path>".
bool write_text(const std::string& path, const std::string& content,
                const std::string& what) {
  std::ofstream os(path, std::ios::binary);
  os.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!os) {
    std::printf("FAILED to write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s to %s\n", what.c_str(), path.c_str());
  return true;
}

// What a flag takes: any text, a non-negative integer, a non-negative
// finite number, or a ScenarioSpec field (its spec JSON key is the flag
// with '_' for '-'), which ScenarioSpec::parse_json checks.
enum class FlagValue { kText, kCount, kNumber, kSpec };
using enum FlagValue;
struct FlagSpec {
  std::string_view name;
  FlagValue value;
};

// pageload|post|video: the ScenarioSpec fields, then the flags that only
// choose what the printer shows.
constexpr FlagSpec kSingleFlags[] = {
    {"network", kSpec},   {"seed", kSpec},       {"pages", kSpec},
    {"think", kSpec},     {"kind", kSpec},       {"reps", kSpec},
    {"videos", kSpec},    {"throttle", kSpec},   {"mechanism", kSpec},
    {"fault-plan", kSpec}, {"fault-seed", kSpec}, {"policy", kSpec},
    {"pcap", kText},      {"qxdm", kText},       {"timeline", kText},
    {"counters", kCount}, {"diagnose", kCount},  {"findings", kText},
    {"trace", kText},     {"metrics", kText},    {"captures", kText}};

// The campaign settings fleet and serve share (campaign_config reads
// them), then each command's own. fleet's --resume and --merge-only read
// as 1 when given bare.
constexpr FlagSpec kCampaignFlags[] = {
    {"out-dir", kText},         {"jobs", kCount},
    {"master-seed", kCount},    {"retries", kCount},
    {"max-virtual-s", kNumber}, {"max-reschedules", kCount},
    {"shard-bytes", kCount},    {"shard-runs", kCount}};
constexpr FlagSpec kFleetFlags[] = {
    {"specs", kText}, {"resume", kCount}, {"merge-only", kCount},
    {"json", kText}};
constexpr FlagSpec kServeFlags[] = {{"socket", kText}};

constexpr FlagSpec kMergeFlags[] = {
    {"out", kText},     {"strict", kCount}, {"summary", kCount},
    {"findings", kText}, {"shards", kText}, {"merged", kCount}};
constexpr FlagSpec kCellFlags[] = {
    {"spec-file", kText}, {"app", kText},        {"devices", kCount},
    {"stagger", kNumber}, {"network", kText},    {"seed", kCount},
    {"capacity", kNumber}, {"throttle", kCount}, {"mechanism", kText},
    {"grants", kCount},   {"actions", kCount},   {"timeline", kText},
    {"findings", kText}};
// pop's --network, --throttle and --mechanism are carried into every
// emitted spec, so the spec parser checks them.
constexpr FlagSpec kPopFlags[] = {
    {"seed", kCount},     {"users", kCount},    {"days", kCount},
    {"network", kSpec},   {"throttle", kSpec},  {"mechanism", kSpec},
    {"diurnal", kText},   {"mix", kText},       {"begin", kCount},
    {"end", kCount},      {"out", kText}};
constexpr FlagSpec kTopFlags[] = {{"shards", kText}, {"socket", kText}};
constexpr FlagSpec kMetricsDiffFlags[] = {
    {"tol", kText}, {"default-tol", kNumber}, {"allow-new-keys", kCount}};
constexpr FlagSpec kTraceReportFlags[] = {{"top", kCount}};

const FlagSpec* find_flag(std::span<const FlagSpec> flags,
                          std::string_view name) {
  const auto it =
      std::find_if(flags.begin(), flags.end(),
                   [name](const FlagSpec& f) { return f.name == name; });
  return it == flags.end() ? nullptr : &*it;
}

// Writes the kSpec flags of `flags` as a spec JSON object and parses it, so
// they pass the same checks a fleet or serve spec does. The others are
// skipped: check_flags has vetted them.
bool spec_from_flags(const Options& opt, std::span<const FlagSpec> flags,
                     svc::ScenarioSpec* spec, std::string* error) {
  std::ostringstream json;
  json << '{';
  const char* sep = "";
  for (const auto& [flag, value] : opt.kv) {
    const FlagSpec* f = find_flag(flags, flag);
    if (f == nullptr || f->value != kSpec) continue;
    std::string key = flag;
    std::replace(key.begin(), key.end(), '-', '_');
    json << sep << '"' << key << "\":";
    sep = ",";
    // A number goes in bare, anything else as a string; the parser then
    // rejects either one where the key wants the other.
    double number = 0;
    if (parse_number(value, &number)) {
      json << value;
    } else {
      core::put_json_string(json, value);
    }
  }
  json << '}';
  return svc::ScenarioSpec::parse_json(json.str(), spec, error);
}

void report_policy(const ctrl::PolicyEngine* policy, const Options& opt) {
  if (policy == nullptr) return;
  for (const ctrl::Decision& d : policy->decisions()) {
    std::printf("ctrl %s @%.3fs on %s\n", ctrl::to_string(d.action),
                d.at.seconds(), d.condition.c_str());
  }
  if (policy->abort_requested()) std::printf("ctrl: run aborted by policy\n");
  if (policy->reschedule_requested()) {
    std::printf("ctrl: reschedule requested (%s) — fleet/serve rerun the "
                "spec with a ctrl reseed\n",
                policy->reschedule_reason().c_str());
  }
  const std::string captures = opt.get("captures", "");
  if (!captures.empty()) {
    write_text(captures, policy->captures_jsonl(),
               std::to_string(policy->capture_count()) + " capture slices");
  }
}

// Diagnosis always runs; --diagnose (or --findings / --policy, which imply
// it) prints its findings table.
void report_diagnosis(core::QoeDoctor& doctor, const Options& opt) {
  const std::string findings = opt.get("findings", "");
  if (opt.count("diagnose", 0) == 0 && findings.empty() &&
      opt.get("policy", "").empty()) {
    return;
  }
  diag::DiagnosisEngine& engine = *doctor.diagnosis();
  engine.findings_table().print();
  // Whole-run view of the streaming long-jump mapper backing the rlc
  // column: per-direction anchoring quality plus retransmission totals.
  if (diag::RlcChainTracker* rlc = engine.rlc_tracker()) {
    rlc->sync();
    const auto line = [&](const char* name, net::Direction d) {
      const core::MappingResult& r = rlc->result(d);
      if (r.packets.empty()) {
        std::printf("rlc %s: mapped n/a (no packets)\n", name);
        return;
      }
      std::printf("rlc %s: mapped %.2f%% (%zu/%zu), %zu retx PDUs\n", name,
                  rlc->mapped_ratio(d) * 100, r.mapped_count,
                  r.packets.size(), r.retx_pdus);
    };
    line("UL", net::Direction::kUplink);
    line("DL", net::Direction::kDownlink);
    if (rlc->corrupt_pdus() > 0) {
      std::printf("rlc: %zu corrupt PDU records dropped\n",
                  rlc->corrupt_pdus());
    }
  }
  if (!findings.empty()) run_sink(diag::FindingsJsonlSink(engine), findings);
}

// Everything after the run's epilogue: diagnosis and policy reports, then
// the requested exports. --metrics writes the run's own registry, the one a
// fleet run of the same spec merges, plus the log.* counters a campaign
// adds per run.
void export_artifacts(svc::ScenarioRun& run, const core::RunResult& result,
                      const Options& opt) {
  device::Device& dev = run.device();
  core::QoeDoctor& doctor = run.doctor();
  report_diagnosis(doctor, opt);
  report_policy(run.policy(), opt);
  const std::string pcap = opt.get("pcap", "");
  if (!pcap.empty()) run_sink(core::PcapSink(dev.trace().records()), pcap);
  const std::string qxdm = opt.get("qxdm", "");
  if (!qxdm.empty() && dev.cellular() != nullptr) {
    run_sink(core::QxdmTextSink(dev.cellular()->qxdm()), qxdm);
  }
  const std::string timeline = opt.get("timeline", "");
  if (!timeline.empty()) {
    run_sink(core::TimelineJsonlSink(doctor.collector()), timeline);
  }
  if (opt.count("counters", 0) != 0) {
    doctor.collector().counters_table().print();
    if (run.injector() != nullptr) run.injector()->counters_table().print();
  }
  const std::string metrics = opt.get("metrics", "");
  if (!metrics.empty()) {
    obs::MetricsRegistry reg = result.registry;
    const sim::LogCounts& logs = sim::Logger::thread_counts();
    reg.add_counter("log.warn", logs.warn);
    reg.add_counter("log.error", logs.error);
    core::metrics_table(reg).print();
    run_sink(core::MetricsJsonSink(reg), metrics);
  }
  const std::string trace = opt.get("trace", "");
  if (!trace.empty()) {
    run_sink(core::TraceEventSink(doctor.obs().tracer, "device:" + dev.name()),
             trace);
  }
}

void print_radio_summary(svc::ScenarioRun& run) {
  device::Device& dev = run.device();
  if (dev.cellular() == nullptr) return;
  const sim::TimePoint end = dev.loop().now();
  radio::CellularLink& cell = *dev.cellular();
  const diag::RrcStateTracker rrc(cell.qxdm(), cell.config().rrc);
  const auto mapped_pct = [&](net::Direction dir) {
    return core::RlcMapper::map(dev.trace().records(), cell.qxdm().pdu_log(),
                                dir)
               .mapped_ratio() *
           100;
  };
  std::printf("radio: %lu promotions, energy %.1f J, mapping UL %.1f%% / DL "
              "%.1f%%\n",
              static_cast<unsigned long>(cell.rrc().promotions()),
              rrc.energy_joules(sim::kTimeZero, end),
              mapped_pct(net::Direction::kUplink),
              mapped_pct(net::Direction::kDownlink));
}

void print_page_loads(svc::ScenarioRun& run, const svc::ScenarioSpec& spec) {
  core::Table t("page loads (" + spec.network + ")",
                {"url", "latency (s)", "speed index (s)"});
  const core::AppBehaviorLog& log = run.doctor().log();
  for (const auto& rec : log.for_action("page_load")) {
    const auto si = core::compute_speed_index(run.device().screen(),
                                              core::QoeWindow::of(rec));
    t.add_row({rec.metadata.at("url"),
               core::Table::num(sim::to_seconds(
                   core::AppLayerAnalyzer::calibrate(rec))),
               core::Table::num(si.speed_index_s)});
  }
  t.print();
  const core::Summary s = core::AppLayerAnalyzer::summarize(log, "page_load");
  std::printf("\nmean %.2fs, stddev %.2fs over %zu pages\n", s.mean, s.stddev,
              s.n);
}

void print_posts(svc::ScenarioRun& run, const svc::ScenarioSpec& spec) {
  core::Table t("upload_post:" + spec.kind + " (" + spec.network + ")",
                {"#", "total (s)", "device (s)", "network (s)",
                 "net critical path"});
  int i = 0;
  for (const auto& rec : run.posts()) {
    const auto split =
        core::device_network_split(run.doctor().flows(), rec, "facebook");
    t.add_row({std::to_string(++i), core::Table::num(split.total_s),
               core::Table::num(split.device_s),
               core::Table::num(split.network_s),
               split.network_on_critical_path ? "yes" : "no"});
  }
  t.print();
}

void print_videos(svc::ScenarioRun& run, const svc::ScenarioSpec& spec) {
  core::Table t("video playback (" + spec.network + ", throttle " +
                    std::to_string(spec.throttle_kbps) + " kbps " +
                    spec.mechanism + ")",
                {"video", "init load (s)", "stalls", "rebuf ratio"});
  for (const core::VideoWatchResult& r : run.videos()) {
    t.add_row({r.video_id,
               core::Table::num(sim::to_seconds(
                   core::AppLayerAnalyzer::calibrate(r.initial_loading))),
               std::to_string(r.stalls.size()),
               core::Table::pct(r.rebuffering_ratio())});
  }
  t.print();
}

// pageload|post|video: the flags become a ScenarioSpec, run as a
// svc::ScenarioRun (the fleet's own pipeline), then printed.
int run_single(const Options& opt) {
  svc::ScenarioSpec spec;
  std::string error;
  if (!spec_from_flags(opt, kSingleFlags, &spec, &error)) {
    std::printf("%s: %s\n", opt.command.c_str(), error.c_str());
    return 2;
  }
  spec.scenario = opt.command;
  svc::ScenarioRun run(spec, !opt.get("trace", "").empty());
  run.execute();
  if (spec.scenario == "pageload") {
    print_page_loads(run, spec);
  } else if (spec.scenario == "post") {
    print_posts(run, spec);
  } else {
    print_videos(run, spec);
  }
  print_radio_summary(run);
  const core::RunResult result = run.finish();
  export_artifacts(run, result, opt);
  return 0;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream content;
  content << in.rdbuf();
  *out = content.str();
  return true;
}

// --shards=DIR: join the --summary rollup with the per-run reaction
// outcomes recorded in a fleet/serve shard directory — rescheduled and
// quarantined counts keyed by the same run-N device label the summary uses.
// False when the directory's metrics shards cannot be replayed.
bool print_reaction_outcomes(const Options& opt) {
  const std::string shards = opt.get("shards", "");
  if (shards.empty()) return true;
  std::map<std::string, core::RunOutcomeCounts> outcomes;
  std::string error;
  if (!core::read_run_outcomes(shards, &outcomes, &error)) {
    std::printf("merge: %s\n", error.c_str());
    return false;
  }
  std::size_t rescheduled = 0;
  std::size_t quarantined = 0;
  for (const auto& [device, c] : outcomes) {
    rescheduled += c.rescheduled;
    quarantined += c.quarantined;
    if (c.rescheduled == 0 && c.quarantined == 0) continue;
    std::printf("reactions %s: rescheduled=%zu quarantined=%zu\n",
                device.c_str(), c.rescheduled, c.quarantined);
  }
  std::printf("reactions total: %zu runs, rescheduled=%zu quarantined=%zu\n",
              outcomes.size(), rescheduled, quarantined);
  return true;
}

// Per-device rollup of a merged timeline, joined with a stamped findings
// stream (--findings=FILE, e.g. a fleet's findings.jsonl or a cell run's
// per-device stamped export) for counts and latency medians.
int print_summary(const Options& opt, const std::string& merged) {
  std::string findings;
  const std::string findings_path = opt.get("findings", "");
  if (!findings_path.empty() && !read_file(findings_path, &findings)) {
    std::printf("merge: cannot read %s\n", findings_path.c_str());
    return 1;
  }
  std::ostringstream table;
  core::print_merged_summary(table, core::summarize_merged(merged, findings));
  std::fputs(table.str().c_str(), stdout);
  return print_reaction_outcomes(opt) ? 0 : 1;
}

// Interleaves per-device timeline JSONL files (written via --timeline) into
// one stream ordered by (t, device, seq); the device label is the file's
// basename without extension.
int run_merge(const Options& opt) {
  // --merged: the single input is an ALREADY-merged stream (a cell run's or
  // fleet's timeline.jsonl) whose lines carry device/run labels — pass it
  // through unstamped instead of re-labeling it by filename.
  if (opt.count("merged", 0) != 0) {
    if (opt.positional.size() != 1) {
      std::printf("merge: --merged takes exactly one input file\n");
      return 2;
    }
    std::string content;
    if (!read_file(opt.positional[0], &content)) {
      std::printf("cannot read %s\n", opt.positional[0].c_str());
      return 1;
    }
    return print_summary(opt, content);
  }

  std::vector<core::DeviceTimeline> inputs;
  for (const std::string& path : opt.positional) {
    std::string content;
    if (!read_file(path, &content)) {
      std::printf("cannot read %s\n", path.c_str());
      return 1;
    }
    std::string device = path;
    const auto slash = device.find_last_of('/');
    if (slash != std::string::npos) device = device.substr(slash + 1);
    const auto dot = device.rfind('.');
    if (dot != std::string::npos && dot > 0) device = device.substr(0, dot);
    inputs.push_back({device, std::move(content)});
  }
  if (inputs.empty()) {
    std::printf("merge: no input timelines given\n");
    return 2;
  }
  const core::TimelineMergeResult result = core::merge_timelines_checked(inputs);
  bool dirty = false;
  for (const core::TimelineMergeStats& s : result.inputs) {
    if (s.malformed > 0 || s.out_of_order > 0) {
      dirty = true;
      std::printf("merge: %s: %zu/%zu lines quarantined, %zu out of order\n",
                  s.device.c_str(), s.malformed, s.lines, s.out_of_order);
    }
  }
  // --strict: the merged output is still written (for inspection), but a
  // quarantined or out-of-order input line fails the invocation.
  const int strict_rc =
      (opt.count("strict", 0) != 0 && dirty) ? 3 : 0;
  const std::string& merged = result.jsonl;
  const bool summary = opt.count("summary", 0) != 0;
  const std::string out = opt.get("out", "");
  if (!out.empty()) {
    if (!write_text(out, merged,
                    "merged timeline (" + std::to_string(inputs.size()) +
                        " devices)")) {
      return 1;
    }
  } else if (!summary) {
    std::fwrite(merged.data(), 1, merged.size(), stdout);
  }
  if (summary && print_summary(opt, merged) != 0) return 1;
  if (strict_rc != 0) {
    std::printf("merge: --strict: failing on quarantined/out-of-order input\n");
  }
  return strict_rc;
}

// Runs one shared-cell contention scenario (src/cell): N devices on a
// contended base-station downlink, per-cell merged artifacts.
int run_cell(const Options& opt) {
  cell::CellScenarioSpec spec;
  const std::string spec_file = opt.get("spec-file", "");
  if (!spec_file.empty()) {
    // The file is the whole spec: a spec flag beside it would be dropped.
    for (const auto& [flag, value] : opt.kv) {
      if (flag != "spec-file" && flag != "timeline" && flag != "findings") {
        std::printf("cell: --%s cannot be combined with --spec-file\n",
                    flag.c_str());
        return 2;
      }
    }
    std::string content;
    if (!read_file(spec_file, &content)) {
      std::printf("cell: cannot read %s\n", spec_file.c_str());
      return 1;
    }
    std::string error;
    if (!cell::CellScenarioSpec::parse_json(content, &spec, &error)) {
      std::printf("cell: %s\n", error.c_str());
      return 2;
    }
  } else {
    spec = cell::CellScenarioSpec::uniform(
        opt.get("app", "browser"), static_cast<int>(opt.count("devices", 4)),
        opt.number("stagger", 1));
    spec.network = opt.get("network", "3g");
    spec.seed = opt.count("seed", 1);
    spec.capacity_kbps = opt.number("capacity", 2000);
    spec.throttle_kbps = static_cast<long>(opt.count("throttle", 0));
    spec.mechanism = opt.get("mechanism", "shaping");
    spec.max_active_grants = static_cast<int>(opt.count("grants", 0));
    for (auto& d : spec.devices) {
      d.actions = static_cast<long>(opt.count("actions", 3));
    }
  }

  core::RunResult result;
  try {
    result = cell::run_cell_scenario(spec);
  } catch (const std::exception& e) {
    std::printf("cell: %s\n", e.what());
    return 2;
  }
  std::printf("cell: %zu devices, %.1f virtual s\n", spec.devices.size(),
              result.virtual_seconds);
  const core::MergedSummary s = core::summarize_merged(
      result.artifacts.timeline_jsonl, result.artifacts.findings_jsonl);
  std::ostringstream table;
  core::print_merged_summary(table, s);
  std::fputs(table.str().c_str(), stdout);
  const auto& counters = result.registry.counters();
  for (const char* key :
       {"cell.gate.accepted_bytes", "cell.gate.dropped_bytes",
        "cell.gate.dropped_packets", "cell.sched.queue_delay_s",
        "cell.rrc.delayed_promotions"}) {
    const auto it = counters.find(key);
    if (it != counters.end()) std::printf("%s = %.6g\n", key, it->second);
  }
  const auto write = [](const std::string& path, const std::string& content,
                        const char* what) {
    return path.empty() || write_text(path, content, what);
  };
  if (!write(opt.get("timeline", ""), result.artifacts.timeline_jsonl,
             "per-cell timeline.jsonl") ||
      !write(opt.get("findings", ""), result.artifacts.findings_jsonl,
             "per-cell findings.jsonl")) {
    return 1;
  }
  return 0;
}

// --mix=S[,V[,B]]: social, video and browser weights; an omitted weight
// is 0, an empty value keeps the default mix.
bool parse_mix(std::string_view text, pop::AppMix* mix) {
  if (text.empty()) return true;
  *mix = {0, 0, 0};
  for (double* weight : {&mix->social, &mix->video, &mix->browser}) {
    const auto comma = text.find(',');
    if (!parse_number(text.substr(0, comma), weight)) return false;
    if (comma == std::string_view::npos) return true;
    text.remove_prefix(comma + 1);
  }
  return false;  // a fourth weight
}

// Emits one svc::ScenarioSpec JSON line per synthetic user — the
// `qoed_cli fleet --specs=` input format — from a seeded population model.
int run_pop(const Options& opt) {
  // The flags carried into every spec pass the spec parser, so pop writes
  // only specs fleet accepts.
  svc::ScenarioSpec carried;
  std::string error;
  if (!spec_from_flags(opt, kPopFlags, &carried, &error)) {
    std::printf("pop: %s\n", error.c_str());
    return 2;
  }
  pop::PopulationConfig cfg;
  cfg.seed = opt.count("seed", cfg.seed);
  cfg.users = opt.count("users", cfg.users);
  cfg.days = static_cast<int>(opt.count("days", cfg.days));
  cfg.network = carried.network;
  cfg.throttle_kbps = carried.throttle_kbps;
  cfg.mechanism = carried.mechanism;
  const std::string diurnal = opt.get("diurnal", "mobile");
  if (diurnal == "flat") {
    cfg.diurnal = pop::DiurnalCurve::flat();
  } else if (diurnal != "mobile") {
    std::printf("pop: invalid value for --diurnal: \"%s\"\n",
                diurnal.c_str());
    return 2;
  }
  if (!parse_mix(opt.get("mix", ""), &cfg.mix)) {
    std::printf("pop: invalid value for --mix: \"%s\"\n",
                opt.get("mix", "").c_str());
    return 2;
  }
  const pop::PopulationGenerator gen(cfg);
  const std::size_t begin = opt.count("begin", 0);
  const std::size_t end = opt.count("end", cfg.users);
  const std::string out = opt.get("out", "");
  if (out.empty()) {
    gen.write_jsonl(std::cout, begin, end);
    return 0;
  }
  std::ofstream os(out, std::ios::binary);
  const std::size_t n = gen.write_jsonl(os, begin, end);
  if (!os) {
    std::printf("FAILED to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu scenario specs to %s\n", n, out.c_str());
  return 0;
}

// fleet and serve: the campaign flags both take, read into the one
// settings type over its own defaults (--jobs defaults to 1).
core::CampaignConfig campaign_config(const Options& opt, std::string name) {
  core::CampaignConfig cfg;
  cfg.name = std::move(name);
  cfg.jobs = opt.count("jobs", 1);
  cfg.master_seed = opt.count("master-seed", cfg.master_seed);
  cfg.max_retries = opt.count("retries", cfg.max_retries);
  cfg.max_run_virtual_seconds =
      opt.number("max-virtual-s", cfg.max_run_virtual_seconds);
  cfg.max_reschedules = opt.count("max-reschedules", cfg.max_reschedules);
  cfg.shard.out_dir = opt.get("out-dir", "");
  cfg.shard.shard_bytes = opt.count("shard-bytes", cfg.shard.shard_bytes);
  cfg.shard.shard_runs = opt.count("shard-runs", cfg.shard.shard_runs);
  return cfg;
}

// Publishes the merged artifacts beside the shards in out_dir. False, after
// naming the first file that could not be written (a manifest-listed shard
// that is missing or unreadable fails its merged artifact), on failure.
bool publish_merged(const std::string& out_dir) {
  std::string error;
  if (!core::write_merged_artifacts(out_dir, &error)) {
    std::printf("fleet: %s\n", error.c_str());
    return false;
  }
  std::printf("fleet: merged artifacts written to %s\n", out_dir.c_str());
  return true;
}

int run_fleet(const Options& opt) {
  core::CampaignConfig cfg = campaign_config(opt, "fleet");
  const std::string out_dir = cfg.shard.out_dir;
  if (out_dir.empty()) {
    std::printf("fleet: --out-dir=DIR required\n");
    return 2;
  }
  if (opt.count("merge-only", 0) != 0) return publish_merged(out_dir) ? 0 : 1;

  const std::string specs_path = opt.get("specs", "");
  if (specs_path.empty()) {
    std::printf("fleet: --specs=FILE (one ScenarioSpec JSON per line) "
                "required\n");
    return 2;
  }
  std::ifstream in(specs_path, std::ios::binary);
  if (!in) {
    std::printf("fleet: cannot read %s\n", specs_path.c_str());
    return 1;
  }
  std::vector<svc::ScenarioSpec> specs;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    svc::ScenarioSpec spec;
    std::string error;
    if (!svc::ScenarioSpec::parse_json(line, &spec, &error)) {
      std::printf("fleet: %s:%zu: %s\n", specs_path.c_str(), lineno,
                  error.c_str());
      return 2;
    }
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) {
    std::printf("fleet: no specs in %s\n", specs_path.c_str());
    return 2;
  }
  cfg.runs = specs.size();
  cfg.shard.resume = opt.count("resume", 0) != 0;

  core::Campaign campaign(cfg);
  core::CampaignResult result;
  try {
    // The factory ignores the campaign-derived seed: each spec carries its
    // own, so fleet/serve/resume all reproduce identical per-run artifacts.
    // The RunSpec overload applies the ctrl reschedule reseed.
    result = campaign.run([&specs](std::uint64_t, const core::RunSpec& rs) {
      return svc::run_scenario(specs[rs.run_index], rs);
    });
  } catch (const std::exception& e) {
    std::printf("fleet: %s\n", e.what());
    return 1;
  }
  std::size_t rescheduled = 0;
  for (const std::size_t n : result.run_reschedules) rescheduled += n;
  std::printf(
      "fleet: %zu runs (%zu quarantined, %zu rescheduled) on %zu jobs in "
      "%.2fs\n",
      result.runs, result.quarantined.size(), rescheduled, result.jobs,
      campaign.last_wall_seconds());

  bool wrote = publish_merged(out_dir);
  const std::string json = opt.get("json", "");
  if (!json.empty()) {
    wrote = run_sink(core::CampaignJsonSink(result), json) && wrote;
  }
  if (!wrote) return 1;
  return result.quarantined.empty() ? 0 : 3;
}

int run_serve(const Options& opt) {
  const core::CampaignConfig cfg = campaign_config(opt, "serve");
  const std::string socket_path = opt.get("socket", "");
  if (!socket_path.empty()) {
    return svc::serve_over_socket(socket_path, cfg);
  }
  svc::ServeEngine engine(std::cin, std::cout, cfg);
  return engine.run();
}

// Diffs two metrics.json snapshots under per-prefix relative tolerances.
// Exit 4 = at least one key regressed (drifted beyond tolerance), went
// missing, or — unless --allow-new-keys — appeared only in CURRENT. New
// keys mean the committed baseline no longer describes the build; either
// regenerate it (scripts/metrics_gate.sh --update) or pass
// --allow-new-keys to downgrade them to warnings (so adding a metric
// family doesn't force lockstep baseline updates). This is the CI metrics
// gate.
int run_metrics_diff(const Options& opt) {
  if (opt.positional.size() != 2) {
    std::printf("metrics-diff: need BASELINE.json and CURRENT.json\n");
    return 2;
  }
  obs::DiffOptions dopts;
  dopts.fail_on_added = opt.count("allow-new-keys", 0) == 0;
  // Wall-clock profiling keys are nondeterministic by nature; ignore that
  // subtree by default (a later, longer user prefix can re-tighten it).
  dopts.tolerances.emplace_back("prof.",
                                std::numeric_limits<double>::infinity());
  try {
    for (auto& tol : obs::parse_tolerances(opt.get("tol", ""))) {
      dopts.tolerances.push_back(std::move(tol));
    }
  } catch (const std::exception& e) {
    std::printf("metrics-diff: %s\n", e.what());
    return 2;
  }
  dopts.default_tolerance = opt.number("default-tol", 0);
  obs::MetricsRegistry base;
  obs::MetricsRegistry current;
  const auto load = [](const std::string& path, obs::MetricsRegistry* reg) {
    std::string content;
    if (!read_file(path, &content)) {
      std::printf("metrics-diff: cannot read %s\n", path.c_str());
      return false;
    }
    std::string error;
    if (!reg->merge_from_json(content, &error)) {
      std::printf("metrics-diff: %s: %s\n", path.c_str(), error.c_str());
      return false;
    }
    return true;
  };
  if (!load(opt.positional[0], &base) || !load(opt.positional[1], &current)) {
    return 1;
  }
  const obs::DiffReport report = obs::diff_registries(base, current, dopts);
  std::ostringstream os;
  obs::print_diff(os, report);
  std::fputs(os.str().c_str(), stdout);
  return report.ok() ? 0 : 4;
}

// Cross-references a --trace Chrome JSON export: which fault injections and
// ctrl decisions landed inside which diagnosis windows.
int run_trace_report(const Options& opt) {
  if (opt.positional.size() != 1) {
    std::printf("trace-report: need exactly one trace JSON file\n");
    return 2;
  }
  std::string content;
  if (!read_file(opt.positional[0], &content)) {
    std::printf("trace-report: cannot read %s\n", opt.positional[0].c_str());
    return 1;
  }
  obs::TraceReport report;
  std::string error;
  if (!obs::analyze_trace(content, &report, &error)) {
    std::printf("trace-report: %s\n", error.c_str());
    return 1;
  }
  std::ostringstream os;
  obs::print_trace_report(os, report,
                          opt.count("top", 3));
  std::fputs(os.str().c_str(), stdout);
  return 0;
}

// Sends one {"cmd":"stats"} to a live serve session's Unix socket and
// returns the single reply line. False (with *error set) on any I/O
// failure.
bool query_serve_stats(const std::string& path, std::string* reply,
                       std::string* error) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = "cannot create socket";
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    *error = "socket path too long";
    return false;
  }
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    *error = "cannot connect to " + path;
    return false;
  }
  const std::string cmd = "{\"cmd\":\"stats\"}\n";
  if (::write(fd, cmd.data(), cmd.size()) !=
      static_cast<ssize_t>(cmd.size())) {
    ::close(fd);
    *error = "short write";
    return false;
  }
  reply->clear();
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      ::close(fd);
      *error = "read failed";
      return false;
    }
    if (n == 0) break;
    reply->append(buf, static_cast<std::size_t>(n));
    const auto nl = reply->find('\n');
    if (nl != std::string::npos) {
      reply->resize(nl);
      break;
    }
  }
  ::close(fd);
  if (reply->empty()) {
    *error = "empty reply";
    return false;
  }
  return true;
}

// The shared rendering behind `qoed_cli top`: headline rows derived from a
// merged fleet MetricsRegistry, whichever surface it came from.
void print_fleet_summary(const obs::MetricsRegistry& reg,
                         std::size_t committed) {
  std::printf("runs: %zu committed, %.0f attempts, %.0f quarantined, "
              "%.0f rescheduled\n",
              committed, reg.counter("campaign.run_attempts"),
              reg.counter("campaign.quarantined"),
              reg.counter("campaign.rescheduled"));
  std::printf("findings: %.0f total, %.0f degraded (%.0f traffic-degraded "
              "retx)\n",
              reg.counter("diag.findings"),
              reg.counter("diag.degraded_findings"),
              reg.counter("diag.flow_retx"));
  const double segments = reg.counter("flow.segments");
  const double bytes_sent = reg.counter("flow.bytes_sent");
  if (segments > 0) {
    const double retx = reg.counter("flow.retx_segments");
    const double acked = reg.counter("flow.bytes_acked");
    std::printf("flow: %.0f flows, %.0f segments (%.2f%% retx), "
                "%.0f RTO, %.0f fast-retx\n",
                reg.counter("flow.flows"), segments, 100 * retx / segments,
                reg.counter("flow.rto_events"),
                reg.counter("flow.fast_retx_events"));
    std::printf("flow: goodput %.0f/%.0f bytes acked (%.2f%%)\n", acked,
                bytes_sent, bytes_sent > 0 ? 100 * acked / bytes_sent : 0);
    if (const obs::MetricsRegistry::Histogram* srtt =
            reg.find_histogram("flow.srtt_s")) {
      if (srtt->count > 0) {
        std::printf("flow: srtt p50=%.1fms p95=%.1fms, inflight peak=%.0f "
                    "bytes\n",
                    obs::histogram_quantile(*srtt, 0.5) * 1e3,
                    obs::histogram_quantile(*srtt, 0.95) * 1e3,
                    [&] {
                      const auto& g = reg.gauges();
                      const auto it = g.find("flow.inflight_peak_bytes");
                      return it == g.end() ? 0.0 : it->second;
                    }());
      }
    }
  } else {
    std::printf("flow: no transport samples\n");
  }
}

// `qoed_cli top` — the live fleet stats surface. Shard-dir mode replays
// the manifest-listed metrics shards (exactly what `fleet --merge-only`
// would write to metrics.json); socket mode
// asks a running serve session for its in-memory snapshot. Both render
// through the same summary, and the two byte-agree after a drain by the
// stats-protocol contract (svc/serve.h).
int run_top(const Options& opt) {
  const std::string shards = opt.get("shards", "");
  const std::string socket_path = opt.get("socket", "");
  if (shards.empty() == socket_path.empty()) {
    std::printf("top: need exactly one of --shards=DIR or --socket=PATH\n");
    return 2;
  }
  obs::MetricsRegistry reg;
  std::size_t committed = 0;
  if (!shards.empty()) {
    std::string error;
    const std::unique_ptr<core::ShardedCampaignSink> fold =
        core::ShardedCampaignSink::replay(shards, &error);
    if (fold == nullptr) {
      std::printf("top: %s\n", error.c_str());
      return 1;
    }
    const core::ShardManifest& manifest = fold->manifest();
    committed = manifest.committed();
    if (!reg.merge_from_json(fold->metrics_snapshot(), &error)) {
      std::printf("top: %s\n", error.c_str());
      return 1;
    }
    std::printf("shards: %zu closed, frontier at run %zu%s\n",
                manifest.shards.size(), committed,
                manifest.complete ? " (complete)" : "");
  } else {
    std::string reply;
    std::string error;
    if (!query_serve_stats(socket_path, &reply, &error)) {
      std::printf("top: %s\n", error.c_str());
      return 1;
    }
    core::JsonLiteParser p(reply);
    bool ok = false;
    std::string_view metrics_json;
    std::string key;
    if (!p.enter_object()) {
      std::printf("top: malformed stats reply\n");
      return 1;
    }
    while (p.next_key(&key)) {
      bool field_ok = true;
      if (key == "ok") {
        field_ok = p.read_bool(&ok);
      } else if (key == "committed") {
        double c = 0;
        field_ok = p.read_number(&c);
        committed = static_cast<std::size_t>(c);
      } else if (key == "metrics") {
        field_ok = p.raw_value(&metrics_json);
      } else {
        field_ok = p.skip_value();
      }
      if (!field_ok) {
        std::printf("top: malformed stats reply\n");
        return 1;
      }
    }
    if (!ok) {
      std::printf("top: serve rejected stats: %s\n", reply.c_str());
      return 1;
    }
    std::string error2;
    if (!reg.merge_from_json(std::string(metrics_json), &error2)) {
      std::printf("top: %s\n", error2.c_str());
      return 1;
    }
    std::printf("serve: live session at %s\n", socket_path.c_str());
  }
  print_fleet_summary(reg, committed);
  return 0;
}

void usage() {
  std::printf(
      "usage: qoed_cli <pageload|post|video|merge|cell|pop|fleet|serve\n"
      "                 |top|metrics-diff|trace-report>\n"
      "  [--network=wifi|3g|3g-simplified|lte]\n"
      "  [--seed=N] [--pcap=FILE] [--qxdm=FILE] [--timeline=FILE] [--counters]\n"
      "  [--diagnose] [--findings=FILE] [--fault-plan=SPEC] [--fault-seed=N]\n"
      "  [--trace=FILE] [--metrics=FILE] [--policy=RULES] [--captures=FILE]\n"
      "  pageload: [--pages=N] [--think=SECONDS]\n"
      "  post:     [--kind=status|checkin|photos] [--reps=N]\n"
      "  video:    [--videos=N] [--throttle=KBPS]"
      " [--mechanism=shaping|policing]\n"
      "  merge:    [--out=FILE] [--strict] [--summary [--findings=FILE]\n"
      "            [--shards=DIR]] [--merged] TIMELINE.jsonl...\n"
      "  cell:     [--spec-file=FILE | --devices=N --app=browser|social|video\n"
      "            --capacity=KBPS --stagger=S --actions=N --grants=N\n"
      "            --network=NET --seed=N --throttle=KBPS\n"
      "            --mechanism=shaping|policing]\n"
      "            [--timeline=FILE] [--findings=FILE]\n"
      "  pop:      [--users=N] [--seed=N] [--days=N] [--mix=S,V,B]\n"
      "            [--diurnal=mobile|flat] [--network=...] [--throttle=KBPS]\n"
      "            [--mechanism=...] [--begin=I] [--end=J] [--out=FILE]\n"
      "  fleet:    --specs=FILE --out-dir=DIR [--resume] [--merge-only]\n"
      "            [--json=FILE] CAMPAIGN-FLAGS   (merged artifacts land\n"
      "            beside the shards in DIR)\n"
      "  serve:    [--socket=PATH] [--out-dir=DIR] CAMPAIGN-FLAGS\n"
      "  CAMPAIGN-FLAGS: [--jobs=N (0 = all cores)] [--master-seed=N]\n"
      "            [--retries=N] [--max-virtual-s=S] [--max-reschedules=N]\n"
      "            [--shard-bytes=N] [--shard-runs=N]\n"
      "  top:      --shards=DIR | --socket=PATH   (fleet summary: runs,\n"
      "            findings, flow.* headline rates, shard frontier)\n"
      "  metrics-diff: BASELINE.json CURRENT.json [--tol=PREFIX=REL,...]\n"
      "            [--default-tol=REL] [--allow-new-keys]\n"
      "            (exit 4 on regression/missing/new key)\n"
      "  trace-report: TRACE.json [--top=K]   (diag windows x fault/ctrl\n"
      "            instants, K slowest windows with peak flow counters)\n");
}

// One qoed_cli command: its flag table and whether it takes positional
// file arguments.
struct Command {
  std::string_view name;
  int (*run)(const Options&);
  std::span<const FlagSpec> flags;
  bool campaign = false;  // also takes kCampaignFlags
  bool files = false;
};

constexpr Command kCommands[] = {
    {"pageload", run_single, kSingleFlags},
    {"post", run_single, kSingleFlags},
    {"video", run_single, kSingleFlags},
    {"merge", run_merge, kMergeFlags, false, true},
    {"--merge", run_merge, kMergeFlags, false, true},
    {"cell", run_cell, kCellFlags},
    {"pop", run_pop, kPopFlags},
    {"fleet", run_fleet, kFleetFlags, true},
    {"serve", run_serve, kServeFlags, true},
    {"top", run_top, kTopFlags},
    {"metrics-diff", run_metrics_diff, kMetricsDiffFlags, false, true},
    {"trace-report", run_trace_report, kTraceReportFlags, false, true}};

// False, with *error naming it, on a positional argument to a command that
// takes no files, a flag not in the command's tables, or a value that is
// not the number its flag takes — so a typo or a unit suffix exits 2
// instead of running with a default.
bool check_flags(const Options& opt, const Command& cmd, std::string* error) {
  if (!cmd.files && !opt.positional.empty()) {
    *error = "unexpected argument \"" + opt.positional.front() + "\"";
    return false;
  }
  for (const auto& [flag, value] : opt.kv) {
    const FlagSpec* spec = find_flag(cmd.flags, flag);
    if (spec == nullptr && cmd.campaign) spec = find_flag(kCampaignFlags, flag);
    if (spec == nullptr) {
      *error = "unknown flag --" + flag;
      return false;
    }
    std::uint64_t n = 0;
    double v = 0;
    if ((spec->value == kCount && !parse_count(value, &n)) ||
        (spec->value == kNumber && !parse_number(value, &v))) {
      *error = "invalid value for --" + flag + ": \"" + value + "\"";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  for (const Command& cmd : kCommands) {
    if (cmd.name != opt.command) continue;
    std::string error;
    if (!check_flags(opt, cmd, &error)) {
      std::printf("%s: %s\n", opt.command.c_str(), error.c_str());
      return 2;
    }
    return cmd.run(opt);
  }
  usage();
  return opt.command.empty() ? 1 : 2;
}
