#include "obs/trace_report.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>

#include "core/json_util.h"

namespace qoed::obs {
namespace {

struct RawEvent {
  std::string ph, cat, name, id;
  double ts_us = 0;
  bool has_ts = false;
  // Numeric args members, document order ("C" counter samples carry their
  // series values here; non-numeric args values are skipped).
  std::vector<std::pair<std::string, double>> args_num;
};

// One counter sample, flattened to a "<name>/<args key>" series.
struct CounterSample {
  std::string series;
  double t_s = 0;
  double value = 0;
};

bool fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

std::string secs(double s) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6f", s);
  return buf;
}

}  // namespace

bool analyze_trace(const std::string& chrome_json, TraceReport* out,
                   std::string* error) {
  *out = TraceReport{};
  core::JsonLiteParser p(chrome_json);
  if (!p.enter_object()) return fail(error, "trace: not a JSON object");
  std::string key;
  bool saw_events = false;
  std::vector<TraceInstant> instants;
  std::vector<CounterSample> samples;
  struct OpenSpan {
    std::string name;
    double start_us = 0;
  };
  std::map<std::string, OpenSpan> open;
  while (p.next_key(&key)) {
    if (key != "traceEvents") {
      if (!p.skip_value()) return fail(error, "trace: malformed value");
      continue;
    }
    saw_events = true;
    if (!p.enter_array()) return fail(error, "trace: traceEvents not an array");
    while (p.array_next()) {
      if (!p.enter_object()) return fail(error, "trace: event not an object");
      RawEvent e;
      std::string field;
      while (p.next_key(&field)) {
        bool ok = true;
        if (field == "ph") {
          ok = p.read_string(&e.ph);
        } else if (field == "cat") {
          ok = p.read_string(&e.cat);
        } else if (field == "name") {
          ok = p.read_string(&e.name);
        } else if (field == "id") {
          ok = p.read_string(&e.id);
        } else if (field == "ts") {
          ok = p.read_number(&e.ts_us);
          e.has_ts = ok;
        } else if (field == "args") {
          // read_number consumes nothing on mismatch, so non-numeric args
          // values fall through to skip_value cleanly.
          ok = p.enter_object();
          std::string arg;
          while (ok && p.next_key(&arg)) {
            double v = 0;
            if (p.read_number(&v)) {
              e.args_num.emplace_back(arg, v);
            } else {
              ok = p.skip_value();
            }
          }
        } else {
          ok = p.skip_value();
        }
        if (!ok) return fail(error, "trace: malformed event field '" + field + "'");
      }
      if (e.ph == "b" && e.cat == "diag") {
        open[e.id] = OpenSpan{e.name, e.ts_us};
      } else if (e.ph == "e") {
        const auto it = open.find(e.id);
        if (it != open.end()) {
          TraceWindowReport w;
          w.name = it->second.name;
          w.start_s = it->second.start_us / 1e6;
          w.end_s = e.ts_us / 1e6;
          out->windows.push_back(std::move(w));
          open.erase(it);
        }
      } else if (e.ph == "i" && (e.cat == "fault" || e.cat == "ctrl")) {
        instants.push_back(TraceInstant{e.name, e.cat, e.ts_us / 1e6});
        if (e.cat == "fault") {
          ++out->fault_instants;
        } else {
          ++out->ctrl_instants;
        }
      } else if (e.ph == "C") {
        ++out->counter_events;
        for (const auto& [arg, v] : e.args_num) {
          samples.push_back(CounterSample{e.name + "/" + arg,
                                          e.ts_us / 1e6, v});
        }
      }
    }
  }
  if (!p.at_end()) return fail(error, "trace: malformed JSON");
  if (!saw_events) return fail(error, "trace: no traceEvents array");

  // Spans still open at end-of-trace (a crashed run) are reported as
  // windows that never closed, ending at their own start.
  for (const auto& [id, span] : open) {
    (void)id;
    TraceWindowReport w;
    w.name = span.name;
    w.start_s = span.start_us / 1e6;
    w.end_s = span.start_us / 1e6;
    out->windows.push_back(std::move(w));
  }
  std::sort(out->windows.begin(), out->windows.end(),
            [](const TraceWindowReport& a, const TraceWindowReport& b) {
              if (a.start_s != b.start_s) return a.start_s < b.start_s;
              return a.name < b.name;
            });

  for (const TraceInstant& i : instants) {
    bool matched = false;
    for (TraceWindowReport& w : out->windows) {
      if (i.t_s < w.start_s || i.t_s > w.end_s) continue;
      matched = true;
      (i.cat == "fault" ? w.faults : w.ctrl).push_back(i);
    }
    if (!matched) {
      if (i.cat == "fault") {
        ++out->unmatched_faults;
      } else {
        ++out->unmatched_ctrl;
      }
    }
  }

  // Counter peaks per window: the std::map keys the per-window rollup so
  // series come out name-sorted — deterministic regardless of event order.
  for (TraceWindowReport& w : out->windows) {
    std::map<std::string, TraceCounterPeak> peaks;
    for (const CounterSample& s : samples) {
      if (s.t_s < w.start_s || s.t_s > w.end_s) continue;
      TraceCounterPeak& p2 = peaks[s.series];
      if (p2.samples == 0 || s.value > p2.peak) p2.peak = s.value;
      ++p2.samples;
    }
    for (auto& [series, peak] : peaks) {
      peak.series = series;
      w.counters.push_back(std::move(peak));
    }
  }
  return true;
}

void print_trace_report(std::ostream& os, const TraceReport& report,
                        std::size_t top_k) {
  os << "trace-report: " << report.windows.size() << " diag windows, "
     << report.fault_instants << " fault instants, " << report.ctrl_instants
     << " ctrl decisions, " << report.counter_events << " counter samples\n";
  for (const TraceWindowReport& w : report.windows) {
    os << "window " << w.name << " [" << secs(w.start_s) << "s.."
       << secs(w.end_s) << "s]: " << w.faults.size() << " fault, "
       << w.ctrl.size() << " ctrl\n";
    for (const TraceInstant& i : w.faults) {
      os << "  fault " << i.name << " @" << secs(i.t_s) << "s\n";
    }
    for (const TraceInstant& i : w.ctrl) {
      os << "  ctrl " << i.name << " @" << secs(i.t_s) << "s\n";
    }
  }
  if (report.unmatched_faults > 0 || report.unmatched_ctrl > 0) {
    os << "outside windows: " << report.unmatched_faults << " fault, "
       << report.unmatched_ctrl << " ctrl\n";
  }

  // Triage shortlist: the K longest windows with everything that overlapped
  // them — fault/ctrl instants and the peak of each counter series. Ties
  // break on (start, name), mirroring the window sort, so the section is
  // deterministic.
  if (top_k == 0 || report.windows.empty()) return;
  std::vector<const TraceWindowReport*> slowest;
  slowest.reserve(report.windows.size());
  for (const TraceWindowReport& w : report.windows) slowest.push_back(&w);
  std::sort(slowest.begin(), slowest.end(),
            [](const TraceWindowReport* a, const TraceWindowReport* b) {
              if (a->duration_s() != b->duration_s()) {
                return a->duration_s() > b->duration_s();
              }
              if (a->start_s != b->start_s) return a->start_s < b->start_s;
              return a->name < b->name;
            });
  if (slowest.size() > top_k) slowest.resize(top_k);
  os << "slowest windows (top " << slowest.size() << "):\n";
  for (const TraceWindowReport* w : slowest) {
    os << "  " << w->name << " " << secs(w->duration_s()) << "s ["
       << secs(w->start_s) << "s.." << secs(w->end_s) << "s]";
    if (!w->faults.empty() || !w->ctrl.empty()) {
      os << " —";
      for (const TraceInstant& i : w->faults) {
        os << " fault:" << i.name << "@" << secs(i.t_s) << "s";
      }
      for (const TraceInstant& i : w->ctrl) {
        os << " ctrl:" << i.name << "@" << secs(i.t_s) << "s";
      }
    }
    os << "\n";
    for (const TraceCounterPeak& c : w->counters) {
      os << "    peak " << c.series << " = " << c.peak << " ("
         << c.samples << " samples)\n";
    }
  }
}

}  // namespace qoed::obs
