#include "obs/metrics_diff.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "core/json_util.h"

namespace qoed::obs {
namespace {

double tolerance_for(const std::string& key, const DiffOptions& opts) {
  std::size_t best_len = 0;
  double tol = opts.default_tolerance;
  bool matched = false;
  for (const auto& [prefix, t] : opts.tolerances) {
    if (key.compare(0, prefix.size(), prefix) != 0) continue;
    if (!matched || prefix.size() >= best_len) {
      matched = true;
      best_len = prefix.size();
      tol = t;
    }
  }
  return tol;
}

// Symmetric relative drift: 0 when equal, 1 when one side is zero, scale-
// free in between — so one tolerance works for counts and for joules.
double rel_drift(double base, double current) {
  if (base == current) return 0;
  const double denom = std::max(std::fabs(base), std::fabs(current));
  return denom > 0 ? std::fabs(current - base) / denom
                   : 0;  // unreachable: equal zeros handled above
}

// One scalar comparison; appends a non-ok entry to the report.
void compare_scalar(const std::string& kind, const std::string& name,
                    double base, double current, const DiffOptions& opts,
                    DiffReport* out) {
  const std::string key = kind + ' ' + name;
  const double tol = tolerance_for(name, opts);
  ++out->compared;
  if (std::isinf(tol)) return;  // ignored subtree
  const double rel = rel_drift(base, current);
  if (rel <= tol) return;
  DiffEntry e;
  e.key = key;
  e.base = base;
  e.current = current;
  e.rel = rel;
  e.tolerance = tol;
  e.status = DiffStatus::kRegressed;
  out->entries.push_back(std::move(e));
  ++out->regressions;
}

void note_missing(const std::string& kind, const std::string& name,
                  double base, const DiffOptions& opts, DiffReport* out) {
  if (std::isinf(tolerance_for(name, opts))) return;
  DiffEntry e;
  e.key = kind + ' ' + name;
  e.base = base;
  e.status = DiffStatus::kMissing;
  out->entries.push_back(std::move(e));
  ++out->regressions;
}

void note_added(const std::string& kind, const std::string& name,
                double current, const DiffOptions& opts, DiffReport* out) {
  if (std::isinf(tolerance_for(name, opts))) return;
  DiffEntry e;
  e.key = kind + ' ' + name;
  e.current = current;
  e.status = DiffStatus::kAdded;
  out->entries.push_back(std::move(e));
  ++out->added;
}

template <typename Map, typename Value>
void diff_scalar_maps(const std::string& kind, const Map& base,
                      const Map& current, const DiffOptions& opts,
                      Value value_of, DiffReport* out) {
  for (const auto& [name, v] : base) {
    const auto it = current.find(name);
    if (it == current.end()) {
      note_missing(kind, name, value_of(v), opts, out);
    } else {
      compare_scalar(kind, name, value_of(v), value_of(it->second), opts, out);
    }
  }
  for (const auto& [name, v] : current) {
    if (base.find(name) == base.end()) {
      note_added(kind, name, value_of(v), opts, out);
    }
  }
}

}  // namespace

DiffReport diff_registries(const MetricsRegistry& base,
                           const MetricsRegistry& current,
                           const DiffOptions& opts) {
  DiffReport out;
  out.fail_on_added = opts.fail_on_added;
  const auto identity = [](double v) { return v; };
  diff_scalar_maps("counter", base.counters(), current.counters(), opts,
                   identity, &out);
  diff_scalar_maps("gauge", base.gauges(), current.gauges(), opts, identity,
                   &out);
  // Histograms reduce to (count, sum): any change to the sample set moves at
  // least one of the two, and neither depends on bucket layout.
  for (const auto& [name, h] : base.histograms()) {
    const auto it = current.histograms().find(name);
    if (it == current.histograms().end()) {
      note_missing("histogram", name, static_cast<double>(h.count), opts,
                   &out);
      continue;
    }
    compare_scalar("histogram.count", name, static_cast<double>(h.count),
                   static_cast<double>(it->second.count), opts, &out);
    compare_scalar("histogram.sum", name, static_cast<double>(h.sum),
                   static_cast<double>(it->second.sum), opts, &out);
  }
  for (const auto& [name, h] : current.histograms()) {
    if (base.histograms().find(name) == base.histograms().end()) {
      note_added("histogram", name, static_cast<double>(h.count), opts, &out);
    }
  }
  return out;
}

void print_diff(std::ostream& os, const DiffReport& report) {
  for (const DiffEntry& e : report.entries) {
    switch (e.status) {
      case DiffStatus::kRegressed:
        os << "REGRESSION " << e.key << ": base=" << e.base
           << " current=" << e.current << " rel=" << e.rel
           << " tol=" << e.tolerance << "\n";
        break;
      case DiffStatus::kMissing:
        os << "MISSING " << e.key << ": base=" << e.base << "\n";
        break;
      case DiffStatus::kAdded:
        os << (report.fail_on_added ? "ADDED " : "added ") << e.key
           << ": current=" << e.current << "\n";
        break;
      case DiffStatus::kOk:
        break;
    }
  }
  os << "metrics-diff: " << report.compared << " keys compared, "
     << report.regressions << " regressions, " << report.added
     << " added\n";
}

std::vector<std::pair<std::string, double>> parse_tolerances(
    const std::string& spec) {
  std::vector<std::pair<std::string, double>> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("tolerances: expected PREFIX=TOL, got '" +
                                  item + "'");
    }
    const std::string tol_text = item.substr(eq + 1);
    double tol = std::numeric_limits<double>::infinity();
    if (tol_text != "inf" &&
        (!core::parse_json_number(tol_text, &tol) || tol < 0)) {
      throw std::invalid_argument("tolerances: bad tolerance '" + tol_text +
                                  "' for prefix '" + item.substr(0, eq) + "'");
    }
    out.emplace_back(item.substr(0, eq), tol);
  }
  return out;
}

}  // namespace qoed::obs
