#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <ostream>
#include <sstream>

#include "core/json_util.h"

namespace qoed::obs {

const std::vector<std::int64_t>& default_bounds() {
  static const std::vector<std::int64_t> bounds = [] {
    std::vector<std::int64_t> b;
    std::int64_t decade = 1;
    for (int k = 0; k < 9; ++k) {  // 1µ-unit .. 5e8, plus the 1e9 cap below
      b.push_back(decade);
      b.push_back(2 * decade);
      b.push_back(5 * decade);
      decade *= 10;
    }
    b.push_back(decade);  // 1e9 micro-units = 1000 base units
    return b;
  }();
  return bounds;
}

void MetricsRegistry::Histogram::observe(std::int64_t micro) {
  // First bound whose value is >= the observation; past-the-end = overflow.
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), micro);
  counts[static_cast<std::size_t>(it - bounds.begin())]++;
  count++;
  sum += micro;
}

double MetricsRegistry::Histogram::mean() const {
  if (count == 0) return 0;
  return static_cast<double>(sum) / 1e6 / static_cast<double>(count);
}

void MetricsRegistry::add_counter(std::string_view name, double delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

MetricsRegistry::Histogram& MetricsRegistry::histogram(
    std::string_view name, const std::vector<std::int64_t>& bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    Histogram h;
    h.bounds = bounds.empty() ? default_bounds() : bounds;
    h.counts.assign(h.bounds.size() + 1, 0);
    it = histograms_.emplace(std::string(name), std::move(h)).first;
  }
  return it->second;
}

void MetricsRegistry::observe(std::string_view name, double value) {
  observe_us(name, std::llround(value * 1e6));
}

void MetricsRegistry::observe_us(std::string_view name, std::int64_t micro) {
  histogram(name).observe(micro);
}

double MetricsRegistry::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

const MetricsRegistry::Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge_gauge(const std::string& name, double value) {
  const auto [it, fresh] = gauges_.try_emplace(name, value);
  if (!fresh) it->second = std::max(it->second, value);
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, v] : other.counters_) add_counter(name, v);
  for (const auto& [name, v] : other.gauges_) merge_gauge(name, v);
  for (const auto& [name, h] : other.histograms_) {
    Histogram& mine = histogram(name, h.bounds);
    assert(mine.bounds == h.bounds && "histogram bound mismatch in merge");
    for (std::size_t i = 0; i < h.counts.size() && i < mine.counts.size();
         ++i) {
      mine.counts[i] += h.counts[i];
    }
    mine.count += h.count;
    mine.sum += h.sum;
  }
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    if (!first) os << ',';
    first = false;
    core::put_json_string(os, name);
    os << ':';
    core::put_json_number(os, v);
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges_) {
    if (!first) os << ',';
    first = false;
    core::put_json_string(os, name);
    os << ':';
    core::put_json_number(os, v);
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    core::put_json_string(os, name);
    os << ":{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i) os << ',';
      os << h.bounds[i];
    }
    os << "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i) os << ',';
      os << h.counts[i];
    }
    os << "],\"count\":" << h.count << ",\"sum\":" << h.sum << '}';
  }
  os << "}}";
}

std::string MetricsRegistry::snapshot() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

bool MetricsRegistry::merge_from_json(std::string_view snapshot_json,
                                      std::string* error) {
  const auto fail = [error](const char* msg) {
    if (error) *error = msg;
    return false;
  };
  core::JsonLiteParser p(snapshot_json);
  if (!p.enter_object()) return fail("registry snapshot: expected object");
  std::string section;
  while (p.next_key(&section)) {
    if (section == "counters" || section == "gauges") {
      const bool is_counter = section == "counters";
      if (!p.enter_object()) return fail("registry snapshot: expected map");
      std::string name;
      double v = 0;
      while (p.next_key(&name)) {
        if (!p.read_number(&v)) return fail("registry snapshot: bad number");
        if (is_counter) {
          add_counter(name, v);
        } else {
          merge_gauge(name, v);
        }
      }
    } else if (section == "histograms") {
      if (!p.enter_object()) return fail("registry snapshot: expected map");
      std::string hname;
      while (p.next_key(&hname)) {
        if (!p.enter_object()) return fail("histogram: expected object");
        std::vector<std::int64_t> bounds;
        std::vector<std::uint64_t> counts;
        std::uint64_t count = 0;
        std::int64_t sum = 0;
        std::string key;
        // Bounds, counts, count and sum are integers, read exactly.
        const auto read_array = [&p](auto* values) {
          if (!p.enter_array()) return false;
          while (p.array_next()) {
            if (!p.read_number(&values->emplace_back())) return false;
          }
          return true;
        };
        while (p.next_key(&key)) {
          bool parsed = true;
          if (key == "bounds") {
            parsed = read_array(&bounds);
          } else if (key == "counts") {
            parsed = read_array(&counts);
          } else if (key == "count") {
            parsed = p.read_number(&count);
          } else if (key == "sum") {
            parsed = p.read_number(&sum);
          } else {
            parsed = p.skip_value();
          }
          if (!parsed) return fail("histogram: malformed value");
        }
        if (counts.size() != bounds.size() + 1) {
          return fail("histogram: counts/bounds size mismatch");
        }
        Histogram& mine = histogram(hname, bounds);
        if (mine.bounds != bounds) {
          return fail("histogram: bound mismatch in merge");
        }
        for (std::size_t i = 0; i < counts.size(); ++i) {
          mine.counts[i] += counts[i];
        }
        mine.count += count;
        mine.sum += sum;
      }
    } else if (!p.skip_value()) {
      return fail("registry snapshot: malformed value");
    }
  }
  return p.at_end() || fail("registry snapshot: malformed JSON");
}

double histogram_quantile(const MetricsRegistry::Histogram& h, double q) {
  if (h.count == 0 || h.bounds.empty()) return 0.0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const double rank = q * static_cast<double>(h.count);
  double cum = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    if (h.counts[i] == 0) continue;
    const double next = cum + static_cast<double>(h.counts[i]);
    if (next >= rank) {
      // Overflow bucket has no upper bound; clamp to the last bound.
      if (i >= h.bounds.size()) {
        return static_cast<double>(h.bounds.back()) / 1e6;
      }
      const double lo = i == 0 ? 0.0 : static_cast<double>(h.bounds[i - 1]);
      const double hi = static_cast<double>(h.bounds[i]);
      const double frac = (rank - cum) / static_cast<double>(h.counts[i]);
      return (lo + (hi - lo) * frac) / 1e6;
    }
    cum = next;
  }
  return static_cast<double>(h.bounds.back()) / 1e6;
}

}  // namespace qoed::obs
