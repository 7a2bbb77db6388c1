#include "core/stats.h"

#include <algorithm>
#include <cmath>

namespace qoed::core {

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.n = values.size();
  s.min = values.front();
  s.max = values.back();
  double sum = 0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  // Two-pass variance: the textbook E[x²]−E[x]² form catastrophically
  // cancels for large-magnitude samples (e.g. absolute TimePoint
  // microsecond values), yielding garbage or negative variance.
  double ss = 0;
  for (double v : values) {
    const double d = v - s.mean;
    ss += d * d;
  }
  s.stddev = std::sqrt(std::max(0.0, ss / static_cast<double>(s.n)));
  s.p50 = percentile_sorted(values, 0.50);
  s.p90 = percentile_sorted(values, 0.90);
  s.p99 = percentile_sorted(values, 0.99);
  return s;
}

std::vector<std::pair<double, double>> empirical_cdf(
    std::vector<double> values, std::size_t points) {
  std::vector<std::pair<double, double>> out;
  if (values.empty() || points == 0) return out;
  std::sort(values.begin(), values.end());
  for (std::size_t i = 0; i < points; ++i) {
    const double p =
        static_cast<double>(i + 1) / static_cast<double>(points);
    out.emplace_back(percentile_sorted(values, p), p);
  }
  return out;
}

}  // namespace qoed::core
