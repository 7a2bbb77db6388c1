// Deterministic metrics registry — the one schema behind every counter the
// doctor reports.
//
// Before this layer, counters lived in three conventions: the collection
// spine's `collector.*` map entries, the diagnosis engine's `diag.*`, and the
// fault injector's `fault.*`, all flattened ad hoc into campaign JSON. The
// registry unifies them: hierarchical `family.label` keys, three typed
// instruments, and a snapshot that is *byte-stable* — two bit-identical runs
// produce byte-identical JSON, and merging per-run registries in run-index
// order produces the same bytes at any worker count.
//
// Instruments:
//  - counter: double-valued monotone sum (covers both event counts and
//    accumulated quantities like joules). merge = sum.
//  - gauge: double-valued last-known level. merge = max (commutative, so the
//    merged value is independent of merge order).
//  - histogram: fixed integer bucket bounds in MICRO-UNITS (µs for time
//    metrics, value*1e6 for everything else). Observations are rounded to
//    int64 micro-units *before* bucketing, so bucket indices — and therefore
//    snapshots — are platform-independent. merge = element-wise add.
//
// Determinism contract: nothing in this file reads the wall clock. Wall-clock
// profiling (obs::ScopedWallTimer) writes into a registry the caller keeps
// SEPARATE from deterministic artifacts — see observability.h.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace qoed::obs {

// Default histogram bounds: 1-2-5 series from 1 micro-unit to 1e9 (1µs to
// 1000s for time-valued metrics). 28 bounds -> 29 buckets incl. overflow.
const std::vector<std::int64_t>& default_bounds();

class MetricsRegistry {
 public:
  struct Histogram {
    std::vector<std::int64_t> bounds;   // ascending upper bounds, micro-units
    std::vector<std::uint64_t> counts;  // bounds.size() + 1 (last = overflow)
    std::uint64_t count = 0;
    std::int64_t sum = 0;  // micro-units; exact (integer) accumulation

    void observe(std::int64_t micro);
    double mean() const;  // in original units (sum / 1e6 / count)
  };

  // --- recording ---
  void add_counter(std::string_view name, double delta = 1.0);
  void set_gauge(std::string_view name, double value);
  // Rounds `value` to int64 micro-units and buckets it; creates the
  // histogram with default_bounds() on first use.
  void observe(std::string_view name, double value);
  void observe_us(std::string_view name, std::int64_t micro);
  // Explicit-bounds form (bounds fixed at creation; later calls must agree).
  Histogram& histogram(std::string_view name,
                       const std::vector<std::int64_t>& bounds = {});

  // --- reading ---
  double counter(std::string_view name) const;  // 0 when absent
  const Histogram* find_histogram(std::string_view name) const;
  const std::map<std::string, double, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, double, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }
  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  // --- aggregation ---
  // Element-wise merge (counter sum, gauge max, histogram add). Campaigns
  // call this in run-index order, so the merged registry — like every other
  // campaign artifact — is bit-identical at any --jobs.
  void merge_from(const MetricsRegistry& other);
  void clear();

  // Byte-stable JSON snapshot (keys sorted by std::map, doubles at
  // round-trip precision):
  //   {"counters":{...},"gauges":{...},
  //    "histograms":{"name":{"bounds":[...],"counts":[...],"count":N,"sum":S}}}
  void write_json(std::ostream& os) const;
  std::string snapshot() const;

  // Inverse of write_json for the sharded-campaign fold: merges a snapshot
  // produced by write_json into this registry (counter sum, gauge max,
  // histogram element-wise add; bounds adopted on first sight, verified
  // after). Because put_json_number emits round-trip (%.17g) doubles, folding
  // parsed snapshots in run-index order is byte-equivalent to merge_from on
  // the live registries. Returns false (and sets *error when non-null)
  // on malformed input or bound mismatch; the registry may then hold a
  // partial merge.
  bool merge_from_json(std::string_view snapshot_json,
                       std::string* error = nullptr);

 private:
  // A merged gauge keeps the maximum of the merged values.
  void merge_gauge(const std::string& name, double value);

  std::map<std::string, double, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

// Linear-interpolated quantile estimate from a histogram's buckets, in
// original (non-micro) units; q in [0,1]. Deterministic: integer bucket
// state in, fixed arithmetic out. Used by the sharded campaign path to
// report p50/p90/p99 without keeping pooled samples in memory.
double histogram_quantile(const MetricsRegistry::Histogram& h, double q);

}  // namespace qoed::obs
