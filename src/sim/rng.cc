#include "sim/rng.h"

#include <algorithm>

namespace qoed::sim {
namespace {

// FNV-1a, good enough for deriving stream seeds from names.
std::uint64_t hash_name(std::uint64_t seed, std::string_view name) {
  std::uint64_t h = 14695981039346656037ULL ^ seed;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  // Final avalanche (splitmix64 finalizer).
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

Rng Rng::fork(std::string_view name) const {
  return Rng{hash_name(seed_, name)};
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::exponential(double mean) {
  std::exponential_distribution<double> dist(1.0 / std::max(mean, 1e-12));
  return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
  if (stddev == 0) {
    // std::normal_distribution requires stddev > 0. Still draw one unit
    // normal, so the engine advances as it does for any other stddev.
    std::normal_distribution<double>()(engine_);
    return mean;
  }
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

double Rng::clipped_normal(double mean, double stddev, double lo, double hi) {
  for (int i = 0; i < 64; ++i) {
    double v = normal(mean, stddev);
    if (v >= lo && v <= hi) return v;
  }
  return std::clamp(mean, lo, hi);
}

}  // namespace qoed::sim
