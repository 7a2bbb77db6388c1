#include "sim/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace qoed::sim {
namespace {

TEST(RngTest, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, ForkIsIndependentOfParentDrawCount) {
  Rng a(7);
  Rng fork_before = a.fork("stream");
  for (int i = 0; i < 50; ++i) a.uniform();
  Rng fork_after = a.fork("stream");
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(fork_before.uniform(), fork_after.uniform());
  }
}

TEST(RngTest, ForksWithDifferentNamesDiffer) {
  Rng a(7);
  Rng x = a.fork("x"), y = a.fork("y");
  EXPECT_NE(x.uniform(), y.uniform());
}

TEST(RngTest, UniformInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    double v = r.uniform(5.0, 6.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 6.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng r(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    saw_lo |= v == 1;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliExtremes) {
  Rng r(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng r(17);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += r.exponential(2.0);
  EXPECT_NEAR(sum / kN, 2.0, 0.1);
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng r(23);
  constexpr int kN = 20000;
  double sum = 0, sq = 0;
  for (int i = 0; i < kN; ++i) {
    double v = r.normal(10.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.15);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.15);
}

TEST(RngTest, ClippedNormalStaysInRange) {
  Rng r(29);
  for (int i = 0; i < 5000; ++i) {
    double v = r.clipped_normal(0.0, 10.0, -1.0, 1.0);
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

// A zero stddev (a jitter switched off) returns the mean and still consumes
// one unit normal's draws, so the stream after it is the same as after any
// other stddev. std::normal_distribution itself requires stddev > 0: a
// _GLIBCXX_ASSERTIONS build aborts if the zero reaches it.
TEST(RngTest, ZeroStddevNormalReturnsMeanAndAdvancesLikeAnyOther) {
  Rng zero(31), unit(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zero.normal(2.5, 0.0), 2.5);
    unit.normal(0.0, 1.0);
    EXPECT_EQ(zero.uniform(), unit.uniform());
  }
  EXPECT_EQ(zero.clipped_normal(0.004, 0.0, 0.0, 1.0), 0.004);
}

TEST(RngTest, SeedAccessor) {
  Rng r(123);
  EXPECT_EQ(r.seed(), 123u);
}

}  // namespace
}  // namespace qoed::sim
