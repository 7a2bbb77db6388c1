#include "core/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/app_analyzer.h"

namespace qoed::core {
namespace {

TEST(StatsTest, SummaryOfKnownValues) {
  Summary s = summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-9);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
}

TEST(StatsTest, EmptySummaryIsZero) {
  Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(StatsTest, LargeMagnitudeStddevDoesNotCancel) {
  // Regression: the naive E[x²]−E[x]² formula catastrophically cancels for
  // large-magnitude samples (e.g. absolute TimePoint microsecond values).
  // Shifting a sample set by a constant must not change its stddev.
  const double base = 1e9;
  Summary s = summarize({base + 1, base + 2, base + 3, base + 4, base + 5});
  EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-6);
  EXPECT_DOUBLE_EQ(s.mean, base + 3);

  // Zero spread at large magnitude stays exactly zero (clamp still holds).
  Summary z = summarize({base, base, base});
  EXPECT_DOUBLE_EQ(z.stddev, 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 1.0), 10.0);
}

TEST(StatsTest, CdfPointsAreMonotone) {
  auto pts = empirical_cdf({5, 3, 8, 1, 9, 2}, 10);
  ASSERT_EQ(pts.size(), 10u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].first, pts[i - 1].first);
    EXPECT_GT(pts[i].second, pts[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
  EXPECT_DOUBLE_EQ(pts.back().first, 9.0);
}

TEST(AppAnalyzerTest, CalibrationSubtractsThreeHalvesForActionStart) {
  BehaviorRecord r;
  r.action = "upload_post:status";
  r.start = sim::TimePoint{sim::sec(10)};
  r.end = sim::TimePoint{sim::sec(12)};
  r.parsing_interval = sim::msec(50);
  r.start_from_parse = false;
  EXPECT_EQ(AppLayerAnalyzer::calibrate(r), sim::sec(2) - sim::msec(75));
}

TEST(AppAnalyzerTest, CalibrationSubtractsOneParsingForParseStart) {
  BehaviorRecord r;
  r.start = sim::TimePoint{sim::sec(10)};
  r.end = sim::TimePoint{sim::sec(11)};
  r.parsing_interval = sim::msec(40);
  r.start_from_parse = true;
  EXPECT_EQ(AppLayerAnalyzer::calibrate(r), sim::sec(1) - sim::msec(40));
}

TEST(AppAnalyzerTest, CalibrationClampsAtZero) {
  BehaviorRecord r;
  r.start = sim::TimePoint{sim::sec(1)};
  r.end = sim::TimePoint{sim::sec(1) + sim::msec(10)};
  r.parsing_interval = sim::msec(50);
  EXPECT_EQ(AppLayerAnalyzer::calibrate(r), sim::Duration::zero());
}

TEST(AppAnalyzerTest, SummaryExcludesTimeouts) {
  AppBehaviorLog log;
  BehaviorRecord ok;
  ok.action = "page_load";
  ok.start = sim::TimePoint{sim::sec(0)};
  ok.end = sim::TimePoint{sim::sec(2)};
  ok.parsing_interval = sim::msec(50);
  log.add(ok);
  BehaviorRecord bad = ok;
  bad.timed_out = true;
  log.add(bad);

  Summary s = AppLayerAnalyzer::summarize(log, "page_load");
  EXPECT_EQ(s.n, 1u);
}

TEST(AppAnalyzerTest, ActionFilterSelectsSubset) {
  AppBehaviorLog log;
  for (int i = 0; i < 3; ++i) {
    BehaviorRecord r;
    r.action = i < 2 ? "a" : "b";
    r.end = sim::TimePoint{sim::sec(1)};
    log.add(r);
  }
  EXPECT_EQ(AppLayerAnalyzer::latencies_seconds(log, "a").size(), 2u);
  EXPECT_EQ(AppLayerAnalyzer::latencies_seconds(log, "b").size(), 1u);
  EXPECT_EQ(AppLayerAnalyzer::latencies_seconds(log).size(), 3u);
  EXPECT_EQ(log.for_action("a").size(), 2u);
}

}  // namespace
}  // namespace qoed::core
