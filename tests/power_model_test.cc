#include "radio/power_model.h"

#include <gtest/gtest.h>

namespace qoed::radio {
namespace {

TEST(PowerModelTest, EmptyLogMeansFullIntervalInInitialState) {
  std::vector<RrcTransitionRecord> log;
  StateResidency r = compute_residency(log, RrcState::kPch, sim::kTimeZero,
                                       sim::TimePoint{sim::sec(10)});
  EXPECT_EQ(r.in(RrcState::kPch), sim::sec(10));
  EXPECT_EQ(r.total(), sim::sec(10));
}

TEST(PowerModelTest, SplitsResidencyAtTransitions) {
  std::vector<RrcTransitionRecord> log = {
      {sim::TimePoint{sim::sec(2)}, RrcState::kPch, RrcState::kDch},
      {sim::TimePoint{sim::sec(7)}, RrcState::kDch, RrcState::kFach},
  };
  StateResidency r = compute_residency(log, RrcState::kPch, sim::kTimeZero,
                                       sim::TimePoint{sim::sec(10)});
  EXPECT_EQ(r.in(RrcState::kPch), sim::sec(2));
  EXPECT_EQ(r.in(RrcState::kDch), sim::sec(5));
  EXPECT_EQ(r.in(RrcState::kFach), sim::sec(3));
  EXPECT_EQ(r.total(), sim::sec(10));
}

TEST(PowerModelTest, TransitionsBeforeWindowSetInitialState) {
  std::vector<RrcTransitionRecord> log = {
      {sim::TimePoint{sim::sec(1)}, RrcState::kPch, RrcState::kDch},
  };
  StateResidency r = compute_residency(log, RrcState::kPch,
                                       sim::TimePoint{sim::sec(5)},
                                       sim::TimePoint{sim::sec(8)});
  EXPECT_EQ(r.in(RrcState::kDch), sim::sec(3));
  EXPECT_EQ(r.in(RrcState::kPch), sim::Duration::zero());
}

TEST(PowerModelTest, TransitionsAfterWindowIgnored) {
  std::vector<RrcTransitionRecord> log = {
      {sim::TimePoint{sim::sec(20)}, RrcState::kPch, RrcState::kDch},
  };
  StateResidency r = compute_residency(log, RrcState::kPch, sim::kTimeZero,
                                       sim::TimePoint{sim::sec(10)});
  EXPECT_EQ(r.in(RrcState::kPch), sim::sec(10));
}

TEST(PowerModelTest, DegenerateWindowIsEmpty) {
  std::vector<RrcTransitionRecord> log;
  StateResidency r = compute_residency(log, RrcState::kDch,
                                       sim::TimePoint{sim::sec(5)},
                                       sim::TimePoint{sim::sec(5)});
  EXPECT_TRUE(r.time_in_state.empty());
}

TEST(PowerModelTest, EnergyMatchesHandComputation) {
  RrcConfig cfg = RrcConfig::umts_default();
  StateResidency r;
  r.time_in_state[RrcState::kDch] = sim::sec(10);
  r.time_in_state[RrcState::kPch] = sim::sec(100);
  const double expected =
      cfg.dch.power_mw / 1000.0 * 10 + cfg.pch.power_mw / 1000.0 * 100;
  EXPECT_DOUBLE_EQ(energy_joules(r, cfg), expected);
}

TEST(PowerModelTest, DchDominatesEnergyDespiteShortResidency) {
  // Sanity: 10s of DCH (~800mW) outweighs 10min of PCH (~10mW).
  RrcConfig cfg = RrcConfig::umts_default();
  StateResidency r;
  r.time_in_state[RrcState::kDch] = sim::sec(10);
  r.time_in_state[RrcState::kPch] = sim::minutes(10);
  EXPECT_GT(cfg.dch.power_mw / 1000.0 * 10,
            cfg.pch.power_mw / 1000.0 * 600);
  EXPECT_GT(cfg.dch.power_mw / 1000.0 * 10, energy_joules(r, cfg) / 2);
}

TEST(PowerModelTest, LtePowerOrdering) {
  RrcConfig cfg = RrcConfig::lte_default();
  EXPECT_GT(cfg.lte_connected.power_mw, cfg.lte_short_drx.power_mw);
  EXPECT_GT(cfg.lte_short_drx.power_mw, cfg.lte_long_drx.power_mw);
  EXPECT_GT(cfg.lte_long_drx.power_mw, cfg.lte_idle.power_mw);
}

}  // namespace
}  // namespace qoed::radio
