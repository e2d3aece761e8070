// The graceful-degradation campaign as a regression test (tier 2): every
// protocol target, every environment fault kind, charged-party counts
// swept from 0 through t = floor((n-1)/3) and past it.
//
// Contract under test (the tentpole claim of the fault-injection layer):
//   * f <= t  -- every oracle invariant holds over the non-charged
//     parties: environment faults are weaker than the byzantine adversary
//     the paper's theorem already covers;
//   * f >  t  -- the run still ends gracefully with structured per-party
//     outcomes; nothing hangs, nothing escapes as an exception.
#include "adversary/degradation.h"

#include <gtest/gtest.h>

namespace coca::adv {
namespace {

std::string row_label(const DegradationRow& row) {
  return row.protocol + " " + std::string(to_string(row.kind)) +
         " f=" + std::to_string(row.f) +
         (row.violations.empty() ? "" : (": " + row.violations.front()));
}

TEST(Degradation, FullCampaignAtTheBoundary) {
  DegradationConfig cfg;
  cfg.n = 7;  // t = 2: sweeps f = 0, 1, 2 (covered) and 3, 4 (beyond)
  cfg.ell = 16;
  const DegradationReport report = run_degradation_campaign(cfg);
  EXPECT_EQ(report.t, 2);
  // 8 protocols x (1 shuffle row + 4 charging kinds x 4 sizes).
  EXPECT_EQ(report.rows.size(), 8u * 17u);
  for (const DegradationRow& row : report.rows) {
    EXPECT_TRUE(row.graceful) << row_label(row);
    if (row.hold_required) {
      EXPECT_TRUE(row.invariants_held) << row_label(row);
    }
    // Structured outcomes cover every party.
    int parties = 0;
    for (const auto& [name, count] : row.outcome_counts) parties += count;
    EXPECT_EQ(parties, cfg.n) << row_label(row);
  }
  EXPECT_TRUE(report.ok());
}

TEST(Degradation, ShuffleRowsHoldAtEverySize) {
  // Inbox permutation charges nobody, so its cells must hold even in a
  // campaign whose charging cells are pushed past the boundary.
  DegradationConfig cfg;
  cfg.n = 4;
  cfg.ell = 8;
  cfg.f_max = 3;  // n - 1: every charging kind swept to the maximum
  const DegradationReport report = run_degradation_campaign(cfg);
  for (const DegradationRow& row : report.rows) {
    if (row.kind == FaultKind::kShuffle) {
      EXPECT_TRUE(row.invariants_held) << row_label(row);
      EXPECT_FALSE(row.hold_required && !row.invariants_held);
    }
    EXPECT_TRUE(row.graceful) << row_label(row);
  }
  EXPECT_TRUE(report.ok());
}

TEST(Degradation, PlanBuilderMatchesItsContract) {
  const net::FaultPlan crash = degradation_plan(FaultKind::kCrashStop, 2, 7);
  EXPECT_EQ(crash.charged(), (std::vector<int>{0, 1}));
  const net::FaultPlan part = degradation_plan(FaultKind::kPartition, 3, 7);
  EXPECT_EQ(part.charged(), (std::vector<int>{0, 1, 2}));
  const net::FaultPlan shuffle = degradation_plan(FaultKind::kShuffle, 0, 7);
  EXPECT_TRUE(shuffle.charged().empty());
  EXPECT_THROW(degradation_plan(FaultKind::kPartition, 7, 7), Error);
  EXPECT_THROW(degradation_plan(FaultKind::kCrashStop, 0, 7), Error);
  EXPECT_THROW(degradation_plan(FaultKind::kShuffle, 1, 7), Error);
}

}  // namespace
}  // namespace coca::adv
