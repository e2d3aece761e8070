// Graceful-degradation campaign at the t < n/3 resilience boundary.
//
// The paper proves every protocol correct against up to t byzantine
// corruptions; environment faults (net/fault_plan.h) are strictly weaker
// adversaries, so the same theorem covers any fault plan whose charged
// parties number at most t. This module turns that argument into a
// measured table: for every protocol target and every fault kind it sweeps
// the number of charged parties f from 0 through t and past it, and checks
//
//   f <= t : every invariant of the shared oracle holds over the
//            non-charged parties (agreement, validity, termination, the
//            BITS_l budget) -- the theorem's regime;
//   f >  t : no guarantee survives, but the failure must be *graceful* --
//            the run returns structured per-party outcomes (Decided /
//            TimedOut / Crashed / AbortedWithEvidence) instead of hanging
//            or crashing the process; whether the invariants happened to
//            hold anyway is recorded as data (crash faults are much weaker
//            than byzantine ones, so they often do).
//
// The shuffle kind is the f = 0 baseline: inbox permutation charges
// nobody, so its row must hold at every size -- it doubles as the
// delivery-order-insensitivity check for the whole protocol zoo.
//
// Used by bench/degradation_sweep (the campaign binary behind the
// T-degrade table in EXPERIMENTS.md) and tests/test_degradation.cpp.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "adversary/fuzzer.h"
#include "net/fault_plan.h"

namespace coca::adv {

enum class FaultKind {
  kCrashStop,
  kCrashRecovery,
  kLinkCut,
  kPartition,
  kShuffle,
};

const std::vector<FaultKind>& all_fault_kinds();
std::string_view to_string(FaultKind kind);

/// The deterministic plan a campaign cell uses: `f` charged parties (ids
/// 0..f-1) of the given kind, with staggered early-round windows so the
/// fault lands inside every protocol's active phase. kShuffle ignores `f`
/// and charges nobody. Throws Error on impossible cells (f < 1 for a
/// charging kind, f >= n for a partition).
net::FaultPlan degradation_plan(FaultKind kind, int f, int n);

struct DegradationConfig {
  int n = 7;
  std::size_t ell = 16;
  int f_max = -1;              // highest f swept; -1 = t + 2
  std::vector<std::string> protocols;  // empty = all known targets
  std::uint64_t input_seed = 0xD152'AD3;
};

struct DegradationRow {
  std::string protocol;
  FaultKind kind = FaultKind::kShuffle;
  int f = 0;                    // |charged| of the cell's plan
  bool hold_required = false;   // f <= t: the theorem's regime
  bool invariants_held = false; // oracle verdict over non-charged parties
  bool graceful = false;        // structured outcomes, nothing escaped
  std::size_t rounds = 0;
  std::uint64_t honest_bits = 0;
  std::vector<std::string> violations;          // when !invariants_held
  std::map<std::string, int> outcome_counts;    // Outcome name -> #parties
  /// Where the non-Decided outcomes landed: "<Outcome>@<phase stack>" ->
  /// #parties (phase "(none)" when the party never entered a phase, e.g.
  /// crashed before its first protocol step).
  std::map<std::string, int> outcome_phases;

  /// The cell's pass criterion: graceful always; invariants when required.
  bool passed() const {
    return graceful && (invariants_held || !hold_required);
  }
};

struct DegradationReport {
  DegradationConfig config;
  int t = 0;
  std::vector<DegradationRow> rows;

  bool ok() const;
  std::size_t failures() const;
};

DegradationReport run_degradation_campaign(const DegradationConfig& cfg);

/// The T-degrade table (GitHub-flavoured markdown) for EXPERIMENTS.md.
std::string degradation_markdown(const DegradationReport& report);
/// Machine-readable campaign artifact (schema "coca-degrade-v1").
std::string degradation_json(const DegradationReport& report);

}  // namespace coca::adv
