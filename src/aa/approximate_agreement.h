// Synchronous Approximate Agreement (AA) -- the related-work primitive the
// paper builds on conceptually (Section 1.1: the honest-range validity
// requirement originates in AA [Dolev-Lynch-Pinter-Stark-Weihl'86]).
//
// Included as a comparison substrate: AA relaxes Agreement to "outputs
// within epsilon" and converges by iterated averaging, with every iteration
// shipping full values to everyone -- exactly the O(l n^2)-per-round pattern
// whose cost the paper's CA protocol avoids. Only the unit tests run it: it
// is not one of the adv::known_protocols() targets, so the oracle, fuzzer
// and benchmarks do not cover it.
//
// Algorithm (gradecast-flavoured single-hop validation, in the style of the
// simple gradecast-based AA of Ben-Or-Dolev-Hoch):
// each of R publicly known iterations runs two rounds:
//   1. every party sends its current value to all;
//   2. every party echoes a vector of hashes of what it received; a value is
//      *accepted* iff n-t echo vectors confirm it, so an equivocating
//      byzantine sender contributes at most one globally-consistent value
//      (or none), and any two honest parties' accepted multisets differ in
//      at most t entries -- never on honest senders' values.
// The new value is the midpoint of the accepted multiset trimmed by t at
// each end, which (a) stays inside the honest inputs' range (Convex
// Validity) and (b) halves the honest diameter per iteration.
//
// R must be the same at all honest parties (synchronous lock-step); pick
// R >= log2(initial_diameter / epsilon).
#pragma once

#include "net/sync_network.h"
#include "util/bignat.h"

namespace coca::aa {

class SyncApproxAgreement {
 public:
  /// Runs `rounds` halving iterations (2 communication rounds each) and
  /// returns the final value. All honest parties must pass equal `rounds`.
  BigInt run(net::PartyContext& ctx, const BigInt& input,
             std::size_t rounds) const;
};

/// ceil(log2(diameter / epsilon)) iterations guarantee the honest outputs
/// are within epsilon of each other, given an a-priori public bound
/// `diameter` on the honest inputs' spread.
std::size_t iterations_for(const BigNat& diameter, const BigNat& epsilon);

}  // namespace coca::aa
