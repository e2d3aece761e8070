// Environment fault injection for the network simulator.
//
// The paper's adversary corrupts up to t parties and controls *message
// content*; the environment faults modelled here are strictly weaker --
// every fault a FaultPlan can inject is a behaviour a byzantine party
// could exhibit voluntarily (crash = stay silent forever, link omission =
// selectively withhold one recipient's messages, partition = two-sided
// omission, inbox permutation = no fault at all in the synchronous model,
// where within-round delivery order is unspecified). A protocol proven
// correct against t byzantine parties therefore tolerates any FaultPlan
// whose *charged* parties number at most t; the degradation campaign
// (bench/degradation_sweep) probes exactly that boundary.
//
// A plan is pure data: a replayable, schedule-independent description of
// which faults fire in which rounds. The round engine (SyncNetwork)
// interprets it deterministically, so the same (protocol, inputs, plan,
// seed) tuple reproduces bit-identical transcripts on every run -- fault
// schedules are corpus material for the fuzzer, not one-off chaos.
//
// Round semantics:
//  * Crash [a, b): the party executes no protocol code during round slices
//    a..b-1 and receives none of the traffic consumed in those slices. With
//    b == kNoRecovery the crash is permanent (crash-stop): the party's
//    runner unwinds and the run does not wait for it. Otherwise the runner
//    is frozen in place -- its stack *is* the persisted state -- and at
//    slice b it resumes exactly where it stopped, seeing the round-(b-1)
//    delivery; rounds a..b-1 are simply missing from its view.
//  * LinkCut [a, b): messages staged from `from` to `to` during rounds
//    a..b-1 are dropped after metering (the sender pays for bytes the
//    network loses) and never reach the transcript or any inbox.
//  * Partition [a, b): no traffic crosses between `side` and its
//    complement during rounds a..b-1 (a symmetric set of LinkCuts).
//  * Shuffle: the recipient's inbox for every round is permuted by a
//    deterministic per-(seed, party, round) stream before delivery. This
//    charges *nobody*: honest protocols must be delivery-order
//    insensitive (net::first_per_sender canonicalizes by sender id).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/common.h"

namespace coca::net {

/// `until_round` value meaning "never recovers" (crash-stop).
inline constexpr std::size_t kNoRecovery = static_cast<std::size_t>(-1);

/// Seed domain for inbox-permutation streams (same splittable-stream
/// contract as the runner/scripted domains in sync_network.h).
inline constexpr std::uint64_t kShuffleSeedDomain = 0x5EEDC0CA'000F417EULL;

struct FaultPlan {
  struct Crash {
    int party = -1;
    std::size_t from_round = 0;
    std::size_t until_round = kNoRecovery;  // kNoRecovery = crash-stop
    bool operator==(const Crash&) const = default;
  };
  struct LinkCut {
    int from = -1;
    int to = -1;
    std::size_t from_round = 0;
    std::size_t until_round = kNoRecovery;
    bool operator==(const LinkCut&) const = default;
  };
  struct Partition {
    std::vector<int> side;  // the minority/charged side of the split
    std::size_t from_round = 0;
    std::size_t until_round = kNoRecovery;
    bool operator==(const Partition&) const = default;
  };
  struct Shuffle {
    int party = -1;  // -1 = every party
    std::uint64_t seed = 1;
    bool operator==(const Shuffle&) const = default;
  };

  std::vector<Crash> crashes;
  std::vector<LinkCut> cuts;
  std::vector<Partition> partitions;
  std::vector<Shuffle> shuffles;

  bool operator==(const FaultPlan&) const = default;

  bool empty() const {
    return crashes.empty() && cuts.empty() && partitions.empty() &&
           shuffles.empty();
  }

  /// Throws Error if any entry is malformed for an n-party network
  /// (ids out of range, empty, total or repeating partition side, empty
  /// windows).
  void validate(int n) const;

  /// True iff `party` is inside some crash window at `round`.
  bool crashed(int party, std::size_t round) const;
  /// True iff `party` has a crash-stop window starting at or before `round`.
  bool crash_stopped(int party, std::size_t round) const;
  /// True iff the directed link from->to is cut at `round` (explicit cuts
  /// plus partition episodes; partitions cut both directions).
  bool link_cut(int from, int to, std::size_t round) const;
  /// Shuffle stream seed for `party`'s inbox, if any entry covers it.
  std::optional<std::uint64_t> shuffle_seed(int party) const;

  /// Parties the plan's faults are charged to, sorted and deduplicated:
  /// crash victims, cut senders (send-omission), and partition sides.
  /// Shuffles charge nobody -- within-round delivery order is unspecified
  /// in the synchronous model, so order sensitivity is a protocol bug, not
  /// a fault. A protocol correct against t byzantine parties tolerates any
  /// plan with |charged| <= t.
  std::vector<int> charged() const;
};

/// Configuration for the seeded plan sampler: draws a random plan charging
/// at most `max_charged` parties, with fault windows inside [0, horizon).
/// Used by the fuzzer (fault schedules as a search dimension) and by tests;
/// the degradation campaign builds its plans explicitly per fault kind.
struct FaultSampleConfig {
  int n = 4;
  std::size_t horizon = 32;
  int max_charged = 1;
  bool allow_crash = true;
  bool allow_cuts = true;
  bool allow_partition = true;
  bool allow_shuffle = true;
  std::uint64_t seed = 1;
};

FaultPlan sample_fault_plan(const FaultSampleConfig& cfg);

/// Fault bookkeeping for one run (part of RunStats).
struct FaultStats {
  std::uint64_t crashes_injected = 0;  // crash windows that started
  std::uint64_t recoveries = 0;        // crash windows that ended in time
  std::uint64_t rounds_missed = 0;     // (party, round) slices not executed
  std::uint64_t messages_dropped = 0;  // cut / partition / crash drops
  std::uint64_t inboxes_shuffled = 0;  // inbox permutations applied
};

/// Structured per-party result of a run (SyncNetwork::run_report).
enum class Outcome {
  kDecided,  // protocol function returned normally
  kTimedOut, // still running when the round cap hit
  kCrashed,  // unwound by a FaultPlan crash-stop
  kAborted,  // protocol code threw; evidence carries the message
};

const char* to_string(Outcome o);

struct PartyOutcome {
  Outcome outcome = Outcome::kDecided;
  std::string evidence;  // exception text / crash round / round cap
  /// Protocol phase stack ("PiZ/lBA+") the party was inside when the
  /// outcome was sealed; empty for kDecided and for failures outside any
  /// phase. Tells degradation tables *where* beyond-t runs die.
  std::string phase;
};

}  // namespace coca::net
