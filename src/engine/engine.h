// Instance-sharded execution engine: many concurrent CA/BA instances over
// a fixed pool of worker threads.
//
// The production shape the ROADMAP aims at multiplexes thousands of
// agreement instances (one per key/shard) over shared workers; the paper's
// per-instance bit/round guarantees only survive that multiplexing if each
// instance's execution is untouched by its neighbors. This engine makes
// that an invariant rather than a hope:
//
//  * Sharding. K instances are dealt round-robin over W workers
//    (instance i runs on worker i % W). Each worker runs its instances one
//    after another, each on its own private SyncNetwork -- no protocol
//    state, RNG stream, or payload buffer is shared between instances.
//  * Join, then fold. Each instance's net::RoundObserver appends
//    (round, honest_bytes) to a log owned by that instance. Workers write
//    only their own instances' results and logs; the thread join is the
//    only handoff. After the join the calling thread folds the logs and
//    RunStats in instance order 0..K-1 -- so every report field except
//    wall-clock time is independent of worker count and interleaving.
//
// Headline invariant (tier-1 asserted across worker counts {1, 2, 8}):
// every instance's transcript, RunStats, and phase_breakdown are
// bit-identical to the same case run alone on a single SyncNetwork.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adversary/fuzzer.h"
#include "engine/kernel_batch.h"
#include "obs/obs.h"

namespace coca::engine {

struct EngineOptions {
  /// Worker threads (clamped to the instance count; >= 1).
  int workers = 1;
  /// Record each instance's canonical transcript (the equivalence gate).
  bool record_transcripts = true;
  /// Attach a per-instance canonical-mode Tracer (timing off) and fold the
  /// registries into EngineReport::metrics in instance order.
  bool trace = false;
};

struct InstanceResult {
  adv::FuzzOutcome outcome;
  net::Transcript transcript;  // empty unless record_transcripts
  int worker = -1;             // which worker ran it
  /// Rounds the instance's net::RoundObserver reported; equals
  /// outcome.stats.rounds (the trailing leftover-only flush is neither
  /// reported nor counted as a round).
  std::uint64_t rounds_streamed = 0;
};

struct EngineReport {
  std::vector<InstanceResult> instances;  // indexed like the input cases
  // Aggregates over all instances (from the authoritative RunStats;
  // commutative sums, so worker-count independent).
  std::uint64_t honest_bytes = 0;
  std::uint64_t honest_messages = 0;
  std::uint64_t rounds = 0;
  /// Cross-instance view: honest bytes per round index, folded from the
  /// per-instance round logs in instance order.
  std::vector<std::uint64_t> honest_bytes_by_round;
  /// Folded per-instance metrics in instance order (empty unless trace).
  obs::MetricsRegistry metrics;
  /// Always zero: the engine no longer batches kernels (see
  /// engine/kernel_batch.h).
  KernelBatchStats kernel_batch;
  double seconds = 0.0;  // wall clock, the only schedule-dependent field
};

class Engine {
 public:
  explicit Engine(EngineOptions options);

  /// Runs every case to completion and returns the per-instance results
  /// plus cross-instance aggregates. Cases are validated up front (throws
  /// Error on a malformed one before any instance starts).
  EngineReport run(const std::vector<adv::FuzzCase>& cases);

 private:
  EngineOptions options_;
};

// ---------------------------------------------------------------------------
// Cross-instance isolation: the sharded fuzz target.

struct ShardedCaseOptions {
  int instances = 4;  // total instances incl. the victim (>= 2)
  int workers = 2;
  /// Seed for deriving the honest neighbors' input seeds.
  std::uint64_t neighbor_seed = 1;
};

/// Verdict of one sharded isolation check: the victim's own oracle verdict
/// plus any cross-instance leaks (a neighbor whose transcript, stats, or
/// verdict differs from its solo run).
struct IsolationReport {
  adv::FuzzVerdict victim;
  std::vector<std::string> violations;  // isolation breaches only
  bool ok() const { return violations.empty(); }
};

/// Runs `victim` inside a sharded engine surrounded by honest neighbor
/// instances (same protocol/n/ell, derived seeds, no corruption, no
/// faults), and checks every neighbor against its own solo SyncNetwork run:
/// transcript, honest_bytes/messages/rounds, phase_breakdown, and oracle
/// violations must all be bit-identical. Equality-based on purpose: it
/// stays two-sided-correct even on builds (e.g. COCA_CANARY_BUG) where the
/// solo baseline itself fails the oracle.
IsolationReport check_isolation(const adv::FuzzCase& victim,
                                const ShardedCaseOptions& options);

}  // namespace coca::engine
