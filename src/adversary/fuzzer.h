// Adversary search: sweep mutation-based byzantine behaviours over the
// whole protocol zoo and check every execution against one shared
// invariant oracle.
//
// A `FuzzCase` pins everything needed to reproduce an execution
// bit-for-bit: the protocol under test, (n, t), the input scale `ell`, the
// honest-workload seed, the corrupted-party set, and the `MutatorConfig`
// each corrupted party wraps its honest instance in (per-party mutator
// streams are split off `mutation.seed` with `Rng::derive_stream_seed`).
// `execute_case` runs it and returns the oracle's verdict:
//
//   * termination  -- the run finishes within a per-target round budget,
//   * no crash     -- no honest instance throws on adversarial traffic,
//   * agreement    -- all honest outputs equal,
//   * validity     -- outputs inside the honest inputs' convex hull
//                     (plus Intrusion Tolerance / Bounded Pre-Agreement
//                     for the BA+ targets, Lemma-1 shape for FindPrefix),
//   * bits budget  -- honest BITS_l below a generous multiple of the
//                     paper's cost formula (catches honest-side blowups).
//
// `Fuzzer` drives the search under a wall-clock/iteration budget,
// `shrink_case` minimizes a violating case against a caller-supplied
// still-fails predicate, and `CorpusEntry` round-trips through JSON so
// minimized counterexamples live in tests/corpus/ and replay
// deterministically (same seed -> same transcript -> same verdict).
//
// Environment faults are a search dimension: a case may additionally carry
// a `net::FaultPlan` (crash-stop, crash-recovery, link cuts, partitions,
// inbox shuffles). The oracle then treats corrupted U charged as the
// adversary's budget -- invariants are enforced over the remaining
// parties, and the case is valid while |corrupted| <= t (the plan's
// charged set may exceed t; the degradation campaign probes exactly that).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "adversary/mutator.h"
#include "net/fault_plan.h"
#include "net/sync_network.h"
#include "util/json.h"

namespace coca::adv {

/// One fully-specified fuzz execution. Equality is structural: two equal
/// cases replay the same transcript.
struct FuzzCase {
  std::string protocol;        // one of known_protocols()
  int n = 4;
  int t = 1;                   // corruption budget (t < n/3)
  std::size_t ell = 16;        // input bit-length scale
  std::uint64_t input_seed = 0;  // honest workload generator seed
  std::vector<int> corrupted;  // parties wrapped in a Mutator
  MutatorConfig mutation;      // seed is the root; per-party streams derived
  /// Former round-slice window; 0 or 1, both the one fiber schedule.
  /// Kept only because perfbench/ sets it and corpus JSON carries the key;
  /// delete it with the next benchmark change.
  int threads = 0;
  /// Environment fault schedule (empty = none). Must be disjoint from
  /// `corrupted` (a party is either byzantine or environment-faulted, not
  /// both). Both may be empty: that is a plain honest run.
  net::FaultPlan faults;

  bool operator==(const FuzzCase&) const = default;
};

/// The oracle's verdict over one execution; empty violations = all hold.
struct FuzzVerdict {
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
};

struct FuzzOutcome {
  FuzzVerdict verdict;
  net::RunStats stats;     // up to the last completed round
  bool terminated = false; // neither the round budget nor the router ended it
  std::string failure;     // the RoundRouter's reason if the transport failed
  /// Per-party outcomes of the run (SyncNetwork::run_report), n entries.
  std::vector<net::PartyOutcome> outcomes;
};

/// The protocol targets the fuzzer knows how to drive.
const std::vector<std::string>& known_protocols();

/// Structural validation of a case (ranges, disjointness, budgets); throws
/// Error on the first problem. execute_case runs it implicitly; batch
/// drivers (the sharded engine) call it up front so a malformed case
/// surfaces before any worker starts.
void validate_case(const FuzzCase& c);

/// Optional observation taps for execute_case. Every pointer may be null
/// and must outlive the call; none of them changes the execution -- the
/// transcript and verdict are bit-identical with or without hooks.
struct ExecHooks {
  net::Transcript* transcript = nullptr;  // canonical message transcript
  obs::Tracer* tracer = nullptr;          // fresh Tracer per case
  /// Per-round delivery stream (see net::RoundObserver). The sharded
  /// engine installs one per instance to log its rounds.
  net::RoundObserver* observer = nullptr;
  /// Round transport (see net::RoundRouter). Unlike the taps above this
  /// *does* change where bytes travel -- every delivered round crosses the
  /// router's wire -- but not what they are: the conformance suite pins
  /// routed executions bit-identical to in-process ones. This is how the
  /// service runtime (src/svc) lifts all 8 protocols, the fuzzer's
  /// SendTaps, and FaultPlans onto real sockets without touching them.
  net::RoundRouter* router = nullptr;
};

/// Runs one case to its verdict, feeding whichever hooks are set. Throws
/// Error on a malformed case (unknown protocol, out-of-range ids,
/// t >= n/3, ...).
FuzzOutcome execute_case(const FuzzCase& c, const ExecHooks& hooks);

/// Convenience overload: transcript and/or tracer only.
FuzzOutcome execute_case(const FuzzCase& c,
                         net::Transcript* transcript = nullptr,
                         obs::Tracer* tracer = nullptr);

/// A minimized counterexample as stored in tests/corpus/: the case plus
/// the violations it reproduced when found.
struct CorpusEntry {
  FuzzCase c;
  std::vector<std::string> violations;
  std::string note;

  bool operator==(const CorpusEntry&) const = default;
};

/// JSON round trip for corpus files. Entries without faults serialize
/// byte-identically to the original schema "coca-fuzz-v1"; entries with a
/// FaultPlan use "coca-fuzz-v2" (adds a "faults" object). The reader
/// accepts both through util/json's strict reader: exact schema, no
/// unknown or repeated keys, ranged integers, no trailing bytes; it throws
/// Error on malformed input. `read_corpus_entry` reads one entry object
/// in place (the wire-chaos reproducer nests one); the string form also
/// requires the text to end after it.
std::string to_json(const CorpusEntry& entry);
CorpusEntry read_corpus_entry(json::Reader& r);
CorpusEntry corpus_entry_from_json(std::string_view text);

/// Greedily minimizes `c` while `still_fails` holds: fewer corrupted
/// parties, fewer fault entries, smaller n, shorter ell, fewer active
/// operators, shallower delays -- to a fixpoint or `max_attempts`
/// predicate evaluations.
using FailPredicate = std::function<bool(const FuzzCase&)>;
FuzzCase shrink_case(FuzzCase c, const FailPredicate& still_fails,
                     std::size_t max_attempts = 64);

struct FuzzerOptions {
  double budget_sec = 10.0;             // wall-clock budget for run()
  std::size_t max_cases = SIZE_MAX;     // iteration budget for run()
  std::uint64_t seed = 1;               // search-stream seed
  std::vector<std::string> protocols;   // empty = all known
  std::vector<int> sizes = {4, 7};      // candidate n values
  bool shrink = true;                   // minimize violations before report
  /// When set, roughly half the drawn cases also carry a sampled
  /// FaultPlan, with |corrupted| + |charged| kept <= t so every invariant
  /// is still required to hold.
  bool faults = false;
};

struct FuzzReport {
  std::size_t executed = 0;
  std::map<std::string, std::size_t> cases_by_protocol;
  std::vector<CorpusEntry> violations;  // shrunk when options.shrink
};

/// The search driver: round-robins protocols, randomizes everything else
/// from one seeded stream, executes until a budget is hit, and shrinks
/// whatever the oracle rejects.
class Fuzzer {
 public:
  explicit Fuzzer(FuzzerOptions options);

  /// Draws the next randomized case (exposed for tests; run() consumes the
  /// same stream).
  FuzzCase next_case();

  FuzzReport run();

 private:
  FuzzerOptions options_;
  std::vector<std::string> protocols_;
  Rng rng_;
  std::size_t counter_ = 0;
};

}  // namespace coca::adv
