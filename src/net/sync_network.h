// Lock-step synchronous network simulator.
//
// Models the paper's communication setting: n parties, fully connected,
// authenticated channels (receivers learn the true sender id), synchronous
// rounds (every message sent in round r is delivered at the end of round r).
// Up to t parties are byzantine; the adversary is *rushing* -- byzantine
// parties observe all honest round-r messages before choosing their own
// round-r messages, the strongest scheduling the synchronous model allows.
//
// Honest parties run protocol code as straight-line functions;
// `PartyContext::advance()` is the round barrier. This lets the
// implementation mirror the paper's pseudocode one statement at a time.
//
// Every party runs as a cooperative fiber on the thread that called run():
// a release from the barrier is one user-space stack switch (x86-64
// assembly in net/fiber_switch_x86_64.S; no system call, no signal mask),
// and no locks are taken anywhere. Within a round the controller resumes
// parties in canonical runner-table order. Each party stages sends into a
// runner-local outbox and draws from a per-party RNG stream split off the
// root seed; inboxes are ordered by sender id, metered bits are summed per
// party, and honest control flow depends only on agreed values -- so a
// transcript is a function of the configuration alone. Fiber switches are
// annotated for AddressSanitizer and ThreadSanitizer, so sanitizer builds
// check this same engine. Each fiber stack is 1 MiB with a PROT_NONE guard
// page below it: a party that overflows its stack kills the process with
// SIGSEGV rather than corrupting a neighbouring fiber. Stacks are reused
// through a per-thread free list: a thread maps a new one only when a run
// has more parties than any earlier run on that thread.
//
// One caveat: fibers cannot be preempted, so a party that loops forever
// without calling advance() hangs the run. `max_rounds` bounds only
// protocols that keep advancing; it is the engine's termination guard.
//
// Wire traffic is carried as immutable `Payload` values (see
// net/payload.h). A `send_all` is one staged entry, metered as n sends; the
// controller carries it as one item through the drain and the merge and
// fans it out into n messages only where a recipient's copy is used (the
// inboxes, the Transcript, the rushing adversary's view, link faults and
// the RoundRouter). Every copy is a view of the one buffer (a payload of
// at most `Payload::kInline` bytes is copied inline instead), and
// `RunStats` reports the number of deep copies the substrate performed --
// zero on the honest path.
//
// Byzantine parties come in three flavours:
//  * scripted strategies (`ByzantineStrategy`) that fabricate arbitrary bytes,
//  * protocol-running corruptions (honest code with an adversarial input),
//  * split-brain equivocators: two honest protocol instances behind one wire
//    id, each talking to a disjoint subset of recipients.
//
// The simulator meters bytes and messages per party and per named protocol
// phase; "honest bits" is the paper's BITS_l cost measure.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "net/exec_policy.h"
#include "net/fault_plan.h"
#include "net/payload.h"
#include "net/round_router.h"
#include "util/common.h"
#include "util/rng.h"

namespace coca::obs {
class Tracer;
}

namespace coca::net {

/// Root seed domains for the per-party deterministic RNG streams
/// (`Rng::stream(domain, key)`). Stable constants: the exact stream values
/// are pinned by tests/test_rng.cpp so accidental changes to stream
/// splitting surface as test failures, not silent transcript drift.
inline constexpr std::uint64_t kRunnerSeedDomain = 0x5EEDC0CA'0000001DULL;
inline constexpr std::uint64_t kScriptedSeedDomain = 0x5EEDC0CA'00000B52ULL;

/// Phase key for honest bytes staged outside any PhaseScope. Appears in
/// `RunStats::phase_breakdown` so the map always sums exactly to
/// `honest_bytes`; a nonzero value under this key on an honest run means a
/// protocol forgot to wrap a send in a phase (the invariant oracle checks).
inline constexpr const char* kUnattributedPhase = "(unattributed)";

/// Stream key of a protocol-running instance: split-brain corruptions own
/// two runners behind one party id, so the runner index disambiguates.
constexpr std::uint64_t runner_stream_key(int party,
                                          std::size_t runner_index) {
  return (static_cast<std::uint64_t>(party) << 20) |
         static_cast<std::uint64_t>(runner_index);
}

/// Always true: fibers are the engine's only backend. Kept only because
/// perfbench/ prints it; delete it with the next benchmark change.
inline bool fibers_available() { return true; }

/// A delivered message with its authenticated sender. The payload is a
/// shared view: all recipients of one `send_all` alias one buffer.
struct Envelope {
  int from = -1;
  Payload payload;
};

/// Everything observable about one execution, in canonical order: per round,
/// the delivered messages (in sender-id order, send order within a sender,
/// a broadcast as n messages in recipient order) and the bytes the honest
/// parties staged. Repeated runs of one configuration -- solo, sharded or
/// wired -- must compare equal. Messages hold payload *views*; equality is
/// content equality.
struct Transcript {
  struct Msg {
    int from = -1;
    int to = -1;
    Payload payload;
    bool operator==(const Msg&) const = default;
  };
  struct Round {
    std::vector<Msg> messages;       // canonical delivery order
    std::uint64_t honest_bytes = 0;  // staged by honest parties this round
    bool operator==(const Round&) const = default;
  };
  std::vector<Round> rounds;
  bool operator==(const Transcript&) const = default;
};

/// Keeps the first *delivered* message of each sender, in sender-id order.
/// Protocol steps of the paper implicitly assume one message per sender per
/// round; duplicates are a byzantine artefact and are ignored
/// deterministically. The result is canonical regardless of inbox order --
/// an unsorted inbox is stably sorted by sender id first -- so protocols
/// built on this helper are delivery-order insensitive by construction
/// (which a FaultPlan inbox shuffle relies on). The engine delivers inboxes
/// already sorted, so on them nothing is sorted. Copies are payload views
/// (refcount bumps or inline copies), never counted copies; a moved-in
/// inbox is filtered in place.
std::vector<Envelope> first_per_sender(std::vector<Envelope> inbox);

/// One distinct value of a count and its number of occurrences.
struct ValueCount {
  Payload value;
  int count = 0;
};

/// Counts `value` into `counts`, which holds distinct values in ascending
/// order under `less` (equal = neither is less): a repeat bumps its count,
/// a new value is inserted in order.
template <class Less = std::less<>>
void count_value(std::vector<ValueCount>& counts, Payload value,
                 Less less = {}) {
  const auto it = std::lower_bound(
      counts.begin(), counts.end(), value,
      [&](const ValueCount& c, const Payload& v) { return less(c.value, v); });
  if (it != counts.end() && !less(value, it->value)) {
    ++it->count;
  } else {
    counts.insert(it, {std::move(value), 1});
  }
}

/// A round's count: the first message of each sender for which `valid`
/// holds, counted by `count_value`. The ascending order is the protocols'
/// tie order; a counted value is a view of the first payload counted
/// equal to it (the default order is byte order, so all are the same).
template <class Valid, class Less = std::less<>>
std::vector<ValueCount> tally(std::vector<Envelope> inbox, Valid valid,
                              Less less = {}) {
  std::vector<ValueCount> counts;
  for (Envelope& e : first_per_sender(std::move(inbox))) {
    if (valid(e.payload)) count_value(counts, std::move(e.payload), less);
  }
  return counts;
}

/// The smallest counted value occurring at least `threshold` times, or null.
inline const ValueCount* first_reaching(const std::vector<ValueCount>& counts,
                                        int threshold) {
  for (const ValueCount& c : counts) {
    if (c.count >= threshold) return &c;
  }
  return nullptr;
}

class SyncNetwork;

/// Handle through which protocol code talks to the network. One per running
/// protocol instance (a split-brain corruption owns two).
class PartyContext {
 public:
  PartyContext(const PartyContext&) = delete;
  PartyContext& operator=(const PartyContext&) = delete;

  int id() const { return party_; }
  int n() const;
  int t() const;

  /// Stage a message to party `to` (0-based) for delivery at this round's end.
  void send(int to, Bytes payload);
  void send(int to, Payload payload);
  /// Stage the same message to all n parties (including self): one staged
  /// entry, metered as n sends and fanned out at delivery, where every
  /// recipient gets a view of the one buffer. A tapped runner's tap still
  /// sees n sends. The rvalue/Payload overloads are zero-copy; the lvalue
  /// overload deep-copies once (counted in `RunStats::payload_copies`) --
  /// move at the call site to avoid it.
  void send_all(Bytes&& payload) { send_all(Payload(std::move(payload))); }
  void send_all(const Bytes& payload) { send_all(Payload::copy_of(payload)); }
  void send_all(Payload payload);

  /// Ends the current round: blocks until all parties advance, then returns
  /// every message addressed to this party in the round just ended, ordered
  /// by sender id.
  std::vector<Envelope> advance();

  /// RAII scope attributing all bytes sent while open to `name`
  /// (in addition to any enclosing phases). The name is copied only the
  /// first time its path is entered.
  class PhaseScope {
   public:
    explicit PhaseScope(PartyContext& ctx, std::string_view name);
    ~PhaseScope();
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

   private:
    PartyContext& ctx_;
  };
  PhaseScope phase(std::string_view name) { return PhaseScope(*this, name); }

  /// Per-instance deterministic RNG (used by adversarial/protocol-running
  /// corruptions and examples; honest protocol logic never draws from it).
  Rng& rng() { return rng_; }

 private:
  friend class SyncNetwork;
  PartyContext(SyncNetwork& net, std::size_t runner_index, int party,
               std::uint64_t seed)
      : net_(net), runner_(runner_index), party_(party), rng_(seed) {}

  SyncNetwork& net_;
  std::size_t runner_;  // index into the network's runner table
  int party_;
  Rng rng_;
};

/// What a scripted byzantine strategy sees each round.
struct RoundView {
  std::size_t round = 0;
  int self = -1;
  int n = 0;
  int t = 0;
  /// Messages delivered to this byzantine party this round.
  const std::vector<Envelope>* inbox = nullptr;
  struct Sent {
    int from;
    int to;
    const Payload* payload;
  };
  /// Rushing adversary: all honest traffic of the *current* round.
  const std::vector<Sent>* honest_traffic = nullptr;
  Rng* rng = nullptr;
};

/// A scripted byzantine corruption: invoked once per round, after all honest
/// parties committed their round messages, and may send arbitrary bytes.
class ByzantineStrategy {
 public:
  virtual ~ByzantineStrategy() = default;
  virtual void on_round(const RoundView& view,
                        const std::function<void(int, Bytes)>& send) = 0;
};

/// Wraps the outgoing traffic of a protocol-running byzantine party: honest
/// protocol code executes unchanged, but every message it stages passes
/// through the tap, which emits zero or more replacement messages (to any
/// recipients). This is the hook structured adversaries -- message mutators,
/// selective-omission and equivocation attacks -- are built from: they get
/// plausible protocol traffic for free and only decide how to corrupt it.
///
/// Payloads arrive as shared views (a tapped `send_all` delivers the same
/// buffer n times). A tap that corrupts bytes takes ownership via
/// `std::move(payload).detach()` -- copy-on-write: recipients of the
/// untouched views never observe the mutation.
///
/// Determinism contract: the tap is driven solely by the runner's own
/// execution context, in the wrapped protocol's program order, so a tapped
/// execution replays to the same transcript.
class SendTap {
 public:
  using Emit = std::function<void(int to, Payload payload)>;

  virtual ~SendTap() = default;

  /// One staged message of the wrapped protocol in round `round` (0-based);
  /// call `emit` any number of times to put messages on the wire instead.
  virtual void on_send(std::size_t round, int to, Payload payload,
                       const Emit& emit) = 0;

  /// The wrapped protocol entered round `round` (it fires on every
  /// advance(), before any round-`round` sends). Lets the tap release
  /// messages it held back in earlier rounds (delayed replay).
  virtual void on_round_start(std::size_t round, const Emit& emit) {
    (void)round;
    (void)emit;
  }
};

/// Per-round delivery hook: called by the engine once per delivered round,
/// from the controller's execution context, immediately after the round's
/// runner-local outboxes were merged in canonical order (and before the
/// next round slice is released). `honest_bytes`/`honest_messages` are the
/// staged honest traffic of that round -- the same values the Transcript
/// records -- so an observer can stream live per-round cost without owning
/// the full transcript. The trailing leftover flush (sends staged after the
/// last advance()) is transcript-only bookkeeping and is not reported here;
/// authoritative totals come from RunStats.
///
/// Implementations must not touch the network and must not block on
/// anything fed by this same controller thread. Appending to a log that is
/// read after the run -- what the sharded engine does -- is the intended
/// shape.
class RoundObserver {
 public:
  virtual ~RoundObserver() = default;
  virtual void on_round(std::size_t round, std::uint64_t honest_bytes,
                        std::uint64_t honest_messages) = 0;
};

/// Aggregated cost of one protocol execution.
struct RunStats {
  std::size_t rounds = 0;
  std::uint64_t honest_bytes = 0;
  std::uint64_t honest_messages = 0;
  std::vector<std::uint64_t> bytes_by_party;
  std::map<std::string, std::uint64_t> honest_bytes_by_phase;

  /// Leaf-charged phase attribution: every staged honest byte lands on
  /// exactly one key -- the innermost open PhaseScope at send time, or
  /// `kUnattributedPhase` when none is open -- so the values sum to
  /// `honest_bytes` exactly (tier-1 asserted). Contrast with
  /// `honest_bytes_by_phase`, the legacy *inclusive* accounting where a
  /// byte counts in every enclosing phase.
  std::map<std::string, std::uint64_t> phase_breakdown;

  /// Deep payload copies the wire substrate performed during this run
  /// (process-wide `PayloadMetrics` delta): 0 on the honest path --
  /// `send_all` shares one buffer among all recipients, mailboxes and
  /// transcript hold views. Nonzero only for copy-on-write detaches by
  /// mutating SendTaps and for lvalue `send_all` calls.
  std::uint64_t payload_copies = 0;
  std::uint64_t payload_bytes_copied = 0;

  /// The paper's BITS_l measure: total bits sent by honest parties.
  std::uint64_t honest_bits() const { return honest_bytes * 8; }

  /// Environment fault bookkeeping (all zero when no FaultPlan is set).
  FaultStats faults;
};

/// Structured result of a run (`run_report`): per-party outcomes instead
/// of hang-or-throw. `stats.rounds` is always the last *completed*
/// round, including when the round cap ended the run.
struct RunReport {
  RunStats stats;
  std::vector<PartyOutcome> outcomes;  // indexed by party id
  bool timed_out = false;              // the round cap ended the run

  /// A RoundRouter failed to carry a round (socket error, daemon timeout,
  /// wire-integrity mismatch). The run ended like a round-cap hit --
  /// still-running parties are TimedOut, `timed_out` is set -- with the
  /// router's reason here.
  bool transport_failed = false;
  std::string transport_error;

  bool all_decided() const {
    for (const PartyOutcome& o : outcomes) {
      if (o.outcome != Outcome::kDecided) return false;
    }
    return true;
  }
};

class SyncNetwork {
 public:
  using ProtocolFn = std::function<void(PartyContext&)>;

  /// `n` parties with resilience threshold `t` (protocols assume t < n/3;
  /// the simulator itself only requires 0 <= t < n).
  SyncNetwork(int n, int t);
  ~SyncNetwork();
  SyncNetwork(const SyncNetwork&) = delete;
  SyncNetwork& operator=(const SyncNetwork&) = delete;

  /// Installs honest protocol code for party `id`.
  void set_honest(int id, ProtocolFn fn);
  /// Installs a scripted byzantine corruption.
  void set_byzantine(int id, std::shared_ptr<ByzantineStrategy> strategy);
  /// Byzantine party that runs protocol code (e.g. with an extreme input);
  /// its traffic is excluded from honest cost metrics.
  void set_byzantine_protocol(int id, ProtocolFn fn);
  /// Same, with every staged message routed through `tap` (may be null).
  void set_byzantine_protocol(int id, ProtocolFn fn,
                              std::shared_ptr<SendTap> tap);
  /// Split-brain equivocator: instance A talks to `recipients_of_a`,
  /// instance B to everyone else. Both see all messages addressed to `id`.
  void set_split_brain(int id, ProtocolFn a, ProtocolFn b,
                       std::set<int> recipients_of_a);

  /// No-op: the engine has one schedule. Kept only because perfbench/
  /// calls it; delete it with the next benchmark change.
  void set_exec_policy(ExecPolicy) {}

  /// Installs a schedule of environment faults (see net/fault_plan.h);
  /// validated against n. The plan is case data, not a wall-clock event,
  /// so faulty runs replay bit-for-bit. An empty plan (the default) leaves
  /// every code path and metric untouched.
  void set_fault_plan(FaultPlan plan);
  const FaultPlan& fault_plan() const;

  /// Records every delivered round into `sink` during run(); pass nullptr
  /// to disable. The sink must outlive run().
  void set_transcript(Transcript* sink);

  /// Installs a per-round delivery hook (see RoundObserver); pass nullptr
  /// to disable (the default -- the delivery path is bit-identical either
  /// way). The observer must outlive run().
  void set_round_observer(RoundObserver* observer);

  /// Installs a transport for delivered rounds (see net/round_router.h):
  /// every round's canonically merged messages pass through
  /// `router->route()` before the transcript records them and inboxes
  /// consume them. Null (the default) keeps the in-memory path, which is
  /// bit-identical by construction. The router must outlive run(). Router
  /// failure ends the run with `RunReport::transport_failed`, which run()
  /// turns into an Error carrying the router's reason.
  void set_round_router(RoundRouter* router);

  /// Attaches an observability tracer (see obs/obs.h): the engine opens a
  /// span around every round (on an "engine" track) and every party slice
  /// (on per-party "slices" tracks), mirrors PhaseScopes as spans on
  /// per-party tracks with sends charged to the innermost one, and points
  /// the thread-local COCA_OBS_SPAN scope at the running party so compute
  /// kernels appear nested under its phases. Use a fresh tracer per run
  /// (tracks are registered at run start); it must outlive run(). Null
  /// (the default) disables all tracing work -- the run is bit-identical
  /// either way.
  void set_tracer(obs::Tracer* tracer);

  /// Runs to completion: every party step executes behind an exception
  /// barrier. A throwing party is marked `kAborted` with the exception
  /// text as evidence (the run continues without it), a FaultPlan
  /// crash-stop marks it `kCrashed`, and hitting `max_rounds` or a
  /// RoundRouter failure marks the stragglers `kTimedOut`. The report
  /// always comes back with the last completed round in `stats.rounds`;
  /// only a throw on the controller's side (a scripted strategy, round
  /// observer or router, or an unassigned role) escapes.
  RunReport run_report(std::size_t max_rounds = kDefaultMaxRounds);

  /// `run_report` for callers that want an exception instead of outcomes.
  /// If any protocol-running party threw -- honest or byzantine-protocol
  /// (`set_byzantine_protocol`, split-brain halves) -- rethrows the error
  /// of the one that threw first: earliest round, then runner-table order.
  /// Otherwise throws Error on a transport failure or when `max_rounds` was
  /// hit, and returns the stats of a completed run.
  RunStats run(std::size_t max_rounds = kDefaultMaxRounds);

  static constexpr std::size_t kDefaultMaxRounds = 2'000'000;

  int n() const { return n_; }
  int t() const { return t_; }

 private:
  friend class PartyContext;
  struct Runner;
  struct Scripted;
  struct Impl;

  Runner& add_runner(int id, bool honest, ProtocolFn fn);

  void runner_send(std::size_t runner_index, int to, Payload payload,
                   const char* kind);
  void runner_send_all(std::size_t runner_index, Payload payload);
  void runner_stage(std::size_t runner_index, int to, Payload payload,
                    const char* kind);
  std::vector<Envelope> runner_advance(std::size_t runner_index);
  void runner_push_phase(std::size_t runner_index, std::string_view name);
  void runner_pop_phase(std::size_t runner_index);

  int n_;
  int t_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace coca::net
