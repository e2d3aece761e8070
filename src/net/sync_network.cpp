#include "net/sync_network.h"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <iterator>
#include <new>
#include <optional>
#include <utility>

#include "obs/obs.h"

#include <sys/mman.h>
#include <unistd.h>

#ifndef __x86_64__
#error "the fiber engine is x86-64 only; port src/net/fiber_switch_x86_64.S"
#endif

// src/net/fiber_switch_x86_64.S. coca_fiber_entry is never called: its
// address is the return slot of a fresh fiber's first frame (init_fiber).
extern "C" void coca_fiber_switch(void** from_sp, void* to_sp);
extern "C" void coca_fiber_entry();

// Sanitizer builds annotate every fiber switch (see switch_fiber below) so
// ASan tracks which stack is live and TSan sees each party as its own
// fiber; everywhere else the annotations compile away.
#if defined(__SANITIZE_ADDRESS__)
#define COCA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define COCA_ASAN 1
#endif
#endif
#ifndef COCA_ASAN
#define COCA_ASAN 0
#endif

#if defined(__SANITIZE_THREAD__)
#define COCA_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define COCA_TSAN 1
#endif
#endif
#ifndef COCA_TSAN
#define COCA_TSAN 0
#endif

#if COCA_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if COCA_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace coca::net {

namespace {

/// Thrown into protocol code to unwind runner execution contexts when the
/// controller aborts a run. Deliberately outside the coca::Error hierarchy
/// so protocol code cannot accidentally swallow it.
struct AbortSignal {};

/// Thrown into protocol code to unwind a runner when a FaultPlan crash-stop
/// fires; like AbortSignal, outside every catchable hierarchy.
struct CrashSignal {};

/// Exception text for a recorded party error (RunReport evidence).
std::string what_of(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "non-standard exception";
  }
}

/// mmap-backed fiber stack with a PROT_NONE guard page at the low end, so
/// a protocol overflowing its stack faults deterministically instead of
/// corrupting a neighbouring fiber.
class FiberStack {
 public:
  static constexpr std::size_t kSize = std::size_t{1} << 20;  // 1 MiB

  FiberStack() {
    page_ = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    base_ = ::mmap(nullptr, kSize + page_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    ensure(base_ != MAP_FAILED, "fiber stack mmap failed");
    if (::mprotect(base_, page_, PROT_NONE) != 0) {
      ::munmap(base_, kSize + page_);
      ensure(false, "fiber stack guard page mprotect failed");
    }
  }
  ~FiberStack() { ::munmap(base_, kSize + page_); }
  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;

  void* sp() { return static_cast<char*>(base_) + page_; }
  std::size_t size() const { return kSize; }

 private:
  void* base_ = nullptr;
  std::size_t page_ = 0;
};

/// This thread's released fiber stacks, reused by its next runs: a stack is
/// mapped and guarded once and unmapped when the thread exits. Stacks never
/// move between threads, so the list takes no lock, and it never holds more
/// stacks than the thread's peak number of live runners.
thread_local std::vector<std::unique_ptr<FiberStack>> t_free_stacks;

std::unique_ptr<FiberStack> take_stack() {
  if (t_free_stacks.empty()) return std::make_unique<FiberStack>();
  std::unique_ptr<FiberStack> stack = std::move(t_free_stacks.back());
  t_free_stacks.pop_back();
#if COCA_ASAN
  // Frames the last fiber abandoned (in an unwind, or at its final
  // switch-out) can leave redzones poisoned; the next fiber starts clean.
  __asan_unpoison_memory_region(stack->sp(), stack->size());
#endif
  return stack;
}

/// One execution context the controller or a runner can switch to: the
/// saved stack pointer plus what the sanitizers need to know about the
/// stack it runs on. Outside sanitizer builds it is just the stack pointer.
struct Fiber {
  void* sp = nullptr;  // top of the frame coca_fiber_switch pushed
#if COCA_ASAN
  const void* stack_bottom = nullptr;  // learned on first entry for the
  std::size_t stack_size = 0;          // controller; the mmap for runners
  void* fake_stack = nullptr;          // ASan's per-fiber fake frames
#endif
#if COCA_TSAN
  void* tsan = nullptr;  // __tsan_create_fiber, or the controller thread's
#endif
};

/// Suspends `from` and resumes `to`: the one place the engine swaps stacks.
/// `from_exits` marks a fiber's final switch, letting ASan drop its fake
/// stack. Returns once something switches back to `from`.
inline void switch_fiber(Fiber& from, Fiber& to, bool from_exits = false) {
#if COCA_ASAN
  __sanitizer_start_switch_fiber(from_exits ? nullptr : &from.fake_stack,
                                 to.stack_bottom, to.stack_size);
#endif
#if COCA_TSAN
  __tsan_switch_to_fiber(to.tsan, 0);
#endif
  (void)from_exits;
  coca_fiber_switch(&from.sp, to.sp);
#if COCA_ASAN
  __sanitizer_finish_switch_fiber(from.fake_stack, nullptr, nullptr);
#endif
}

/// The frame coca_fiber_switch pushes, lowest address first. A fresh
/// fiber's stack starts with one, so its first switch-in "returns" into
/// coca_fiber_entry, which calls r13(r12) on a 16-aligned stack.
struct SwitchFrame {
  std::uint32_t mxcsr;
  std::uint16_t x87_cw;
  std::uint16_t pad;
  std::uintptr_t r15, r14, r13, r12, rbx, rbp;
  void (*ret)();
};
static_assert(sizeof(SwitchFrame) == 64, "keep in step with the .S file");

/// Writes a fresh fiber's first frame at the 16-aligned top of its stack:
/// r13 = `entry`, r12 = `arg`, rbp = 0 (ends frame-pointer walks), and the
/// caller's FP control state, so a party starts in the controller's
/// rounding mode.
void init_fiber(Fiber& f, void* stack_lo, std::size_t size,
                void (*entry)(void*), void* arg) {
  const std::uintptr_t top =
      (reinterpret_cast<std::uintptr_t>(stack_lo) + size) &
      ~std::uintptr_t{15};
  auto* frame = new (reinterpret_cast<void*>(top - sizeof(SwitchFrame)))
      SwitchFrame{};
  __asm__ volatile("stmxcsr %0\n\tfnstcw %1"
                   : "=m"(frame->mxcsr), "=m"(frame->x87_cw));
  frame->r13 = reinterpret_cast<std::uintptr_t>(entry);
  frame->r12 = reinterpret_cast<std::uintptr_t>(arg);
  frame->ret = &coca_fiber_entry;
  f.sp = frame;
}

/// First statement of a fresh fiber: completes the switch that entered it
/// and, under ASan, records the controller's stack bounds for switches back.
inline void enter_fiber(Fiber& controller) {
#if COCA_ASAN
  __sanitizer_finish_switch_fiber(nullptr, &controller.stack_bottom,
                                  &controller.stack_size);
#endif
  (void)controller;
}

}  // namespace

std::vector<Envelope> first_per_sender(std::vector<Envelope> inbox) {
  // Canonicalize by sender id first: engine inboxes already arrive sorted
  // (then nothing moves), but a FaultPlan inbox shuffle -- or any other
  // delivery-order adversary -- must not change what protocols consume.
  // The stable sort keeps first-delivered-wins within a sender.
  const auto by_sender = [](const Envelope& a, const Envelope& b) {
    return a.from < b.from;
  };
  if (!std::is_sorted(inbox.begin(), inbox.end(), by_sender)) {
    std::stable_sort(inbox.begin(), inbox.end(), by_sender);
  }
  std::size_t kept = 0;
  int last_from = -1;
  for (Envelope& e : inbox) {
    if (e.from != last_from) {
      last_from = e.from;
      if (kept != static_cast<std::size_t>(&e - inbox.data())) {
        inbox[kept] = std::move(e);
      }
      ++kept;
    }
  }
  inbox.resize(kept);
  return inbox;
}

struct SyncNetwork::Runner {
  int party = -1;
  bool honest = false;  // counts toward honest cost metrics
  // Split-brain recipient filter; nullopt = may talk to everyone.
  std::optional<std::set<int>> allowed;
  // Outgoing-message wrapper for tapped byzantine protocol runners; the
  // local round counter feeds its on_send/on_round_start callbacks. Both
  // are touched only by the runner's own execution context.
  std::shared_ptr<SendTap> tap;
  std::size_t local_round = 0;
  ProtocolFn fn;
  std::unique_ptr<PartyContext> ctx;

  // The runner is a cooperative fiber on the controller's thread; a
  // release is one stack swap.
  Fiber fiber;
  std::unique_ptr<FiberStack> fiber_stack;
  Impl* impl = nullptr;  // backpointer for the fiber trampoline

  enum class State { AtBarrier, Running, Finished };
  State state = State::AtBarrier;
  std::exception_ptr error;
  std::size_t error_round = 0;  // slice in which `error` was thrown
  std::vector<Envelope> inbox_next;  // written by controller pre-release

  // ---- FaultPlan plumbing. `crash_unwind` is set by the controller while
  // the runner is parked; the runner observes it at its next release and
  // unwinds with CrashSignal. `crashed_by_plan` / `decided` feed RunReport.
  bool crash_unwind = false;
  bool crashed_by_plan = false;
  bool decided = false;  // protocol function returned normally

  // Runner-local staging and metrics: written only by the runner's own
  // fiber while Running, read by the controller only while the runner is
  // parked at the barrier or finished. The controller drains outboxes in
  // sender order at the barrier (runner-table order within a party), so
  // delivery order never depends on which party happened to send first.
  // A `send_all` is one entry addressed to kToAll, metered as `fanout`
  // sends and fanned out to the recipients only where a per-recipient
  // copy is used.
  static constexpr int kToAll = -1;
  struct Staged {
    int to;  // a party id, or kToAll
    Payload payload;
  };
  std::vector<Staged> outbox;
  // Recipients of a broadcast: n, or for a split-brain half the ids of
  // `allowed` in [0, n). Set at run start.
  std::uint64_t fanout = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_sent = 0;
  // Phase meter: every phase path this runner has entered, interned as a
  // tree whose root (node 0) stands for "no phase open". A send adds its
  // size to the open node only; run_report derives the leaf view (each node's
  // own bytes) and the inclusive view (added to every ancestor) at run end.
  // `kinds` holds the tracer's per-(phase, message kind) counters, flushed
  // into the tracer's registry at run end too; empty on untraced runs.
  struct KindTally {
    const char* kind;
    std::uint64_t bytes = 0;
    std::uint64_t messages = 0;
  };
  struct PhaseNode {
    PhaseNode(std::uint32_t parent, std::string_view name)
        : parent(parent), name(name) {}
    std::uint32_t parent;
    std::string name;
    std::uint64_t bytes = 0;
    bool sent = false;  // a send (even 0 bytes) was staged here
    std::vector<std::uint32_t> children;
    std::vector<KindTally> kinds;
  };
  std::vector<PhaseNode> phase_nodes{PhaseNode(0, kUnattributedPhase)};
  std::uint32_t phase_open = 0;
  // Phase path at the moment an unwind first popped it; seals the "where
  // did this party die" attribution for PartyOutcome::phase. Cleared at
  // every slice start so protocol-internal caught exceptions don't stick.
  std::string fail_phase;

  // ---- Observability (inert unless a tracer is installed for the run).
  int obs_track = -1;        // phase + kernel spans, send charges
  int obs_slice_track = -1;  // one span per executed round slice

  /// Fiber entry point (`arg` is the Runner): runs the protocol function
  /// inside the fiber and switches back to the controller for good when it
  /// finishes (or unwinds).
  static void fiber_trampoline(void* arg);
};

struct SyncNetwork::Scripted {
  int party = -1;
  std::shared_ptr<ByzantineStrategy> strategy;
  std::vector<Envelope> inbox;
  std::vector<Envelope> inbox_next;  // pooled build buffer, swapped per round
  std::uint64_t bytes_sent = 0;
  Rng rng{0};
};

struct SyncNetwork::Impl {
  int n = 0;
  bool abort = false;
  Fiber controller;                  // the thread that called run()
  Transcript* transcript = nullptr;  // optional recording sink
  RoundObserver* round_observer = nullptr;  // optional per-round hook
  RoundRouter* router = nullptr;            // optional round transport
  std::string transport_error;              // reason of a router failure

  // ---- Observability (null tracer = every hook below is one branch).
  obs::Tracer* tracer = nullptr;
  int obs_engine_track = -1;
  // Engine round of the slice currently executing; set by the controller
  // before it releases the round's first runner.
  std::size_t current_round = 0;

  std::vector<std::unique_ptr<Runner>> runners;
  std::vector<std::unique_ptr<Scripted>> scripted;
  std::vector<int> role_of_party;  // 0 = unset, 1 = honest, 2 = byzantine

  // ---- Environment faults (empty plan = all of this is inert).
  FaultPlan plan;
  FaultStats faults;
  std::vector<char> crash_started;    // parallel to plan.crashes
  std::vector<char> crash_recovered;  // parallel to plan.crashes

  /// One drained outbox entry on the wire: a message from `from` to `to`,
  /// or a broadcast (`to == Runner::kToAll`) that stands for one message
  /// to each party 0..n-1, in that order, at its own position.
  struct Triplet {
    int from;
    int to;
    Payload payload;
  };

  // Pooled per-round scratch: cleared (capacity kept) instead of
  // reallocated every round. `wire` is in sender order; `wire_messages`
  // counts the messages it stands for once broadcasts are fanned out.
  std::vector<Triplet> wire;
  std::size_t wire_messages = 0;
  std::vector<Triplet> byz_wire;
  // runner -> its [begin, end) span of `wire`, for the traffic view.
  std::vector<std::pair<std::size_t, std::size_t>> runner_wire;
  std::vector<RoundView::Sent> honest_traffic;  // only with scripted parties
  // party id -> indices into runners / scripted (built once per run);
  // routing one round is O(messages), not O(messages * parties).
  std::vector<std::vector<std::size_t>> runners_of_party;
  std::vector<std::vector<std::size_t>> scripted_of_party;
  std::vector<std::size_t> runner_msg_count;
  std::vector<std::size_t> scripted_msg_count;

  void build_routing_index() {
    runners_of_party.assign(static_cast<std::size_t>(n), {});
    scripted_of_party.assign(static_cast<std::size_t>(n), {});
    for (std::size_t i = 0; i < runners.size(); ++i) {
      runners_of_party[static_cast<std::size_t>(runners[i]->party)]
          .push_back(i);
    }
    for (std::size_t i = 0; i < scripted.size(); ++i) {
      scripted_of_party[static_cast<std::size_t>(scripted[i]->party)]
          .push_back(i);
    }
    runner_msg_count.assign(runners.size(), 0);
    scripted_msg_count.assign(scripted.size(), 0);
    runner_wire.assign(runners.size(), {0, 0});
    for (auto& r : runners) {
      r->fanout = static_cast<std::uint64_t>(n);
      if (r->allowed) {
        r->fanout = static_cast<std::uint64_t>(
            std::count_if(r->allowed->begin(), r->allowed->end(),
                          [this](int to) { return to >= 0 && to < n; }));
      }
    }
  }

  /// Meters one staged entry that stands for `copies` sends of `size`
  /// bytes each, exactly as `copies` single sends would be metered.
  void meter(Runner& r, std::uint64_t size, std::uint64_t copies,
             const char* kind) {
    const std::uint64_t bytes = size * copies;
    r.bytes_sent += bytes;
    r.messages_sent += copies;
    Runner::PhaseNode& node = r.phase_nodes[r.phase_open];
    node.bytes += bytes;
    node.sent = true;
    if (tracer != nullptr) {
      tracer->charge(r.obs_track, bytes, copies);
      // Per-(party, phase, message-kind) attribution; the party is the track.
      auto k = std::find_if(node.kinds.begin(), node.kinds.end(),
                            [kind](const auto& t) { return t.kind == kind; });
      if (k == node.kinds.end()) k = node.kinds.insert(k, {kind});
      k->bytes += bytes;
      k->messages += copies;
      tracer->observe(r.obs_track, "send.bytes", size, copies);
    }
  }

  /// Calls `fn(to)` for every recipient of wire entry `m`: `m.to`, or each
  /// party 0..n-1 for a broadcast.
  template <class Fn>
  void for_each_recipient(const Triplet& m, Fn&& fn) const {
    if (m.to != Runner::kToAll) {
      fn(m.to);
      return;
    }
    for (int to = 0; to < n; ++to) fn(to);
  }

  /// Updates crash-window bookkeeping for slice `round` and marks runners
  /// whose crash-stop fires: they are released once more and unwind with
  /// CrashSignal. Runners inside a crash-recovery window are simply not
  /// released this slice (see skip_this_slice); their parked stack is the
  /// "persisted state" they resume from.
  void begin_slice_faults(std::size_t round) {
    if (plan.empty()) return;
    for (std::size_t i = 0; i < plan.crashes.size(); ++i) {
      const FaultPlan::Crash& c = plan.crashes[i];
      if (!crash_started[i] && round >= c.from_round) {
        crash_started[i] = 1;
        ++faults.crashes_injected;
      }
      if (c.until_round != kNoRecovery && !crash_recovered[i] &&
          round >= c.until_round) {
        crash_recovered[i] = 1;
        ++faults.recoveries;
      }
    }
    for (auto& rp : runners) {
      if (rp->state == Runner::State::Finished) continue;
      if (plan.crash_stopped(rp->party, round)) {
        rp->crash_unwind = true;
      } else if (plan.crashed(rp->party, round)) {
        ++faults.rounds_missed;  // frozen for this slice
      }
    }
    for (auto& s : scripted) {
      if (plan.crashed(s->party, round) &&
          !plan.crash_stopped(s->party, round)) {
        ++faults.rounds_missed;
      }
    }
  }

  /// True iff `r` sits in a crash-recovery window at `round` and must not
  /// be released this slice. Crash-stop victims are *not* skipped: they get
  /// released exactly once more so their stack unwinds.
  bool skip_this_slice(const Runner& r, std::size_t round) const {
    return !r.crash_unwind && !plan.empty() && plan.crashed(r.party, round);
  }

  bool has_link_faults() const {
    return !plan.cuts.empty() || !plan.partitions.empty();
  }

  /// True iff the link from -> to is cut or partitioned at `round`; counts
  /// the lost message (metering already happened: the sender pays for
  /// bytes the network loses).
  bool drop_cut(int from, int to, std::size_t round) {
    if (!plan.link_cut(from, to, round)) return false;
    ++faults.messages_dropped;
    return true;
  }


  /// Permutes the freshly routed inboxes of shuffle-covered recipients with
  /// a per-(seed, party, round) stream: deterministic, and identical for
  /// both halves of a split-brain party.
  void apply_shuffles(std::size_t round) {
    if (plan.shuffles.empty()) return;
    const auto permute = [&](std::vector<Envelope>& inbox, int party,
                             std::uint64_t seed) {
      if (inbox.size() < 2) return;
      Rng rng(Rng::derive_stream_seed(
          kShuffleSeedDomain ^ seed,
          (static_cast<std::uint64_t>(round) << 16) |
              static_cast<std::uint64_t>(party)));
      for (std::size_t i = inbox.size() - 1; i > 0; --i) {
        std::swap(inbox[i], inbox[rng.below(i + 1)]);
      }
      ++faults.inboxes_shuffled;
    };
    for (auto& r : runners) {
      if (const auto seed = plan.shuffle_seed(r->party)) {
        permute(r->inbox_next, r->party, *seed);
      }
    }
    for (auto& s : scripted) {
      if (const auto seed = plan.shuffle_seed(s->party)) {
        permute(s->inbox_next, s->party, *seed);
      }
    }
  }

  /// Drains all staged outboxes into `wire` in sender order -- party
  /// 0..n-1, runner-table order within a party, send order within a
  /// runner -- and sums the bytes/messages honest runners staged. Payloads
  /// move; no copies. A broadcast stays one entry unless it must be fanned
  /// out here: a split-brain half reaches only its own recipients, and
  /// cut or partitioned links (when the plan has any) drop single messages.
  void drain_outboxes(std::size_t round, std::uint64_t* honest_bytes,
                      std::uint64_t* honest_msgs) {
    wire.clear();
    wire_messages = 0;
    const bool link_faults = has_link_faults();
    const auto put = [&](int from, int to, Payload payload) {
      if (link_faults && drop_cut(from, to, round)) return;
      wire.push_back({from, to, std::move(payload)});
      ++wire_messages;
    };
    for (const auto& of_party : runners_of_party) {
      for (const std::size_t i : of_party) {
        Runner& r = *runners[i];
        runner_wire[i].first = wire.size();
        for (Runner::Staged& staged : r.outbox) {
          const bool all = staged.to == Runner::kToAll;
          if (r.honest) {
            const std::uint64_t copies = all ? r.fanout : 1;
            *honest_bytes += staged.payload.size() * copies;
            *honest_msgs += copies;
          }
          if (!all) {
            put(r.party, staged.to, std::move(staged.payload));
          } else if (r.allowed || link_faults) {
            for (int to = 0; to < n; ++to) {
              if (!r.allowed || r.allowed->contains(to)) {
                put(r.party, to, staged.payload);
              }
            }
          } else {
            wire.push_back({r.party, Runner::kToAll, std::move(staged.payload)});
            wire_messages += static_cast<std::size_t>(n);
          }
        }
        runner_wire[i].second = wire.size();
        r.outbox.clear();
      }
    }
  }

  /// Merges the scripted parties' sends into the sender-ordered `wire`.
  /// They arrive in strategy order, so they are put in sender order first;
  /// the sort and the merge are stable, so each strategy's sends keep
  /// their order.
  void merge_byzantine() {
    const auto by_sender = [](const Triplet& a, const Triplet& b) {
      return a.from < b.from;
    };
    std::stable_sort(byz_wire.begin(), byz_wire.end(), by_sender);
    const auto honest_end = static_cast<std::ptrdiff_t>(wire.size());
    wire.insert(wire.end(), std::make_move_iterator(byz_wire.begin()),
                std::make_move_iterator(byz_wire.end()));
    std::inplace_merge(wire.begin(), wire.begin() + honest_end, wire.end(),
                       by_sender);
    wire_messages += byz_wire.size();
    byz_wire.clear();
  }

  /// One transcript round of the fanned-out `wire` (payload views).
  Transcript::Round transcript_round(std::uint64_t honest_bytes) const {
    Transcript::Round rec;
    rec.honest_bytes = honest_bytes;
    rec.messages.reserve(wire_messages);
    for (const Triplet& m : wire) {
      for_each_recipient(m, [&](int to) {
        rec.messages.push_back({m.from, to, m.payload});
      });
    }
    return rec;
  }

  /// Carries the canonically ordered `wire` across the installed
  /// RoundRouter (no-op without one), one WireMessage per recipient. The
  /// wire then holds what the transport returned, one entry per message,
  /// and the transcript and the inboxes consume those payloads, so a
  /// daemon that corrupts bytes surfaces as a transcript mismatch in the
  /// conformance suite. Returns false on transport failure
  /// (`transport_error` set); addressing/order mismatches are treated as
  /// transport failures too, keeping run_report()'s never-throws contract
  /// against a buggy daemon.
  bool route_wire(std::size_t round) {
    if (router == nullptr) return true;
    std::vector<WireMessage> staged;
    staged.reserve(wire_messages);
    for (const Triplet& m : wire) {
      for_each_recipient(
          m, [&](int to) { staged.push_back({m.from, to, m.payload}); });
    }
    std::optional<std::vector<WireMessage>> routed =
        router->route(round, std::move(staged));
    if (!routed.has_value()) {
      transport_error = router->failure_reason();
      return false;
    }
    if (routed->size() != wire_messages) {
      transport_error = "round router returned " +
                        std::to_string(routed->size()) + " messages, staged " +
                        std::to_string(wire_messages);
      return false;
    }
    std::size_t i = 0;
    std::optional<std::size_t> readdressed;
    for (const Triplet& m : wire) {
      for_each_recipient(m, [&](int to) {
        const WireMessage& d = (*routed)[i];
        if (!readdressed && (d.from != m.from || d.to != to)) readdressed = i;
        ++i;
      });
    }
    if (readdressed) {
      transport_error = "round router reordered or readdressed message " +
                        std::to_string(*readdressed);
      return false;
    }
    wire.clear();
    for (WireMessage& m : *routed) {
      wire.push_back({m.from, m.to, std::move(m.payload)});
    }
    return true;
  }

  /// Delivers one round: all runners are parked (or finished), so their
  /// outboxes and metrics are safe to touch. Returns false iff the
  /// installed RoundRouter failed to carry the round (never without one).
  bool deliver_round(std::size_t round) {
    std::uint64_t round_honest_bytes = 0;
    std::uint64_t round_honest_msgs = 0;
    // Environment link faults sit *below* the adversary: the drain drops
    // cut traffic before the rushing adversary observes the round and
    // before the transcript records it.
    drain_outboxes(round, &round_honest_bytes, &round_honest_msgs);
    if (tracer != nullptr) {
      // The innermost open engine span is this round's span.
      tracer->charge(obs_engine_track, round_honest_bytes, round_honest_msgs);
    }
    if (round_observer != nullptr) {
      round_observer->on_round(round, round_honest_bytes, round_honest_msgs);
    }
    // Scripted byzantine parties act last within the round (rushing).
    // Their sends are staged separately: honest_traffic points into `wire`,
    // which must stay unmodified while strategies run. It lists the
    // round's messages in runner-table order, each runner's span of `wire`
    // fanned out. Without scripted parties nobody reads it, so it is not
    // built.
    honest_traffic.clear();
    if (!scripted.empty()) {
      for (const auto& [begin, end] : runner_wire) {
        for (std::size_t w = begin; w < end; ++w) {
          const Triplet& m = wire[w];
          for_each_recipient(m, [&](int to) {
            honest_traffic.push_back({m.from, to, &m.payload});
          });
        }
      }
    }
    byz_wire.clear();
    for (auto& s : scripted) {
      // A crashed scripted party sends nothing this round.
      if (!plan.empty() && plan.crashed(s->party, round)) continue;
      RoundView view;
      view.round = round;
      view.self = s->party;
      view.n = n;
      view.t = t_for_views;
      view.inbox = &s->inbox;
      view.honest_traffic = &honest_traffic;
      view.rng = &s->rng;
      s->strategy->on_round(view, [&](int to, Bytes payload) {
        require(to >= 0 && to < n,
                "ByzantineStrategy sent to out-of-range recipient");
        s->bytes_sent += payload.size();
        byz_wire.push_back({s->party, to, Payload(std::move(payload))});
      });
    }
    if (has_link_faults()) {
      std::erase_if(byz_wire, [&](const Triplet& m) {
        return drop_cut(m.from, m.to, round);
      });
    }
    if (!byz_wire.empty()) merge_byzantine();

    // Transport seam: the merged round leaves the process here. Everything
    // below -- transcript, inboxes -- consumes what came back off the wire.
    if (!route_wire(round)) {
      wire.clear();
      return false;
    }
    if (transcript != nullptr) {
      transcript->rounds.push_back(transcript_round(round_honest_bytes));
    }
    // Two-pass routing: count, reserve, fill -- every inbox is one exact
    // allocation and every delivered payload a view of the sender's buffer
    // or an inline copy. A broadcast reaches every runner and every
    // scripted party once.
    std::fill(runner_msg_count.begin(), runner_msg_count.end(), 0);
    std::fill(scripted_msg_count.begin(), scripted_msg_count.end(), 0);
    std::size_t broadcasts = 0;
    for (const Triplet& m : wire) {
      if (m.to == Runner::kToAll) {
        ++broadcasts;
        continue;
      }
      const auto to = static_cast<std::size_t>(m.to);
      for (const std::size_t i : runners_of_party[to]) ++runner_msg_count[i];
      for (const std::size_t i : scripted_of_party[to]) {
        ++scripted_msg_count[i];
      }
    }
    for (std::size_t i = 0; i < runners.size(); ++i) {
      runners[i]->inbox_next.clear();
      runners[i]->inbox_next.reserve(runner_msg_count[i] + broadcasts);
    }
    for (std::size_t i = 0; i < scripted.size(); ++i) {
      scripted[i]->inbox_next.clear();
      scripted[i]->inbox_next.reserve(scripted_msg_count[i] + broadcasts);
    }
    // A recipient inside a crash window when this delivery would be
    // consumed (slice round+1) never sees it: a frozen runner's inbox_next
    // is overwritten by later rounds, a crash-stopped one is gone. The
    // message stays in the transcript (the network delivered it; the party
    // was dead) -- only the counter records the loss.
    const auto crashed_next = [&](int to) {
      return !plan.empty() && plan.crashed(to, round + 1);
    };
    std::uint64_t broadcast_losses = 0;
    if (!plan.empty() && broadcasts != 0) {
      for (int to = 0; to < n; ++to) broadcast_losses += crashed_next(to);
    }
    for (const Triplet& m : wire) {
      if (m.to == Runner::kToAll) {
        for (auto& r : runners) r->inbox_next.push_back({m.from, m.payload});
        for (auto& s : scripted) s->inbox_next.push_back({m.from, m.payload});
        faults.messages_dropped += broadcast_losses;
        continue;
      }
      const auto to = static_cast<std::size_t>(m.to);
      for (const std::size_t i : runners_of_party[to]) {
        runners[i]->inbox_next.push_back({m.from, m.payload});
      }
      for (const std::size_t i : scripted_of_party[to]) {
        scripted[i]->inbox_next.push_back({m.from, m.payload});
      }
      if (crashed_next(m.to)) ++faults.messages_dropped;
    }
    if (!plan.empty()) apply_shuffles(round);
    for (auto& s : scripted) {
      std::swap(s->inbox, s->inbox_next);
      s->inbox_next.clear();
    }
    wire.clear();
    return true;
  }

  /// Drains leftover sends (staged after a party's last advance()) into a
  /// trailing transcript round so per-round bytes sum to the run totals.
  void record_leftovers(std::size_t round) {
    if (transcript == nullptr) return;
    std::uint64_t leftover_honest_bytes = 0;
    std::uint64_t leftover_honest_msgs = 0;
    drain_outboxes(round, &leftover_honest_bytes, &leftover_honest_msgs);
    if (wire.empty()) return;
    transcript->rounds.push_back(transcript_round(leftover_honest_bytes));
    wire.clear();
  }

  int t_for_views = 0;  // network t, for RoundView
};

void SyncNetwork::Runner::fiber_trampoline(void* arg) {
  auto* r = static_cast<Runner*>(arg);
  enter_fiber(r->impl->controller);
  try {
    r->state = State::Running;
    // A fiber first swapped in during an abort unwind, or with a round-0
    // crash-stop pending, runs zero protocol statements.
    if (r->impl->abort) throw AbortSignal{};
    if (r->crash_unwind) throw CrashSignal{};
    r->fn(*r->ctx);
    r->decided = true;
  } catch (const AbortSignal&) {
    // Controller-initiated unwind; not an error.
  } catch (const CrashSignal&) {
    r->crashed_by_plan = true;  // FaultPlan crash-stop; not an error.
  } catch (...) {
    r->error = std::current_exception();
    r->error_round = r->impl->current_round;
  }
  r->state = State::Finished;
  switch_fiber(r->fiber, r->impl->controller, /*from_exits=*/true);
}

SyncNetwork::SyncNetwork(int n, int t) : n_(n), t_(t) {
  require(n >= 1 && t >= 0 && t < n, "SyncNetwork: need 0 <= t < n");
  impl_ = std::make_unique<Impl>();
  impl_->n = n;
  impl_->t_for_views = t;
  impl_->role_of_party.assign(static_cast<std::size_t>(n), 0);
}

SyncNetwork::~SyncNetwork() = default;

int PartyContext::n() const { return net_.n(); }
int PartyContext::t() const { return net_.t(); }

void PartyContext::send(int to, Bytes payload) {
  net_.runner_send(runner_, to, Payload(std::move(payload)), "unicast");
}

void PartyContext::send(int to, Payload payload) {
  net_.runner_send(runner_, to, std::move(payload), "unicast");
}

void PartyContext::send_all(Payload payload) {
  net_.runner_send_all(runner_, std::move(payload));
}

std::vector<Envelope> PartyContext::advance() {
  return net_.runner_advance(runner_);
}

PartyContext::PhaseScope::PhaseScope(PartyContext& ctx, std::string_view name)
    : ctx_(ctx) {
  ctx_.net_.runner_push_phase(ctx_.runner_, name);
}

PartyContext::PhaseScope::~PhaseScope() {
  ctx_.net_.runner_pop_phase(ctx_.runner_);
}

SyncNetwork::Runner& SyncNetwork::add_runner(int id, bool honest,
                                             ProtocolFn fn) {
  auto r = std::make_unique<Runner>();
  r->party = id;
  r->honest = honest;
  r->fn = std::move(fn);
  const std::size_t idx = impl_->runners.size();
  r->ctx.reset(new PartyContext(
      *this, idx, id,
      Rng::derive_stream_seed(kRunnerSeedDomain, runner_stream_key(id, idx))));
  return *impl_->runners.emplace_back(std::move(r));
}

void SyncNetwork::set_honest(int id, ProtocolFn fn) {
  require(id >= 0 && id < n_ && impl_->role_of_party[id] == 0,
          "SyncNetwork::set_honest: bad or already-assigned id");
  impl_->role_of_party[id] = 1;
  add_runner(id, /*honest=*/true, std::move(fn));
}

void SyncNetwork::set_byzantine(int id,
                                std::shared_ptr<ByzantineStrategy> strategy) {
  require(id >= 0 && id < n_ && impl_->role_of_party[id] == 0,
          "SyncNetwork::set_byzantine: bad or already-assigned id");
  impl_->role_of_party[id] = 2;
  auto s = std::make_unique<Scripted>();
  s->party = id;
  s->strategy = std::move(strategy);
  s->rng = Rng::stream(kScriptedSeedDomain, static_cast<std::uint64_t>(id));
  impl_->scripted.push_back(std::move(s));
}

void SyncNetwork::set_byzantine_protocol(int id, ProtocolFn fn) {
  require(id >= 0 && id < n_ && impl_->role_of_party[id] == 0,
          "SyncNetwork::set_byzantine_protocol: bad or already-assigned id");
  impl_->role_of_party[id] = 2;
  add_runner(id, /*honest=*/false, std::move(fn));
}

void SyncNetwork::set_byzantine_protocol(int id, ProtocolFn fn,
                                         std::shared_ptr<SendTap> tap) {
  set_byzantine_protocol(id, std::move(fn));
  impl_->runners.back()->tap = std::move(tap);
}

void SyncNetwork::set_split_brain(int id, ProtocolFn a, ProtocolFn b,
                                  std::set<int> recipients_of_a) {
  require(id >= 0 && id < n_ && impl_->role_of_party[id] == 0,
          "SyncNetwork::set_split_brain: bad or already-assigned id");
  impl_->role_of_party[id] = 2;
  std::set<int> recipients_of_b;
  for (int p = 0; p < n_; ++p) {
    if (!recipients_of_a.contains(p)) recipients_of_b.insert(p);
  }
  add_runner(id, /*honest=*/false, std::move(a)).allowed =
      std::move(recipients_of_a);
  add_runner(id, /*honest=*/false, std::move(b)).allowed =
      std::move(recipients_of_b);
}

void SyncNetwork::set_transcript(Transcript* sink) {
  impl_->transcript = sink;
}

void SyncNetwork::set_round_observer(RoundObserver* observer) {
  impl_->round_observer = observer;
}

void SyncNetwork::set_round_router(RoundRouter* router) {
  impl_->router = router;
}

void SyncNetwork::set_fault_plan(FaultPlan plan) {
  plan.validate(n_);
  impl_->plan = std::move(plan);
}

const FaultPlan& SyncNetwork::fault_plan() const { return impl_->plan; }

void SyncNetwork::set_tracer(obs::Tracer* tracer) { impl_->tracer = tracer; }

void SyncNetwork::runner_send(std::size_t runner_index, int to,
                              Payload payload, const char* kind) {
  Runner& r = *impl_->runners[runner_index];
  if (r.tap != nullptr) {
    r.tap->on_send(r.local_round, to, std::move(payload),
                   [this, runner_index](int tap_to, Payload tap_payload) {
                     runner_stage(runner_index, tap_to,
                                  std::move(tap_payload), "tap");
                   });
    return;
  }
  runner_stage(runner_index, to, std::move(payload), kind);
}

void SyncNetwork::runner_send_all(std::size_t runner_index,
                                  Payload payload) {
  Runner& r = *impl_->runners[runner_index];
  if (r.tap != nullptr) {
    // SendTap's contract: one on_send per recipient.
    for (int to = 0; to < n_; ++to) {
      runner_send(runner_index, to, payload, "broadcast");
    }
    return;
  }
  if (r.fanout == 0) return;  // a split-brain half with no recipients
  impl_->meter(r, payload.size(), r.fanout, "broadcast");
  r.outbox.push_back({Runner::kToAll, std::move(payload)});
}

void SyncNetwork::runner_stage(std::size_t runner_index, int to,
                               Payload payload, const char* kind) {
  Runner& r = *impl_->runners[runner_index];
  require(to >= 0 && to < n_, "PartyContext::send: recipient out of range");
  if (r.allowed && !r.allowed->contains(to)) return;  // split-brain filter
  impl_->meter(r, payload.size(), 1, kind);
  r.outbox.push_back({to, std::move(payload)});
}

void SyncNetwork::runner_push_phase(std::size_t runner_index,
                                    std::string_view name) {
  Runner& r = *impl_->runners[runner_index];
  if (obs::Tracer* tr = impl_->tracer; tr != nullptr) {
    tr->begin(r.obs_track, std::string(name), "phase", impl_->current_round);
  }
  for (const std::uint32_t child : r.phase_nodes[r.phase_open].children) {
    if (r.phase_nodes[child].name == name) {
      r.phase_open = child;
      return;
    }
  }
  const auto child = static_cast<std::uint32_t>(r.phase_nodes.size());
  r.phase_nodes[r.phase_open].children.push_back(child);
  r.phase_nodes.emplace_back(r.phase_open, name);
  r.phase_open = child;
}

void SyncNetwork::runner_pop_phase(std::size_t runner_index) {
  Runner& r = *impl_->runners[runner_index];
  ensure(r.phase_open != 0, "phase pop without matching push");
  if (std::uncaught_exceptions() > 0 && r.fail_phase.empty()) {
    // First pop of a stack unwind (protocol exception, AbortSignal or
    // CrashSignal): seal the full phase path as the failure location.
    for (std::uint32_t id = r.phase_open; id != 0;) {
      r.fail_phase.insert(0, r.phase_nodes[id].name);
      id = r.phase_nodes[id].parent;
      if (id != 0) r.fail_phase.insert(0, 1, '/');
    }
  }
  if (obs::Tracer* tr = impl_->tracer; tr != nullptr) {
    tr->end(r.obs_track);
  }
  r.phase_open = r.phase_nodes[r.phase_open].parent;
}

std::vector<Envelope> SyncNetwork::runner_advance(std::size_t runner_index) {
  Runner& r = *impl_->runners[runner_index];
  // Cooperative barrier: one stack swap to the controller, which resumes
  // this fiber at the start of the next round slice. Slice spans and the
  // kernel-span thread scope are managed by the controller around the swap.
  r.state = Runner::State::AtBarrier;
  switch_fiber(r.fiber, impl_->controller);
  if (impl_->abort) throw AbortSignal{};
  if (r.crash_unwind) throw CrashSignal{};
  r.state = Runner::State::Running;
  r.fail_phase.clear();
  std::vector<Envelope> inbox = std::exchange(r.inbox_next, {});
  // The runner entered the next round; let a tap flush held-back messages
  // before the wrapped protocol stages its own (staging is runner-local).
  ++r.local_round;
  if (r.tap != nullptr) {
    r.tap->on_round_start(r.local_round,
                          [this, runner_index](int to, Payload payload) {
                            runner_stage(runner_index, to, std::move(payload),
                                         "tap");
                          });
  }
  return inbox;
}

RunStats SyncNetwork::run(std::size_t max_rounds) {
  RunReport rep = run_report(max_rounds);
  // The party error that came first -- earliest round, then runner-table
  // order -- wins over the round cap and a transport failure.
  const Runner* first = nullptr;
  for (const auto& r : impl_->runners) {
    if (r->error && (first == nullptr || r->error_round < first->error_round)) {
      first = r.get();
    }
  }
  if (first != nullptr) std::rethrow_exception(first->error);
  if (rep.transport_failed) {
    throw Error("SyncNetwork: transport failure: " + rep.transport_error);
  }
  if (rep.timed_out) throw Error("SyncNetwork: max round count exceeded");
  return std::move(rep.stats);
}

RunReport SyncNetwork::run_report(std::size_t max_rounds) {
  Impl& im = *impl_;
  for (int p = 0; p < n_; ++p) {
    require(im.role_of_party[p] != 0,
            "SyncNetwork::run: every party needs a role before running");
  }
  if (im.transcript) im.transcript->rounds.clear();
  im.build_routing_index();
  im.faults = FaultStats{};
  im.crash_started.assign(im.plan.crashes.size(), 0);
  im.crash_recovered.assign(im.plan.crashes.size(), 0);
  im.current_round = 0;
  if (obs::Tracer* tr = im.tracer; tr != nullptr) {
    // Pre-run track registration (the only time the tracer's track table
    // grows; afterwards each track is written by one execution context).
    im.obs_engine_track = tr->add_track("engine", "engine", false);
    for (auto& rp : im.runners) {
      std::string label = "party " + std::to_string(rp->party);
      if (im.runners_of_party[static_cast<std::size_t>(rp->party)].size() >
          1) {
        // Split-brain halves share a wire id; disambiguate by half.
        const auto& of_party =
            im.runners_of_party[static_cast<std::size_t>(rp->party)];
        const std::size_t self =
            static_cast<std::size_t>(&rp - im.runners.data());
        label += of_party.front() == self ? " (a)" : " (b)";
      }
      rp->obs_track = tr->add_track(label, "party", rp->honest);
      rp->obs_slice_track = tr->add_track(label + " slices", "slices", false);
    }
  }
  // Per-run payload-copy attribution: every fiber runs on this thread, so
  // its thread-local delta covers the whole run and keeps concurrent runs
  // on other threads out.
  const std::uint64_t ctl_copies_before = PayloadMetrics::thread_copies();
  const std::uint64_t ctl_bytes_copied_before =
      PayloadMetrics::thread_bytes_copied();

  im.transport_error.clear();
  std::size_t rounds = 0;
  bool timed_out = false;
  bool transport_failed = false;
  const auto begin_round_span = [&] {
    if (im.tracer != nullptr) {
      im.tracer->begin(im.obs_engine_track, "round " + std::to_string(rounds),
                       "round", rounds);
    }
  };
  const auto end_round_span = [&] {
    if (im.tracer != nullptr) im.tracer->end(im.obs_engine_track);
  };
  const auto all_finished = [&] {
    return std::all_of(im.runners.begin(), im.runners.end(), [](auto& r) {
      return r->state == Runner::State::Finished;
    });
  };
  // Closes the round whose slices just ran and says whether the run goes
  // on. This is the exception barrier: a throwing party is already parked
  // as Finished-with-error and the run simply continues without it.
  const auto close_round = [&] {
    if (all_finished()) {
      end_round_span();
      return false;
    }
    if (rounds >= max_rounds) {
      timed_out = true;
    } else if (!im.deliver_round(rounds)) {
      transport_failed = true;
      timed_out = true;  // stragglers report as TimedOut below
    }
    end_round_span();
    return !timed_out;
  };

  // Every runner is a cooperative fiber; the controller swaps into each in
  // canonical order, delivers, repeats.
#if COCA_TSAN
  im.controller.tsan = __tsan_get_current_fiber();
#endif
  // A throw on the controller's side (a scripted strategy, round observer
  // or router, or a stack that cannot be mapped) leaves runners parked
  // mid-protocol; it is held here and rethrown once they have unwound.
  std::exception_ptr escaped;
  try {
    for (auto& rp : im.runners) {
      Runner& r = *rp;
      r.impl = &im;
      r.fiber_stack = take_stack();
      init_fiber(r.fiber, r.fiber_stack->sp(), r.fiber_stack->size(),
                 &Runner::fiber_trampoline, &r);
#if COCA_ASAN
      r.fiber.stack_bottom = r.fiber_stack->sp();
      r.fiber.stack_size = r.fiber_stack->size();
#endif
#if COCA_TSAN
      r.fiber.tsan = __tsan_create_fiber(0);
#endif
    }
    for (;;) {
      im.current_round = rounds;
      im.begin_slice_faults(rounds);
      begin_round_span();
      for (auto& rp : im.runners) {
        if (rp->state == Runner::State::Finished) continue;
        if (im.skip_this_slice(*rp, rounds)) continue;
        if (obs::Tracer* tr = im.tracer; tr != nullptr) {
          tr->begin(rp->obs_slice_track, "slice", "slice", rounds);
          obs::thread_scope() = {tr, rp->obs_track, rounds};
        }
        switch_fiber(im.controller, rp->fiber);
        if (obs::Tracer* tr = im.tracer; tr != nullptr) {
          obs::thread_scope() = {};
          tr->end(rp->obs_slice_track);
        }
      }
      if (!close_round()) break;
      ++rounds;
    }
  } catch (...) {
    escaped = std::current_exception();
  }
  if (escaped || timed_out) {
    // Unwind every parked fiber so protocol stack frames run their
    // destructors before the stacks go back to the free list. This runs
    // outside the catch block: the fibers' own throws and catches must not
    // interleave with a handler still open on the controller's stack.
    im.abort = true;
    for (auto& rp : im.runners) {
      if (rp->fiber_stack && rp->state != Runner::State::Finished) {
        switch_fiber(im.controller, rp->fiber);
      }
    }
    im.abort = false;
  }
  for (auto& rp : im.runners) {
#if COCA_TSAN
    if (rp->fiber.tsan != nullptr) __tsan_destroy_fiber(rp->fiber.tsan);
    rp->fiber.tsan = nullptr;
#endif
    // Every fiber has finished, so no live frame is left on its stack.
    if (rp->fiber_stack) t_free_stacks.push_back(std::move(rp->fiber_stack));
  }
  if (escaped) std::rethrow_exception(escaped);
  if (!timed_out) im.record_leftovers(rounds);

  RunReport rep;
  rep.timed_out = timed_out;
  rep.transport_failed = transport_failed;
  rep.transport_error = im.transport_error;
  RunStats& stats = rep.stats;
  stats.rounds = rounds;
  stats.faults = im.faults;
  stats.payload_copies =
      PayloadMetrics::thread_copies() - ctl_copies_before;
  stats.payload_bytes_copied =
      PayloadMetrics::thread_bytes_copied() - ctl_bytes_copied_before;
  stats.bytes_by_party.assign(static_cast<std::size_t>(n_), 0);
  for (const auto& r : im.runners) {
    stats.bytes_by_party[static_cast<std::size_t>(r->party)] += r->bytes_sent;
    if (r->honest) {
      stats.honest_bytes += r->bytes_sent;
      stats.honest_messages += r->messages_sent;
      // Leaf view: each node's own bytes (the root is kUnattributedPhase).
      // Inclusive view: the same bytes on every enclosing phase, once per
      // nesting level, so a name nested in itself counts twice.
      const auto& nodes = r->phase_nodes;
      for (std::uint32_t id = 0; id < nodes.size(); ++id) {
        if (!nodes[id].sent) continue;
        stats.phase_breakdown[nodes[id].name] += nodes[id].bytes;
        for (std::uint32_t a = id; a != 0; a = nodes[a].parent) {
          stats.honest_bytes_by_phase[nodes[a].name] += nodes[id].bytes;
        }
      }
    }
  }
  for (const auto& s : im.scripted) {
    stats.bytes_by_party[static_cast<std::size_t>(s->party)] += s->bytes_sent;
  }

  // Per-party outcomes, worst over a party's runners (split-brain owns two).
  rep.outcomes.assign(static_cast<std::size_t>(n_), PartyOutcome{});
  const auto note = [&](int party, Outcome o, std::string ev,
                        std::string phase) {
    PartyOutcome& po = rep.outcomes[static_cast<std::size_t>(party)];
    if (static_cast<int>(o) > static_cast<int>(po.outcome)) {
      po.outcome = o;
      po.evidence = std::move(ev);
      po.phase = std::move(phase);
    }
  };
  for (const auto& r : im.runners) {
    if (r->error) {
      note(r->party, Outcome::kAborted, what_of(r->error), r->fail_phase);
    } else if (r->crashed_by_plan) {
      note(r->party, Outcome::kCrashed, "fault-plan crash-stop",
           r->fail_phase);
    } else if (!r->decided) {
      note(r->party, Outcome::kTimedOut,
           "still running after round " + std::to_string(rounds),
           r->fail_phase);
    }
  }
  for (const auto& s : im.scripted) {
    if (!im.plan.empty() && im.plan.crash_stopped(s->party, rounds)) {
      note(s->party, Outcome::kCrashed, "fault-plan crash-stop", "");
    }
  }

  if (obs::Tracer* tr = im.tracer; tr != nullptr) {
    // Whole-run counters on the engine track; wall.ns is 0 in canonical
    // (timing-off) mode, keeping the metrics export schedule-deterministic.
    tr->count(im.obs_engine_track, "rounds", stats.rounds);
    tr->count(im.obs_engine_track, "honest.bytes", stats.honest_bytes);
    tr->count(im.obs_engine_track, "honest.messages", stats.honest_messages);
    tr->count(im.obs_engine_track, "payload.copies", stats.payload_copies);
    tr->count(im.obs_engine_track, "payload.bytes_copied",
              stats.payload_bytes_copied);
    tr->count(im.obs_engine_track, "wall.ns", tr->now_ns());
    for (auto& r : im.runners) {
      for (Runner::PhaseNode& node : r->phase_nodes) {
        for (const Runner::KindTally& k : node.kinds) {
          std::string key = "bytes." + node.name + '.' + k.kind;
          tr->count(r->obs_track, key, k.bytes);
          key.replace(0, 5, "msgs");
          tr->count(r->obs_track, key, k.messages);
        }
        node.kinds.clear();
      }
    }
  }
  return rep;
}

}  // namespace coca::net
