// Event-driven asynchronous network simulator.
//
// The paper's conclusion singles out the asynchronous setting as future
// work ("we expect that our techniques can be easily extended to the
// asynchronous setting for a lower number of corruptions t < n/5"); this
// module provides the substrate for that direction: reliable authenticated
// point-to-point channels with *adversary-controlled scheduling* --
// messages are delayed arbitrarily but delivered eventually, and there is
// no common clock.
//
// Execution model: processes run as threads; `receive()` blocks until the
// scheduler delivers a message. The scheduler serializes the run -- exactly
// one process executes between deliveries -- which makes every interleaving
// reproducible and lets scheduling policies act as the asynchronous
// adversary:
//   * kFifo         -- deliver in send order (the "nice" network),
//   * kRandomDelay  -- seeded random choice among in-flight messages,
//   * kLagLowIds    -- starve low-id senders as long as any other message
//                      can be delivered (a targeted-delay adversary).
//
// Byzantine processes are arbitrary code over the same context (they may
// flood, lie, equivocate, or stay silent); their traffic is excluded from
// honest cost metrics. A deadlock (every live process blocked with nothing
// deliverable) is detected and reported as an error -- for a correct
// asynchronous protocol it can only mean the protocol's waiting conditions
// are wrong.
#pragma once

#include <functional>
#include <memory>

#include "net/fault_plan.h"
#include "net/payload.h"
#include "util/common.h"
#include "util/rng.h"

namespace coca::async {

/// Root seed domains for per-process RNG streams and the scheduler stream
/// (same splittable-stream contract as the sync engine; pinned by
/// tests/test_rng.cpp).
inline constexpr std::uint64_t kProcessSeedDomain = 0xA57C0CA0'0000001DULL;
inline constexpr std::uint64_t kSchedulerSeedDomain = 0xA57C0CA0'000005EDULL;

/// A delivered message. The payload is a shared immutable view (see
/// net/payload.h): a `send_all` stages one buffer for all n recipients.
struct Envelope {
  int from = -1;
  net::Payload payload;
};

enum class Scheduling {
  kFifo,
  kRandomDelay,
  kLagLowIds,
  /// Prefers messages with larger (from - to) mod n: every recipient gets a
  /// *different* fixed priority order over senders. The schedule that gives
  /// each process a static, skewed receive-set -- the worst case for
  /// single-exchange approximate agreement.
  kSkewPairs,
};

class AsyncNetwork;

/// Handle through which asynchronous process code talks to the network.
class ProcessContext {
 public:
  ProcessContext(const ProcessContext&) = delete;
  ProcessContext& operator=(const ProcessContext&) = delete;

  int id() const { return process_; }
  int n() const;
  int t() const;

  /// Sends `payload` to `to`; delivery is at the scheduler's discretion
  /// (but guaranteed while the recipient keeps receiving).
  void send(int to, Bytes payload);
  void send(int to, net::Payload payload);
  /// Same payload to all n processes; one shared buffer backs all n
  /// deliveries (the rvalue/Payload overloads are zero-copy, the lvalue
  /// overload deep-copies once, counted by PayloadMetrics).
  void send_all(Bytes&& payload) { send_all(net::Payload(std::move(payload))); }
  void send_all(const Bytes& payload) {
    send_all(net::Payload::copy_of(payload));
  }
  void send_all(net::Payload payload);

  /// Blocks until the next message for this process is delivered.
  Envelope receive();

  /// Declares this process's protocol output complete. The network run
  /// terminates once every honest process is done (or returned); a process
  /// that marked itself done may keep looping on receive() to serve
  /// protocol messages to stragglers -- asynchronous protocols built from
  /// reliable broadcast need that lingering participation for totality.
  /// Once the run completes, lingering receive() calls unwind the process
  /// silently.
  void mark_done();

  Rng& rng() { return rng_; }

 private:
  friend class AsyncNetwork;
  ProcessContext(AsyncNetwork& net, std::size_t index, int process,
                 std::uint64_t seed)
      : net_(net), index_(index), process_(process), rng_(seed) {}

  AsyncNetwork& net_;
  std::size_t index_;
  int process_;
  Rng rng_;
};

struct AsyncStats {
  std::size_t deliveries = 0;  // scheduler steps = messages delivered
  std::uint64_t honest_bytes = 0;
  std::uint64_t honest_messages = 0;
  std::vector<std::uint64_t> bytes_by_process;

  /// Environment fault bookkeeping (zero when no FaultPlan is set).
  net::FaultStats faults;
  /// With a non-empty FaultPlan, a run where every live process is starved
  /// (a fault-induced deadlock: e.g. a permanent partition) ends gracefully
  /// with this flag instead of throwing -- dropped messages break the
  /// eventual-delivery guarantee the deadlock detector assumes.
  bool starved = false;

  std::uint64_t honest_bits() const { return honest_bytes * 8; }
};

class AsyncNetwork {
 public:
  using ProcessFn = std::function<void(ProcessContext&)>;

  AsyncNetwork(int n, int t, Scheduling policy = Scheduling::kFifo,
               std::uint64_t seed = 1);
  ~AsyncNetwork();
  AsyncNetwork(const AsyncNetwork&) = delete;
  AsyncNetwork& operator=(const AsyncNetwork&) = delete;

  void set_process(int id, ProcessFn fn);
  /// Byzantine process: arbitrary code, excluded from honest metrics.
  /// A never-installed... every id must get a role; use an empty function
  /// for a crashed (silent) process.
  void set_byzantine_process(int id, ProcessFn fn);

  /// Installs a schedule of environment faults with windows measured in
  /// scheduler *delivery steps* (the async notion of time). Only the fault
  /// kinds that add adversarial power here are accepted: crash-stop (the
  /// process unwinds at its next receive), directed link cuts and
  /// partitions (messages crossing an active cut are dropped -- note this
  /// deliberately breaks eventual delivery). Crash-recovery and inbox
  /// permutation are rejected: both are already inside the asynchronous
  /// scheduler's adversarial power (arbitrary delay, arbitrary order).
  void set_fault_plan(net::FaultPlan plan);

  /// Runs until every process returned. Throws on deadlock, on a process
  /// exception, or past `max_deliveries`.
  AsyncStats run(std::size_t max_deliveries = kDefaultMaxDeliveries);

  static constexpr std::size_t kDefaultMaxDeliveries = 5'000'000;

  int n() const { return n_; }
  int t() const { return t_; }

 private:
  friend class ProcessContext;
  struct Impl;

  void process_send(std::size_t index, int to, net::Payload payload);
  Envelope process_receive(std::size_t index);
  void process_mark_done(std::size_t index);

  int n_;
  int t_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace coca::async
