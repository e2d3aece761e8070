// Chaos harness: the executable form of the survivability invariant.
//
// `run_case_under_wire_faults` executes one fuzz case twice -- once on the
// in-process SyncNetwork, once through a fresh daemon + recovery-enabled
// WireClient with a WireFaultPlan injected at both sites -- and compares.
// The contract it checks is exactly the one the transport claims:
//
//   * every fault the plan injects is absorbed by reconnect/backoff and
//     round-replay session resumption, and the recovered run's transcript,
//     RunStats, and oracle verdict are **bit-identical** to the fault-free
//     baseline; or
//   * the outage outlasted the retry budget, and the run resolved into a
//     structured failure (the router's reason and per-party outcomes) --
//     never a hang, never a silently different result.
//
// `ChaosReport::ok()` is that disjunction; anything else (diverging bits,
// a wedged session) is a transport bug. tests/test_wire_recovery.cpp
// sweeps deterministic schedules through this harness, `fuzz_driver
// --wire-faults` searches random ones, and tools/wire_soak hammers many
// concurrent sessions through it under a wall-clock budget.
//
// The optional daemon-restart mode kills the daemon process state outright
// (destroying the Daemon, socket and all) after the first client outage
// and boots a fresh one on the same path: recovery then exercises the
// unknown-token adoption path instead of in-registry resumption.
#pragma once

#include <cstdint>
#include <string>

#include "adversary/fuzzer.h"
#include "svc/wire_fault.h"

namespace coca::svc {

/// The wired run's client policy is fixed: a 10 s per-round budget with
/// reconnects included, 10 reconnect attempts with tight local backoff
/// (1 ms doubling to 20 ms), 3 missed heartbeats to an outage. The point
/// is to find divergence, not budget exhaustion.
struct ChaosOptions {
  /// Faults injected at both sites (each interprets its own kinds).
  WireFaultPlan plan;
  /// Client heartbeat probe interval; 0 disables heartbeats.
  int heartbeat_interval_ms = 0;
  /// Destroy the daemon after the first client outage and boot a fresh one
  /// (fault-plan-free) on the same path: the rebind must go through
  /// unknown-token adoption and still converge bit-identically.
  bool restart_daemon_mid_run = false;
};

/// Robustness-counter deltas observed across the wired run (daemon counters
/// summed across a restart).
struct ChaosStats {
  std::uint64_t daemon_injected_faults = 0;
  std::uint64_t daemon_reconnects = 0;
  std::uint64_t daemon_resumed_sessions = 0;
  std::uint64_t daemon_replayed_rounds = 0;
  std::uint64_t daemon_replayed_bytes = 0;
  std::uint64_t daemon_heartbeats_missed = 0;
  std::uint64_t client_outages = 0;
  std::uint64_t client_reconnects = 0;
  std::uint64_t client_reconnect_attempts = 0;
  std::uint64_t client_resumed_sessions = 0;
  std::uint64_t client_replayed_rounds = 0;
  std::uint64_t client_injected_faults = 0;
  std::uint64_t client_heartbeats_missed = 0;
  std::uint64_t client_recovery_ms = 0;
  std::uint64_t daemon_restarts = 0;
};

struct ChaosReport {
  adv::FuzzOutcome plain;
  adv::FuzzOutcome wired;
  /// Transcript + RunStats + verdict bit-identical to the baseline.
  bool identical = false;
  /// Not identical, but the wired run did not terminate: it ended in
  /// per-party outcomes (and the router's reason, on a transport failure)
  /// -- the give-up contract.
  bool structured = false;
  /// First observed difference, for diagnostics (empty when identical).
  std::string mismatch;
  ChaosStats stats;

  bool ok() const { return identical || structured; }
};

/// Runs `c` under `opt` against a fresh single-use daemon on a unique UDS
/// path. Thread-safe; many calls may run concurrently (wire_soak does).
ChaosReport run_case_under_wire_faults(const adv::FuzzCase& c,
                                       const ChaosOptions& opt);

/// Reproducer files for `fuzz_driver --wire-faults`, schema
/// "coca-wirechaos-v1": a corpus entry plus the wire-fault plan that broke
/// it, each in its own existing schema. The reader parses the envelope as
/// one strict object (util/json): exact schema, `entry` and `wire_faults`
/// read in place, unknown or repeated keys and trailing bytes rejected.
std::string wire_chaos_to_json(const adv::CorpusEntry& entry,
                               const WireFaultPlan& plan);
struct WireChaosCase {
  adv::CorpusEntry entry;
  WireFaultPlan plan;
};
WireChaosCase wire_chaos_from_json(std::string_view json);

}  // namespace coca::svc
