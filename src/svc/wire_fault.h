// Transport fault injection for the service runtime.
//
// `net::FaultPlan` (PR 4) made *environment* faults -- crashes, link cuts,
// partitions -- pure replayable data interpreted deterministically by the
// engines. `WireFaultPlan` applies the same discipline one layer down, to
// the wire itself: connection kills, read/write stalls, partial writes,
// delayed flushes, and frame-boundary truncation, each pinned to a
// (session, round) point. A plan is pure data: no timers, no randomness at
// interpretation time. The daemon and the client each interpret the
// entries of their site, and each entry fires exactly once (a `WireFaultFuse`
// tracks which have burned), so the same (case, plan) pair reproduces the
// same outage schedule run after run -- wire-fault schedules are corpus
// material for the fuzzer (`fuzz_driver --wire-faults`), not one-off chaos.
//
// Unlike a FaultPlan, a WireFaultPlan charges *nobody*: every fault here is
// below the protocol, and the recovery layer (session resumption, see
// server.h/client.h) must absorb it bit-identically -- or, past the retry
// budget, resolve every party to a structured PartyOutcome. That invariant
// is what tests/test_wire_recovery.cpp and tools/wire_soak enforce.
//
// Site and matching:
//  * Daemon-site kinds fire when the matching session commits `round`; the
//    `session` field is the daemon-wide open ordinal (0 = first session
//    opened on the daemon; -1 = any session).
//  * Client-site kinds fire when the matching session routes `round`; the
//    `session` field is the client-wide open ordinal (session id - 1). In
//    the one-client-per-daemon harnesses the two ordinals coincide.
//
// Kinds:
//  * kKillBeforeFlush  daemon commits the round (it enters the replay log)
//                      then hard-closes without flushing: the client saw
//                      nothing of the round and recovery must replay it.
//  * kKillAfterFlush   daemon flushes the round, then hard-closes: the
//                      client already holds the round; resumption has no
//                      gap to replay.
//  * kDelayFlush       daemon sleeps `delay_ms` between committing and
//                      flushing the round (a stalled write).
//  * kStallRead        daemon sleeps `delay_ms` before processing the
//                      commit (a stalled read; heartbeats see silence).
//  * kTruncateFrame    daemon flushes only the first `truncate_bytes` bytes
//                      of the round's gather batch -- tearing a frame at an
//                      arbitrary byte -- then hard-closes.
//  * kClientKill       client shuts its socket down just before sending the
//                      round (the daemon never sees the commit).
//  * kClientPartialWrite  client writes only the first `truncate_bytes`
//                      bytes of the round's gather batch, then hard-closes:
//                      the daemon observes a frame torn at an arbitrary
//                      byte (the client-site mirror of kTruncateFrame).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.h"
#include "util/json.h"

namespace coca::svc {

struct WireFaultPlan {
  enum class Kind : std::uint8_t {
    kKillBeforeFlush = 1,
    kKillAfterFlush = 2,
    kDelayFlush = 3,
    kStallRead = 4,
    kTruncateFrame = 5,
    kClientKill = 6,
    kClientPartialWrite = 7,
  };

  struct Entry {
    Kind kind = Kind::kKillBeforeFlush;
    /// Session open ordinal at the interpreting site; -1 = any session.
    std::int32_t session = -1;
    /// Engine round the entry fires at.
    std::uint32_t round = 0;
    /// kDelayFlush / kStallRead: stall length.
    std::uint32_t delay_ms = 0;
    /// kTruncateFrame / kClientPartialWrite: byte offset into the round's
    /// gather batch.
    std::uint32_t truncate_bytes = 0;

    bool operator==(const Entry&) const = default;
  };

  std::vector<Entry> entries;

  bool operator==(const WireFaultPlan&) const = default;
  bool empty() const { return entries.empty(); }

  /// Throws Error on a malformed plan (unknown kind byte, zero-length
  /// stall, session ordinal below -1, stalls beyond `max_stall_ms`).
  void validate(std::uint32_t max_stall_ms = 10'000) const;

  /// True iff the plan has at least one entry interpreted at the daemon /
  /// client site respectively.
  bool has_daemon_site() const;
  bool has_client_site() const;
};

/// True iff entries of `kind` are interpreted by the daemon (else client).
bool daemon_site(WireFaultPlan::Kind kind);

const char* to_string(WireFaultPlan::Kind kind);
std::optional<WireFaultPlan::Kind> wire_fault_kind_from_string(
    std::string_view s);

/// One-shot firing state over a plan: each entry burns at most once, so a
/// schedule like "kill at round 3" does not re-kill the resumed connection
/// when the replayed round 3 commits again. Interpreters own one fuse per
/// plan and call take() at each injection point.
class WireFaultFuse {
 public:
  WireFaultFuse() = default;
  explicit WireFaultFuse(const WireFaultPlan& plan)
      : fired_(plan.entries.size(), false) {}

  /// Index of the first unfired entry of `kind` matching (ordinal, round),
  /// burning it, or -1. `ordinal` is the interpreting site's session open
  /// ordinal (entries with session == -1 match any ordinal).
  int take(const WireFaultPlan& plan, WireFaultPlan::Kind kind,
           std::int32_t ordinal, std::uint32_t round);

 private:
  std::vector<bool> fired_;
};

/// Seeded sampler for the fuzzer's wire-fault dimension: draws up to
/// `max_entries` entries with rounds inside [0, horizon). Deterministic in
/// `seed`.
struct WireFaultSampleConfig {
  std::size_t horizon = 16;
  int max_entries = 3;
  bool allow_kill = true;      // kKillBeforeFlush / kKillAfterFlush / kClientKill
  bool allow_stall = true;     // kDelayFlush / kStallRead
  bool allow_truncate = true;  // kTruncateFrame / kClientPartialWrite
  std::uint32_t max_stall_ms = 50;
  std::uint64_t seed = 1;
};

WireFaultPlan sample_wire_fault_plan(const WireFaultSampleConfig& cfg);

/// JSON round trip, schema "coca-wirefault-v1", read through util/json's
/// strict reader like the fuzz corpus: exact schema, no unknown or repeated
/// keys, every integer range-checked against its field, then validate().
/// `read_wire_fault_plan` reads one plan object in place (the wire-chaos
/// reproducer nests one); the string form also requires the text to end.
std::string to_json(const WireFaultPlan& plan);
WireFaultPlan read_wire_fault_plan(json::Reader& r);
WireFaultPlan wire_fault_plan_from_json(std::string_view text);

}  // namespace coca::svc
