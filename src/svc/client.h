// Client side of the service runtime: a connection to the coca daemon
// multiplexing concurrent agreement sessions, each usable as a
// `net::RoundRouter`.
//
// `WireClient` owns one socket (UDS or TCP loopback) plus a demux reader
// thread: inbound frames are parsed incrementally and dispatched to the
// owning session's inbound state under the client mutex; sessions wait on
// their own condition variables. The send path is the zero-copy half of
// the transport: a round's kMsg frames are written as one writev batch of
// (header, payload-view) iovecs straight from the protocol's `Payload`
// buffers -- no staging copy, which is what keeps
// `RunStats::payload_copies == 0` on the honest path end to end.
//
// `WireSession::route()` implements the round barrier over the wire:
// write all staged messages + kCommit, block until the daemon delivered
// them all back + its kCommit, return the re-materialized messages. Every
// wait has a deadline and every failure (daemon kError, disconnect, EOF,
// timeout) resolves to nullopt with a reason -- the engine then ends the
// run with structured TimedOut outcomes instead of hanging or throwing.
//
// Recovery (opt-in via RecoveryOptions::enabled): when the reader thread
// loses the stream -- EOF, read error, malformed bytes, or a heartbeat
// timeout -- it resets the decoder, reconnects to the same endpoint under
// capped exponential backoff with seeded jitter, and rebinds every live
// session with kResume, declaring the rounds the session fully received.
// The daemon replays the gap from its replay log; route() re-drives the
// in-flight round exactly when the daemon never committed it (an epoch
// counter gates one re-send per reconnect, and the kResumeAck's committed
// count tells the client whether the round is arriving as replay instead).
// Past `max_attempts` the client gives up the same way it fails today:
// every session resolves dead with a structured reason, never a hang.
#pragma once

#include <sys/uio.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/round_router.h"
#include "svc/frame.h"
#include "svc/socket.h"
#include "svc/wire_fault.h"
#include "util/rng.h"

namespace coca::svc {

/// Transport-outage recovery policy. Disabled by default: a lost
/// connection resolves every session immediately (the PR-7 behaviour,
/// which the transport-failure conformance tests pin down).
struct RecoveryOptions {
  bool enabled = false;
  /// Reconnect attempts per outage before giving up with a structured
  /// "retry budget exhausted" failure.
  int max_attempts = 8;
  /// Capped exponential backoff between attempts (the first retry waits
  /// `backoff_initial_ms`, doubling up to `backoff_max_ms`), plus a seeded
  /// jitter of up to half the base -- seeded per outage ordinal, so chaos
  /// runs replay byte-identically.
  int backoff_initial_ms = 20;
  int backoff_max_ms = 2'000;
  /// Liveness probing: after this long with no inbound bytes the reader
  /// sends kPing; `heartbeat_misses` unanswered probes declare the daemon
  /// gone and trigger a reconnect. 0 disables probing (the round timeout
  /// is then the only liveness bound).
  int heartbeat_interval_ms = 0;
  int heartbeat_misses = 3;
};

struct ClientOptions {
  /// Upper bound on one round barrier (route() returns nullopt past it).
  /// With recovery enabled this is the *total* budget for the round,
  /// including any reconnect/backoff/replay underneath it. Session
  /// open/close handshakes wait at most 10 s.
  int round_timeout_ms = 30'000;
  RecoveryOptions recovery;
  /// Deterministic transport faults interpreted at the client site
  /// (kClientKill / kClientPartialWrite entries; the daemon interprets its
  /// own site's entries). The client-site session ordinal is `id() - 1`.
  WireFaultPlan fault_plan;
};

/// Monotonic recovery counters, readable from any thread.
struct ClientStats {
  std::atomic<std::uint64_t> outages{0};             // stream losses seen
  std::atomic<std::uint64_t> reconnects{0};          // successful rebinds
  std::atomic<std::uint64_t> reconnect_attempts{0};  // dials, incl. failed
  std::atomic<std::uint64_t> resumed_sessions{0};    // kResumeAck received
  std::atomic<std::uint64_t> replayed_rounds{0};     // rounds covered by ack
  std::atomic<std::uint64_t> heartbeats_missed{0};   // unanswered kPing
  std::atomic<std::uint64_t> injected_faults{0};     // client-site firings
  std::atomic<std::uint64_t> recovery_ms_total{0};   // outage -> rebind time
};

class WireClient;

/// One agreement session on a client connection. Thread-compatible: route()
/// is called from the session's own engine controller; many sessions of
/// one client may route concurrently from different threads.
class WireSession : public net::RoundRouter {
 public:
  ~WireSession() override;

  std::optional<std::vector<net::WireMessage>> route(
      std::size_t round, std::vector<net::WireMessage> staged) override;
  std::string failure_reason() const override;

  std::uint32_t id() const { return id_; }
  /// The daemon-issued resume token from the kOpenAck (0 before open).
  std::uint64_t resume_token() const;

  /// Orderly close (kClose, best-effort wait for kClosed). Idempotent;
  /// the destructor calls it.
  void close();

 private:
  friend class WireClient;
  WireSession(WireClient& client, std::uint32_t id)
      : client_(client), id_(id) {}

  WireClient& client_;
  std::uint32_t id_;

  // Inbound state, guarded by the client mutex.
  struct Inbound {
    std::condition_variable cv;
    std::vector<net::WireMessage> delivered;  // kDeliver of the open round
    bool open_acked = false;
    bool round_done = false;   // daemon kCommit seen
    bool closed_acked = false;
    bool dead = false;         // kError / disconnect
    std::string error;
    // Recovery state. `routing`/`expect_round` filter stale or replayed
    // frames of other rounds; `resume_pending` closes the send gate between
    // a reconnect and its kResumeAck; `daemon_committed` (from the ack)
    // tells route() whether its round arrives as replay or must be re-sent.
    bool routing = false;
    std::uint32_t expect_round = 0;
    bool resume_pending = false;
    std::uint64_t daemon_committed = 0;
  };
  Inbound in_;
  bool close_sent_ = false;
  // Session identity for kResume, guarded by the client mutex.
  std::uint64_t token_ = 0;      // from kOpenAck
  std::uint64_t completed_ = 0;  // rounds fully received and harvested
  std::uint16_t n_ = 0;
  std::uint16_t t_ = 0;
};

class WireClient {
 public:
  static std::unique_ptr<WireClient> connect_uds_path(
      const std::string& path, ClientOptions options = {});
  static std::unique_ptr<WireClient> connect_tcp(
      std::uint16_t port, ClientOptions options = {});

  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Opens a session (kOpen/kOpenAck handshake). Throws Error on refusal
  /// or handshake timeout. The session must not outlive the client.
  std::unique_ptr<WireSession> open(int n, int t);

  /// True once the connection is lost for good (reader saw EOF or a socket
  /// error and recovery is off, gave up, or is shutting down). False while
  /// a recovery-enabled client is between connections.
  bool disconnected() const;

  const ClientStats& stats() const { return stats_; }

 private:
  friend class WireSession;
  /// Reconnect endpoint, fixed at construction.
  struct Target {
    bool tcp = false;
    std::string uds_path;
    std::uint16_t port = 0;
  };

  WireClient(Fd fd, Target target, ClientOptions options);
  void reader_loop();
  /// Blocking read/dispatch until the stream is lost; returns the reason.
  /// Sets *heartbeat when the loss was declared by missed probes.
  std::string read_stream(FrameDecoder& decoder, bool* heartbeat);
  /// Backoff/redial/kResume cycle. Returns false when the retry budget is
  /// exhausted or the client is stopping (sessions are failed first).
  bool reconnect_and_resume(const std::string& reason, bool heartbeat);
  /// Marks the connection dead and resolves every session with `reason`.
  void fail_all(const std::string& reason);
  void dispatch(Frame f);
  /// Sends one round's kMsg batch + kCommit for `s`, re-checking the send
  /// gate (epoch/reconnect/resume state) under the locks so a reconnect
  /// completing concurrently can never double-send a round. Applies
  /// client-site wire faults. No-op if the gate moved.
  void send_round_batch(WireSession& s, std::uint32_t round,
                        const std::vector<net::WireMessage>& staged,
                        std::uint64_t expected_epoch);
  /// Writes `iov` fully (handles partial writes); returns false on error.
  bool write_all(::iovec* iov, int iovcnt);

  ClientOptions options_;
  Target target_;
  Fd fd_;  // swapped on reconnect under send_mu_ + mu_
  mutable std::mutex mu_;
  std::mutex send_mu_;  // serializes writev batches across sessions
  /// Lock order: send_mu_ before mu_, always (scoped_lock when both).
  std::condition_variable client_cv_;  // interrupts backoff sleeps
  std::unordered_map<std::uint32_t, WireSession*> sessions_;
  std::uint32_t next_session_ = 1;
  /// Bumped on every successful rebind; a route() send is valid for one
  /// epoch, so each reconnect re-opens exactly one re-send.
  std::uint64_t epoch_ = 1;
  bool reconnecting_ = false;
  bool disconnected_ = false;
  std::string disconnect_reason_;
  std::atomic<bool> stopping_{false};
  WireFaultFuse fault_fuse_;  // guarded by send_mu_
  ClientStats stats_;
  std::thread reader_;
};

}  // namespace coca::svc
