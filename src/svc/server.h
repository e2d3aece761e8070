// The coca transport daemon: a single-threaded epoll server that
// synchronizes agreement rounds over UDS and TCP-loopback connections.
//
// Role in the system: the daemon is the wire. A client process runs the
// (unmodified) protocol parties; at every round barrier it ships the
// round's canonically merged messages to the daemon as kMsg frames and
// commits with a count. The daemon buffers the round per session,
// validates the commit, and routes every message back to its recipient's
// connection as kDeliver frames followed by a kCommit barrier -- so all
// protocol traffic genuinely transits the socket (client -> daemon ->
// client) before any party consumes it. In the loopback deployment one
// connection hosts all n parties of a session and "routing" is an ordered
// echo; the framing carries (session, round, from, to) so nothing about
// the protocol changes when parties spread over many connections.
//
// Sessions: one connection multiplexes many concurrent agreement sessions
// (the session id lives in every frame header). Each session is a small
// state machine (open -> per-round buffer/commit cycles -> closed) with
// its own idle clock; a session that goes quiet past the idle timeout is
// killed with a kError frame. Malformed streams (bad magic, commit count
// mismatch, frames for unknown sessions) kill the connection or session
// with a structured error, never the daemon.
//
// Survivability: a session is named daemon-wide by the u64 resume token
// issued in its kOpenAck, not by its connection. When a connection dies
// the session *detaches* and survives for `resume_grace_ms` awaiting a
// kResume on a fresh connection; the daemon keeps a bounded replay log of
// the last committed rounds per session (kDeliver payload *views* into the
// pooled receive slabs -- retention is zero-copy) and replays whatever the
// reconnecting client declares it never received. kPing is answered with
// kPong for client-side liveness detection, and a WireFaultPlan
// (wire_fault.h) injects deterministic transport faults -- kills, stalls,
// truncated flushes -- at chosen (session, round) points for the chaos
// suites. The frame-level state machine is documented in DESIGN.md
// ("failure & recovery").
//
// Threading: all connection and session state belongs to the loop thread;
// start()/stop() run the loop on a background thread (tests), run() runs
// it on the caller's thread (tools/coca_serve). Stats counters are
// atomics so tests and ops can observe from outside.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include <sys/uio.h>

#include "svc/event_loop.h"
#include "svc/frame.h"
#include "svc/wire_fault.h"

namespace coca::svc {

struct DaemonOptions {
  /// Unix-domain socket path; empty = no UDS listener.
  std::string uds_path;
  /// Listen on 127.0.0.1 when true (`tcp_port` 0 picks an ephemeral port,
  /// read back via Daemon::tcp_port()).
  bool tcp = false;
  std::uint16_t tcp_port = 0;
  /// A session with no frame activity for this long is killed with kError.
  int idle_timeout_ms = 30'000;

  /// How long a session whose connection died is retained (detached)
  /// awaiting a kResume before it is reaped. 0 disables resumption: a dead
  /// connection kills its sessions immediately (the PR-7 behaviour).
  int resume_grace_ms = 10'000;
  /// Replay-log retention per session: at most this many committed rounds
  /// and at most 4 MiB of retained payload (views into pooled slabs; the
  /// byte bound is what limits slab pinning). The newest round is always
  /// retained so a kill-before-flush is always replayable.
  int replay_log_rounds = 8;
  /// Accept a kResume whose token the daemon does not know (it restarted):
  /// the session is adopted at the client's declared round base and the
  /// client re-drives the in-flight round. Off = unknown tokens are
  /// rejected with kError.
  bool adopt_unknown_resume = true;
  /// Deterministic transport faults interpreted at the daemon site (the
  /// client interprets its own site's entries; see wire_fault.h).
  WireFaultPlan fault_plan;
};

/// Loop-thread-owned counters, readable from any thread.
struct DaemonStats {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> sessions_opened{0};
  std::atomic<std::uint64_t> sessions_closed{0};
  std::atomic<std::uint64_t> sessions_idle_killed{0};
  std::atomic<std::uint64_t> rounds_committed{0};
  std::atomic<std::uint64_t> frames_received{0};
  std::atomic<std::uint64_t> bytes_received{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  // Robustness counters (all monotonic; surfaced by coca_serve's stats
  // dump and asserted nonzero by the chaos tests).
  std::atomic<std::uint64_t> reconnects{0};         // kResume frames seen
  std::atomic<std::uint64_t> resumed_sessions{0};   // rebinds accepted
  std::atomic<std::uint64_t> replayed_rounds{0};    // rounds re-delivered
  std::atomic<std::uint64_t> replayed_bytes{0};     // bytes re-delivered
  std::atomic<std::uint64_t> heartbeats_missed{0};  // kResume after misses
  std::atomic<std::uint64_t> injected_faults{0};    // WireFaultPlan firings
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Runs the loop on a background thread until stop().
  void start();
  /// Signals the loop to exit and joins it (idempotent; also safe after
  /// run() returned).
  void stop();
  /// Runs the loop on the calling thread until stop() is called from
  /// another thread (or a signal handler calls request_stop()).
  void run();
  /// Async-signal-safe stop request (no join).
  void request_stop();

  /// The bound TCP port (valid once constructed, options.tcp only).
  std::uint16_t tcp_port() const { return tcp_port_; }
  const DaemonStats& stats() const { return stats_; }

 private:
  struct Conn;
  struct Session;
  void accept_ready(Fd& listener);
  void conn_ready(int fd, std::uint32_t events);
  void handle_frame(Conn& c, Frame f);
  void handle_commit(Conn& c, Session& s, Frame f);
  void handle_resume(Conn& c, Frame f);
  /// Detaches or reaps `s` from both maps (and its conn, if attached).
  void erase_session(Session& s, bool count_closed);
  /// Enqueues one outbound frame without flushing -- the payload view is
  /// moved, never copied (the round-routing path corks all kDeliver frames
  /// plus the kCommit barrier, then flushes once).
  void queue_frame(Conn& c, const FrameHeader& h, net::Payload payload);
  void send_frame(Conn& c, const FrameHeader& h, net::Payload payload);
  /// Points `iov` (room for 256 entries) at the unwritten bytes of the out
  /// queue, from each frame's write cursor; returns the entry count.
  static int gather(const Conn& c, ::iovec* iov);
  void flush(Conn& c);
  /// Fault path: writes at most `budget` bytes of the out queue (tearing a
  /// frame at an arbitrary byte), then the caller hard-closes.
  void flush_prefix(Conn& c, std::size_t budget);
  void close_conn(int fd);
  void sweep_idle();
  void loop();

  DaemonOptions options_;
  EventLoop loop_;
  Fd uds_listener_;
  Fd tcp_listener_;
  std::uint16_t tcp_port_ = 0;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  /// Daemon-wide session registry, keyed by resume token. Sessions belong
  /// to the loop thread; a session outlives its connection while detached.
  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::uint64_t next_token_ = 1;
  std::int32_t next_ordinal_ = 0;  // fault-plan session matching
  WireFaultFuse fault_fuse_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  DaemonStats stats_;
};

}  // namespace coca::svc
