// Survivable wire sessions: the headline robustness invariant plus the
// resume-protocol edge cases.
//
// The headline (ISSUE 9): for every protocol and both shapes, a wired run
// whose transport is killed at every single round barrier -- plus daemon
// restarts, stalls, truncated flushes and client-side torn writes -- must
// recover via reconnect/backoff + round-replay resumption to a transcript,
// RunStats and verdict **bit-identical** to the fault-free SyncNetwork
// run. Past the retry budget the run must resolve into structured
// PartyOutcomes with a "retry budget exhausted" reason -- never a hang,
// never a silently different answer. `svc::run_case_under_wire_faults`
// (chaos.h) is the harness that executes that disjunction.
//
// The edge cases drive the kResume state machine directly over raw
// sockets: stale round numbers (ahead of committed), rounds evicted past
// replay retention, unknown tokens with adoption on/off, double reconnects
// racing for one session, grace-window reaping, and malformed payloads --
// each must yield a structured kError (or a working adoption), never a
// replay of garbage.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/fuzzer.h"
#include "net/buffer_pool.h"
#include "net/sync_network.h"
#include "svc/chaos.h"
#include "svc/client.h"
#include "svc/frame.h"
#include "svc/server.h"
#include "svc/socket.h"
#include "svc/wire_fault.h"

namespace coca {
namespace {

using Kind = svc::WireFaultPlan::Kind;
using svc::ChaosOptions;
using svc::ChaosReport;

std::string unique_uds_path(const char* tag) {
  return "/tmp/coca-test-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

adv::FuzzCase base_case(const std::string& protocol, int n) {
  adv::FuzzCase c;
  c.protocol = protocol;
  c.n = n;
  c.t = (n - 1) / 3;
  c.ell = 16;
  c.input_seed = 0xC0CA + n;
  return c;
}

/// Rounds the fault-free baseline takes (fault schedules are built per
/// round index, so every sweep starts by probing this).
std::uint32_t probe_rounds(const adv::FuzzCase& c) {
  const adv::FuzzOutcome plain = adv::execute_case(c);
  EXPECT_TRUE(plain.terminated) << plain.failure;
  return static_cast<std::uint32_t>(plain.stats.rounds);
}

svc::WireFaultPlan::Entry fault(Kind kind, std::uint32_t round,
                                std::uint32_t arg = 0) {
  svc::WireFaultPlan::Entry e;
  e.kind = kind;
  e.session = -1;
  e.round = round;
  if (kind == Kind::kDelayFlush || kind == Kind::kStallRead) e.delay_ms = arg;
  if (kind == Kind::kTruncateFrame || kind == Kind::kClientPartialWrite) {
    e.truncate_bytes = arg;
  }
  return e;
}

// ---------------------------------------------------------------------------
// Chaos-harness sweeps: the bit-identical recovery invariant.
// ---------------------------------------------------------------------------

TEST(WireChaos, KillBeforeFlushAtEveryRoundAllProtocols) {
  // The tentpole sweep: the connection dies at *every* round barrier, after
  // the daemon committed the round but before any of it was flushed -- the
  // worst replay case (the whole round exists only in the replay log).
  // Every protocol, both shapes, one wired run per case absorbing R kills.
  for (const std::string& protocol : adv::known_protocols()) {
    for (const int n : {4, 7}) {
      SCOPED_TRACE(::testing::Message()
                   << "protocol=" << protocol << " n=" << n);
      const adv::FuzzCase c = base_case(protocol, n);
      const std::uint32_t rounds = probe_rounds(c);
      ASSERT_GT(rounds, 0u);
      ChaosOptions opt;
      for (std::uint32_t r = 0; r < rounds; ++r) {
        opt.plan.entries.push_back(fault(Kind::kKillBeforeFlush, r));
      }
      const ChaosReport rep = run_case_under_wire_faults(c, opt);
      EXPECT_TRUE(rep.identical) << rep.mismatch << "\nwired failure: " << rep.wired.failure;
      // Every scheduled kill fired, and every killed round was replayed.
      EXPECT_EQ(rep.stats.daemon_injected_faults, rounds);
      EXPECT_GE(rep.stats.daemon_replayed_rounds, rounds);
      EXPECT_GE(rep.stats.client_outages, static_cast<std::uint64_t>(rounds));
      EXPECT_GE(rep.stats.client_reconnects, 1u);
      EXPECT_GE(rep.stats.daemon_resumed_sessions, 1u);
    }
  }
}

TEST(WireChaos, DaemonRestartMidRunAdoptsSessions) {
  // The daemon is destroyed outright (registry, socket and all) after the
  // first outage and a fresh one boots on the same path: recovery must go
  // through unknown-token adoption and still converge bit-identically.
  for (const std::string& protocol : adv::known_protocols()) {
    SCOPED_TRACE(::testing::Message() << "protocol=" << protocol);
    const adv::FuzzCase c = base_case(protocol, 4);
    const std::uint32_t rounds = probe_rounds(c);
    ASSERT_GT(rounds, 0u);
    ChaosOptions opt;
    opt.restart_daemon_mid_run = true;
    opt.plan.entries.push_back(
        fault(Kind::kKillBeforeFlush, std::min<std::uint32_t>(1, rounds - 1)));
    const ChaosReport rep = run_case_under_wire_faults(c, opt);
    EXPECT_TRUE(rep.identical) << rep.mismatch << "\nwired failure: " << rep.wired.failure;
    EXPECT_EQ(rep.stats.daemon_restarts, 1u);
    EXPECT_GE(rep.stats.client_reconnect_attempts, 1u);
  }
}

TEST(WireChaos, KillAfterFlushResumesWithNothingToReplay) {
  // The benign kill: the round was flushed before the close, so the client
  // usually drains it from the socket buffer and resumes flush with nothing
  // (or at most the in-flight round) to replay.
  const adv::FuzzCase c = base_case("BAPlus", 4);
  const std::uint32_t rounds = probe_rounds(c);
  ChaosOptions opt;
  for (std::uint32_t r = 0; r < std::min<std::uint32_t>(rounds, 3); ++r) {
    opt.plan.entries.push_back(fault(Kind::kKillAfterFlush, r));
  }
  const ChaosReport rep = run_case_under_wire_faults(c, opt);
  EXPECT_TRUE(rep.identical) << rep.mismatch << "\nwired failure: " << rep.wired.failure;
  EXPECT_GE(rep.stats.client_outages, 1u);
  EXPECT_GE(rep.stats.daemon_resumed_sessions, 1u);
}

TEST(WireChaos, StallThenRecoverIsPureLatency) {
  // Read stalls and delayed flushes inside the round budget are absorbed
  // without any reconnect at all: no outage, same bits, just slower.
  const adv::FuzzCase c = base_case("BAPlus", 4);
  const std::uint32_t rounds = probe_rounds(c);
  ASSERT_GE(rounds, 2u);
  ChaosOptions opt;
  opt.plan.entries.push_back(fault(Kind::kStallRead, 1, /*delay_ms=*/200));
  opt.plan.entries.push_back(
      fault(Kind::kDelayFlush, std::min<std::uint32_t>(2, rounds - 1), 150));
  const ChaosReport rep = run_case_under_wire_faults(c, opt);
  EXPECT_TRUE(rep.identical) << rep.mismatch << "\nwired failure: " << rep.wired.failure;
  EXPECT_EQ(rep.stats.daemon_injected_faults, 2u);
  EXPECT_EQ(rep.stats.client_outages, 0u);
}

/// Torn-write cut points: nothing written, one byte, one byte short of a
/// header, exactly one header, mid-payload, and past the whole batch.
constexpr std::uint32_t kPastBatch = 1u << 20;
constexpr std::uint32_t kTornAt[] = {0, 1, 23, 24, 30, kPastBatch};

TEST(WireChaos, TruncatedFlushIsRetransmitted) {
  // The flush tears at each cut point (30 bytes = one header + 6 payload
  // bytes): the client sees a partial frame then EOF, reconnects with a
  // reset decoder, and the round replays whole. A cut past the whole batch
  // is a kill after flush: the client already holds the round, so it
  // resumes with nothing to replay.
  const adv::FuzzCase c = base_case("BAPlus", 7);
  const std::uint32_t rounds = probe_rounds(c);
  ASSERT_GE(rounds, 2u);
  for (const std::uint32_t torn_at : kTornAt) {
    SCOPED_TRACE(::testing::Message() << "truncate_bytes=" << torn_at);
    ChaosOptions opt;
    opt.plan.entries.push_back(fault(Kind::kTruncateFrame, 1, torn_at));
    const ChaosReport rep = run_case_under_wire_faults(c, opt);
    EXPECT_TRUE(rep.identical) << rep.mismatch << "\nwired failure: " << rep.wired.failure;
    EXPECT_GE(rep.stats.client_outages, 1u);
    if (torn_at == kPastBatch) {
      EXPECT_GE(rep.stats.daemon_resumed_sessions, 1u);
    } else {
      EXPECT_GE(rep.stats.daemon_replayed_rounds, 1u);
    }
  }
}

TEST(WireChaos, ClientSiteFaultsRecover) {
  // Client-side chaos: a hard kill before the batch leaves, and a torn
  // write (the daemon observes a frame cut at each cut point, or at byte
  // 40, then EOF). The daemon never committed those rounds, so the resumed
  // client re-drives them -- the epoch gate's one-re-send-per-reconnect
  // path.
  const adv::FuzzCase c = base_case("BAPlus", 4);
  const std::uint32_t rounds = probe_rounds(c);
  ASSERT_GE(rounds, 3u);
  std::vector<std::uint32_t> cuts(std::begin(kTornAt), std::end(kTornAt));
  cuts.push_back(40);
  for (const std::uint32_t torn_at : cuts) {
    SCOPED_TRACE(::testing::Message() << "truncate_bytes=" << torn_at);
    ChaosOptions opt;
    opt.plan.entries.push_back(fault(Kind::kClientKill, 1));
    opt.plan.entries.push_back(fault(Kind::kClientPartialWrite, 2, torn_at));
    const ChaosReport rep = run_case_under_wire_faults(c, opt);
    EXPECT_TRUE(rep.identical) << rep.mismatch << "\nwired failure: " << rep.wired.failure;
    EXPECT_EQ(rep.stats.client_injected_faults, 2u);
    EXPECT_GE(rep.stats.client_outages, 2u);
    EXPECT_GE(rep.stats.daemon_resumed_sessions, 2u);
  }
}

TEST(WireChaos, MixedFaultScheduleStaysIdentical) {
  // Several fault kinds interleaved in one run, on the protocol with the
  // deepest round structure of the suite. Also the retention-side pool
  // invariant: the replay log pins receive slabs only as long as the
  // session lives -- once the harness tears both endpoints down, every
  // slab is back in the pool (reconnects, replays and torn frames leak
  // nothing).
  const net::BufferPool::Stats before = net::BufferPool::instance().stats();
  const adv::FuzzCase c = base_case("FixedLengthCA", 4);
  const std::uint32_t rounds = probe_rounds(c);
  ChaosOptions opt;
  const auto add = [&](svc::WireFaultPlan::Entry e) {
    if (e.round < rounds) opt.plan.entries.push_back(e);
  };
  add(fault(Kind::kKillBeforeFlush, 0));
  add(fault(Kind::kTruncateFrame, 1, 30));
  add(fault(Kind::kClientKill, 2));
  add(fault(Kind::kKillAfterFlush, 3));
  add(fault(Kind::kDelayFlush, 4, 50));
  add(fault(Kind::kClientPartialWrite, 5, 64));
  const ChaosReport rep = run_case_under_wire_faults(c, opt);
  EXPECT_TRUE(rep.identical) << rep.mismatch << "\nwired failure: " << rep.wired.failure;
  EXPECT_GE(rep.stats.daemon_injected_faults +
                rep.stats.client_injected_faults,
            3u);
  const net::BufferPool::Stats after = net::BufferPool::instance().stats();
  const std::uint64_t outstanding =
      (after.slab_allocs + after.slab_reuses - after.slab_releases) -
      (before.slab_allocs + before.slab_reuses - before.slab_releases);
  EXPECT_EQ(outstanding, 0u)
      << "chaos run left receive slabs pinned after teardown";
}

TEST(WireChaos, ReconnectDuringRoundZero) {
  // The very first barrier dies before anything was ever delivered: the
  // resume declares completed=0 and the entire history (one round) replays.
  const adv::FuzzCase c = base_case("FindPrefix", 4);
  ChaosOptions opt;
  opt.plan.entries.push_back(fault(Kind::kKillBeforeFlush, 0));
  const ChaosReport rep = run_case_under_wire_faults(c, opt);
  EXPECT_TRUE(rep.identical) << rep.mismatch << "\nwired failure: " << rep.wired.failure;
  EXPECT_GE(rep.stats.daemon_replayed_rounds, 1u);
}

TEST(WireChaos, ReconnectAfterFinalCommit) {
  // The connection dies right after the last round flushed: the run is
  // already decided client-side; recovery must not disturb the result (the
  // session close races a reconnect and both resolve cleanly).
  const adv::FuzzCase c = base_case("BAPlus", 4);
  const std::uint32_t rounds = probe_rounds(c);
  ASSERT_GT(rounds, 0u);
  ChaosOptions opt;
  opt.plan.entries.push_back(fault(Kind::kKillAfterFlush, rounds - 1));
  const ChaosReport rep = run_case_under_wire_faults(c, opt);
  EXPECT_TRUE(rep.identical) << rep.mismatch << "\nwired failure: " << rep.wired.failure;
}

TEST(WireChaos, HeartbeatDetectsSilentDaemon) {
  // A 600 ms read stall with 50 ms heartbeats: the client's probes go
  // unanswered, it declares the daemon gone (kResume carries the heartbeat
  // flag, counted daemon-side), reconnects, and the stalled round replays
  // once the daemon wakes. Still bit-identical.
  const adv::FuzzCase c = base_case("BAPlus", 4);
  const std::uint32_t rounds = probe_rounds(c);
  ASSERT_GE(rounds, 2u);
  ChaosOptions opt;
  opt.plan.entries.push_back(fault(Kind::kStallRead, 1, /*delay_ms=*/600));
  opt.heartbeat_interval_ms = 50;
  const ChaosReport rep = run_case_under_wire_faults(c, opt);
  EXPECT_TRUE(rep.identical) << rep.mismatch << "\nwired failure: " << rep.wired.failure;
  EXPECT_GE(rep.stats.client_heartbeats_missed, 1u);
  EXPECT_GE(rep.stats.daemon_heartbeats_missed, 1u);
  EXPECT_GE(rep.stats.client_outages, 1u);
}

TEST(WireChaos, ByzantineTrafficSurvivesFaultsToo) {
  // The adversary layer rides the same wire: a corrupted party's mutated
  // traffic must replay bit-identically through kills as well.
  adv::FuzzCase c = base_case("BAPlus", 4);
  c.corrupted = {2};
  c.mutation.seed = 0xBAD0C0CA;
  const std::uint32_t rounds = probe_rounds(c);
  ASSERT_GE(rounds, 2u);
  ChaosOptions opt;
  opt.plan.entries.push_back(fault(Kind::kKillBeforeFlush, 1));
  const ChaosReport rep = run_case_under_wire_faults(c, opt);
  EXPECT_TRUE(rep.identical) << rep.mismatch << "\nwired failure: " << rep.wired.failure;
}

// ---------------------------------------------------------------------------
// Give-up contract: past the retry budget, structured outcomes -- no hang.
// ---------------------------------------------------------------------------

TEST(WireRecovery, RetryBudgetExhaustionResolvesStructured) {
  const std::string path = unique_uds_path("exhaust");
  svc::DaemonOptions dopt;
  dopt.uds_path = path;
  auto daemon = std::make_unique<svc::Daemon>(dopt);
  daemon->start();

  svc::ClientOptions copt;
  copt.round_timeout_ms = 5'000;
  copt.recovery.enabled = true;
  copt.recovery.max_attempts = 2;
  copt.recovery.backoff_initial_ms = 1;
  copt.recovery.backoff_max_ms = 4;
  auto client = svc::WireClient::connect_uds_path(path, copt);
  std::unique_ptr<svc::WireSession> session = client->open(4, 1);

  net::SyncNetwork net(4, 1);
  net.set_round_router(session.get());
  std::atomic<bool> cut{false};
  for (int id = 0; id < 4; ++id) {
    net.set_honest(id, [&](net::PartyContext& ctx) {
      for (int r = 0; r < 1000; ++r) {
        if (r == 3 && ctx.id() == 0 && !cut.exchange(true)) {
          daemon.reset();          // gone for good: every redial must fail
          ::unlink(path.c_str());
        }
        ctx.send_all(Bytes{static_cast<std::uint8_t>(r)});
        ctx.advance();
      }
    });
  }
  const net::RunReport rep = net.run_report();
  EXPECT_TRUE(rep.transport_failed);
  EXPECT_NE(rep.transport_error.find("retry budget exhausted"),
            std::string::npos)
      << rep.transport_error;
  ASSERT_EQ(rep.outcomes.size(), 4u);
  EXPECT_TRUE(rep.timed_out);
  EXPECT_GE(client->stats().reconnect_attempts.load(), 2u);
  EXPECT_TRUE(client->disconnected());
}

// ---------------------------------------------------------------------------
// Resume-protocol edge cases, driven over raw sockets.
// ---------------------------------------------------------------------------

/// A bare framed connection: hand-crafted kResume/kCommit traffic and
/// direct observation of the daemon's replies.
class RawConn {
 public:
  explicit RawConn(const std::string& path) : fd_(svc::connect_uds(path)) {}

  void send(const svc::FrameHeader& h, const Bytes& payload) {
    const Bytes buf = svc::encode_frame(h, payload);
    const ssize_t wrote =
        ::send(fd_.get(), buf.data(), buf.size(), MSG_NOSIGNAL);
    ASSERT_EQ(wrote, static_cast<ssize_t>(buf.size()));
  }

  std::optional<svc::Frame> recv(int timeout_ms = 2'000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      if (std::optional<svc::Frame> f = dec_.next()) return f;
      if (dec_.failed()) return std::nullopt;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return std::nullopt;
      ::pollfd p{fd_.get(), POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left.count())) <= 0) {
        return std::nullopt;
      }
      const std::span<std::uint8_t> w = dec_.writable(4096);
      const ssize_t got = ::read(fd_.get(), w.data(), w.size());
      if (got <= 0) return std::nullopt;
      dec_.commit(static_cast<std::size_t>(got));
    }
  }

 private:
  svc::Fd fd_;
  svc::FrameDecoder dec_;
};

std::string text(const net::Payload& p) {
  return std::string(reinterpret_cast<const char*>(p.data()), p.size());
}

svc::FrameHeader header(svc::FrameType type, std::uint32_t sid,
                        std::uint32_t round = 0) {
  svc::FrameHeader h;
  h.type = type;
  h.session = sid;
  h.round = round;
  return h;
}

Bytes open_payload(std::uint16_t n, std::uint16_t t) {
  return Bytes{static_cast<std::uint8_t>(n & 0xFF),
               static_cast<std::uint8_t>(n >> 8),
               static_cast<std::uint8_t>(t & 0xFF),
               static_cast<std::uint8_t>(t >> 8)};
}

Bytes commit_payload(std::uint32_t count) {
  return Bytes{static_cast<std::uint8_t>(count & 0xFF),
               static_cast<std::uint8_t>((count >> 8) & 0xFF),
               static_cast<std::uint8_t>((count >> 16) & 0xFF),
               static_cast<std::uint8_t>(count >> 24)};
}

class ResumeEdge : public ::testing::Test {
 protected:
  void boot(svc::DaemonOptions dopt, const char* tag) {
    path_ = unique_uds_path(tag);
    dopt.uds_path = path_;
    daemon_ = std::make_unique<svc::Daemon>(dopt);
    daemon_->start();
  }

  void TearDown() override {
    if (daemon_) daemon_->stop();
    daemon_.reset();
    if (!path_.empty()) ::unlink(path_.c_str());
  }

  std::string path_;
  std::unique_ptr<svc::Daemon> daemon_;
};

TEST_F(ResumeEdge, StaleRoundAheadOfCommittedIsRejectedNotReplayed) {
  boot({}, "ahead");
  auto client = svc::WireClient::connect_uds_path(path_);
  std::unique_ptr<svc::WireSession> session = client->open(4, 1);
  const std::uint64_t token = session->resume_token();
  ASSERT_NE(token, 0u);

  // A desynced impostor claims rounds the daemon never committed.
  RawConn raw(path_);
  svc::ResumeInfo info;
  info.token = token;
  info.completed = 5;
  info.n = 4;
  info.t = 1;
  raw.send(header(svc::FrameType::kResume, 7), svc::encode_resume(info));
  const std::optional<svc::Frame> f = raw.recv();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->header.type, svc::FrameType::kError);
  EXPECT_NE(text(f->payload).find("ahead of committed"), std::string::npos)
      << text(f->payload);

  // The rejection did not steal the live binding: the session still routes.
  const auto delivered = session->route(0, {});
  ASSERT_TRUE(delivered.has_value()) << session->failure_reason();
  EXPECT_TRUE(delivered->empty());
  session->close();
}

TEST_F(ResumeEdge, ResumeBeyondReplayRetentionIsRejected) {
  svc::DaemonOptions dopt;
  dopt.replay_log_rounds = 2;
  boot(dopt, "retention");
  auto client = svc::WireClient::connect_uds_path(path_);
  std::unique_ptr<svc::WireSession> session = client->open(4, 1);
  for (std::uint32_t r = 0; r < 5; ++r) {
    ASSERT_TRUE(session->route(r, {}).has_value())
        << session->failure_reason();
  }
  // 5 rounds committed, retention holds the newest 2: a client that only
  // ever saw round 1 cannot be replayed back to health.
  RawConn raw(path_);
  svc::ResumeInfo info;
  info.token = session->resume_token();
  info.completed = 1;
  info.n = 4;
  info.t = 1;
  raw.send(header(svc::FrameType::kResume, 7), svc::encode_resume(info));
  const std::optional<svc::Frame> f = raw.recv();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->header.type, svc::FrameType::kError);
  EXPECT_NE(text(f->payload).find("beyond replay retention"),
            std::string::npos)
      << text(f->payload);
  session->close();
}

TEST_F(ResumeEdge, UnknownTokenRejectedWhenAdoptionOff) {
  svc::DaemonOptions dopt;
  dopt.adopt_unknown_resume = false;
  boot(dopt, "noadopt");
  RawConn raw(path_);
  svc::ResumeInfo info;
  info.token = 0xDEADBEEF;
  info.completed = 0;
  info.n = 4;
  info.t = 1;
  raw.send(header(svc::FrameType::kResume, 1), svc::encode_resume(info));
  const std::optional<svc::Frame> f = raw.recv();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->header.type, svc::FrameType::kError);
  EXPECT_NE(text(f->payload).find("unknown resume token"), std::string::npos);
}

TEST_F(ResumeEdge, UnknownTokenAdoptedAtDeclaredBaseWhenEnabled) {
  boot({}, "adopt");  // adoption defaults on
  RawConn raw(path_);
  svc::ResumeInfo info;
  info.token = 77;
  info.completed = 3;
  info.n = 4;
  info.t = 1;
  raw.send(header(svc::FrameType::kResume, 1), svc::encode_resume(info));
  const std::optional<svc::Frame> ack = raw.recv();
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->header.type, svc::FrameType::kResumeAck);
  const auto committed = svc::decode_u64_payload(
      std::span<const std::uint8_t>(ack->payload.data(),
                                    ack->payload.size()));
  ASSERT_TRUE(committed.has_value());
  EXPECT_EQ(*committed, 3u);  // adopted exactly at the declared base

  // The adopted session is live: the client re-drives its in-flight round.
  raw.send(header(svc::FrameType::kCommit, 1, 3), commit_payload(0));
  const std::optional<svc::Frame> barrier = raw.recv();
  ASSERT_TRUE(barrier.has_value());
  EXPECT_EQ(barrier->header.type, svc::FrameType::kCommit);
  EXPECT_EQ(barrier->header.round, 3u);
  EXPECT_EQ(daemon_->stats().resumed_sessions.load(), 1u);
}

TEST_F(ResumeEdge, MalformedResumePayloadIsRejected) {
  boot({}, "malformed");
  RawConn raw(path_);
  raw.send(header(svc::FrameType::kResume, 1), Bytes{1, 2, 3});
  const std::optional<svc::Frame> f = raw.recv();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->header.type, svc::FrameType::kError);
  EXPECT_NE(text(f->payload).find("kResume payload"), std::string::npos);
}

TEST_F(ResumeEdge, DoubleReconnectNewestBindingWins) {
  boot({}, "double");
  RawConn a(path_);
  a.send(header(svc::FrameType::kOpen, 1), open_payload(4, 1));
  const std::optional<svc::Frame> ack = a.recv();
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->header.type, svc::FrameType::kOpenAck);
  const auto token = svc::decode_u64_payload(std::span<const std::uint8_t>(
      ack->payload.data(), ack->payload.size()));
  ASSERT_TRUE(token.has_value());
  a.send(header(svc::FrameType::kCommit, 1, 0), commit_payload(0));
  ASSERT_TRUE(a.recv().has_value());  // the round-0 barrier echo

  svc::ResumeInfo info;
  info.token = *token;
  info.completed = 1;
  info.n = 4;
  info.t = 1;
  // Two racing reconnects: both are acked, the newest owns the session.
  RawConn b(path_);
  b.send(header(svc::FrameType::kResume, 1), svc::encode_resume(info));
  const std::optional<svc::Frame> ack_b = b.recv();
  ASSERT_TRUE(ack_b.has_value());
  EXPECT_EQ(ack_b->header.type, svc::FrameType::kResumeAck);

  RawConn c(path_);
  c.send(header(svc::FrameType::kResume, 1), svc::encode_resume(info));
  const std::optional<svc::Frame> ack_c = c.recv();
  ASSERT_TRUE(ack_c.has_value());
  EXPECT_EQ(ack_c->header.type, svc::FrameType::kResumeAck);

  // The winner routes round 1; the loser's commit hits a dead binding and
  // draws a structured kError, never a cross-delivered round.
  c.send(header(svc::FrameType::kCommit, 1, 1), commit_payload(0));
  const std::optional<svc::Frame> barrier = c.recv();
  ASSERT_TRUE(barrier.has_value());
  EXPECT_EQ(barrier->header.type, svc::FrameType::kCommit);
  EXPECT_EQ(barrier->header.round, 1u);

  b.send(header(svc::FrameType::kCommit, 1, 1), commit_payload(0));
  const std::optional<svc::Frame> err = b.recv();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->header.type, svc::FrameType::kError);

  EXPECT_EQ(daemon_->stats().reconnects.load(), 2u);
  EXPECT_EQ(daemon_->stats().resumed_sessions.load(), 2u);
}

TEST_F(ResumeEdge, DetachedSessionReapedAfterGraceWindow) {
  svc::DaemonOptions dopt;
  dopt.resume_grace_ms = 50;
  dopt.adopt_unknown_resume = false;
  boot(dopt, "grace");
  std::uint64_t token = 0;
  {
    RawConn a(path_);
    a.send(header(svc::FrameType::kOpen, 1), open_payload(4, 1));
    const std::optional<svc::Frame> ack = a.recv();
    ASSERT_TRUE(ack.has_value());
    const auto tok = svc::decode_u64_payload(std::span<const std::uint8_t>(
        ack->payload.data(), ack->payload.size()));
    ASSERT_TRUE(tok.has_value());
    token = *tok;
  }  // connection drops; the session detaches into the grace window

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (daemon_->stats().sessions_closed.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(daemon_->stats().sessions_closed.load(), 1u)
      << "detached session was not reaped after the grace window";

  // The token is gone: a late resume is a structured rejection.
  RawConn late(path_);
  svc::ResumeInfo info;
  info.token = token;
  info.completed = 1;
  info.n = 4;
  info.t = 1;
  late.send(header(svc::FrameType::kResume, 1), svc::encode_resume(info));
  const std::optional<svc::Frame> f = late.recv();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->header.type, svc::FrameType::kError);
  EXPECT_NE(text(f->payload).find("unknown resume token"), std::string::npos);
}

TEST_F(ResumeEdge, ResumeRejectedWhenResumptionDisabled) {
  svc::DaemonOptions dopt;
  dopt.resume_grace_ms = 0;  // the PR-7 daemon: no session survives its conn
  boot(dopt, "disabled");
  RawConn raw(path_);
  svc::ResumeInfo info;
  info.token = 1;
  info.n = 4;
  info.t = 1;
  raw.send(header(svc::FrameType::kResume, 1), svc::encode_resume(info));
  const std::optional<svc::Frame> f = raw.recv();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->header.type, svc::FrameType::kError);
  EXPECT_NE(text(f->payload).find("resumption is disabled"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Reproducer-file schema for fuzz_driver --wire-faults.
// ---------------------------------------------------------------------------

TEST(WireChaosJson, ReproducerRoundTrips) {
  adv::CorpusEntry entry;
  entry.c = base_case("BAPlus", 4);
  entry.violations = {"agreement"};
  entry.note = "found by --wire-faults";
  svc::WireFaultPlan plan;
  plan.entries.push_back(fault(Kind::kKillBeforeFlush, 2));
  plan.entries.push_back(fault(Kind::kStallRead, 3, 5));

  const std::string json = svc::wire_chaos_to_json(entry, plan);
  EXPECT_NE(json.find("coca-wirechaos-v1"), std::string::npos);
  const svc::WireChaosCase back = svc::wire_chaos_from_json(json);
  EXPECT_EQ(back.entry, entry);
  EXPECT_EQ(back.plan, plan);

  EXPECT_THROW(svc::wire_chaos_from_json("{}"), Error);
  EXPECT_THROW(svc::wire_chaos_from_json("not json"), Error);

  // The envelope is one strict object: the schema value itself must match,
  // and unknown keys, a second `entry` and trailing bytes are errors.
  const auto with = [&json](const std::string& from, const std::string& to) {
    std::string s = json;
    const std::size_t at = s.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? s : s.replace(at, from.size(), to);
  };
  const std::string schema = R"("schema": "coca-wirechaos-v1")";
  EXPECT_THROW(svc::wire_chaos_from_json(with(
                   schema,
                   R"("schema": "coca-wirechaos-v9", "coca-wirechaos-v1": 1)")),
               Error);
  EXPECT_THROW(
      svc::wire_chaos_from_json(with(schema, schema + R"(, "extra": {})")),
      Error);
  EXPECT_THROW(svc::wire_chaos_from_json(json + "}"), Error);
  EXPECT_THROW(svc::wire_chaos_from_json(
                   with("\"wire_faults\"",
                        "\"entry\": " + adv::to_json(entry) +
                            ", \"wire_faults\"")),
               Error);
}

}  // namespace
}  // namespace coca
