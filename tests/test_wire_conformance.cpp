// Wire conformance: every protocol run over the socket transport is
// bit-identical to the same run on the in-process SyncNetwork.
//
// Each case executes twice from the same seed: once plain, once with
// ExecHooks::router pointing at a WireSession of an in-process daemon on a
// UDS loopback -- so every delivered round genuinely transits
// client -> epoll daemon -> client as length-prefixed frames. The
// transcript, RunStats (honest bytes/messages/rounds, per-party bytes,
// phase breakdown), oracle verdict, and payload_copies must not change:
// the wire is a pure transport, not a semantic layer. Byzantine
// (mutator/SendTap) and crash-fault (FaultPlan) cases ride the same wire
// to pin that the adversary and environment layers survive the transport
// seam too. WireConformanceServe repeats the honest sweep and the zero-copy
// probe against the shipped coca_serve binary, run as a child process.
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "adversary/fuzzer.h"
#include "net/buffer_pool.h"
#include "svc/client.h"
#include "svc/server.h"

namespace coca {
namespace {

std::string unique_uds_path(const char* tag) {
  return "/tmp/coca-test-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

/// Runs `c` plain and over a session of `client`; asserts bit-identical
/// results.
void expect_conformant(svc::WireClient& client, const adv::FuzzCase& c) {
  net::Transcript plain_tr;
  const adv::FuzzOutcome plain = adv::execute_case(c, &plain_tr);

  std::unique_ptr<svc::WireSession> session = client.open(c.n, c.t);
  net::Transcript wire_tr;
  adv::ExecHooks hooks;
  hooks.transcript = &wire_tr;
  hooks.router = session.get();
  const adv::FuzzOutcome wired = adv::execute_case(c, hooks);

  const net::RunStats& a = plain.stats;
  const net::RunStats& b = wired.stats;
  EXPECT_EQ(a.honest_bytes, b.honest_bytes);
  EXPECT_EQ(a.honest_messages, b.honest_messages);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.bytes_by_party, b.bytes_by_party);
  EXPECT_EQ(a.phase_breakdown, b.phase_breakdown);
  EXPECT_EQ(a.honest_bytes_by_phase, b.honest_bytes_by_phase);
  // The wire adds no copies on the honest send path: kMsg payloads leave
  // via iovec views of the protocol's own buffers.
  EXPECT_EQ(a.payload_copies, b.payload_copies);
  EXPECT_EQ(plain.verdict.violations, wired.verdict.violations);
  EXPECT_EQ(plain.terminated, wired.terminated);
  EXPECT_TRUE(plain_tr == wire_tr)
      << "transcript differs between SyncNetwork and wire transport";
}

class WireConformance : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = unique_uds_path("conformance");
    svc::DaemonOptions dopt;
    dopt.uds_path = path_;
    daemon_ = std::make_unique<svc::Daemon>(dopt);
    daemon_->start();
    client_ = svc::WireClient::connect_uds_path(path_);
  }

  void TearDown() override {
    client_.reset();
    daemon_->stop();
    daemon_.reset();
    ::unlink(path_.c_str());
  }

  std::string path_;
  std::unique_ptr<svc::Daemon> daemon_;
  std::unique_ptr<svc::WireClient> client_;
};

adv::FuzzCase base_case(const std::string& protocol, int n) {
  adv::FuzzCase c;
  c.protocol = protocol;
  c.n = n;
  c.t = (n - 1) / 3;
  c.ell = 16;
  c.input_seed = 0xC0CA + n;
  return c;
}

/// Honest all-to-all broadcast at n = 7: every party sends
/// `message_bytes` to everyone for 5 rounds, each round routed through a
/// session of `client`.
net::RunStats broadcast_session(svc::WireClient& client,
                                std::size_t message_bytes) {
  const auto session = client.open(7, 2);
  net::SyncNetwork net(7, 2);
  net.set_round_router(session.get());
  for (int i = 0; i < 7; ++i) {
    net.set_honest(i, [message_bytes](net::PartyContext& ctx) {
      for (int r = 0; r < 5; ++r) {
        Bytes big(message_bytes, static_cast<std::uint8_t>(r));
        ctx.send_all(std::move(big));
        ctx.advance();
      }
    });
  }
  return net.run();
}

struct ZeroCopyProbe {
  net::RunStats stats;               ///< the measured 4 KiB session
  std::uint64_t steady_slab_allocs;  ///< slabs this process allocated in it
};

/// A warm-up session of 16 KiB messages, then the measured 4 KiB one (see
/// RoundTripIsZeroCopyAndAllocationFree for why the warm-up is larger).
ZeroCopyProbe zero_copy_probe(svc::WireClient& client) {
  (void)broadcast_session(client, 4 * 4096);  // past the high-water mark
  const std::uint64_t warm = net::BufferPool::instance().stats().slab_allocs;
  ZeroCopyProbe probe;
  probe.stats = broadcast_session(client, 4096);
  probe.steady_slab_allocs =
      net::BufferPool::instance().stats().slab_allocs - warm;
  return probe;
}

TEST_F(WireConformance, HonestAllProtocolsBothShapes) {
  for (const std::string& protocol : adv::known_protocols()) {
    for (const int n : {4, 7}) {
      SCOPED_TRACE(::testing::Message()
                   << "protocol=" << protocol << " n=" << n);
      expect_conformant(*client_, base_case(protocol, n));
    }
  }
}

TEST_F(WireConformance, ByzantineAllProtocols) {
  // One corrupted party under the default mutator mix (SendTap-wrapped):
  // adversarial traffic crosses the wire bit-identically too.
  for (const std::string& protocol : adv::known_protocols()) {
    SCOPED_TRACE(::testing::Message() << "protocol=" << protocol);
    adv::FuzzCase c = base_case(protocol, 4);
    c.corrupted = {2};
    c.mutation.seed = 0xBAD0C0CA;
    expect_conformant(*client_, c);
  }
}

TEST_F(WireConformance, CrashFaultAllProtocols) {
  // FaultPlan crash-stop with recovery: the guarded engine's structured
  // PartyOutcomes path, over sockets.
  for (const std::string& protocol : adv::known_protocols()) {
    SCOPED_TRACE(::testing::Message() << "protocol=" << protocol);
    adv::FuzzCase c = base_case(protocol, 4);
    net::FaultPlan::Crash crash;
    crash.party = 1;
    crash.from_round = 2;
    crash.until_round = 4;
    c.faults.crashes.push_back(crash);
    expect_conformant(*client_, c);
  }
}

TEST_F(WireConformance, RoundTripIsZeroCopyAndAllocationFree) {
  // The tentpole invariant of the pooled receive path, asserted where the
  // conformance gate runs: a full client -> daemon -> client hop performs
  // zero counted payload copies (send side writes iovec views, receive
  // side delivers slab views), and once the buffer pool is warm a whole
  // session allocates no new slabs.
  //
  // Runs against a resumption-disabled daemon: the replay log (PR 9)
  // deliberately pins receive slabs for up to replay_log_rounds committed
  // rounds, which makes steady-state slab demand depend on read
  // fragmentation. Retention's own pool discipline (no leak once sessions
  // close) is asserted by the wire-recovery chaos suite.
  //
  // The pool allocates only when more slabs are live than ever before, and
  // how many are live at once depends on timing: the daemon holds a round's
  // receive slabs until its relay write completes, and the client reader
  // may fill its own slabs for that round before or after that. One warm-up
  // of the measured shape therefore reaches the worst case only sometimes.
  // The warm-up instead broadcasts 4x larger messages: the daemon alone then
  // holds at least 13 slabs for a round (49 frames of ~16 KiB, at most
  // 64 KiB per slab), more than a 4 KiB round can ever pin on both sides
  // together (each side spans at most 6 slabs, since a reader only leaves a
  // slab once less than FrameDecoder::kReadMin of it is free).
  const std::string path = unique_uds_path("zerocopy");
  svc::DaemonOptions dopt;
  dopt.uds_path = path;
  dopt.resume_grace_ms = 0;  // no retention: the transport-only profile
  svc::Daemon daemon(dopt);
  daemon.start();
  const ZeroCopyProbe probe =
      zero_copy_probe(*svc::WireClient::connect_uds_path(path));
  EXPECT_EQ(probe.stats.payload_copies, 0u);
  EXPECT_EQ(probe.stats.payload_bytes_copied, 0u);
  EXPECT_EQ(probe.steady_slab_allocs, 0u)
      << "steady-state sessions must reuse pooled slabs";
  daemon.stop();
  ::unlink(path.c_str());
}

TEST_F(WireConformance, TransportFailureYieldsStructuredReport) {
  // Kill the daemon mid-run: run_report must resolve to transport_failed +
  // timed-out outcomes, never a hang or an uncaught throw.
  std::unique_ptr<svc::WireSession> session = client_->open(4, 1);
  net::SyncNetwork net(4, 1);
  net.set_round_router(session.get());
  for (int id = 0; id < 4; ++id) {
    net.set_honest(id, [this](net::PartyContext& ctx) {
      for (int r = 0; r < 1000; ++r) {
        if (r == 3 && ctx.id() == 0) daemon_->stop();  // cut the wire
        ctx.send_all(Bytes{static_cast<std::uint8_t>(r)});
        ctx.advance();
      }
    });
  }
  const net::RunReport rep = net.run_report();
  EXPECT_TRUE(rep.transport_failed);
  EXPECT_FALSE(rep.transport_error.empty());
}

// The shipped daemon: `coca_serve --uds PATH` runs as a child process, so
// every round crosses a process boundary into the binary users deploy. The
// daemon keeps its default options (session resumption on). Its replay log
// pins slabs in the daemon's process only, so this process's pool must
// still reach a steady state. Each test ends by sending SIGTERM, after
// which coca_serve must print its counters and exit 0.
class WireConformanceServe : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = unique_uds_path("serve");
    ::unlink(path_.c_str());
    const std::string bin = COCA_SERVE_BIN;
    char* argv[] = {const_cast<char*>(bin.c_str()),
                    const_cast<char*>("--uds"),
                    const_cast<char*>(path_.c_str()), nullptr};
    ASSERT_EQ(::posix_spawn(&pid_, bin.c_str(), nullptr, nullptr, argv,
                            environ),
              0)
        << "cannot start " << bin;
    // The socket accepts once the daemon is listening; poll until then.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (client_ == nullptr) {
      try {
        client_ = svc::WireClient::connect_uds_path(path_);
      } catch (const std::exception&) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid_, &status, WNOHANG), 0)
            << "coca_serve exited before listening";
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "coca_serve did not listen on " << path_;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }

  void TearDown() override {
    client_.reset();
    if (pid_ > 0) {
      EXPECT_EQ(::kill(pid_, SIGTERM), 0);
      int status = -1;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (std::chrono::steady_clock::now() > deadline) {
          ADD_FAILURE() << "coca_serve ignored SIGTERM";
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
          << "coca_serve wait status " << status;
    }
    ::unlink(path_.c_str());
  }

  std::string path_;
  pid_t pid_ = -1;
  std::unique_ptr<svc::WireClient> client_;
};

TEST_F(WireConformanceServe, HonestAllProtocolsMatchSimulator) {
  for (const std::string& protocol : adv::known_protocols()) {
    SCOPED_TRACE(::testing::Message() << "protocol=" << protocol);
    expect_conformant(*client_, base_case(protocol, 7));
  }
}

TEST_F(WireConformanceServe, RoundTripIsZeroCopyAndAllocationFree) {
  const ZeroCopyProbe probe = zero_copy_probe(*client_);
  EXPECT_EQ(probe.stats.payload_copies, 0u);
  EXPECT_EQ(probe.stats.payload_bytes_copied, 0u);
  EXPECT_EQ(probe.steady_slab_allocs, 0u)
      << "steady-state sessions must reuse pooled slabs";
}

}  // namespace
}  // namespace coca
