// Session layer of the service runtime: many concurrent agreement
// sessions multiplexed over one daemon connection, with structured (never
// hang, never throw) failure behavior.
//
// Three contracts. Isolation: K=16 sessions interleaving their rounds on
// a single socket each produce results bit-identical to the same case run
// solo in-process (check_isolation-style oracles: transcript, RunStats,
// verdict). Idle timeout: a session that goes quiet past the daemon's
// idle clock is killed with a structured kError and a subsequent run
// resolves to TimedOut outcomes. Disconnect: a connection the daemon
// hard-drops mid-session ends the run with transport_failed and
// per-party PartyOutcomes -- no hang, no uncaught exception.
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "adversary/fuzzer.h"
#include "svc/client.h"
#include "svc/server.h"

namespace coca {
namespace {

std::string unique_uds_path(const char* tag) {
  return "/tmp/coca-test-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

svc::WireFaultPlan::Entry kill_after_flush(std::uint32_t round) {
  svc::WireFaultPlan::Entry e;
  e.kind = svc::WireFaultPlan::Kind::kKillAfterFlush;
  e.round = round;
  return e;
}

TEST(WireSession, SixteenInterleavedSessionsMatchSoloRuns) {
  const std::string path = unique_uds_path("interleave");
  svc::DaemonOptions dopt;
  dopt.uds_path = path;
  svc::Daemon daemon(dopt);
  daemon.start();
  {
    const auto client = svc::WireClient::connect_uds_path(path);

    constexpr std::size_t kSessions = 16;
    const char* protocols[] = {"BAPlus", "PiZ", "FixedLengthCA",
                               "FindPrefix"};
    std::vector<adv::FuzzCase> cases;
    for (std::size_t i = 0; i < kSessions; ++i) {
      adv::FuzzCase c;
      c.protocol = protocols[i % std::size(protocols)];
      c.n = 4;
      c.t = 1;
      c.ell = 16;
      c.input_seed = 0x5E55 + i;
      cases.push_back(std::move(c));
    }

    // Solo baselines, plain in-process.
    std::vector<net::Transcript> solo_tr(kSessions);
    std::vector<adv::FuzzOutcome> solo(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) {
      solo[i] = adv::execute_case(cases[i], &solo_tr[i]);
    }

    // All sessions over ONE connection, one thread per session, so their
    // kMsg/kCommit batches interleave arbitrarily on the socket and in the
    // daemon's per-session round buffers.
    std::vector<std::unique_ptr<svc::WireSession>> sessions;
    for (std::size_t i = 0; i < kSessions; ++i) {
      sessions.push_back(client->open(cases[i].n, cases[i].t));
    }
    std::vector<net::Transcript> wire_tr(kSessions);
    std::vector<adv::FuzzOutcome> wired(kSessions);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kSessions; ++i) {
      threads.emplace_back([&, i] {
        adv::ExecHooks hooks;
        hooks.transcript = &wire_tr[i];
        hooks.router = sessions[i].get();
        wired[i] = adv::execute_case(cases[i], hooks);
      });
    }
    for (std::thread& th : threads) th.join();

    for (std::size_t i = 0; i < kSessions; ++i) {
      SCOPED_TRACE(::testing::Message()
                   << "session=" << i << " protocol=" << cases[i].protocol);
      const net::RunStats& a = solo[i].stats;
      const net::RunStats& b = wired[i].stats;
      EXPECT_EQ(a.honest_bytes, b.honest_bytes);
      EXPECT_EQ(a.honest_messages, b.honest_messages);
      EXPECT_EQ(a.rounds, b.rounds);
      EXPECT_EQ(a.phase_breakdown, b.phase_breakdown);
      EXPECT_EQ(solo[i].verdict.violations, wired[i].verdict.violations);
      EXPECT_EQ(solo[i].terminated, wired[i].terminated);
      EXPECT_TRUE(solo_tr[i] == wire_tr[i])
          << "interleaved session diverged from its solo run";
    }
    EXPECT_EQ(daemon.stats().sessions_opened.load(), kSessions);
  }
  daemon.stop();
  ::unlink(path.c_str());
}

TEST(WireSession, IdleSessionKilledWithStructuredError) {
  const std::string path = unique_uds_path("idle");
  svc::DaemonOptions dopt;
  dopt.uds_path = path;
  dopt.idle_timeout_ms = 100;
  svc::Daemon daemon(dopt);
  daemon.start();
  {
    svc::ClientOptions copt;
    copt.round_timeout_ms = 5'000;  // the daemon kills us long before this
    const auto client = svc::WireClient::connect_uds_path(path, copt);
    const auto session = client->open(4, 1);

    // Go quiet past the idle clock; the daemon's sweep sends kError.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));

    // A run over the killed session must resolve structurally: router
    // returns nullopt, the engine marks parties TimedOut, nothing throws.
    net::SyncNetwork net(4, 1);
    net.set_round_router(session.get());
    for (int id = 0; id < 4; ++id) {
      net.set_honest(id, [](net::PartyContext& ctx) {
        for (int r = 0; r < 100; ++r) {
          ctx.send_all(Bytes{static_cast<std::uint8_t>(r)});
          ctx.advance();
        }
      });
    }
    const net::RunReport rep = net.run_report();
    EXPECT_TRUE(rep.transport_failed);
    EXPECT_TRUE(rep.timed_out);
    EXPECT_NE(rep.transport_error.find("idle"), std::string::npos)
        << "reason: " << rep.transport_error;
    ASSERT_EQ(rep.outcomes.size(), 4u);
    for (const net::PartyOutcome& o : rep.outcomes) {
      EXPECT_EQ(o.outcome, net::Outcome::kTimedOut);
    }
    EXPECT_GE(daemon.stats().sessions_idle_killed.load(), 1u);
  }
  daemon.stop();
  ::unlink(path.c_str());
}

TEST(WireSession, MidSessionDisconnectResolvesStructurally) {
  const std::string path = unique_uds_path("drop");
  svc::DaemonOptions dopt;
  dopt.uds_path = path;
  // Hard-close after flushing round 2 (the third round), no goodbye frames.
  dopt.fault_plan.entries.push_back(kill_after_flush(2));
  svc::Daemon daemon(dopt);
  daemon.start();
  {
    const auto client = svc::WireClient::connect_uds_path(path);
    const auto session = client->open(4, 1);
    net::SyncNetwork net(4, 1);
    net.set_round_router(session.get());
    for (int id = 0; id < 4; ++id) {
      net.set_honest(id, [](net::PartyContext& ctx) {
        for (int r = 0; r < 100; ++r) {
          ctx.send_all(Bytes{static_cast<std::uint8_t>(r)});
          ctx.advance();
        }
      });
    }
    const net::RunReport rep = net.run_report();
    EXPECT_TRUE(rep.transport_failed);
    EXPECT_TRUE(rep.timed_out);
    // The wire carried exactly the rounds before the drop.
    EXPECT_LE(rep.stats.rounds, 4u);
    ASSERT_EQ(rep.outcomes.size(), 4u);
    for (const net::PartyOutcome& o : rep.outcomes) {
      EXPECT_EQ(o.outcome, net::Outcome::kTimedOut);
    }
    EXPECT_TRUE(client->disconnected());
  }
  daemon.stop();
  ::unlink(path.c_str());
}

TEST(WireSession, StrictRunThrowsWithTransportReason) {
  const std::string path = unique_uds_path("strict");
  svc::DaemonOptions dopt;
  dopt.uds_path = path;
  dopt.fault_plan.entries.push_back(kill_after_flush(1));
  svc::Daemon daemon(dopt);
  daemon.start();
  {
    const auto client = svc::WireClient::connect_uds_path(path);
    const auto session = client->open(4, 1);
    net::SyncNetwork net(4, 1);
    net.set_round_router(session.get());
    for (int id = 0; id < 4; ++id) {
      net.set_honest(id, [](net::PartyContext& ctx) {
        for (int r = 0; r < 100; ++r) {
          ctx.send_all(Bytes{static_cast<std::uint8_t>(r)});
          ctx.advance();
        }
      });
    }
    EXPECT_THROW(net.run(), Error);
  }
  daemon.stop();
  ::unlink(path.c_str());
}

TEST(WireSession, TcpLoopbackCarriesSessionsToo) {
  svc::DaemonOptions dopt;
  dopt.tcp = true;  // ephemeral port
  svc::Daemon daemon(dopt);
  daemon.start();
  {
    const auto client = svc::WireClient::connect_tcp(daemon.tcp_port());
    for (const std::string& protocol : adv::known_protocols()) {
      SCOPED_TRACE(protocol);
      const auto session = client->open(7, 2);
      adv::FuzzCase c;
      c.protocol = protocol;
      c.n = 7;
      c.t = 2;
      c.ell = 16;
      c.input_seed = 42;
      net::Transcript solo_tr;
      const adv::FuzzOutcome solo = adv::execute_case(c, &solo_tr);
      net::Transcript wire_tr;
      adv::ExecHooks hooks;
      hooks.transcript = &wire_tr;
      hooks.router = session.get();
      const adv::FuzzOutcome wired = adv::execute_case(c, hooks);
      EXPECT_EQ(solo.stats.honest_bytes, wired.stats.honest_bytes);
      EXPECT_EQ(solo.stats.rounds, wired.stats.rounds);
      EXPECT_EQ(solo.stats.payload_copies, wired.stats.payload_copies);
      EXPECT_TRUE(solo_tr == wire_tr);
    }
  }
  daemon.stop();
}

TEST(WireSession, OpenRefusedOnBadShape) {
  const std::string path = unique_uds_path("badopen");
  svc::DaemonOptions dopt;
  dopt.uds_path = path;
  svc::Daemon daemon(dopt);
  daemon.start();
  {
    const auto client = svc::WireClient::connect_uds_path(path);
    EXPECT_THROW(client->open(0, 0), Error);    // n out of range
    EXPECT_THROW(client->open(4, 4), Error);    // t >= n
    const auto ok = client->open(4, 1);         // connection still usable
    EXPECT_NE(ok, nullptr);
  }
  daemon.stop();
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace coca
