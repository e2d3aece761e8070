// The adversary battery itself: each strategy behaves as documented, and
// the installer wires the right corruption shape into the network.
#include "adversary/spec.h"

#include <gtest/gtest.h>

#include "ca/driver.h"
#include "tests/support.h"

namespace coca::adv {
namespace {

// Collects everything a probe party receives from the byzantine party over
// `rounds` rounds while honest parties broadcast a beacon each round.
std::vector<Bytes> probe_strategy(std::shared_ptr<net::ByzantineStrategy> s,
                                  int rounds) {
  net::SyncNetwork net(3, 1);
  net.set_byzantine(2, std::move(s));
  std::vector<Bytes> from_byz;
  net.set_honest(0, [rounds, &from_byz](net::PartyContext& ctx) {
    for (int r = 0; r < rounds; ++r) {
      ctx.send_all(Bytes{0xBE, static_cast<std::uint8_t>(r)});
      for (const auto& e : ctx.advance()) {
        if (e.from == 2) from_byz.push_back(e.payload.owned());
      }
    }
  });
  net.set_honest(1, [rounds](net::PartyContext& ctx) {
    for (int r = 0; r < rounds; ++r) {
      ctx.send_all(Bytes{0xAF, static_cast<std::uint8_t>(r)});
      (void)ctx.advance();
    }
  });
  (void)net.run();
  return from_byz;
}

TEST(Strategies, SilentSendsNothing) {
  EXPECT_TRUE(probe_strategy(std::make_shared<Silent>(), 5).empty());
}

TEST(Strategies, GarbageSendsEveryRound) {
  const auto msgs = probe_strategy(std::make_shared<Garbage>(), 5);
  EXPECT_EQ(msgs.size(), 5u);
  for (const auto& m : msgs) {
    EXPECT_GE(m.size(), 1u);
    EXPECT_LE(m.size(), 40u);
  }
}

TEST(Strategies, SpamSendsConfiguredSize) {
  const auto msgs = probe_strategy(std::make_shared<Spam>(512), 3);
  ASSERT_EQ(msgs.size(), 3u);
  for (const auto& m : msgs) EXPECT_EQ(m.size(), 512u);
}

TEST(Strategies, ReplaySendsOnlyObservedPayloads) {
  const auto msgs = probe_strategy(std::make_shared<Replay>(), 4);
  EXPECT_FALSE(msgs.empty());
  for (const auto& m : msgs) {
    ASSERT_EQ(m.size(), 2u);
    EXPECT_TRUE(m[0] == 0xBE || m[0] == 0xAF) << "not an honest payload";
  }
}

TEST(Strategies, EchoMirrorsLastRound) {
  const auto msgs = probe_strategy(std::make_shared<Echo>(), 3);
  // Round 0: nothing received yet, so nothing echoed; rounds 1..2 echo the
  // probe's previous beacon.
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0], (Bytes{0xBE, 0}));
  EXPECT_EQ(msgs[1], (Bytes{0xBE, 1}));
}

TEST(Strategies, ConstantByteIsConstant) {
  const auto msgs = probe_strategy(std::make_shared<ConstantByte>(0x01), 4);
  ASSERT_EQ(msgs.size(), 4u);
  for (const auto& m : msgs) EXPECT_EQ(m, Bytes{0x01});
}

TEST(Installer, AllKindsInstallAndRun) {
  for (const Kind kind : kAllKinds) {
    net::SyncNetwork net(4, 1);
    const ProtocolHooks hooks{
        [](net::PartyContext& ctx) { (void)ctx.advance(); },
        [](net::PartyContext& ctx) { (void)ctx.advance(); }};
    install(net, 3, kind, hooks);
    for (int id = 0; id < 3; ++id) {
      net.set_honest(id, [](net::PartyContext& ctx) {
        ctx.send_all(Bytes{1});
        (void)ctx.advance();
      });
    }
    EXPECT_NO_THROW((void)net.run()) << to_string(kind);
  }
}

TEST(Installer, ProtocolKindsRequireHooks) {
  net::SyncNetwork net(4, 1);
  EXPECT_THROW(install(net, 0, Kind::kExtremeLow, {}), Error);
  EXPECT_THROW(install(net, 1, Kind::kSplitBrain, {}), Error);
  EXPECT_NO_THROW(install(net, 2, Kind::kGarbage, {}));
}

TEST(Installer, NamesAreUniqueAndStable) {
  std::set<std::string_view> names;
  for (const Kind kind : kAllKinds) {
    EXPECT_TRUE(names.insert(to_string(kind)).second);
    EXPECT_NE(to_string(kind), "unknown");
  }
  EXPECT_EQ(names.size(), std::size(kAllKinds));
}

// The three definitions of the taxonomy -- the enum (via kKindCount), the
// kAllKinds sweep array, and the to_string/install switches -- must stay in
// sync: a Kind added to one but not the others fails here, loudly, instead
// of silently dropping out of the sweeps.
TEST(Installer, TaxonomyStaysInSync) {
  // Every enumerator value [0, kKindCount) appears in kAllKinds exactly once.
  std::set<int> listed;
  for (const Kind kind : kAllKinds) {
    EXPECT_TRUE(listed.insert(static_cast<int>(kind)).second)
        << "duplicate kAllKinds entry " << to_string(kind);
  }
  ASSERT_EQ(listed.size(), kKindCount);
  for (std::size_t v = 0; v < kKindCount; ++v) {
    EXPECT_TRUE(listed.contains(static_cast<int>(v))) << "enum value " << v;
  }
  // Every enumerator has a real name and a working installer arm.
  const ProtocolHooks hooks{
      [](net::PartyContext& ctx) { (void)ctx.advance(); },
      [](net::PartyContext& ctx) { (void)ctx.advance(); }};
  for (std::size_t v = 0; v < kKindCount; ++v) {
    const Kind kind = static_cast<Kind>(v);
    EXPECT_NE(to_string(kind), "unknown") << "enum value " << v;
    net::SyncNetwork net(4, 1);
    EXPECT_NO_THROW(install(net, 3, kind, hooks)) << to_string(kind);
  }
  // A value past the end is rejected by both, so a forgotten kKindCount bump
  // cannot masquerade as a real Kind.
  const Kind past_end = static_cast<Kind>(kKindCount);
  EXPECT_EQ(to_string(past_end), "unknown");
  net::SyncNetwork net(4, 1);
  EXPECT_THROW(install(net, 3, past_end, hooks), Error);
}

// kSilent is unified with the environment fault model: installing it must
// register a round-0 crash-stop in the network's FaultPlan rather than a
// scripted strategy.
TEST(Installer, SilentInstallsARoundZeroCrashStop) {
  net::SyncNetwork net(4, 1);
  install(net, 2, Kind::kSilent, ProtocolHooks{});
  ASSERT_EQ(net.fault_plan().crashes.size(), 1u);
  const auto& crash = net.fault_plan().crashes.front();
  EXPECT_EQ(crash.party, 2);
  EXPECT_EQ(crash.from_round, 0u);
  EXPECT_EQ(crash.until_round, net::kNoRecovery);
}

// ... and the two "dead party" code paths must not drift: a fault-plan
// crash at round 0 is observably identical to the scripted Silent strategy
// -- same delivered messages, same round count, same honest cost.
TEST(Installer, SilentMatchesScriptedSilentBitForBit) {
  struct Probe {
    std::vector<std::pair<int, Bytes>> received;  // party 0's full inbox
    net::RunStats stats;
  };
  const auto run_probe = [](bool scripted) {
    net::SyncNetwork net(4, 1);
    if (scripted) {
      net.set_byzantine(3, std::make_shared<Silent>());
    } else {
      install(net, 3, Kind::kSilent, ProtocolHooks{});
    }
    Probe probe;
    for (int id = 0; id < 3; ++id) {
      net.set_honest(id, [id, &probe](net::PartyContext& ctx) {
        for (int r = 0; r < 6; ++r) {
          ctx.send_all(Bytes{static_cast<std::uint8_t>(id),
                             static_cast<std::uint8_t>(r)});
          for (const auto& e : ctx.advance()) {
            if (id == 0) probe.received.emplace_back(e.from, e.payload.owned());
          }
        }
      });
    }
    probe.stats = net.run();
    return probe;
  };
  const Probe scripted = run_probe(true);
  const Probe installed = run_probe(false);
  EXPECT_FALSE(scripted.received.empty());
  EXPECT_EQ(scripted.received, installed.received);
  EXPECT_EQ(scripted.stats.rounds, installed.stats.rounds);
  EXPECT_EQ(scripted.stats.honest_bytes, installed.stats.honest_bytes);
  EXPECT_EQ(scripted.stats.honest_messages, installed.stats.honest_messages);
  // Only the fault bookkeeping may differ: the installed flavour is an
  // injected crash, the scripted flavour is a byzantine strategy.
  EXPECT_EQ(installed.stats.faults.crashes_injected, 1u);
  EXPECT_EQ(scripted.stats.faults.crashes_injected, 0u);
}

TEST(Strategies, ChaosIsSeedDeterministicAndVaried) {
  const auto a = probe_strategy(std::make_shared<Chaos>(42), 8);
  const auto b = probe_strategy(std::make_shared<Chaos>(42), 8);
  const auto c = probe_strategy(std::make_shared<Chaos>(43), 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Chaos must actually engage (all-silent would be a regression).
  EXPECT_FALSE(a.empty());
}

}  // namespace
}  // namespace coca::adv
