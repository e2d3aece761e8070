// Simulator semantics: lock-step rounds, authenticated delivery, metering,
// rushing byzantine strategies, split-brain equivocation.
#include "net/sync_network.h"

#include <algorithm>
#include <barrier>
#include <cfenv>
#include <csignal>
#include <cstdint>
#include <map>
#include <thread>

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "adversary/fuzzer.h"
#include "adversary/strategies.h"
#include "ba/phase_king.h"
#include "ba/turpin_coan.h"
#include "ca/fixed_length_ca.h"
#include "obs/obs.h"
#include "tests/support.h"
#include "util/wire.h"

namespace coca::net {
namespace {

TEST(SyncNetwork, OneRoundBroadcastDeliversAll) {
  const int n = 5;
  auto run = test::run_parties<int>(
      n, 1, [&](PartyContext& ctx, int id) {
        ctx.send_all(Bytes{static_cast<std::uint8_t>(id)});
        int sum = 0;
        for (const auto& e : ctx.advance()) {
          EXPECT_EQ(e.payload.size(), 1u);
          EXPECT_EQ(e.payload[0], e.from);  // authenticated sender
          sum += e.payload[0];
        }
        return sum;
      });
  for (const auto& out : run.outputs) EXPECT_EQ(out, 0 + 1 + 2 + 3 + 4);
  EXPECT_EQ(run.stats.rounds, 1u);
}

TEST(SyncNetwork, InboxOrderedBySender) {
  auto run = test::run_parties<bool>(4, 1, [](PartyContext& ctx, int) {
    ctx.send_all(Bytes{0xAA});
    const auto inbox = ctx.advance();
    for (std::size_t i = 1; i < inbox.size(); ++i) {
      if (inbox[i - 1].from > inbox[i].from) return false;
    }
    return true;
  });
  for (const auto& out : run.outputs) EXPECT_TRUE(*out);
}

TEST(SyncNetwork, MessagesCrossOnlyAtRoundBoundary) {
  // A message sent in round r must not be readable in round r's inbox of a
  // prior advance, and must arrive exactly once.
  auto run = test::run_parties<int>(3, 0, [](PartyContext& ctx, int id) {
    if (id == 0) ctx.send(1, Bytes{1});
    auto in1 = ctx.advance();  // round 0 inbox
    if (id == 0) ctx.send(1, Bytes{2});
    auto in2 = ctx.advance();  // round 1 inbox
    if (id != 1) return -1;
    EXPECT_EQ(in1.size(), 1u);
    EXPECT_EQ(in1[0].payload[0], 1);
    EXPECT_EQ(in2.size(), 1u);
    EXPECT_EQ(in2[0].payload[0], 2);
    return 0;
  });
  EXPECT_EQ(run.outputs[1], 0);
}

TEST(SyncNetwork, SelfDeliveryWorks) {
  auto run = test::run_parties<int>(3, 0, [](PartyContext& ctx, int id) {
    ctx.send(id, Bytes{static_cast<std::uint8_t>(id + 10)});
    for (const auto& e : ctx.advance()) {
      if (e.from == id) return static_cast<int>(e.payload[0]);
    }
    return -1;
  });
  EXPECT_EQ(run.outputs[2], 12);
}

TEST(SyncNetwork, HonestBytesMeterCountsPayloads) {
  SyncNetwork net(3, 0);
  std::uint64_t expected = 0;
  for (int id = 0; id < 3; ++id) {
    net.set_honest(id, [](PartyContext& ctx) {
      ctx.send_all(Bytes(10, 0));  // 3 recipients x 10 bytes
      (void)ctx.advance();
      ctx.send(0, Bytes(5, 0));
      (void)ctx.advance();
    });
    expected += 3 * 10 + 5;
  }
  const RunStats stats = net.run();
  EXPECT_EQ(stats.honest_bytes, expected);
  EXPECT_EQ(stats.honest_messages, 3u * 4u);
  EXPECT_EQ(stats.rounds, 2u);
}

TEST(SyncNetwork, PhaseAttributionNests) {
  SyncNetwork net(2, 0);
  for (int id = 0; id < 2; ++id) {
    net.set_honest(id, [](PartyContext& ctx) {
      auto outer = ctx.phase("outer");
      ctx.send_all(Bytes(4, 0));
      {
        auto inner = ctx.phase("inner");
        ctx.send_all(Bytes(2, 0));
      }
      (void)ctx.advance();
    });
  }
  const RunStats stats = net.run();
  // outer sees both sends; inner only its own. Two parties, two recipients.
  EXPECT_EQ(stats.honest_bytes_by_phase.at("outer"), 2u * 2u * (4u + 2u));
  EXPECT_EQ(stats.honest_bytes_by_phase.at("inner"), 2u * 2u * 2u);
}

TEST(SyncNetwork, ByzantineBytesExcludedFromHonestMetric) {
  SyncNetwork net(3, 1);
  net.set_byzantine(2, std::make_shared<adv::Spam>(1000));
  for (int id = 0; id < 2; ++id) {
    net.set_honest(id, [](PartyContext& ctx) {
      ctx.send_all(Bytes(1, 0));
      (void)ctx.advance();
    });
  }
  const RunStats stats = net.run();
  EXPECT_EQ(stats.honest_bytes, 2u * 3u);
  EXPECT_EQ(stats.bytes_by_party[2], 3u * 1000u);
}

TEST(SyncNetwork, RushingStrategySeesCurrentRoundTraffic) {
  // The byzantine party echoes party 0's round-r message within round r.
  class Rusher final : public ByzantineStrategy {
   public:
    void on_round(const RoundView& view,
                  const std::function<void(int, Bytes)>& send) override {
      for (const auto& sent : *view.honest_traffic) {
        if (sent.from == 0 && sent.to == 1) send(1, sent.payload->to_bytes());
      }
    }
  };
  SyncNetwork net(3, 1);
  net.set_byzantine(2, std::make_shared<Rusher>());
  std::vector<Envelope> got;
  net.set_honest(0, [](PartyContext& ctx) {
    ctx.send(1, Bytes{0x42});
    (void)ctx.advance();
  });
  net.set_honest(1, [&got](PartyContext& ctx) { got = ctx.advance(); });
  (void)net.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].from, 0);
  EXPECT_EQ(got[1].from, 2);
  EXPECT_EQ(got[1].payload, Bytes{0x42});  // copied the same round
}

TEST(SyncNetwork, SplitBrainHalvesSeeWholeInboxButSplitRecipients) {
  SyncNetwork net(4, 1);
  // Party 3 equivocates: instance A (sends 0xA0) talks to {0,1}, instance B
  // (sends 0xB0) to {2}.
  const auto instance = [](std::uint8_t tag) {
    return [tag](PartyContext& ctx) {
      ctx.send_all(Bytes{tag});
      (void)ctx.advance();
    };
  };
  net.set_split_brain(3, instance(0xA0), instance(0xB0), {0, 1});
  std::vector<Bytes> from3(3);
  for (int id = 0; id < 3; ++id) {
    net.set_honest(id, [&from3, id](PartyContext& ctx) {
      ctx.send_all(Bytes{static_cast<std::uint8_t>(id)});
      for (const auto& e : ctx.advance()) {
        if (e.from == 3) from3[static_cast<std::size_t>(id)] = e.payload.owned();
      }
    });
  }
  (void)net.run();
  EXPECT_EQ(from3[0], Bytes{0xA0});
  EXPECT_EQ(from3[1], Bytes{0xA0});
  EXPECT_EQ(from3[2], Bytes{0xB0});
}

TEST(SyncNetwork, UnevenTerminationIsHandled) {
  // Party 0 finishes immediately; the others keep exchanging for 3 rounds.
  auto run = test::run_parties<int>(3, 0, [](PartyContext& ctx, int id) {
    if (id == 0) return 0;
    for (int r = 0; r < 3; ++r) {
      ctx.send_all(Bytes{static_cast<std::uint8_t>(r)});
      (void)ctx.advance();
    }
    return 1;
  });
  EXPECT_EQ(run.outputs[0], 0);
  EXPECT_EQ(run.outputs[1], 1);
  EXPECT_EQ(run.stats.rounds, 3u);
}

TEST(SyncNetwork, HonestExceptionPropagates) {
  SyncNetwork net(2, 0);
  net.set_honest(0, [](PartyContext&) { throw Error("boom"); });
  net.set_honest(1, [](PartyContext& ctx) {
    for (int r = 0; r < 100; ++r) (void)ctx.advance();
  });
  EXPECT_THROW(net.run(), Error);
}

TEST(SyncNetwork, RunRethrowsEarliestPartyError) {
  // Runner 0 throws in round 2, runner 1 in round 0: run() rethrows the
  // earlier one even though runner 0 comes first in the runner table, and
  // run_report() on the same setup reports both parties as aborted.
  const auto setup = [](SyncNetwork& net) {
    net.set_honest(0, [](PartyContext& ctx) {
      (void)ctx.advance();
      (void)ctx.advance();
      throw Error("late");
    });
    net.set_honest(1, [](PartyContext&) { throw Error("early"); });
  };
  SyncNetwork thrown(2, 0);
  setup(thrown);
  try {
    (void)thrown.run();
    ADD_FAILURE() << "run() returned despite two party errors";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "early");
  }
  SyncNetwork reported(2, 0);
  setup(reported);
  const RunReport rep = reported.run_report();
  ASSERT_EQ(rep.outcomes.size(), 2u);
  EXPECT_EQ(rep.outcomes[0].outcome, Outcome::kAborted);
  EXPECT_EQ(rep.outcomes[0].evidence, "late");
  EXPECT_EQ(rep.outcomes[1].outcome, Outcome::kAborted);
  EXPECT_EQ(rep.outcomes[1].evidence, "early");
  EXPECT_FALSE(rep.timed_out);
}

TEST(SyncNetwork, RoundLimitEnforced) {
  SyncNetwork net(2, 0);
  for (int id = 0; id < 2; ++id) {
    net.set_honest(id, [](PartyContext& ctx) {
      for (;;) (void)ctx.advance();
    });
  }
  EXPECT_THROW(net.run(/*max_rounds=*/50), Error);
}

/// Sends to the out-of-range recipient n in round 1, so deliver_round throws
/// on the controller's side while every honest party is parked.
class OutOfRangeSender final : public ByzantineStrategy {
 public:
  void on_round(const RoundView& view,
                const std::function<void(int, Bytes)>& send) override {
    if (view.round == 1) send(view.n, Bytes{1});
  }
};

/// Throws from the round-1 hook, on the controller's side.
class ThrowingObserver final : public RoundObserver {
 public:
  void on_round(std::size_t round, std::uint64_t, std::uint64_t) override {
    if (round == 1) throw Error("observer failed");
  }
};

TEST(SyncNetwork, ControllerSideThrowUnwindsParkedParties) {
  struct Guard {
    int* destroyed;
    ~Guard() { ++*destroyed; }
  };
  enum class Thrower { kStrategyViaRun, kStrategyViaReport, kObserver };
  for (const Thrower thrower : {Thrower::kStrategyViaRun,
                                Thrower::kStrategyViaReport,
                                Thrower::kObserver}) {
    int destroyed = 0;
    ThrowingObserver observer;
    SyncNetwork net(4, 1);
    if (thrower == Thrower::kObserver) {
      net.set_round_observer(&observer);
      net.set_byzantine(3, std::make_shared<adv::Silent>());
    } else {
      net.set_byzantine(3, std::make_shared<OutOfRangeSender>());
    }
    for (int id = 0; id < 3; ++id) {
      net.set_honest(id, [&destroyed](PartyContext& ctx) {
        Guard guard{&destroyed};
        for (;;) (void)ctx.advance();
      });
    }
    if (thrower == Thrower::kStrategyViaReport) {
      EXPECT_THROW((void)net.run_report(), Error);
    } else {
      EXPECT_THROW((void)net.run(), Error);
    }
    EXPECT_EQ(destroyed, 3) << "thrower " << static_cast<int>(thrower);
  }
  // The stacks went back to this thread's free list with no live frames,
  // so the next run reuses them cleanly.
  auto run = test::run_parties<std::size_t>(4, 0, [](PartyContext& ctx, int) {
    ctx.send_all(Bytes{7});
    return ctx.advance().size();
  });
  for (const auto& out : run.outputs) EXPECT_EQ(*out, 4u);
}

TEST(SyncNetwork, RolesMustBeAssigned) {
  SyncNetwork net(3, 1);
  net.set_honest(0, [](PartyContext&) {});
  EXPECT_THROW(net.run(), Error);
}

TEST(SyncNetwork, DuplicateRoleRejected) {
  SyncNetwork net(3, 1);
  net.set_honest(0, [](PartyContext&) {});
  EXPECT_THROW(net.set_honest(0, [](PartyContext&) {}), Error);
}

TEST(SyncNetwork, FirstPerSenderDeduplicates) {
  std::vector<Envelope> inbox{{0, Bytes{1}}, {0, Bytes{2}}, {1, Bytes{3}},
                              {2, Bytes{4}}, {2, Bytes{5}}};
  const auto dedup = first_per_sender(inbox);
  ASSERT_EQ(dedup.size(), 3u);
  EXPECT_EQ(dedup[0].payload, Bytes{1});
  EXPECT_EQ(dedup[1].payload, Bytes{3});
  EXPECT_EQ(dedup[2].payload, Bytes{4});
}

// tally() against a reference kept here: first delivered message per
// sender, the validity filter, then a std::map<Payload, int> count, whose
// key order is the byte order tally() must reproduce.
TEST(SyncNetwork, TallyMatchesMapReference) {
  const auto valid = [](std::span<const std::uint8_t> p) {
    return p.empty() || p[0] != 3;
  };
  const auto reference = [&](const std::vector<Envelope>& inbox) {
    std::map<int, Payload> first;
    for (const Envelope& e : inbox) first.try_emplace(e.from, e.payload);
    std::map<Payload, int> counts;
    for (const auto& [from, payload] : first) {
      if (valid(payload)) ++counts[payload];
    }
    return std::vector<std::pair<Payload, int>>(counts.begin(), counts.end());
  };
  const auto check = [&](const std::vector<Envelope>& inbox) {
    const auto want = reference(inbox);
    const auto got = tally(inbox, valid);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].value, want[i].first) << "entry " << i;
      EXPECT_EQ(got[i].count, want[i].second) << "entry " << i;
    }
  };
  const Bytes wide(40, 7);  // past Payload::kInline: a shared view
  check({});
  check({{0, Bytes{3}}, {1, Bytes{3, 1}}});       // nothing valid
  check({{2, wide}, {0, wide}, {1, wide}});       // all equal
  check({{3, Bytes{}}, {1, Bytes{9}}, {0, Bytes{1}}, {2, wide}});  // distinct
  check({{0, Bytes{2}}, {1, Bytes{1}}, {2, Bytes{1}}, {3, Bytes{2}}});  // tie
  check({{0, Bytes{5}}, {0, Bytes{1}}, {1, Bytes{1}}, {1, Bytes{5}}});  // dups
  Rng rng(0x7A11);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Envelope> inbox(rng.below(24));
    for (Envelope& e : inbox) {
      e.from = static_cast<int>(rng.below(10));  // repeats, any order
      if (rng.below(8) == 0) {
        e.payload = Payload(wide);
        continue;
      }
      Bytes b(rng.below(3));
      for (auto& x : b) x = static_cast<std::uint8_t>(rng.below(4));  // ties
      e.payload = Payload(std::move(b));
    }
    check(inbox);
  }
}

TEST(SyncNetwork, FirstPerSenderFiltersASortedInboxInPlace) {
  std::vector<Envelope> inbox{{0, Bytes{1}}, {1, Bytes{2}}, {1, Bytes{3}},
                              {3, Bytes{4}}};
  const Envelope* data = inbox.data();
  const std::size_t capacity = inbox.capacity();
  const std::vector<Envelope> kept = first_per_sender(std::move(inbox));
  EXPECT_EQ(kept.data(), data);  // nothing sorted into or reallocated
  EXPECT_EQ(kept.capacity(), capacity);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[1].payload, Bytes{2});
  EXPECT_EQ(kept[2].from, 3);
}

TEST(SyncNetwork, FirstPerSenderOnAShuffledInboxKeepsFirstDelivered) {
  // The order a FaultPlan shuffle can leave: senders out of order, and a
  // sender's later message ahead of another sender's first.
  const std::vector<Envelope> inbox{{2, Bytes{20}}, {0, Bytes{1}},
                                    {2, Bytes{21}}, {1, Bytes{10}},
                                    {0, Bytes{2}},  {1, Bytes{11}}};
  const std::vector<Envelope> kept = first_per_sender(inbox);
  ASSERT_EQ(kept.size(), 3u);
  for (int from = 0; from < 3; ++from) {
    EXPECT_EQ(kept[static_cast<std::size_t>(from)].from, from);
    EXPECT_EQ(kept[static_cast<std::size_t>(from)].payload,
              Bytes{static_cast<std::uint8_t>(from * 10 + (from == 0))});
  }
}

// Runner outboxes drain in runner-table order. Registering runners in
// reverse party-id order (and a scripted party with the lowest id) leaves
// every round's drained wire out of sender order, as Π_ℤ runs do;
// after the counting sort the transcript must still be in sender order,
// each sender's messages in send order, exactly as for an in-order
// registration.
TEST(SyncNetwork, OutOfOrderRegistrationDeliversTheSameTranscript) {
  constexpr int kN = 5;
  constexpr int kRounds = 3;
  // Each round every honest party sends two tagged messages to everyone.
  const auto protocol = [](PartyContext& ctx) {
    for (int r = 0; r < kRounds; ++r) {
      for (int to = 0; to < ctx.n(); ++to) {
        for (std::uint8_t k = 0; k < 2; ++k) {
          ctx.send(to, Bytes{static_cast<std::uint8_t>(ctx.id()),
                             static_cast<std::uint8_t>(r), k});
        }
      }
      (void)ctx.advance();
    }
  };
  const auto transcript_of = [&](bool reverse, bool scripted_zero) {
    SyncNetwork net(kN, 1);
    Transcript transcript;
    net.set_transcript(&transcript);
    for (int i = 0; i < kN; ++i) {
      const int id = reverse ? kN - 1 - i : i;
      if (scripted_zero && id == 0) {
        net.set_byzantine(id, std::make_shared<adv::Garbage>());
      } else {
        net.set_honest(id, protocol);
      }
    }
    (void)net.run();
    return transcript;
  };
  const Transcript in_order = transcript_of(false, false);
  EXPECT_EQ(transcript_of(true, false), in_order);
  // The expected order, built by hand.
  ASSERT_EQ(in_order.rounds.size(), static_cast<std::size_t>(kRounds));
  for (std::size_t r = 0; r < in_order.rounds.size(); ++r) {
    const auto& messages = in_order.rounds[r].messages;
    ASSERT_EQ(messages.size(), static_cast<std::size_t>(kN * kN * 2));
    std::size_t i = 0;
    for (int from = 0; from < kN; ++from) {
      for (int to = 0; to < kN; ++to) {
        for (std::uint8_t k = 0; k < 2; ++k, ++i) {
          EXPECT_EQ(messages[i].from, from);
          EXPECT_EQ(messages[i].to, to);
          EXPECT_EQ(messages[i].payload,
                    (Bytes{static_cast<std::uint8_t>(from),
                           static_cast<std::uint8_t>(r), k}));
        }
      }
    }
  }
  // With a scripted party 0 (its traffic appended after every runner's),
  // the honest traffic keeps that order behind party 0's messages.
  const Transcript with_scripted = transcript_of(true, true);
  ASSERT_EQ(with_scripted.rounds.size(), in_order.rounds.size());
  for (std::size_t r = 0; r < in_order.rounds.size(); ++r) {
    std::vector<Transcript::Msg> honest;
    for (const Transcript::Msg& m : with_scripted.rounds[r].messages) {
      if (m.from != 0) {
        honest.push_back(m);
      } else {
        EXPECT_TRUE(honest.empty()) << "party 0 delivered after another";
      }
    }
    std::vector<Transcript::Msg> expected;
    for (const Transcript::Msg& m : in_order.rounds[r].messages) {
      if (m.from != 0) expected.push_back(m);
    }
    EXPECT_EQ(honest, expected);
  }
}

// Passes every message through and counts the calls (SendTap's contract:
// one on_send per recipient, also for a send_all).
class CountingTap final : public SendTap {
 public:
  void on_send(std::size_t, int to, Payload payload,
               const Emit& emit) override {
    ++calls;
    emit(to, std::move(payload));
  }
  std::uint64_t calls = 0;
};

// Records the rushing view it is shown and replays its first entry to
// everyone, so the view also feeds the transcript.
class TrafficRecorder final : public ByzantineStrategy {
 public:
  void on_round(const RoundView& view,
                const std::function<void(int, Bytes)>& send) override {
    for (const RoundView::Sent& m : *view.honest_traffic) {
      seen.push_back({m.from, m.to, *m.payload});
    }
    if (view.honest_traffic->empty()) return;
    const Bytes first = view.honest_traffic->front().payload->to_bytes();
    for (int to = 0; to < view.n; ++to) send(to, first);
  }
  std::vector<Transcript::Msg> seen;
};

// Hands every round back unchanged and counts the messages it carried.
class PassThroughRouter final : public RoundRouter {
 public:
  std::optional<std::vector<WireMessage>> route(
      std::size_t, std::vector<WireMessage> staged) override {
    messages += staged.size();
    return staged;
  }
  std::uint64_t messages = 0;
};

TEST(SyncNetwork, SendAllMatchesPerRecipientSends) {
  // A send_all is one staged entry that the engine fans out only where a
  // recipient's copy is used; an explicit send(to) loop stages n entries.
  // Under every engine feature that sees single messages, the two must be
  // indistinguishable.
  constexpr int kN = 6;
  constexpr int kRounds = 4;
  enum class Config {
    kPlain,
    kSplitBrain,
    kTap,
    kCutsAndPartition,
    kShuffle,
    kCrashRecovery,
    kScripted,
    kRouter,
  };
  using Inbox = std::vector<std::pair<int, Bytes>>;
  struct Result {
    Transcript transcript;
    RunReport report;
    std::vector<std::vector<Inbox>> inboxes;  // [party][round]
    std::vector<Transcript::Msg> traffic_seen;
    std::uint64_t tap_calls = 0;
    std::uint64_t routed = 0;
    obs::Histogram send_bytes;
  };
  FaultPlan link_faults;
  link_faults.cuts.push_back({.from = 1, .to = 3, .from_round = 0,
                              .until_round = 3});
  link_faults.cuts.push_back({.from = 2, .to = 2, .from_round = 1});
  link_faults.cuts.push_back({.from = 5, .to = 1, .from_round = 1});
  link_faults.partitions.push_back({.side = {0, 4}, .from_round = 2,
                                    .until_round = 4});
  const auto execute = [&](Config config, bool broadcast) {
    Result res;
    res.inboxes.resize(kN);
    // Each round: a zero-byte broadcast under its own phase, an inline
    // 2-byte broadcast, a unicast, then a shared 40-byte broadcast; after
    // the last round one leftover broadcast.
    const auto protocol = [&res, broadcast](PartyContext& ctx) {
      const auto bcast = [&](Bytes bytes) {
        if (broadcast) {
          ctx.send_all(std::move(bytes));
          return;
        }
        const Payload p(std::move(bytes));
        for (int to = 0; to < ctx.n(); ++to) ctx.send(to, p);
      };
      const auto id = static_cast<std::uint8_t>(ctx.id());
      for (int r = 0; r < kRounds; ++r) {
        const auto round = static_cast<std::uint8_t>(r);
        {
          auto empty = ctx.phase("empty");
          bcast(Bytes{});
        }
        auto scope = ctx.phase(r % 2 == 0 ? "even" : "odd");
        bcast(Bytes{id, round});
        ctx.send((ctx.id() + 1) % ctx.n(), Bytes{0xEE, id, round});
        bcast(Bytes(40, static_cast<std::uint8_t>(id * 16 + r)));
        Inbox got;
        for (const Envelope& e : ctx.advance()) {
          got.emplace_back(e.from, e.payload.owned());
        }
        res.inboxes[ctx.id()].push_back(std::move(got));
      }
      bcast(Bytes{0x7F, id});
    };
    SyncNetwork net(kN, 2);
    net.set_transcript(&res.transcript);
    obs::Tracer tracer(obs::Tracer::Options{.timing = false});
    net.set_tracer(&tracer);
    auto tap = std::make_shared<CountingTap>();
    auto recorder = std::make_shared<TrafficRecorder>();
    PassThroughRouter router;
    FaultPlan plan;
    switch (config) {
      case Config::kSplitBrain:
        // Party 4's halves reach {0, 2} and the rest; party 5's second
        // half reaches nobody.
        net.set_split_brain(4, protocol, protocol, {0, 2});
        net.set_split_brain(5, protocol, protocol, {0, 1, 2, 3, 4, 5});
        break;
      case Config::kTap:
        net.set_byzantine_protocol(5, protocol, tap);
        break;
      case Config::kCutsAndPartition:
        // Party 5 is scripted, so its traffic crosses the cuts too.
        plan = link_faults;
        net.set_byzantine(5, recorder);
        break;
      case Config::kShuffle:
        plan.shuffles.push_back({.party = -1, .seed = 9});
        break;
      case Config::kCrashRecovery:
        plan.crashes.push_back({.party = 3, .from_round = 1,
                                .until_round = 3});
        break;
      case Config::kScripted:
        net.set_byzantine(5, recorder);
        break;
      case Config::kRouter:
        net.set_round_router(&router);
        break;
      case Config::kPlain:
        break;
    }
    // Registered in reverse id order, as Pi_Z runs register the corrupted
    // parties first, so the runner table is not in sender order.
    for (int id = kN - 1; id >= 0; --id) {
      const bool taken = (config == Config::kSplitBrain && id >= 4) ||
                         ((config == Config::kTap ||
                           config == Config::kScripted ||
                           config == Config::kCutsAndPartition) &&
                          id == 5);
      if (!taken) net.set_honest(id, protocol);
    }
    if (!plan.empty()) net.set_fault_plan(plan);
    res.report = net.run_report();
    res.traffic_seen = recorder->seen;
    res.tap_calls = tap->calls;
    res.routed = router.messages;
    res.send_bytes = tracer.merged_metrics().histograms().at("send.bytes");
    return res;
  };
  for (const Config config :
       {Config::kPlain, Config::kSplitBrain, Config::kTap,
        Config::kCutsAndPartition, Config::kShuffle, Config::kCrashRecovery,
        Config::kScripted, Config::kRouter}) {
    SCOPED_TRACE(static_cast<int>(config));
    const Result bcast = execute(config, true);
    const Result loop = execute(config, false);
    EXPECT_TRUE(bcast.report.all_decided());
    const RunStats& a = bcast.report.stats;
    const RunStats& b = loop.report.stats;
    // Every round plus the trailing round of leftover sends.
    ASSERT_EQ(bcast.transcript.rounds.size(), a.rounds + 1);
    EXPECT_EQ(bcast.transcript, loop.transcript);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.honest_bytes, b.honest_bytes);
    EXPECT_EQ(a.honest_messages, b.honest_messages);
    EXPECT_EQ(a.bytes_by_party, b.bytes_by_party);
    EXPECT_EQ(a.phase_breakdown, b.phase_breakdown);
    EXPECT_EQ(a.honest_bytes_by_phase, b.honest_bytes_by_phase);
    EXPECT_EQ(a.payload_copies, b.payload_copies);
    EXPECT_EQ(a.faults.crashes_injected, b.faults.crashes_injected);
    EXPECT_EQ(a.faults.recoveries, b.faults.recoveries);
    EXPECT_EQ(a.faults.rounds_missed, b.faults.rounds_missed);
    EXPECT_EQ(a.faults.messages_dropped, b.faults.messages_dropped);
    EXPECT_EQ(a.faults.inboxes_shuffled, b.faults.inboxes_shuffled);
    EXPECT_EQ(bcast.inboxes, loop.inboxes);
    EXPECT_EQ(bcast.traffic_seen, loop.traffic_seen);
    EXPECT_EQ(bcast.tap_calls, loop.tap_calls);
    EXPECT_EQ(bcast.routed, loop.routed);
    EXPECT_EQ(bcast.send_bytes.buckets, loop.send_bytes.buckets);
    EXPECT_EQ(bcast.send_bytes.count, loop.send_bytes.count);
    EXPECT_EQ(bcast.send_bytes.sum, loop.send_bytes.sum);
    // A zero-byte broadcast still opens its phase key.
    EXPECT_EQ(a.phase_breakdown.count("empty"), 1u);
    EXPECT_EQ(a.phase_breakdown.at("empty"), 0u);
  }
  // The configurations exercise what they name.
  EXPECT_EQ(execute(Config::kTap, true).tap_calls,
            static_cast<std::uint64_t>((kRounds * 3 + 1) * kN + kRounds));
  // No delivered message crosses a link cut in its round.
  const Result cut = execute(Config::kCutsAndPartition, true);
  EXPECT_GT(cut.report.stats.faults.messages_dropped, 0u);
  for (std::size_t r = 0; r < cut.transcript.rounds.size(); ++r) {
    for (const Transcript::Msg& m : cut.transcript.rounds[r].messages) {
      EXPECT_FALSE(link_faults.link_cut(m.from, m.to, r))
          << m.from << " -> " << m.to << " in round " << r;
    }
  }
  EXPECT_GT(execute(Config::kShuffle, true).report.stats.faults.inboxes_shuffled,
            0u);
  EXPECT_GT(execute(Config::kCrashRecovery, true)
                .report.stats.faults.messages_dropped,
            0u);
  // The rushing view lists runners in table order: party 4 first.
  const Result scripted = execute(Config::kScripted, true);
  ASSERT_FALSE(scripted.traffic_seen.empty());
  EXPECT_EQ(scripted.traffic_seen.front().from, 4);
  EXPECT_EQ(scripted.traffic_seen.back().from, 0);
  EXPECT_GT(execute(Config::kRouter, true).routed, 0u);
}

TEST(SyncNetwork, DeterministicAcrossRuns) {
  const auto execute = [] {
    auto run = test::run_parties<std::uint64_t>(
        5, 1,
        [](PartyContext& ctx, int id) {
          std::uint64_t acc = 0;
          for (int r = 0; r < 4; ++r) {
            ctx.send_all(Bytes{static_cast<std::uint8_t>(id * 16 + r)});
            for (const auto& e : ctx.advance()) {
              acc = acc * 131 + e.payload[0] + static_cast<unsigned>(e.from);
            }
          }
          return acc;
        },
        {4}, [](int) { return std::make_shared<adv::Garbage>(); });
    return run.outputs;
  };
  EXPECT_EQ(execute(), execute());
}

TEST(SyncNetwork, TranscriptMetersSumToRunTotals) {
  // Per-round honest bytes must add up to the run's honest-byte meter, so
  // "identical per-round metered bits" is the same statement as "identical
  // transcripts" plus this test.
  constexpr int kN = 7;
  constexpr std::size_t kEll = 64;
  ba::PhaseKingBinary bin;
  ba::TurpinCoan tc{bin};
  const ca::FixedLengthCA proto{ba::BAKit{&bin, &tc}};
  SyncNetwork net(kN, 2);
  Transcript transcript;
  net.set_transcript(&transcript);
  for (int id = 0; id < kN; ++id) {
    if (id == 0 || id == 2) {
      net.set_byzantine(id, std::make_shared<adv::Replay>());
      continue;
    }
    net.set_honest(id, [&proto, id](PartyContext& ctx) {
      // Top bit set so every party's value has the same length.
      Bitstring v = Rng::stream(7, static_cast<std::uint64_t>(id)).bits(kEll);
      v.set_bit(0, true);
      (void)proto.run(ctx, kEll, v);
    });
  }
  const RunStats stats = net.run();
  std::uint64_t sum = 0;
  for (const auto& round : transcript.rounds) sum += round.honest_bytes;
  EXPECT_EQ(sum, stats.honest_bytes);
  EXPECT_GE(transcript.rounds.size(), stats.rounds);
}

// Recurses with 1 KiB frames -- smaller than the guard page, so the descent
// cannot step over it -- far past the 1 MiB fiber stack. The volatile reads
// after the call keep every frame alive, so it cannot become a loop.
[[gnu::noinline]] std::size_t overflow_stack(std::size_t depth) {
  volatile char frame[1024];
  frame[0] = 1;
  const std::size_t below = depth == 0 ? 0 : overflow_stack(depth - 1);
  return below + static_cast<std::size_t>(frame[0] + frame[sizeof frame - 1]);
}

constexpr std::size_t kFiberStack = std::size_t{1} << 20;
// An address near the top of the overflowing party's stack, recorded at its
// first statement; its guard page lies 1 MiB below.
char* volatile overflow_stack_top = nullptr;

// Runs on an alternate stack. A fault on the overflowing party's own guard
// page is re-raised with the default action (the process dies by SIGSEGV);
// any other fault -- e.g. after running through a neighbour's stack into
// that neighbour's guard page -- exits with code 3 instead.
void on_stack_fault(int, siginfo_t* info, void*) {
  const auto* addr = static_cast<const char*>(info->si_addr);
  const char* guard = overflow_stack_top - kFiberStack;
  constexpr std::size_t kSlack = 64 << 10;  // frames above the marker, page
  if (addr < guard - kSlack || addr > guard + kSlack) ::_exit(3);
  std::signal(SIGSEGV, SIG_DFL);
}

// Party 1 overflows while parties 0 and 2 sit parked at the barrier. With
// `reuse`, a clean run first leaves its stacks on this thread's free list,
// and the overflowing party must run on one of them (else exit code 4).
void run_with_one_overflowing_party(bool reuse) {
  const rlimit no_core{0, 0};
  ::setrlimit(RLIMIT_CORE, &no_core);
  static char alt_stack[1 << 16];
  stack_t ss{};
  ss.ss_sp = alt_stack;
  ss.ss_size = sizeof alt_stack;
  ::sigaltstack(&ss, nullptr);
  struct sigaction sa{};
  sa.sa_sigaction = on_stack_fault;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  ::sigaction(SIGSEGV, &sa, nullptr);
  std::vector<std::uintptr_t> clean_tops;
  if (reuse) {
    auto clean = test::run_parties<std::uintptr_t>(
        3, 0, [](PartyContext&, int) {
          char marker = 0;
          return reinterpret_cast<std::uintptr_t>(&marker);
        });
    for (const auto& top : clean.outputs) clean_tops.push_back(*top);
  }
  SyncNetwork net(3, 0);
  for (int id = 0; id < 3; ++id) {
    net.set_honest(id, [id, reuse, &clean_tops](PartyContext& ctx) {
      char marker = 0;
      if (id == 1) {
        overflow_stack_top = &marker;
        const auto top = reinterpret_cast<std::uintptr_t>(&marker);
        const bool on_a_clean_stack = std::any_of(
            clean_tops.begin(), clean_tops.end(), [top](std::uintptr_t t) {
              return (t > top ? t - top : top - t) < kFiberStack / 2;
            });
        if (reuse && !on_a_clean_stack) ::_exit(4);
      }
      (void)ctx.advance();
      if (id == 1) (void)overflow_stack(std::size_t{1} << 20);
      (void)ctx.advance();
    });
  }
  (void)net.run();
}

TEST(SyncNetworkDeathTest, StackOverflowDiesOnTheGuardPage) {
  // The PROT_NONE page below the overflowing fiber's stack must stop the
  // descent with SIGSEGV before it reaches a neighbour's stack.
  EXPECT_EXIT(run_with_one_overflowing_party(/*reuse=*/false),
              ::testing::KilledBySignal(SIGSEGV), "");
}

TEST(SyncNetworkDeathTest, OverflowOnAReusedStackDiesOnTheGuardPage) {
  // A stack back from the free list keeps the guard page it was mapped with.
  EXPECT_EXIT(run_with_one_overflowing_party(/*reuse=*/true),
              ::testing::KilledBySignal(SIGSEGV), "");
}

// ---- The fiber switch: what a party's stack and registers look like
// across advance().

TEST(SyncNetworkFiber, ProtocolFramesAre16ByteAligned) {
  // The System V ABI requires rsp + 8 to be 16-aligned at every function
  // entry, so a frame pointer (rbp after the prologue) is 16-aligned. A
  // fiber's first frame that broke this would misalign every SSE spill.
  auto run = test::run_parties<bool>(5, 0, [](PartyContext& ctx, int) {
    bool aligned = true;
    for (int r = 0; r < 3; ++r) {
      const auto fp = reinterpret_cast<std::uintptr_t>(
          __builtin_frame_address(0));
      aligned = aligned && fp % 16 == 0;
      (void)ctx.advance();
    }
    return aligned;
  });
  for (const auto& out : run.outputs) EXPECT_TRUE(*out);
}

// 1/3 rounds down to nearest and up under FE_UPWARD, so the SSE quotient
// shows which rounding mode MXCSR holds; fegetround reads the x87 control
// word. Volatile operands keep the compiler from folding the division.
struct RoundingSeen {
  int mode;
  double third;
};
RoundingSeen rounding_seen() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return {std::fegetround(), one / three};
}

/// Records the controller's rounding state each round it runs in.
class RoundingProbe : public ByzantineStrategy {
 public:
  explicit RoundingProbe(std::vector<RoundingSeen>* seen) : seen_(seen) {}
  void on_round(const RoundView&,
                const std::function<void(int, Bytes)>&) override {
    seen_->push_back(rounding_seen());
  }

 private:
  std::vector<RoundingSeen>* seen_;
};

TEST(SyncNetworkFiber, FloatingPointControlStateIsPerFiber) {
  const RoundingSeen nearest = rounding_seen();
  ASSERT_EQ(nearest.mode, FE_TONEAREST);
  std::fesetround(FE_UPWARD);
  const RoundingSeen upward = rounding_seen();
  std::fesetround(FE_TONEAREST);
  ASSERT_GT(upward.third, nearest.third);

  const int kRounds = 4;
  std::vector<RoundingSeen> controller_seen;
  auto run = test::run_parties<bool>(
      4, 1,
      [&](PartyContext& ctx, int id) {
        if (id == 0) std::fesetround(FE_UPWARD);
        const RoundingSeen want = id == 0 ? upward : nearest;
        bool kept = true;
        for (int r = 0; r < kRounds; ++r) {
          (void)ctx.advance();
          const RoundingSeen got = rounding_seen();
          kept = kept && got.mode == want.mode && got.third == want.third;
        }
        return kept;
      },
      {3},
      [&](int) { return std::make_shared<RoundingProbe>(&controller_seen); });
  for (int id = 0; id < 3; ++id) {
    EXPECT_TRUE(*run.outputs[static_cast<std::size_t>(id)]) << "party " << id;
  }
  ASSERT_FALSE(controller_seen.empty());
  for (const RoundingSeen& got : controller_seen) {
    EXPECT_EQ(got.mode, FE_TONEAREST);
    EXPECT_EQ(got.third, nearest.third);
  }
  const RoundingSeen after = rounding_seen();
  EXPECT_EQ(after.mode, FE_TONEAREST);
  EXPECT_EQ(after.third, nearest.third);
}

/// splitmix64 finalizer: per-party values the compiler cannot fold.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Hides `v`'s origin from the optimizer (so it cannot fold the final
/// check) and makes it live in a register at this point.
void opaque(std::uint64_t& v) { __asm__ volatile("" : "+r"(v)); }

TEST(SyncNetworkFiber, TwelveLocalsSurviveAHundredSwitches) {
  // More live values than there are callee-saved registers (rbx, rbp,
  // r12-r15), updated between switches: every one of them must come back
  // unchanged from each switch, whether it lives in a register or a spill.
  auto run = test::run_parties<bool>(4, 0, [](PartyContext& ctx, int id) {
    const std::uint64_t s = mix64(static_cast<std::uint64_t>(id));
    std::uint64_t v0 = mix64(s + 0), v1 = mix64(s + 1), v2 = mix64(s + 2);
    std::uint64_t v3 = mix64(s + 3), v4 = mix64(s + 4), v5 = mix64(s + 5);
    std::uint64_t v6 = mix64(s + 6), v7 = mix64(s + 7), v8 = mix64(s + 8);
    std::uint64_t v9 = mix64(s + 9), v10 = mix64(s + 10),
                  v11 = mix64(s + 11);
    for (std::uint64_t i = 0; i < 100; ++i) {
      (void)ctx.advance();
      opaque(v0), opaque(v1), opaque(v2), opaque(v3), opaque(v4), opaque(v5);
      opaque(v6), opaque(v7), opaque(v8), opaque(v9), opaque(v10), opaque(v11);
      v0 += i, v1 += 2 * i, v2 += 3 * i, v3 += 4 * i, v4 += 5 * i;
      v5 += 6 * i, v6 += 7 * i, v7 += 8 * i, v8 += 9 * i, v9 += 10 * i;
      v10 += 11 * i, v11 += 12 * i;
    }
    const std::uint64_t sum = 4950;  // 0 + 1 + ... + 99
    return v0 == mix64(s + 0) + 1 * sum && v1 == mix64(s + 1) + 2 * sum &&
           v2 == mix64(s + 2) + 3 * sum && v3 == mix64(s + 3) + 4 * sum &&
           v4 == mix64(s + 4) + 5 * sum && v5 == mix64(s + 5) + 6 * sum &&
           v6 == mix64(s + 6) + 7 * sum && v7 == mix64(s + 7) + 8 * sum &&
           v8 == mix64(s + 8) + 9 * sum && v9 == mix64(s + 9) + 10 * sum &&
           v10 == mix64(s + 10) + 11 * sum &&
           v11 == mix64(s + 11) + 12 * sum;
  });
  EXPECT_EQ(run.stats.rounds, 100u);
  for (const auto& out : run.outputs) EXPECT_TRUE(*out);
}

// ---- Fiber stacks come from a per-thread free list. A party's frame
// address names its stack: stacks are disjoint 1 MiB mappings, and every
// frame recorded here sits a few KiB below its stack's top.

std::uintptr_t frame_address() {
  return reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
}

/// Distinct stacks among `frames`: addresses less than half a stack apart
/// share one.
std::size_t distinct_stacks(std::vector<std::uintptr_t> frames) {
  std::sort(frames.begin(), frames.end());
  std::size_t stacks = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i == 0 || frames[i] - frames[i - 1] >= kFiberStack / 2) ++stacks;
  }
  return stacks;
}

TEST(SyncNetworkFiber, SequentialRunsReuseStacks) {
  // After each run the test maps and keeps a block as large as the run's
  // four stacks: stacks unmapped at run end and mapped afresh would find
  // that hole taken and land somewhere new every run.
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t block = 4 * (kFiberStack + page);
  std::vector<std::uintptr_t> frames;
  std::vector<void*> blocks;
  for (int run = 0; run < 50; ++run) {
    auto out = test::run_parties<std::uintptr_t>(
        4, 0, [](PartyContext&, int) { return frame_address(); });
    for (const auto& f : out.outputs) frames.push_back(*f);
    void* b = ::mmap(nullptr, block, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    ASSERT_NE(b, MAP_FAILED);
    blocks.push_back(b);
  }
  for (void* b : blocks) ::munmap(b, block);
  EXPECT_LE(distinct_stacks(frames), 4u);
}

TEST(SyncNetworkFiber, ThreadsNeverShareAStack) {
  // Two threads run networks at the same time: party 0 of every run meets
  // the other thread's party 0 at a barrier, so both runs hold their stacks
  // at once. No stack either thread ran a party on serves the other.
  constexpr int kRuns = 20;
  std::barrier meet(2);
  const auto work = [&meet](std::vector<std::uintptr_t>* frames) {
    for (int run = 0; run < kRuns; ++run) {
      auto out = test::run_parties<std::uintptr_t>(
          4, 0, [&meet](PartyContext& ctx, int id) {
            if (id == 0) meet.arrive_and_wait();
            (void)ctx.advance();
            return frame_address();
          });
      for (const auto& f : out.outputs) frames->push_back(*f);
    }
  };
  std::vector<std::uintptr_t> a;
  std::vector<std::uintptr_t> b;
  std::thread ta(work, &a);
  std::thread tb(work, &b);
  ta.join();
  tb.join();
  std::vector<std::uintptr_t> both = a;
  both.insert(both.end(), b.begin(), b.end());
  EXPECT_EQ(distinct_stacks(both), distinct_stacks(a) + distinct_stacks(b));
}

// Recurses `depth` frames, each with a local array ASan brackets with
// redzones, then advances for longer than the run's round limit, so the
// abort unwind abandons the frames.
[[gnu::noinline]] void park_deep(PartyContext& ctx, int depth) {
  volatile char frame[200];
  frame[0] = static_cast<char>(depth);
  if (depth == 0) {
    for (int r = 0; r < 1000; ++r) (void)ctx.advance();
    return;
  }
  park_deep(ctx, depth - 1);
  frame[sizeof frame - 1] = frame[0];
}

// Under ASan: whether the unused stack below this frame, where park_deep's
// frames lay, carries no shadow poison (this frame has no redzones).
[[gnu::noinline]] bool stack_below_is_clean() {
#if defined(__SANITIZE_ADDRESS__)
  constexpr std::size_t kBelow = 64 << 10;
  auto* frame = static_cast<char*>(__builtin_frame_address(0));
  return __asan_region_is_poisoned(frame - kBelow, kBelow) == nullptr;
#else
  return true;
#endif
}

// One flat 16 KiB array over the addresses park_deep's frames used.
[[gnu::noinline]] bool fill_flat(PartyContext& ctx) {
  if (!stack_below_is_clean()) return false;
  volatile unsigned char block[16 << 10];
  for (std::size_t i = 0; i < sizeof block; ++i) {
    block[i] = static_cast<unsigned char>(i);
  }
  (void)ctx.advance();
  for (std::size_t i = 0; i < sizeof block; ++i) {
    if (block[i] != static_cast<unsigned char>(i)) return false;
  }
  return true;
}

TEST(SyncNetworkFiber, ReusedStackCarriesNoStalePoison) {
  // Under ASan, a pooled stack must come back without the shadow poison of
  // the frames its last fiber abandoned.
  std::vector<std::uintptr_t> deep;
  {
    SyncNetwork net(4, 0);
    for (int id = 0; id < 4; ++id) {
      net.set_honest(id, [&deep](PartyContext& ctx) {
        deep.push_back(frame_address());
        park_deep(ctx, 16);
      });
    }
    EXPECT_THROW((void)net.run(/*max_rounds=*/3), Error);
  }
  std::vector<std::uintptr_t> flat;
  auto run = test::run_parties<bool>(4, 0, [&flat](PartyContext& ctx, int) {
    flat.push_back(frame_address());
    return fill_flat(ctx);
  });
  for (const auto& out : run.outputs) EXPECT_TRUE(*out);
  std::vector<std::uintptr_t> both = deep;
  both.insert(both.end(), flat.begin(), flat.end());
  EXPECT_EQ(distinct_stacks(both), 4u);  // run 2 ran on run 1's stacks
}

// ---- Phase meter semantics. Each test pins both public views in full
// (RunStats::phase_breakdown is leaf-charged, honest_bytes_by_phase is
// inclusive) plus PartyOutcome::phase, the path a failing party died in.

using PhaseBytes = std::map<std::string, std::uint64_t>;

TEST(SyncNetworkPhaseMeter, NameNestedInsideItselfCountsTwiceInclusive) {
  SyncNetwork net(2, 0);
  for (int id = 0; id < 2; ++id) {
    net.set_honest(id, [](PartyContext& ctx) {
      auto outer = ctx.phase("a");
      ctx.send_all(Bytes(3, 0));
      auto inner = ctx.phase("a");
      ctx.send_all(Bytes(5, 0));
      for (;;) (void)ctx.advance();
    });
  }
  const RunReport rep = net.run_report(/*max_rounds=*/3);
  // Per party: 2 x 3 bytes in the outer "a", 2 x 5 in the inner one.
  EXPECT_EQ(rep.stats.phase_breakdown, (PhaseBytes{{"a", 2 * (6 + 10)}}));
  EXPECT_EQ(rep.stats.honest_bytes_by_phase,
            (PhaseBytes{{"a", 2 * (6 + 2 * 10)}}));
  for (const PartyOutcome& o : rep.outcomes) {
    EXPECT_EQ(o.outcome, Outcome::kTimedOut);
    EXPECT_EQ(o.phase, "a/a");
  }
}

TEST(SyncNetworkPhaseMeter, OneLeafNameUnderTwoParents) {
  SyncNetwork net(2, 0);
  for (int id = 0; id < 2; ++id) {
    net.set_honest(id, [id](PartyContext& ctx) {
      {
        auto x = ctx.phase("x");
        auto leaf = ctx.phase("leaf");
        ctx.send_all(Bytes(4, 0));
      }
      auto y = ctx.phase("y");
      auto leaf = ctx.phase("leaf");
      ctx.send_all(Bytes(6, 0));
      if (id == 1) throw Error("boom");
      (void)ctx.advance();
    });
  }
  const RunReport rep = net.run_report();
  EXPECT_EQ(rep.stats.phase_breakdown, (PhaseBytes{{"leaf", 2 * 2 * 10}}));
  EXPECT_EQ(rep.stats.honest_bytes_by_phase,
            (PhaseBytes{{"leaf", 40}, {"x", 2 * 2 * 4}, {"y", 2 * 2 * 6}}));
  EXPECT_EQ(rep.outcomes[0].outcome, Outcome::kDecided);
  EXPECT_EQ(rep.outcomes[0].phase, "");
  EXPECT_EQ(rep.outcomes[1].outcome, Outcome::kAborted);
  EXPECT_EQ(rep.outcomes[1].phase, "y/leaf");
}

TEST(SyncNetworkPhaseMeter, ZeroByteSendCreatesTheKey) {
  SyncNetwork net(2, 0);
  for (int id = 0; id < 2; ++id) {
    net.set_honest(id, [](PartyContext& ctx) {
      auto outer = ctx.phase("outer");
      auto empty = ctx.phase("empty");
      ctx.send_all(Bytes{});
      (void)ctx.advance();
    });
  }
  const RunReport rep = net.run_report();
  EXPECT_EQ(rep.stats.honest_messages, 4u);
  EXPECT_EQ(rep.stats.phase_breakdown, (PhaseBytes{{"empty", 0}}));
  EXPECT_EQ(rep.stats.honest_bytes_by_phase,
            (PhaseBytes{{"empty", 0}, {"outer", 0}}));
  for (const PartyOutcome& o : rep.outcomes) EXPECT_EQ(o.phase, "");
}

TEST(SyncNetworkPhaseMeter, SendsOutsideAnyPhaseAreUnattributedOnly) {
  SyncNetwork net(2, 0);
  for (int id = 0; id < 2; ++id) {
    net.set_honest(id, [](PartyContext& ctx) {
      ctx.send_all(Bytes(3, 0));
      { auto quiet = ctx.phase("quiet"); }  // opened, but nothing sent
      (void)ctx.advance();
    });
  }
  const RunReport rep = net.run_report();
  EXPECT_EQ(rep.stats.phase_breakdown,
            (PhaseBytes{{kUnattributedPhase, 2 * 2 * 3}}));
  EXPECT_TRUE(rep.stats.honest_bytes_by_phase.empty());
  for (const PartyOutcome& o : rep.outcomes) EXPECT_EQ(o.phase, "");
}

TEST(SyncNetworkPhaseMeter, ByzantineAndSplitBrainRunnersAreExcluded) {
  SyncNetwork net(7, 2);
  const auto cheat = [](PartyContext& ctx) {
    auto scope = ctx.phase("byz");
    ctx.send_all(Bytes(100, 0));
    (void)ctx.advance();
  };
  net.set_byzantine_protocol(5, cheat);
  net.set_split_brain(6, cheat, cheat, {0, 1, 2});
  for (int id = 0; id < 5; ++id) {
    net.set_honest(id, [](PartyContext& ctx) {
      auto scope = ctx.phase("honest");
      ctx.send_all(Bytes(1, 0));
      (void)ctx.advance();
    });
  }
  const RunReport rep = net.run_report();
  EXPECT_EQ(rep.stats.bytes_by_party[5], 7u * 100u);
  EXPECT_EQ(rep.stats.bytes_by_party[6], 7u * 100u);
  EXPECT_EQ(rep.stats.phase_breakdown, (PhaseBytes{{"honest", 5 * 7}}));
  EXPECT_EQ(rep.stats.honest_bytes_by_phase, (PhaseBytes{{"honest", 35}}));
  for (const PartyOutcome& o : rep.outcomes) EXPECT_EQ(o.phase, "");
}

TEST(SyncNetworkPhaseMeter, ExceptionThreePhasesDeepSealsThePath) {
  SyncNetwork net(3, 0);
  for (int id = 0; id < 3; ++id) {
    net.set_honest(id, [id](PartyContext& ctx) {
      auto a = ctx.phase("a");
      ctx.send_all(Bytes(1, 0));
      auto b = ctx.phase("b");
      auto c = ctx.phase("c");
      ctx.send_all(Bytes(2, 0));
      if (id == 2) throw Error("deep");
      (void)ctx.advance();
    });
  }
  const RunReport rep = net.run_report();
  EXPECT_EQ(rep.stats.phase_breakdown,
            (PhaseBytes{{"a", 3 * 3 * 1}, {"c", 3 * 3 * 2}}));
  EXPECT_EQ(rep.stats.honest_bytes_by_phase,
            (PhaseBytes{{"a", 27}, {"b", 18}, {"c", 18}}));
  EXPECT_EQ(rep.outcomes[2].outcome, Outcome::kAborted);
  EXPECT_EQ(rep.outcomes[2].phase, "a/b/c");
  EXPECT_EQ(rep.outcomes[0].phase, "");
}

TEST(SyncNetworkPhaseMeter, PiZGoldenPhaseViews) {
  // Pi_Z at n = 13 with two mutator byzantines. The expected maps were
  // captured from the earlier meter, which kept one std::map per view and
  // updated both on every send; any change to how sends are charged to
  // phases shows up here.
  adv::FuzzCase c;
  c.protocol = "PiZ";
  c.n = 13;
  c.t = 4;
  c.ell = 256;
  c.input_seed = 2;
  c.corrupted = {2, 9};
  c.mutation.seed = 5;
  c.mutation.n = 13;
  const adv::FuzzOutcome out = adv::execute_case(c);
  ASSERT_TRUE(out.verdict.ok());
  EXPECT_EQ(out.stats.honest_bytes, 338364u);
  EXPECT_EQ(out.stats.phase_breakdown, (PhaseBytes{
                                           {"BA+", 127309},
                                           {"GetOutput", 1573},
                                           {"HighCostCA", 46358},
                                           {"PiN", 1482},
                                           {"PiZ", 1482},
                                           {"lBA+/distribute", 160160},
                                       }));
  EXPECT_EQ(out.stats.honest_bytes_by_phase, (PhaseBytes{
                                                 {"AddLastBlock", 23075},
                                                 {"BA+", 127309},
                                                 {"FindPrefixBlocks", 287469},
                                                 {"FixedLengthCABlocks", 312117},
                                                 {"GetOutput", 1573},
                                                 {"HighCostCA", 46358},
                                                 {"PiN", 336882},
                                                 {"PiZ", 338364},
                                                 {"lBA+", 287469},
                                                 {"lBA+/distribute", 160160},
                                                 {"lBA+/root-agreement", 127309},
                                             }));
}

}  // namespace
}  // namespace coca::net
