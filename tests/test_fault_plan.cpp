// Environment fault injection: the FaultPlan data model, its deterministic
// interpretation by both engines, and the oracle's charged-party
// accounting.
//
// The load-bearing claims tested here:
//   * replay determinism -- a fault-bearing case produces bit-identical
//     transcripts run after run (faults are data, not wall-clock events);
//   * crash-recovery round-trips -- a party frozen for rounds [a, b)
//     resumes from its own stack (the "persisted state") and the remaining
//     parties still satisfy every invariant, for every protocol target;
//   * inbox permutation is invisible -- the synchronous model leaves
//     within-round delivery order unspecified, so shuffled runs are
//     bit-identical for all protocol targets;
//   * graceful timeouts -- a run that hits the round cap ends with
//     structured TimedOut outcomes instead of an exception, with no stuck
//     fibers left behind.
#include "net/fault_plan.h"

#include <gtest/gtest.h>

#include "adversary/fuzzer.h"
#include "async/async_network.h"
#include "net/sync_network.h"

namespace coca::net {
namespace {

// ---------------------------------------------------------------------------
// Data model.

TEST(FaultPlan, ValidateRejectsMalformedEntries) {
  {
    FaultPlan p;
    p.crashes.push_back({/*party=*/4, 0, kNoRecovery});
    EXPECT_THROW(p.validate(4), Error);  // party out of range
  }
  {
    FaultPlan p;
    p.crashes.push_back({0, /*from=*/3, /*until=*/3});
    EXPECT_THROW(p.validate(4), Error);  // empty window
  }
  {
    FaultPlan p;
    p.cuts.push_back({0, -1, 0, kNoRecovery});
    EXPECT_THROW(p.validate(4), Error);  // recipient out of range
  }
  {
    FaultPlan p;
    p.partitions.push_back({{0, 1, 2, 3}, 0, 4});
    EXPECT_THROW(p.validate(4), Error);  // side contains every party
  }
  {
    FaultPlan p;
    p.partitions.push_back({{}, 0, 4});
    EXPECT_THROW(p.validate(4), Error);  // empty side
  }
  {
    FaultPlan p;
    p.shuffles.push_back({/*party=*/-2, /*seed=*/1});
    EXPECT_THROW(p.validate(4), Error);  // only -1 means "everyone"
  }
  FaultPlan ok;
  ok.crashes.push_back({0, 2, 5});
  ok.cuts.push_back({1, 2, 0, kNoRecovery});
  ok.partitions.push_back({{0, 1}, 3, 6});
  ok.shuffles.push_back({-1, 7});
  EXPECT_NO_THROW(ok.validate(4));
}

TEST(FaultPlan, QueriesFollowTheWindowSemantics) {
  FaultPlan p;
  p.crashes.push_back({2, 3, 6});            // recovery at round 6
  p.crashes.push_back({1, 4, kNoRecovery});  // crash-stop
  p.cuts.push_back({0, 3, 2, 4});
  p.partitions.push_back({{0, 1}, 5, 7});

  EXPECT_FALSE(p.crashed(2, 2));
  EXPECT_TRUE(p.crashed(2, 3));
  EXPECT_TRUE(p.crashed(2, 5));
  EXPECT_FALSE(p.crashed(2, 6));  // recovered
  EXPECT_FALSE(p.crash_stopped(2, 100));
  EXPECT_TRUE(p.crashed(1, 4));
  EXPECT_TRUE(p.crashed(1, 1000));  // kNoRecovery never ends
  EXPECT_TRUE(p.crash_stopped(1, 4));
  EXPECT_FALSE(p.crash_stopped(1, 3));

  EXPECT_FALSE(p.link_cut(0, 3, 1));
  EXPECT_TRUE(p.link_cut(0, 3, 2));
  EXPECT_TRUE(p.link_cut(0, 3, 3));
  EXPECT_FALSE(p.link_cut(0, 3, 4));
  EXPECT_FALSE(p.link_cut(3, 0, 2));  // cuts are directed

  // The partition cuts both directions across the split, and nothing
  // within either side.
  EXPECT_TRUE(p.link_cut(0, 2, 5));
  EXPECT_TRUE(p.link_cut(2, 0, 5));
  EXPECT_FALSE(p.link_cut(0, 1, 5));  // same side
  EXPECT_FALSE(p.link_cut(2, 3, 5));  // same side
  EXPECT_FALSE(p.link_cut(0, 2, 7));  // window over

  // Charged: crash victims {1, 2}, cut sender {0}, partition side {0, 1}
  // -- deduplicated and sorted.
  EXPECT_EQ(p.charged(4), (std::vector<int>{0, 1, 2}));

  FaultPlan shuffle_only;
  shuffle_only.shuffles.push_back({-1, 9});
  EXPECT_TRUE(shuffle_only.charged(4).empty());  // shuffles charge nobody
  EXPECT_EQ(shuffle_only.shuffle_seed(3), std::optional<std::uint64_t>(9));
  EXPECT_EQ(p.shuffle_seed(3), std::nullopt);
}

TEST(FaultPlan, OutcomeNamesArePinned) {
  EXPECT_STREQ(to_string(Outcome::kDecided), "Decided");
  EXPECT_STREQ(to_string(Outcome::kTimedOut), "TimedOut");
  EXPECT_STREQ(to_string(Outcome::kCrashed), "Crashed");
  EXPECT_STREQ(to_string(Outcome::kAborted), "AbortedWithEvidence");
}

TEST(FaultPlan, SamplerIsSeededAndRespectsTheChargeBudget) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    FaultSampleConfig cfg;
    cfg.n = 7;
    cfg.horizon = 16;
    cfg.max_charged = 2;
    cfg.seed = seed;
    const FaultPlan a = sample_fault_plan(cfg);
    const FaultPlan b = sample_fault_plan(cfg);
    EXPECT_EQ(a, b);
    EXPECT_NO_THROW(a.validate(cfg.n));
    EXPECT_LE(a.charged(cfg.n).size(), 2u);
  }
}

// ---------------------------------------------------------------------------
// Synchronous engine semantics, driven directly.

TEST(SyncFaults, CrashStopUnwindsWithoutStallingTheRun) {
  SyncNetwork net(4, 1);
  FaultPlan plan;
  plan.crashes.push_back({0, 0, kNoRecovery});
  net.set_fault_plan(plan);
  for (int id = 0; id < 4; ++id) {
    net.set_honest(id, [](PartyContext& ctx) {
      for (int r = 0; r < 3; ++r) {
        ctx.send_all(Bytes{0xAA});
        (void)ctx.advance();
      }
    });
  }
  const RunReport report = net.run_report();
  EXPECT_FALSE(report.timed_out);
  EXPECT_EQ(report.outcomes[0].outcome, Outcome::kCrashed);
  for (int id = 1; id < 4; ++id) {
    EXPECT_EQ(report.outcomes[id].outcome, Outcome::kDecided) << id;
  }
  EXPECT_EQ(report.stats.faults.crashes_injected, 1u);
  EXPECT_EQ(report.stats.faults.recoveries, 0u);
}

TEST(SyncFaults, CrashRecoveryResumesFromTheFrozenStack) {
  // Every party runs 5 beacon rounds; party 2 is frozen for rounds [1, 3).
  // Its straight-line code never learns it was gone: iteration k simply
  // lands in a later network round, and the deliveries it would have seen
  // in rounds 1-2 are gone from its view.
  SyncNetwork net(4, 1);
  FaultPlan plan;
  plan.crashes.push_back({2, 1, 3});
  net.set_fault_plan(plan);
  std::vector<std::vector<std::vector<std::uint8_t>>> seen(4);
  for (int id = 0; id < 4; ++id) {
    net.set_honest(id, [id, &seen](PartyContext& ctx) {
      for (std::uint8_t k = 0; k < 5; ++k) {
        ctx.send_all(Bytes{static_cast<std::uint8_t>(ctx.id()), k});
        std::vector<std::uint8_t> counters;
        for (const auto& e : first_per_sender(ctx.advance())) {
          counters.push_back(e.payload[1]);
        }
        seen[static_cast<std::size_t>(id)].push_back(std::move(counters));
      }
    });
  }
  const RunReport report = net.run_report();
  EXPECT_FALSE(report.timed_out);
  for (int id = 0; id < 4; ++id) {
    EXPECT_EQ(report.outcomes[static_cast<std::size_t>(id)].outcome,
              Outcome::kDecided)
        << id;
  }
  // Party 2 executed all 5 iterations (resumed, not restarted) ...
  ASSERT_EQ(seen[2].size(), 5u);
  // ... but its blocked round-0 advance() returns the round-2 delivery:
  // the round-0 and round-1 inboxes would have been consumed in rounds 1-2,
  // while it was down, so they are gone from its view, and in round 2 the
  // others were already broadcasting counter value 2 (party 2's own round-0
  // beacon died with its round-0 inbox, hence only three senders).
  EXPECT_EQ(seen[2][0], (std::vector<std::uint8_t>{2, 2, 2}));
  // Its second iteration runs in round 3: the others are on counter 3 and
  // its own stale counter-1 beacon comes back to it.
  EXPECT_EQ(seen[2][1], (std::vector<std::uint8_t>{3, 3, 1, 3}));
  // The others saw party 2's stale counter 1 in round 3 too ...
  EXPECT_EQ(seen[0][3], (std::vector<std::uint8_t>{3, 3, 1, 3}));
  // ... and nothing from it in the rounds it missed.
  EXPECT_EQ(seen[0][0], (std::vector<std::uint8_t>{0, 0, 0, 0}));
  EXPECT_EQ(seen[0][1], (std::vector<std::uint8_t>{1, 1, 1}));
  EXPECT_EQ(report.stats.faults.crashes_injected, 1u);
  EXPECT_EQ(report.stats.faults.recoveries, 1u);
  EXPECT_EQ(report.stats.faults.rounds_missed, 2u);
}

TEST(SyncFaults, TimedOutRunsReportInsteadOfThrowing) {
  // Satellite contract: hitting the round cap in a guarded run yields
  // structured TimedOut outcomes carrying the last completed round, while
  // the legacy run() keeps its exact Error behaviour; repeated early exits
  // must not leak fibers (the ASSERTs below would crash on a leak, and
  // ASan/LSan builds would flag it).
  for (int repeat = 0; repeat < 3; ++repeat) {
    SyncNetwork net(4, 1);
    for (int id = 0; id < 4; ++id) {
      net.set_honest(id, [](PartyContext& ctx) {
        for (int r = 0; r < 1000; ++r) {
          ctx.send_all(Bytes{0x01});
          (void)ctx.advance();
        }
      });
    }
    const RunReport report = net.run_report(/*max_rounds=*/10);
    EXPECT_TRUE(report.timed_out);
    EXPECT_EQ(report.stats.rounds, 10u);
    for (const PartyOutcome& o : report.outcomes) {
      EXPECT_EQ(o.outcome, Outcome::kTimedOut);
      EXPECT_NE(o.evidence.find("still running"), std::string::npos);
    }
  }
  SyncNetwork strict(4, 1);
  for (int id = 0; id < 4; ++id) {
    strict.set_honest(id, [](PartyContext& ctx) {
      for (int r = 0; r < 1000; ++r) {
        ctx.send_all(Bytes{0x01});
        (void)ctx.advance();
      }
    });
  }
  try {
    (void)strict.run(/*max_rounds=*/10);
    FAIL() << "legacy run() must throw on the round cap";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "SyncNetwork: max round count exceeded");
  }
}

TEST(SyncFaults, LinkCutsChargeTheSenderAndDropAfterMetering) {
  SyncNetwork net(4, 1);
  FaultPlan plan;
  plan.cuts.push_back({0, 1, 0, kNoRecovery});
  net.set_fault_plan(plan);
  std::vector<std::size_t> inbox_sizes(4);
  for (int id = 0; id < 4; ++id) {
    net.set_honest(id, [id, &inbox_sizes](PartyContext& ctx) {
      ctx.send_all(Bytes{0x5A, 0x5A});
      inbox_sizes[static_cast<std::size_t>(id)] = ctx.advance().size();
    });
  }
  const RunReport report = net.run_report();
  EXPECT_EQ(inbox_sizes[1], 3u);  // missing exactly party 0's message
  EXPECT_EQ(inbox_sizes[0], 4u);
  EXPECT_EQ(inbox_sizes[2], 4u);
  EXPECT_EQ(inbox_sizes[3], 4u);
  EXPECT_EQ(report.stats.faults.messages_dropped, 1u);
  // The sender still paid for the dropped bytes: all four parties metered
  // identically (4 parties x 4 recipients x 2 bytes).
  EXPECT_EQ(report.stats.honest_bytes, 4u * 4u * 2u);
}

// ---------------------------------------------------------------------------
// Whole-protocol semantics via the fuzzer harness (all eight targets).

adv::FuzzCase fault_case(const std::string& protocol, FaultPlan plan) {
  adv::FuzzCase c;
  c.protocol = protocol;
  c.n = 4;
  c.t = 1;
  c.ell = 8;
  c.input_seed = 0xFA11'0000 + protocol.size();
  c.faults = std::move(plan);
  return c;
}

TEST(ProtocolFaults, CrashRecoveryRoundTripEveryProtocol) {
  // One party (the whole t budget) goes down for rounds [2, 5) and resumes
  // from its frozen stack. The oracle must hold over the other three: the
  // recovered party is charged to the adversary budget, and whatever stale
  // messages it sends after recovery are traffic a byzantine party could
  // have sent anyway.
  for (const std::string& protocol : adv::known_protocols()) {
    SCOPED_TRACE(protocol);
    FaultPlan plan;
    plan.crashes.push_back({3, 2, 5});
    const adv::FuzzCase c = fault_case(protocol, std::move(plan));
    const adv::FuzzOutcome out = adv::execute_case(c);
    EXPECT_TRUE(out.verdict.ok())
        << (out.verdict.violations.empty() ? ""
                                           : out.verdict.violations.front());
    EXPECT_EQ(out.stats.faults.crashes_injected, 1u);
    EXPECT_EQ(out.stats.faults.recoveries, 1u);
  }
}

TEST(ProtocolFaults, InboxPermutationIsInvisibleEveryProtocol) {
  // Within-round delivery order is unspecified in the synchronous model,
  // so an inbox shuffle must be a no-op: bit-identical transcripts, rounds
  // and honest cost across different permutation seeds (and between
  // all-party and single-party shuffles), with every invariant intact.
  for (const std::string& protocol : adv::known_protocols()) {
    SCOPED_TRACE(protocol);
    FaultPlan everyone_a, everyone_b, just_two;
    everyone_a.shuffles.push_back({-1, 7});
    everyone_b.shuffles.push_back({-1, 0xDEADBEEF});
    just_two.shuffles.push_back({2, 13});
    Transcript ta, tb, tc;
    const adv::FuzzOutcome a =
        adv::execute_case(fault_case(protocol, everyone_a), &ta);
    const adv::FuzzOutcome b =
        adv::execute_case(fault_case(protocol, everyone_b), &tb);
    const adv::FuzzOutcome c =
        adv::execute_case(fault_case(protocol, just_two), &tc);
    EXPECT_TRUE(a.verdict.ok())
        << (a.verdict.violations.empty() ? "" : a.verdict.violations.front());
    EXPECT_EQ(ta, tb);
    EXPECT_EQ(ta, tc);
    EXPECT_EQ(a.stats.rounds, b.stats.rounds);
    EXPECT_EQ(a.stats.honest_bytes, b.stats.honest_bytes);
    EXPECT_EQ(a.verdict.violations, b.verdict.violations);
    EXPECT_EQ(a.verdict.violations, c.verdict.violations);
    EXPECT_GT(a.stats.faults.inboxes_shuffled, 0u);
  }
}

TEST(ProtocolFaults, FaultReplayIsDeterministicAcrossSchedules) {
  // A composite plan (crash-recovery + directed cut + shuffles) replays to
  // the same transcript every time: faults are part of the case data, not
  // wall-clock events.
  for (const std::string& protocol : {std::string("PiZ"),
                                      std::string("BAPlus"),
                                      std::string("FixedLengthCA")}) {
    SCOPED_TRACE(protocol);
    FaultPlan plan;
    plan.crashes.push_back({1, 2, 4});
    plan.cuts.push_back({1, 0, 5, 9});
    plan.shuffles.push_back({-1, 99});
    const adv::FuzzCase c = fault_case(protocol, std::move(plan));
    Transcript serial1, serial2;
    const adv::FuzzOutcome s1 = adv::execute_case(c, &serial1);
    const adv::FuzzOutcome s2 = adv::execute_case(c, &serial2);
    EXPECT_EQ(serial1, serial2);
    EXPECT_EQ(s1.verdict.violations, s2.verdict.violations);
    EXPECT_EQ(s1.stats.rounds, s2.stats.rounds);
    EXPECT_EQ(s1.stats.honest_bytes, s2.stats.honest_bytes);
  }
}

TEST(ProtocolFaults, CaseValidationEnforcesDisjointBudgets) {
  // A fault charged to an already-corrupted party double-spends the
  // adversary budget.
  adv::FuzzCase overlap;
  overlap.protocol = "PiZ";
  overlap.corrupted = {1};
  overlap.faults.crashes.push_back({1, 0, kNoRecovery});
  EXPECT_THROW(adv::execute_case(overlap), Error);

  // A case with no adversary at all is a plain honest run -- allowed (the
  // trace tooling uses it) and it must pass the oracle.
  adv::FuzzCase nothing;
  nothing.protocol = "PiZ";
  const adv::FuzzOutcome out = adv::execute_case(nothing);
  EXPECT_TRUE(out.verdict.ok());
}

TEST(ProtocolFaults, CorpusJsonRoundTripsBothSchemas) {
  adv::CorpusEntry v2;
  v2.c = fault_case("PiZ", {});
  v2.c.corrupted = {2};  // mixed byzantine + environment case
  v2.c.faults.crashes.push_back({1, 2, 5});
  v2.c.faults.crashes.push_back({3, 0, kNoRecovery});
  v2.c.faults.cuts.push_back({0, 2, 1, 4});
  v2.c.faults.partitions.push_back({{0, 3}, 6, 9});
  v2.c.faults.shuffles.push_back({-1, 42});
  v2.c.t = 3;  // make room: this entry only round-trips, it never runs
  v2.c.n = 10;
  v2.violations = {"crash: example"};
  v2.note = "schema v2 round trip";
  const std::string json = adv::to_json(v2);
  EXPECT_NE(json.find("\"coca-fuzz-v2\""), std::string::npos);
  EXPECT_EQ(adv::corpus_entry_from_json(json), v2);

  // kNoRecovery survives the trip as a plain integer.
  EXPECT_NE(json.find(std::to_string(kNoRecovery)), std::string::npos);

  // Fault-free entries keep emitting schema v1, so every pre-existing
  // corpus file and external tooling sees unchanged bytes.
  adv::CorpusEntry v1 = v2;
  v1.c.faults = {};
  const std::string json1 = adv::to_json(v1);
  EXPECT_NE(json1.find("\"coca-fuzz-v1\""), std::string::npos);
  EXPECT_EQ(json1.find("\"faults\""), std::string::npos);
  EXPECT_EQ(adv::corpus_entry_from_json(json1), v1);
}

// ---------------------------------------------------------------------------
// Asynchronous mirror.

TEST(AsyncFaults, RejectsFaultsTheSchedulerAlreadySubsumes) {
  async::AsyncNetwork net(4, 1);
  FaultPlan recovery;
  recovery.crashes.push_back({0, 2, 5});  // crash-recovery
  EXPECT_THROW(net.set_fault_plan(recovery), Error);
  FaultPlan shuffle;
  shuffle.shuffles.push_back({-1, 1});
  EXPECT_THROW(net.set_fault_plan(shuffle), Error);
  FaultPlan ok;
  ok.crashes.push_back({0, 0, kNoRecovery});
  ok.cuts.push_back({1, 2, 0, kNoRecovery});
  ok.partitions.push_back({{0}, 0, 10});
  EXPECT_NO_THROW(net.set_fault_plan(ok));
}

TEST(AsyncFaults, CrashStopStarvesGracefullyInsteadOfDeadlocking) {
  // Everyone broadcasts once and waits for all n broadcasts (its own
  // included). Process 3 is crashed from delivery step 0: it unwinds
  // before sending anything and its queued inbound traffic is purged, so
  // the survivors block on a 4th message that never exists. With a
  // FaultPlan installed that is a graceful end state (stats.starved), not
  // the deadlock error the fault-free engine throws.
  async::AsyncNetwork net(4, 1);
  FaultPlan plan;
  plan.crashes.push_back({3, 0, kNoRecovery});
  net.set_fault_plan(plan);
  for (int id = 0; id < 4; ++id) {
    net.set_process(id, [](async::ProcessContext& ctx) {
      ctx.send_all(Bytes{0xB0});
      for (int k = 0; k < ctx.n(); ++k) (void)ctx.receive();
      ctx.mark_done();
    });
  }
  const async::AsyncStats stats = net.run();
  EXPECT_TRUE(stats.starved);
  EXPECT_EQ(stats.faults.crashes_injected, 1u);
  EXPECT_GT(stats.faults.messages_dropped, 0u);
}

TEST(AsyncFaults, WindowedCutDropsOnlyInWindowDeliveries) {
  // The cut 0 -> 1 covers delivery steps [0, 2): party 0's first send to 1
  // is dropped, a later resend (after two deliveries advanced the step
  // clock past the window) arrives, and the protocol completes.
  async::AsyncNetwork net(4, 1);
  FaultPlan plan;
  plan.cuts.push_back({0, 1, 0, 2});
  net.set_fault_plan(plan);
  std::size_t received_by_1 = 0;
  net.set_process(0, [](async::ProcessContext& ctx) {
    ctx.send(1, Bytes{0x01});  // dropped: step clock is inside [0, 2)
    ctx.send(2, Bytes{0x02});
    ctx.send(3, Bytes{0x03});
    (void)ctx.receive();       // ack from 2 -- by now >= 2 deliveries done
    ctx.send(1, Bytes{0x04});  // window over: delivered
    ctx.mark_done();
  });
  net.set_process(1, [&received_by_1](async::ProcessContext& ctx) {
    (void)ctx.receive();
    ++received_by_1;
    ctx.mark_done();
  });
  net.set_process(2, [](async::ProcessContext& ctx) {
    (void)ctx.receive();
    ctx.send(0, Bytes{0xAC});
    ctx.mark_done();
  });
  net.set_process(3, [](async::ProcessContext& ctx) {
    (void)ctx.receive();
    ctx.mark_done();
  });
  const async::AsyncStats stats = net.run();
  EXPECT_FALSE(stats.starved);
  EXPECT_EQ(received_by_1, 1u);
  EXPECT_EQ(stats.faults.messages_dropped, 1u);
}

}  // namespace
}  // namespace coca::net
