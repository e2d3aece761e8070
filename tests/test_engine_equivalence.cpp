// Transcript equivalence of the instance-sharded engine (engine::Engine).
//
// The contract under test is the engine's headline invariant: sharding K
// concurrent instances over a worker pool is a pure wall-clock knob. For
// every protocol target, each instance's canonical transcript, RunStats
// (honest bytes/messages/rounds, per-party bytes, leaf-charged
// phase_breakdown), and oracle verdict must be bit-identical to the same
// (protocol, n, ell, seed) case run alone on a single SyncNetwork -- and
// identical across worker counts {1, 2, 8}, with tracing off (the default
// path) and on. Cross-instance aggregates (honest bytes by round, folded
// metrics) must likewise not depend on the worker count.
//
// The per-protocol mix deliberately varies instance shapes (n, ell, seeds),
// includes byzantine instances (mutator-wrapped corrupted parties) and one
// crash-recovery fault instance, so workers finish their shares at very
// different times and the post-join fold still has to come out the same.
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"

namespace coca {
namespace {

constexpr int kWorkerCounts[] = {1, 2, 8};
constexpr std::size_t kInstances = 16;

/// K mixed instances of one protocol: mostly n=4 with a couple of n=7
/// shapes, ells straddling word boundaries, distinct seeds, two byzantine
/// instances and one crash-recovery instance.
std::vector<adv::FuzzCase> mixed_cases(const std::string& protocol) {
  std::vector<adv::FuzzCase> cases;
  constexpr std::size_t kElls[] = {8, 16, 33};
  for (std::size_t i = 0; i < kInstances; ++i) {
    adv::FuzzCase c;
    c.protocol = protocol;
    // Instances 5 and 13 are the larger shape; everything else is minimal.
    const bool big = (i == 5 || i == 13);
    c.n = big ? 7 : 4;
    c.t = (c.n - 1) / 3;
    c.ell = big ? 8 : kElls[i % std::size(kElls)];
    c.input_seed = 0xE11E000ULL + i;
    if (i == 3 || i == 11) {
      // Byzantine instance: one corrupted party under the default mix.
      c.corrupted = {static_cast<int>(i) % c.n};
      c.mutation.seed = 0xBAD5EEDULL + i;
    } else if (i == 7) {
      // Environment-fault instance: crash-recovery of party 2, rounds 2-4.
      net::FaultPlan::Crash crash;
      crash.party = 2;
      crash.from_round = 2;
      crash.until_round = 4;
      c.faults.crashes.push_back(crash);
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

struct Solo {
  adv::FuzzOutcome outcome;
  net::Transcript transcript;
};

std::vector<Solo> solo_baselines(const std::vector<adv::FuzzCase>& cases) {
  std::vector<Solo> solos(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    solos[i].outcome = adv::execute_case(cases[i], &solos[i].transcript);
  }
  return solos;
}

void expect_instance_equivalent(const Solo& solo,
                                const engine::InstanceResult& sharded) {
  const net::RunStats& a = solo.outcome.stats;
  const net::RunStats& b = sharded.outcome.stats;
  EXPECT_EQ(a.honest_bytes, b.honest_bytes);
  EXPECT_EQ(a.honest_messages, b.honest_messages);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.bytes_by_party, b.bytes_by_party);
  EXPECT_EQ(a.phase_breakdown, b.phase_breakdown);
  EXPECT_EQ(a.honest_bytes_by_phase, b.honest_bytes_by_phase);
  // Per-thread copy counters: an instance's diff must cover only its own
  // copies, not those of instances that ran before it on the same worker.
  EXPECT_EQ(a.payload_copies, b.payload_copies);
  EXPECT_EQ(solo.outcome.verdict.violations,
            sharded.outcome.verdict.violations);
  EXPECT_EQ(solo.outcome.terminated, sharded.outcome.terminated);
  EXPECT_TRUE(solo.transcript == sharded.transcript)
      << "transcript differs from the solo SyncNetwork run";
  // The instance's round log saw every delivered round.
  EXPECT_EQ(sharded.rounds_streamed, b.rounds);
}

void sweep_protocol(const std::string& protocol) {
  const std::vector<adv::FuzzCase> cases = mixed_cases(protocol);
  const std::vector<Solo> solos = solo_baselines(cases);
  std::vector<std::uint64_t> bytes_by_round_ref;
  for (const bool trace : {false, true}) {
    std::map<std::string, std::uint64_t, std::less<>> counters_ref;
    for (const int workers : kWorkerCounts) {
      SCOPED_TRACE(::testing::Message() << "protocol=" << protocol
                                        << " workers=" << workers
                                        << " trace=" << trace);
      engine::EngineOptions opt;
      opt.workers = workers;
      opt.trace = trace;
      const engine::EngineReport report = engine::Engine(opt).run(cases);
      ASSERT_EQ(report.instances.size(), cases.size());
      for (std::size_t i = 0; i < cases.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "instance=" << i);
        expect_instance_equivalent(solos[i], report.instances[i]);
      }
      // Cross-instance aggregates are worker-count (and trace) independent.
      if (!trace && workers == kWorkerCounts[0]) {
        bytes_by_round_ref = report.honest_bytes_by_round;
      } else {
        EXPECT_EQ(report.honest_bytes_by_round, bytes_by_round_ref);
      }
      if (workers == kWorkerCounts[0]) {
        counters_ref = report.metrics.counters();
        EXPECT_EQ(counters_ref.empty(), !trace);
      } else {
        EXPECT_EQ(report.metrics.counters(), counters_ref);
      }
    }
  }
}

TEST(EngineEquivalence, FixedLengthCA) { sweep_protocol("FixedLengthCA"); }
TEST(EngineEquivalence, FindPrefix) { sweep_protocol("FindPrefix"); }
TEST(EngineEquivalence, BAPlus) { sweep_protocol("BAPlus"); }
TEST(EngineEquivalence, LongBAPlus) { sweep_protocol("LongBAPlus"); }
TEST(EngineEquivalence, PiN) { sweep_protocol("PiN"); }
TEST(EngineEquivalence, PiZ) { sweep_protocol("PiZ"); }
TEST(EngineEquivalence, HighCostCA) { sweep_protocol("HighCostCA"); }
TEST(EngineEquivalence, BroadcastTrimCA) { sweep_protocol("BroadcastTrimCA"); }

TEST(EngineEquivalence, CrossProtocolMix) {
  // One engine run multiplexing every protocol target at once: two
  // instances per protocol, compared against solos at workers 2 and 8.
  std::vector<adv::FuzzCase> cases;
  for (const std::string& protocol : adv::known_protocols()) {
    for (const std::uint64_t seed : {1u, 2u}) {
      adv::FuzzCase c;
      c.protocol = protocol;
      c.n = 4;
      c.t = 1;
      c.ell = 16;
      c.input_seed = 0xA11ULL + seed;
      cases.push_back(std::move(c));
    }
  }
  const std::vector<Solo> solos = solo_baselines(cases);
  for (const int workers : {2, 8}) {
    SCOPED_TRACE(::testing::Message() << "workers=" << workers);
    engine::EngineOptions opt;
    opt.workers = workers;
    const engine::EngineReport report = engine::Engine(opt).run(cases);
    ASSERT_EQ(report.instances.size(), cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "instance=" << i);
      expect_instance_equivalent(solos[i], report.instances[i]);
    }
  }
}

TEST(EngineEquivalence, AggregatesSumOverInstances) {
  const std::vector<adv::FuzzCase> cases = mixed_cases("PiZ");
  engine::EngineOptions opt;
  opt.workers = 2;
  const engine::EngineReport report = engine::Engine(opt).run(cases);
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
  for (const engine::InstanceResult& res : report.instances) {
    bytes += res.outcome.stats.honest_bytes;
    messages += res.outcome.stats.honest_messages;
    rounds += res.outcome.stats.rounds;
  }
  EXPECT_EQ(report.honest_bytes, bytes);
  EXPECT_EQ(report.honest_messages, messages);
  EXPECT_EQ(report.rounds, rounds);
  // The per-round fold covers every delivered round's bytes; the trailing
  // leftover flush (transcript-only) is the one part of honest_bytes it may
  // miss.
  std::uint64_t streamed = 0;
  for (const std::uint64_t b : report.honest_bytes_by_round) streamed += b;
  EXPECT_LE(streamed, bytes);
  EXPECT_GT(streamed, 0u);
}

TEST(EngineEquivalence, MalformedCaseThrowsBeforeAnyWork) {
  std::vector<adv::FuzzCase> cases(2);
  cases[0].protocol = "PiZ";
  cases[1].protocol = "NoSuchProtocol";
  engine::Engine eng(engine::EngineOptions{});
  EXPECT_THROW(eng.run(cases), Error);
}

}  // namespace
}  // namespace coca
