// Tests for the observability layer (src/obs) and its engine integration:
//   * exact leaf phase attribution -- phase_breakdown sums to honest_bytes
//     with no "(unattributed)" residue on every protocol target,
//   * tracing is a pure observer -- RunStats bit-identical with and
//     without a Tracer attached,
//   * canonical (timing-free) metrics JSON is byte-identical across
//     execution schedules (serial fibers vs an 8-wide thread window),
//   * the Chrome trace exporter emits the expected event structure,
//   * RS/Merkle kernel spans land on the party tracks that ran them,
//   * failing parties carry the phase stack they died in
//     (PartyOutcome::phase) for aborts, plan crashes, and timeouts,
//   * the degradation campaign surfaces those phases in its JSON artifact.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adversary/degradation.h"
#include "adversary/fuzzer.h"
#include "obs/adapt.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "tests/support.h"

namespace coca {
namespace {

using test::InvariantOracle;

/// A small honest case (no corruption, no faults) for one protocol target.
adv::FuzzCase honest_case(const std::string& protocol) {
  adv::FuzzCase c;
  c.protocol = protocol;
  c.n = 4;
  c.t = 1;
  c.ell = 16;
  c.input_seed = 7;
  return c;
}

TEST(ObsPhaseAttribution, LeafBreakdownSumsExactlyOnEveryProtocol) {
  for (const std::string& protocol : adv::known_protocols()) {
    const adv::FuzzOutcome out = adv::execute_case(honest_case(protocol));
    ASSERT_TRUE(out.verdict.ok())
        << protocol << ": " << out.verdict.violations.front();
    EXPECT_TRUE(InvariantOracle::phase_coverage(out.stats)) << protocol;
    EXPECT_GT(out.stats.honest_bytes, 0u) << protocol;
  }
}

TEST(ObsPhaseAttribution, UnphasedTrafficLandsInUnattributed) {
  const int n = 4;
  net::SyncNetwork net(n, 1);
  for (int i = 0; i < n; ++i) {
    net.set_honest(i, [](net::PartyContext& ctx) {
      ctx.send_all(Bytes(10, 0x5A));  // no PhaseScope open
      ctx.advance();
      {
        auto scope = ctx.phase("wrapped");
        ctx.send_all(Bytes(4, 0x5B));
        ctx.advance();
      }
    });
  }
  const net::RunStats stats = net.run();
  // Still exact: the bucket keeps the sum identity even without phases.
  EXPECT_TRUE(InvariantOracle::phase_coverage(stats,
                                              /*allow_unattributed=*/true));
  // send_all stages one message per recipient: n senders x n deliveries.
  EXPECT_EQ(stats.phase_breakdown.at(net::kUnattributedPhase),
            static_cast<std::uint64_t>(n) * n * 10);
  EXPECT_EQ(stats.phase_breakdown.at("wrapped"),
            static_cast<std::uint64_t>(n) * n * 4);
  EXPECT_FALSE(InvariantOracle::phase_coverage(stats));
}

TEST(ObsTracer, RunStatsBitIdenticalWithAndWithoutTracer) {
  const adv::FuzzCase c = honest_case("LongBAPlus");
  const adv::FuzzOutcome plain = adv::execute_case(c);
  obs::Tracer tracer;
  const adv::FuzzOutcome traced = adv::execute_case(c, nullptr, &tracer);
  EXPECT_EQ(plain.stats.rounds, traced.stats.rounds);
  EXPECT_EQ(plain.stats.honest_bytes, traced.stats.honest_bytes);
  EXPECT_EQ(plain.stats.honest_messages, traced.stats.honest_messages);
  EXPECT_EQ(plain.stats.bytes_by_party, traced.stats.bytes_by_party);
  EXPECT_EQ(plain.stats.honest_bytes_by_phase,
            traced.stats.honest_bytes_by_phase);
  EXPECT_EQ(plain.stats.phase_breakdown, traced.stats.phase_breakdown);
  EXPECT_EQ(plain.stats.payload_copies, traced.stats.payload_copies);
  EXPECT_GT(tracer.track_count(), 0u);
}

TEST(ObsTracer, InclusiveSpanBytesMatchLegacyPhaseAccounting) {
  const adv::FuzzCase c = honest_case("FixedLengthCA");
  obs::Tracer tracer;
  const adv::FuzzOutcome out = adv::execute_case(c, nullptr, &tracer);
  ASSERT_TRUE(out.verdict.ok());
  EXPECT_EQ(tracer.inclusive_bytes_by_name(), out.stats.honest_bytes_by_phase);
}

/// Canonical metrics export of one traced execution of `c`.
std::string canonical_metrics(const adv::FuzzCase& c) {
  obs::Tracer tracer(obs::Tracer::Options{/*timing=*/false});
  const adv::FuzzOutcome out = adv::execute_case(c, nullptr, &tracer);
  obs::RunMeta meta;
  meta.protocol = c.protocol;
  meta.n = c.n;
  meta.t = c.t;
  meta.ell_bits = c.ell;
  meta.seed = c.input_seed;
  return obs::metrics_json(tracer, meta, obs::stats_view(out.stats),
                           /*include_timing=*/false);
}

TEST(ObsDeterminism, CanonicalMetricsJsonIsScheduleIndependent) {
  adv::FuzzCase c = honest_case("PiN");
  c.n = 7;
  c.t = 2;
  c.ell = 64;
  const std::string a = canonical_metrics(c);
  const std::string b = canonical_metrics(c);
  EXPECT_EQ(a, b) << "canonical export differs between two identical runs";
  EXPECT_NE(a.find("\"schema\": \"coca-metrics-v1\""), std::string::npos);
  EXPECT_EQ(a.find("wall_ns"), std::string::npos);
}

TEST(ObsExport, ChromeTraceHasMetadataAndCompleteEvents) {
  const adv::FuzzCase c = honest_case("BAPlus");
  obs::Tracer tracer;
  const adv::FuzzOutcome out = adv::execute_case(c, nullptr, &tracer);
  ASSERT_TRUE(out.verdict.ok());
  const std::string json = obs::chrome_trace_json(tracer);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);  // thread names
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);  // complete spans
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"round 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"party 0\""), std::string::npos);
}

TEST(ObsKernels, RsAndMerkleSpansLandOnPartyTracks) {
  // LongBAPlus distributes via RS shares under Merkle roots, so a traced
  // honest run must record both kernel spans via the thread-local hook.
  adv::FuzzCase c = honest_case("LongBAPlus");
  c.ell = 2048;
  obs::Tracer tracer;
  const adv::FuzzOutcome out = adv::execute_case(c, nullptr, &tracer);
  ASSERT_TRUE(out.verdict.ok());
  bool saw_rs = false;
  bool saw_merkle = false;
  for (int track = 0; track < static_cast<int>(tracer.track_count()); ++track) {
    if (tracer.track_kind(track) != "party") continue;
    for (const obs::SpanRecord& span : tracer.spans(track)) {
      if (span.cat != "kernel") continue;
      saw_rs |= span.name == "rs.encode" || span.name == "rs.decode";
      saw_merkle |= span.name == "merkle.build" || span.name == "merkle.verify";
    }
  }
  EXPECT_TRUE(saw_rs);
  EXPECT_TRUE(saw_merkle);
}

TEST(ObsOutcomePhase, AbortCarriesTheFullPhaseStack) {
  const int n = 4;
  net::SyncNetwork net(n, 1);
  for (int i = 0; i < n; ++i) {
    net.set_honest(i, [i](net::PartyContext& ctx) {
      auto outer = ctx.phase("outer");
      ctx.send_all(Bytes(1, 0));
      ctx.advance();
      if (i == 2) {
        auto inner = ctx.phase("inner");
        throw Error("boom");
      }
      ctx.advance();
    });
  }
  const net::RunReport report = net.run_report();
  ASSERT_EQ(report.outcomes.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(report.outcomes[2].outcome, net::Outcome::kAborted);
  EXPECT_EQ(report.outcomes[2].phase, "outer/inner");
  EXPECT_EQ(report.outcomes[0].outcome, net::Outcome::kDecided);
  EXPECT_TRUE(report.outcomes[0].phase.empty());
}

TEST(ObsOutcomePhase, TimeoutSealsThePhaseThePartyWasStuckIn) {
  const int n = 4;
  net::SyncNetwork net(n, 1);
  for (int i = 0; i < n; ++i) {
    net.set_honest(i, [](net::PartyContext& ctx) {
      auto spin = ctx.phase("spin");
      while (true) ctx.advance();
    });
  }
  const net::RunReport report = net.run_report(/*max_rounds=*/5);
  EXPECT_TRUE(report.timed_out);
  for (const net::PartyOutcome& o : report.outcomes) {
    EXPECT_EQ(o.outcome, net::Outcome::kTimedOut);
    EXPECT_EQ(o.phase, "spin");
  }
}

TEST(ObsOutcomePhase, PlanCrashSealsThePhaseOfTheUnwoundRunner) {
  const int n = 4;
  net::SyncNetwork net(n, 1);
  net::FaultPlan plan;
  plan.crashes.push_back({/*party=*/1, /*from=*/2, net::kNoRecovery});
  net.set_fault_plan(plan);
  for (int i = 0; i < n; ++i) {
    net.set_honest(i, [](net::PartyContext& ctx) {
      auto scope = ctx.phase("work");
      for (int r = 0; r < 6; ++r) {
        ctx.send_all(Bytes(1, 0));
        ctx.advance();
      }
    });
  }
  const net::RunReport report = net.run_report(/*max_rounds=*/20);
  EXPECT_EQ(report.outcomes[1].outcome, net::Outcome::kCrashed);
  EXPECT_EQ(report.outcomes[1].phase, "work");
  EXPECT_EQ(report.outcomes[0].outcome, net::Outcome::kDecided);
}

TEST(ObsDegradation, CampaignJsonReportsOutcomePhases) {
  adv::DegradationConfig cfg;
  cfg.n = 4;
  cfg.ell = 16;
  cfg.f_max = 1;
  cfg.protocols = {"BAPlus"};
  const adv::DegradationReport report = adv::run_degradation_campaign(cfg);
  const std::string json = adv::degradation_json(report);
  EXPECT_NE(json.find("\"outcome_phases\""), std::string::npos);
  // The crash-stop cell at f = 1 kills party 0 inside the protocol; its
  // row must attribute the Crashed outcome to a concrete phase.
  bool saw_crash_phase = false;
  for (const adv::DegradationRow& row : report.rows) {
    if (row.kind != adv::FaultKind::kCrashStop) continue;
    for (const auto& [key, count] : row.outcome_phases) {
      if (key.rfind("Crashed@", 0) == 0 && key != "Crashed@(none)") {
        saw_crash_phase = true;
      }
    }
  }
  EXPECT_TRUE(saw_crash_phase);
}

}  // namespace
}  // namespace coca
