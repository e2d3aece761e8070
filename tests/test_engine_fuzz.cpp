// Cross-instance isolation under the sharded engine: the fuzz target.
//
// One instance (the victim) carries a byzantine mutator SendTap -- and in
// some draws an environment FaultPlan on top -- while honest neighbor
// instances run the same protocol shape beside it on shared workers.
// engine::check_isolation asserts the blast radius is exactly one lane:
// every neighbor's transcript, RunStats, phase_breakdown, and oracle
// verdict must be bit-identical to its own solo SyncNetwork run.
//
// The checks are equality-based against solo baselines (not absolute
// verdict.ok() assertions), so this file is correct on every build: under
// -DCOCA_CANARY_BUG=ON a FindPrefix neighbor legitimately fails the oracle
// in its solo run too -- isolation means the sharded copy fails the exact
// same way.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"

namespace coca::engine {
namespace {

// Fuzzer-drawn victims: a deterministic slice of the search stream, so
// this test replays bit-for-bit while still covering every protocol via
// the round-robin draw.
TEST(EngineIsolation, FuzzerDrawnVictimsLeaveNeighborsUntouched) {
  adv::FuzzerOptions fo;
  fo.seed = 0x15014710ULL;
  fo.faults = true;  // roughly half the draws add an environment FaultPlan
  adv::Fuzzer fuzzer(fo);
  for (int draw = 0; draw < 8; ++draw) {
    adv::FuzzCase victim = fuzzer.next_case();
    victim.ell = std::min<std::size_t>(victim.ell, 16);  // keep the sweep fast
    ShardedCaseOptions opt;
    opt.instances = 4;
    opt.workers = 2;
    opt.neighbor_seed = 0xAB0DE + draw;
    SCOPED_TRACE(::testing::Message() << "draw=" << draw << " protocol="
                                      << victim.protocol << " n=" << victim.n
                                      << " faults=" << !victim.faults.empty());
    const IsolationReport report = check_isolation(victim, opt);
    EXPECT_TRUE(report.ok()) << report.violations.front();
  }
}

TEST(EngineIsolation, AggressiveSendTapVictimAcrossWorkerCounts) {
  // The most corrupting mutator mix the fuzzer uses, hammering every
  // message of the victim instance; neighbors must not move a bit,
  // regardless of how the lanes are packed onto workers.
  adv::FuzzCase victim;
  victim.protocol = "LongBAPlus";
  victim.n = 4;
  victim.t = 1;
  victim.ell = 32;
  victim.input_seed = 77;
  victim.corrupted = {2};
  victim.mutation.seed = 99;
  victim.mutation.weights = {4, 4, 4, 4, 4, 4, 4, 2, 4};
  for (const int workers : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "workers=" << workers);
    ShardedCaseOptions opt;
    opt.instances = 6;
    opt.workers = workers;
    opt.neighbor_seed = 4242;
    const IsolationReport report = check_isolation(victim, opt);
    EXPECT_TRUE(report.ok()) << report.violations.front();
  }
}

TEST(EngineIsolation, VictimVerdictMatchesSoloRun) {
  // The sharded victim itself is just another instance: its oracle verdict
  // must equal the verdict of the same case run alone.
  adv::FuzzCase victim;
  victim.protocol = "FindPrefix";
  victim.n = 4;
  victim.t = 1;
  victim.ell = 16;
  victim.input_seed = 5;
  victim.corrupted = {1};
  victim.mutation.seed = 6;
  const adv::FuzzOutcome solo = adv::execute_case(victim);
  ShardedCaseOptions opt;
  opt.instances = 4;
  opt.workers = 2;
  const IsolationReport report = check_isolation(victim, opt);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.victim.violations, solo.verdict.violations);
}

TEST(EngineIsolation, CorpusEntriesReplayShardedWithoutLeaks) {
  // Every minimized counterexample in tests/corpus/ doubles as a sharded
  // victim: whatever its own verdict is on this build, the neighbors must
  // replay bit-identically to their solo runs.
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(COCA_CORPUS_DIR)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const fs::path& path : files) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    const adv::CorpusEntry entry = adv::corpus_entry_from_json(buf.str());
    ShardedCaseOptions opt;
    opt.instances = 4;
    opt.workers = 2;
    opt.neighbor_seed = 0xC0B9u;
    const IsolationReport report = check_isolation(entry.c, opt);
    EXPECT_TRUE(report.ok()) << report.violations.front();
  }
}

}  // namespace
}  // namespace coca::engine
