// The adversary-search subsystem itself: every target executes cleanly on a
// correct build, executions replay bit-for-bit (same seed -> same transcript
// -> same verdict) across thread schedules, corpus entries round-trip
// through JSON, and the shrink loop minimizes against a predicate. Under
// -DCOCA_CANARY_BUG=ON the same search must catch and shrink the planted
// FindPrefix off-by-one within a small fixed budget.
#include "adversary/fuzzer.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace coca::adv {
namespace {

FuzzCase small_case(const std::string& protocol, std::uint64_t seed) {
  FuzzCase c;
  c.protocol = protocol;
  c.n = 4;
  c.t = 1;
  c.ell = 8;
  c.input_seed = seed * 31 + 7;
  c.corrupted = {1};
  c.mutation.seed = seed;
  return c;
}

TEST(Fuzzer, EveryKnownProtocolExecutes) {
  ASSERT_EQ(known_protocols().size(), 8u);
  for (const auto& protocol : known_protocols()) {
    const FuzzOutcome out = execute_case(small_case(protocol, 11));
#ifdef COCA_CANARY_BUG
    // FindPrefix-based targets crash on the planted bug; the oracle must
    // report it. Targets that never call FindPrefix stay clean.
    const bool uses_find_prefix = protocol == std::string("FindPrefix") ||
                                  protocol == std::string("FixedLengthCA") ||
                                  protocol == std::string("PiN") ||
                                  protocol == std::string("PiZ");
    EXPECT_EQ(out.verdict.ok(), !uses_find_prefix) << protocol;
#else
    EXPECT_TRUE(out.terminated) << protocol << ": " << out.failure;
    EXPECT_TRUE(out.verdict.ok())
        << protocol << ": " << (out.verdict.violations.empty()
                                    ? ""
                                    : out.verdict.violations.front());
#endif
  }
}

TEST(Fuzzer, RejectsMalformedCases) {
  FuzzCase c = small_case("PiZ", 1);
  c.protocol = "NoSuchProtocol";
  EXPECT_THROW((void)execute_case(c), Error);
  c = small_case("PiZ", 1);
  c.corrupted = {0, 1};  // more than t
  EXPECT_THROW((void)execute_case(c), Error);
  c = small_case("PiZ", 1);
  c.corrupted = {4};  // out of range
  EXPECT_THROW((void)execute_case(c), Error);
  c = small_case("PiZ", 1);
  c.t = 2;  // 3t >= n
  EXPECT_THROW((void)execute_case(c), Error);
  c = small_case("PiZ", 1);
  c.threads = 2;  // the thread window is gone
  EXPECT_THROW((void)execute_case(c), Error);
}

// Same case, same transcript, same verdict -- twice in a row. This is the
// property that makes the corpus replayable at all.
TEST(Fuzzer, ReplayIsDeterministicAcrossSchedules) {
  for (const auto& protocol : {"PiZ", "BAPlus", "FixedLengthCA"}) {
    FuzzCase c = small_case(protocol, 99);
    c.mutation.weights = {4, 4, 4, 4, 4, 4, 4, 2, 4};  // mutate aggressively
    net::Transcript first, second;
    const FuzzOutcome a = execute_case(c, &first);
    const FuzzOutcome b = execute_case(c, &second);
    EXPECT_EQ(first, second) << protocol;
    EXPECT_EQ(a.verdict.violations, b.verdict.violations) << protocol;
    EXPECT_EQ(a.stats.honest_bytes, b.stats.honest_bytes) << protocol;
    EXPECT_EQ(a.stats.rounds, b.stats.rounds) << protocol;
  }
}

TEST(Fuzzer, JsonRoundTripsExactly) {
  CorpusEntry entry;
  entry.c.protocol = "FindPrefix";
  entry.c.n = 7;
  entry.c.t = 2;
  entry.c.ell = 33;
  entry.c.input_seed = ~std::uint64_t{0};  // max: exercises overflow guard
  entry.c.threads = 1;
  entry.c.corrupted = {2, 5};
  entry.c.mutation.seed = 123456789;
  entry.c.mutation.max_delay = 2;
  entry.c.mutation.weights = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  entry.violations = {"crash: quoted \"text\"\nwith newline\tand tab"};
  entry.note = "backslash \\ and \x01 control byte";
  const CorpusEntry parsed = corpus_entry_from_json(to_json(entry));
  EXPECT_EQ(parsed, entry);
}

TEST(Fuzzer, JsonParserIsStrict) {
  CorpusEntry good;
  good.c = small_case("PiZ", 5);
  const std::string json = to_json(good);
  EXPECT_EQ(corpus_entry_from_json(json), good);
  EXPECT_THROW((void)corpus_entry_from_json(json + "x"), Error);  // trailing
  EXPECT_THROW((void)corpus_entry_from_json("{}"), Error);  // missing schema
  std::string wrong_schema = json;
  wrong_schema.replace(wrong_schema.find("coca-fuzz-v1"), 12, "coca-fuzz-v9");
  EXPECT_THROW((void)corpus_entry_from_json(wrong_schema), Error);
  std::string unknown_key = json;
  unknown_key.replace(unknown_key.find("\"note\""), 6, "\"xyzw\"");
  EXPECT_THROW((void)corpus_entry_from_json(unknown_key), Error);
  // A case that parses but fails validation (t out of range).
  std::string bad_t = json;
  bad_t.replace(bad_t.find("\"t\": 1"), 6, "\"t\": 3");
  EXPECT_THROW((void)corpus_entry_from_json(bad_t), Error);
}

// The shrink loop is a pure search procedure: drive it with a synthetic
// predicate (no protocol execution) and check it reaches the fixpoint.
TEST(Fuzzer, ShrinkMinimizesAgainstPredicate) {
  FuzzCase big;
  big.protocol = "PiZ";
  big.n = 7;
  big.t = 2;
  big.ell = 64;
  big.corrupted = {2, 5};
  big.mutation.seed = 17;
  big.mutation.max_delay = 4;
  // "Fails" whenever the input scale is at least 4 bits -- everything else
  // about the case is irrelevant and must shrink away.
  const auto still_fails = [](const FuzzCase& c) { return c.ell >= 4; };
  ASSERT_TRUE(still_fails(big));
  const FuzzCase minimal = shrink_case(big, still_fails, 200);
  EXPECT_TRUE(still_fails(minimal));
  EXPECT_EQ(minimal.ell, 4u);  // 4/2 = 2 no longer fails
  EXPECT_EQ(minimal.n, 4);
  EXPECT_EQ(minimal.t, 1);
  EXPECT_EQ(minimal.corrupted.size(), 1u);
  EXPECT_EQ(minimal.mutation.max_delay, 1u);
  for (const auto w : minimal.mutation.weights) EXPECT_EQ(w, 0u);
}

TEST(Fuzzer, ShrinkRespectsAttemptBudget) {
  FuzzCase big;
  big.protocol = "PiZ";
  big.n = 7;
  big.t = 2;
  big.ell = 64;
  big.corrupted = {2, 5};
  std::size_t calls = 0;
  const auto counting = [&calls](const FuzzCase&) {
    ++calls;
    return true;
  };
  (void)shrink_case(big, counting, 3);
  EXPECT_EQ(calls, 3u);
}

TEST(Fuzzer, CaseStreamIsSeedDeterministic) {
  FuzzerOptions options;
  options.seed = 31337;
  Fuzzer a(options), b(options);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next_case(), b.next_case());
  Fuzzer a2(options);
  options.seed = 31338;
  Fuzzer c(options);
  bool differed = false;
  for (int i = 0; i < 32; ++i) {
    if (!(a2.next_case() == c.next_case())) differed = true;
  }
  EXPECT_TRUE(differed);
}

TEST(Fuzzer, CaseStreamCoversSearchSpace) {
  FuzzerOptions options;
  options.seed = 7;
  options.sizes = {4, 7};
  Fuzzer fuzzer(options);
  std::set<std::string> protocols;
  std::set<int> sizes;
  std::set<std::size_t> ells;
  for (int i = 0; i < 64; ++i) {
    const FuzzCase c = fuzzer.next_case();
    protocols.insert(c.protocol);
    sizes.insert(c.n);
    ells.insert(c.ell);
    EXPECT_GE(c.corrupted.size(), 1u);
    EXPECT_LE(c.corrupted.size(), static_cast<std::size_t>(c.t));
  }
  EXPECT_EQ(protocols.size(), known_protocols().size());
  EXPECT_EQ(sizes.size(), 2u);
  EXPECT_GE(ells.size(), 3u);
}

#ifdef COCA_CANARY_BUG
// Mutation-testing of the search itself: with the planted FindPrefix
// off-by-one compiled in, a small fixed budget must surface a violation and
// shrink it to the minimal configuration.
TEST(Fuzzer, CatchesAndShrinksTheCanaryBug) {
  FuzzerOptions options;
  options.seed = 20260807;
  options.protocols = {"FindPrefix"};
  options.max_cases = 8;
  options.budget_sec = 300.0;  // iteration-bounded, not time-bounded
  Fuzzer fuzzer(options);
  const FuzzReport report = fuzzer.run();
  ASSERT_FALSE(report.violations.empty());
  const CorpusEntry& entry = report.violations.front();
  EXPECT_EQ(entry.c.n, 4);
  EXPECT_EQ(entry.c.corrupted.size(), 1u);
  ASSERT_FALSE(entry.violations.empty());
  // The minimized case still fails, deterministically.
  EXPECT_FALSE(execute_case(entry.c).verdict.ok());
}
#else
// On a correct build the same budget reports a clean sweep across every
// target -- the fuzzer's false-positive rate on 24 cases is zero.
TEST(Fuzzer, SweepIsCleanOnCorrectBuild) {
  FuzzerOptions options;
  options.seed = 20260807;
  options.max_cases = 24;
  options.budget_sec = 300.0;  // iteration-bounded, not time-bounded
  Fuzzer fuzzer(options);
  const FuzzReport report = fuzzer.run();
  EXPECT_EQ(report.executed, 24u);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.cases_by_protocol.size(), known_protocols().size());
}
#endif

}  // namespace
}  // namespace coca::adv
