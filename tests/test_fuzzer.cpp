// The adversary-search subsystem itself: every target executes cleanly on a
// correct build, executions replay bit-for-bit (same seed -> same transcript
// -> same verdict) across thread schedules, corpus entries round-trip
// through JSON, and the shrink loop minimizes against a predicate. Under
// -DCOCA_CANARY_BUG=ON the same search must catch and shrink the planted
// FindPrefix off-by-one within a small fixed budget.
#include "adversary/fuzzer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "crypto/sha256.h"

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
    // A fault-free case reports per-party outcomes like any other: the
    // corrupted party runs honest code behind its tap and decides too.
    ASSERT_EQ(out.outcomes.size(), 4u) << protocol;
    for (const net::PartyOutcome& o : out.outcomes) {
      EXPECT_EQ(o.outcome, net::Outcome::kDecided) << protocol;
    }
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

#ifndef COCA_CANARY_BUG
// SHA-256 over a whole transcript: per message its round, from, to, payload
// length and bytes, and per round the honest bytes staged; integers as u64
// little-endian. Returned as lowercase hex.
std::string transcript_digest(const net::Transcript& transcript) {
  crypto::Sha256 h;
  const auto put = [&h](std::uint64_t v) {
    std::uint8_t le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    h.update(std::span<const std::uint8_t>(le, 8));
  };
  for (std::size_t r = 0; r < transcript.rounds.size(); ++r) {
    const net::Transcript::Round& round = transcript.rounds[r];
    for (const net::Transcript::Msg& m : round.messages) {
      put(r);
      put(static_cast<std::uint64_t>(m.from));
      put(static_cast<std::uint64_t>(m.to));
      put(m.payload.size());
      h.update(m.payload.span());
    }
    put(round.honest_bytes);
  }
  std::string hex;
  for (const std::uint8_t b : h.finish()) {
    char buf[3];
    std::snprintf(buf, sizeof buf, "%02x", b);
    hex += buf;
  }
  return hex;
}

// Transcripts pinned across commits: every target at n = 4 and 7, fault-free
// and under two seeded Mutator streams with the default operator weights
// (bit flips included). A refactor that claims byte identity must leave
// every digest unchanged; the corpus replay and engine-equivalence suites
// only compare runs within one build. The digests are those of a correct
// build, so a canary build (planted FindPrefix bug) does not compile this.
TEST(Fuzzer, TranscriptDigestsArePinned) {
  struct Pin {
    const char* protocol;
    int n;
    std::uint64_t mutation_seed;  // 0 = fault-free
    const char* digest;
  };
  static const Pin kPins[] = {
      {"FixedLengthCA", 4, 0, "d2382b5e39f17a82d043cdb37a5d985eb039757523e6c23f421966f0504d5cf3"},
      {"FixedLengthCA", 4, 1, "98d73b3f73685203389719c4bfdb7b392174d35db8b5854678439393d4bb47cf"},
      {"FixedLengthCA", 4, 2, "e732d6be818115430fd0c9465e748f11c6be48604a50886cd62793c4ce8ca345"},
      {"FixedLengthCA", 7, 0, "94b129a7a28ed3689d197515dcdbd60439de1256af6c05abf4dddae32000d738"},
      {"FixedLengthCA", 7, 1, "765fd96219f3d4ac5e1bb3e32083a665277d55ae05e194acd3ae308cb10cdd20"},
      {"FixedLengthCA", 7, 2, "284b3a5518a5d66d23e0b05e581489fdfbfb39300083361c8473af3d5c96120e"},
      {"FindPrefix", 4, 0, "2fc110c7f9a33cd13fe11f99afd472f877c6fdcd03b454e71c1826901c18ce11"},
      {"FindPrefix", 4, 1, "57f2a245c15ae95ab12f2053523195304be245c739ef84e4b97912065c2312c0"},
      {"FindPrefix", 4, 2, "4a919da671d3abcc80052ea48a83b01d7e0ac4a2596f2e5d05bedf90f141ae64"},
      {"FindPrefix", 7, 0, "69425f4e39e89ca2f2b7e4f18e5b0aa8b558cadcc0c5a890ccfc5222c736108f"},
      {"FindPrefix", 7, 1, "6a5cab795364586b8d84b312c4b05f88d303f606059feb3241747a767b4b5c6f"},
      {"FindPrefix", 7, 2, "7d652b3a06549042febe981c9f8da10dc30f9f4c223b3de8aeae7210eb656ab1"},
      {"BAPlus", 4, 0, "3ae8b14069c33e2d45f6449e2e0dfe4469c700657af88e3dfa164069396a3724"},
      {"BAPlus", 4, 1, "c451b4853fc1af06bcd1eb8222adab60decdb5e175c42e41686d12770c498981"},
      {"BAPlus", 4, 2, "6f976cc8bb3274fff49064e894fb219ea28f017c5f1127f491598fd6fee17a94"},
      {"BAPlus", 7, 0, "31ca7796912235d6e7f7a037659d13c95af310d68544f5e6e1e218eaf0c79d3a"},
      {"BAPlus", 7, 1, "0b0b06344f625ff0b1312fe58d83ed784c3192a12d289d3c4a315d7eca7a15ac"},
      {"BAPlus", 7, 2, "f616de98202f6059b8445619f810f251f5e207ae42442b14878bcf17bdbfd5bc"},
      {"LongBAPlus", 4, 0, "b20a70dc2ef8285aaeea3bf51428e1f224090e0920476ef7ee4c664e52d8db71"},
      {"LongBAPlus", 4, 1, "a4cbd39ab1d1801c74aa6767455c6daeadb1433083612db42a9ef7628c4374a9"},
      {"LongBAPlus", 4, 2, "b7aabe1a0dfbb4c8100fe62ce71b338af2db421b3b16e50d1fdab8c658a6fb5f"},
      {"LongBAPlus", 7, 0, "be291b99e925ffb540ab3618de69d39b1e1e3e3df28da3ca5f2bbd6c5b399723"},
      {"LongBAPlus", 7, 1, "309e4aab8b6e9a6e49006133a4d7272b081d84973c5615789c64ac3f3ebd3d55"},
      {"LongBAPlus", 7, 2, "8b67a0bd381c9e465239ecdfaa65b7c5eb7c6fb5eaf9592b7c62deadfead87af"},
      {"PiN", 4, 0, "4fac834091df79c2a4b3bbdc03fa3448b81334811c1365b9cf22eded6bb7ff05"},
      {"PiN", 4, 1, "3c1316c03f392887f5750c30d574117743db5886875800d066f7fb1aac65541e"},
      {"PiN", 4, 2, "f9722ab4faaeda8dd173d5609113413fa9dffdd2a1b12e3e1143ddf9f57111b6"},
      {"PiN", 7, 0, "c1c927c8b9c9f41dc83c331d12aaabbd6ea6ce161173669256ebe111e323c4e2"},
      {"PiN", 7, 1, "002c0fb2fb47172b0057efb98b1e0f9e5105bfbc518d5d9c2b0567fd84bc5712"},
      {"PiN", 7, 2, "f6add3df4f59bdacf3edf4e5236ea79c17deba87729038ce29b1cd4e69091793"},
      {"PiZ", 4, 0, "5eca8e6d4ed4d9f54dea5fe18ba17af46f3a86f0ea3abf57300f4a20d4a9944c"},
      {"PiZ", 4, 1, "bff86255dd0370da29b16e27c6bd201a5ecedfac3458fc62f562282fce3950a5"},
      {"PiZ", 4, 2, "d58054eaa2ee9a21ac428c70aca028c16af8e0ecfb4688fff82b09ecc3e97cf9"},
      {"PiZ", 7, 0, "0d1567c560735451c837722ff01687c13f6e1899bd4731252fdef803bc113601"},
      {"PiZ", 7, 1, "b462db0b71acc54ea51bbca3db1c05091e0ad64be69fe093d6b8584372d83091"},
      {"PiZ", 7, 2, "c6751f66e3633af622bdd10973ce8bfbd4946ebb96757dfc7a7f82ce3925890f"},
      {"HighCostCA", 4, 0, "e0d0c642d40d577064910dd2637a7c55a59b2f3c29336112eb0c5567bbc2a19d"},
      {"HighCostCA", 4, 1, "fd06c45400dcfe67960479ad7d67f4548645ea1030818e3216d64a434d0df49e"},
      {"HighCostCA", 4, 2, "46dda0d1187895198b72ebc9669de3171a6ea48b906cc43bd8a8145b27711e40"},
      {"HighCostCA", 7, 0, "3cd98030a808cd9b87f6577e34ffd748ca3db73a9cedadac1772d3b146ff7063"},
      {"HighCostCA", 7, 1, "249c784bd441e9586070c790b88b0b36b818622e6288c10e3d358507bd3ecc6a"},
      {"HighCostCA", 7, 2, "15522be1bd569c5d8ca80959afd55245fd4c04d9a2e3bef58dc3cc92f1947c89"},
      {"BroadcastTrimCA", 4, 0, "02a7f998aa6d1f52f1416be73a883f39aa1e8792b72a627a90d8b874e253ffa4"},
      {"BroadcastTrimCA", 4, 1, "af8cff3403d3e3f977010abb01ba905ba968108b7e763cb7f70ebc7fdbb22f41"},
      {"BroadcastTrimCA", 4, 2, "1cdf747f91a8c7232106d07c850c09d87742951be331f075a0899417de3b26fd"},
      {"BroadcastTrimCA", 7, 0, "d508877cf69846ad022602201a1c2d86ca5848b75ef92fb8c4abec57d1b7567d"},
      {"BroadcastTrimCA", 7, 1, "e081385448811be8afb1ec4b262db57eb34c8e98bbb8151534df03294c18545e"},
      {"BroadcastTrimCA", 7, 2, "603a36ecfbe7cba03da94c833defa4803dfcfe670acf59dd1afebbf436c2a849"},
  };
  std::size_t checked = 0;
  for (const auto& protocol : known_protocols()) {
    for (const int n : {4, 7}) {
      for (const std::uint64_t seed : {0, 1, 2}) {
        FuzzCase c;
        c.protocol = protocol;
        c.n = n;
        c.t = (n - 1) / 3;
        c.ell = 24;
        c.input_seed = 1000 + static_cast<std::uint64_t>(n);
        if (seed != 0) {
          c.corrupted = n == 4 ? std::vector<int>{1} : std::vector<int>{1, 5};
          c.mutation.seed = seed;
        }
        net::Transcript transcript;
        (void)execute_case(c, &transcript);
        const std::string digest = transcript_digest(transcript);
        const Pin* pin = nullptr;
        for (const Pin& p : kPins) {
          if (protocol == p.protocol && n == p.n && seed == p.mutation_seed) {
            pin = &p;
          }
        }
        if (pin == nullptr) {
          ADD_FAILURE() << "unpinned: {\"" << protocol << "\", " << n << ", "
                        << seed << ", \"" << digest << "\"},";
          continue;
        }
        EXPECT_EQ(digest, pin->digest) << protocol << " n=" << n
                                       << " mutation seed=" << seed;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kPins));
}
#endif

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
