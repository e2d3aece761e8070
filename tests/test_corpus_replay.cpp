// Replays every counterexample in tests/corpus/. Corpus entries record
// configurations that violated the oracle when found under the canary
// build, so the contract is two-sided: on a correct build every entry must
// PASS the oracle, and under -DCOCA_CANARY_BUG=ON every entry must still
// FAIL -- both deterministically, run after run.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/fuzzer.h"

namespace coca::adv {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpus_files() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(COCA_CORPUS_DIR)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CorpusReplay, CorpusIsSeeded) {
  EXPECT_GE(corpus_files().size(), 3u);
}

TEST(CorpusReplay, EveryEntryParsesAndSerializesBack) {
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const CorpusEntry entry = corpus_entry_from_json(slurp(path));
    EXPECT_FALSE(entry.violations.empty());  // it was stored for a reason
    EXPECT_EQ(corpus_entry_from_json(to_json(entry)), entry);
  }
}

TEST(CorpusReplay, EveryEntryReplaysToTheRecordedVerdict) {
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const CorpusEntry entry = corpus_entry_from_json(slurp(path));
    const FuzzOutcome out = execute_case(entry.c);
#ifdef COCA_CANARY_BUG
    // The bug these entries witnessed is compiled in: they must still fail.
    EXPECT_FALSE(out.verdict.ok());
#else
    // The bug is gone: the same configurations must satisfy the oracle.
    EXPECT_TRUE(out.verdict.ok())
        << (out.verdict.violations.empty() ? ""
                                           : out.verdict.violations.front());
#endif
  }
}

TEST(CorpusReplay, ReplayIsDeterministicAcrossSchedules) {
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const CorpusEntry entry = corpus_entry_from_json(slurp(path));
    net::Transcript serial1, serial2;
    const FuzzOutcome a = execute_case(entry.c, &serial1);
    const FuzzOutcome b = execute_case(entry.c, &serial2);
    EXPECT_EQ(serial1, serial2);
    EXPECT_EQ(a.verdict.violations, b.verdict.violations);
  }
}

}  // namespace
}  // namespace coca::adv
