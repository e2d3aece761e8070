// Turpin-Coan multivalued-from-binary reduction.
#include "ba/turpin_coan.h"

#include <gtest/gtest.h>

#include "adversary/strategies.h"
#include "ba/phase_king.h"
#include "tests/support.h"

namespace coca::ba {
namespace {

using test::all_agree;
using test::max_t;
using test::run_parties;

class TurpinCoanSweep : public ::testing::TestWithParam<int> {};

TEST_P(TurpinCoanSweep, ValidityAllSame) {
  const int n = GetParam();
  const int t = max_t(n);
  const PhaseKingBinary bin;
  const TurpinCoan tc(bin);
  const MaybeBytes input = Bytes(32, 0x7C);  // kappa-bit style value
  auto run = run_parties<MaybeBytes>(
      n, t, [&](net::PartyContext& ctx, int) { return tc.run(ctx, input); });
  for (const auto& out : run.outputs) EXPECT_EQ(*out, input);
}

TEST_P(TurpinCoanSweep, ValidityUnderWorstAdversary) {
  const int n = GetParam();
  const int t = max_t(n);
  const PhaseKingBinary bin;
  const TurpinCoan tc(bin);
  const MaybeBytes input = Bytes{0x01, 0x02, 0x03};
  std::set<int> byz;
  for (int i = 0; i < t; ++i) byz.insert(i);
  auto run = run_parties<MaybeBytes>(
      n, t, [&](net::PartyContext& ctx, int) { return tc.run(ctx, input); },
      byz, [](int) { return std::make_shared<adv::Replay>(); });
  for (std::size_t id = 0; id < run.outputs.size(); ++id) {
    if (run.outputs[id]) {
      EXPECT_EQ(*run.outputs[id], input);
    }
  }
}

TEST_P(TurpinCoanSweep, AgreementDistinctInputs) {
  const int n = GetParam();
  const int t = max_t(n);
  const PhaseKingBinary bin;
  const TurpinCoan tc(bin);
  std::set<int> byz;
  for (int i = 0; i < t; ++i) byz.insert(n - 1 - i);
  auto run = run_parties<MaybeBytes>(
      n, t,
      [&](net::PartyContext& ctx, int id) {
        return tc.run(ctx, Bytes{static_cast<std::uint8_t>(id), 0x55});
      },
      byz, [](int) { return std::make_shared<adv::Garbage>(); });
  EXPECT_TRUE(all_agree(run.outputs));
}

INSTANTIATE_TEST_SUITE_P(Sizes, TurpinCoanSweep,
                         ::testing::Values(4, 7, 10, 13, 16));

TEST(TurpinCoan, IntrusionToleranceByproduct) {
  // With distinct honest inputs, the output is an honest input or bottom
  // (never an adversary-injected value), even against replay attackers.
  const int n = 10;
  const int t = 3;
  const PhaseKingBinary bin;
  const TurpinCoan tc(bin);
  std::set<int> byz{7, 8, 9};
  // Party `id` inputs the one byte {id}, so the honest inputs are exactly
  // the one-byte strings below the first byzantine id. (Checked by shape
  // rather than through a std::set<MaybeBytes>, whose inlined comparison
  // trips a GCC 12 -Wstringop-overread false positive.)
  const auto is_honest_input = [&](const Bytes& b) {
    return b.size() == 1 && b[0] < *byz.begin();
  };
  auto run = run_parties<MaybeBytes>(
      n, t,
      [&](net::PartyContext& ctx, int id) {
        return tc.run(ctx, Bytes{static_cast<std::uint8_t>(id)});
      },
      byz, [](int) { return std::make_shared<adv::Spam>(64); });
  for (const auto& out : run.outputs) {
    if (!out) continue;
    EXPECT_TRUE(!out->has_value() || is_honest_input(**out));
  }
}

TEST(TurpinCoan, BottomIsALegalDomainValue) {
  const int n = 7;
  const PhaseKingBinary bin;
  const TurpinCoan tc(bin);
  auto run = run_parties<MaybeBytes>(n, 2, [&](net::PartyContext& ctx, int) {
    return tc.run(ctx, std::nullopt);
  });
  for (const auto& out : run.outputs) EXPECT_EQ(*out, MaybeBytes{});
}

TEST(TurpinCoan, CommunicationQuadraticInN) {
  // BITS(TC) ~ 2 l n^2 + BITS_1(PhaseKing); doubling l roughly doubles the
  // value-dependent part.
  const int n = 10;
  const int t = 3;
  const PhaseKingBinary bin;
  const TurpinCoan tc(bin);
  const auto measure = [&](std::size_t len) {
    const MaybeBytes input = Bytes(len, 0x42);
    auto run = run_parties<MaybeBytes>(
        n, t, [&](net::PartyContext& ctx, int) { return tc.run(ctx, input); });
    return run.stats.honest_bytes;
  };
  const auto small = measure(1000);
  const auto large = measure(2000);
  const double ratio = static_cast<double>(large) / static_cast<double>(small);
  EXPECT_GT(ratio, 1.8);
  EXPECT_LT(ratio, 2.2);
}

}  // namespace
}  // namespace coca::ba
