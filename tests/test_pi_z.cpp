// Pi_Z (Corollary 1): sign handling on top of Pi_N, plus whole-protocol
// checks through the public ConvexAgreement facade.
#include "ca/pi_z.h"

#include <gtest/gtest.h>

#include "ca/driver.h"
#include "tests/support.h"
#include "util/rng.h"

namespace coca::ca {
namespace {

using test::max_t;

class PiZSigns : public ::testing::TestWithParam<int> {};

TEST_P(PiZSigns, AllNegative) {
  const int n = GetParam();
  const ConvexAgreement proto;
  SimConfig cfg;
  cfg.n = n;
  cfg.t = max_t(n);
  Rng rng(static_cast<std::uint64_t>(n));
  for (int i = 0; i < n; ++i) {
    cfg.inputs.push_back(BigInt(-1000 - static_cast<std::int64_t>(rng.below(50))));
  }
  const SimResult r = run_simulation(proto, cfg);
  EXPECT_TRUE(r.agreement());
  EXPECT_TRUE(r.convex_validity(cfg.inputs));
  for (const auto& out : r.outputs) {
    if (out) {
      EXPECT_TRUE(out->negative());
    }
  }
}

TEST_P(PiZSigns, MixedSignsIncludeZeroInHull) {
  const int n = GetParam();
  const ConvexAgreement proto;
  SimConfig cfg;
  cfg.n = n;
  cfg.t = max_t(n);
  for (int i = 0; i < n; ++i) {
    cfg.inputs.push_back(BigInt(i % 2 ? 50 + i : -50 - i));
  }
  const SimResult r = run_simulation(proto, cfg);
  EXPECT_TRUE(r.agreement());
  EXPECT_TRUE(r.convex_validity(cfg.inputs));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PiZSigns, ::testing::Values(4, 7, 10, 13));

TEST(PiZ, SignAgreementIsSomeHonestSign) {
  // If every honest party is negative, byzantine parties cannot force a
  // non-negative output.
  const ConvexAgreement proto;
  SimConfig cfg;
  cfg.n = 7;
  cfg.t = 2;
  cfg.inputs = {BigInt(-10), BigInt(-20), BigInt(-30), BigInt(-40),
                BigInt(-50), BigInt(0),   BigInt(0)};
  cfg.corruptions = {{5, adv::Kind::kOnes}, {6, adv::Kind::kExtremeHigh}};
  cfg.extreme_high = BigInt(1'000'000);
  const SimResult r = run_simulation(proto, cfg);
  EXPECT_TRUE(r.agreement());
  for (const auto& out : r.outputs) {
    if (out) {
      EXPECT_TRUE(out->negative());
      EXPECT_GE(*out, BigInt(-50));
      EXPECT_LE(*out, BigInt(-10));
    }
  }
}

TEST(PiZ, ZeroBoundaryBothSigns) {
  // Honest inputs straddle zero narrowly.
  const ConvexAgreement proto;
  SimConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.inputs = {BigInt(-1), BigInt(1), BigInt(0), BigInt(-1)};
  const SimResult r = run_simulation(proto, cfg);
  EXPECT_TRUE(r.agreement());
  EXPECT_TRUE(r.convex_validity(cfg.inputs));
}

TEST(PiZ, HugeNegativeMagnitudes) {
  const ConvexAgreement proto;
  SimConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  const BigInt base(BigNat::pow2(500), true);
  cfg.inputs = {base, base + BigInt(3), base + BigInt(9), base - BigInt(4)};
  const SimResult r = run_simulation(proto, cfg);
  EXPECT_TRUE(r.agreement());
  EXPECT_TRUE(r.convex_validity(cfg.inputs));
}

TEST(PiZ, CommunicationLinearInEll) {
  // Theorem-level shape check at small scale: doubling the input length
  // roughly doubles honest communication once l dominates.
  const ConvexAgreement proto;
  const auto bytes_at = [&](std::size_t bits) {
    SimConfig cfg;
    cfg.n = 4;
    cfg.t = 1;
    Rng rng(bits);
    const BigNat base = BigNat::pow2(bits - 1);
    for (int i = 0; i < 4; ++i) {
      cfg.inputs.push_back(BigInt(base + rng.nat_below_pow2(bits - 2), false));
    }
    return run_simulation(proto, cfg).stats.honest_bytes;
  };
  const auto b1 = bytes_at(1 << 14);
  const auto b2 = bytes_at(1 << 15);
  const double ratio = static_cast<double>(b2) / static_cast<double>(b1);
  EXPECT_GT(ratio, 1.4);
  EXPECT_LT(ratio, 2.6);
}

TEST(PiZ, PinnedGarbageConfigN13) {
  // A pinned whole-protocol run with its exact meters: n = 13 with t = 4
  // kGarbage byzantines at parties 1, 4, 7 and 10, honest inputs of exactly
  // 2^14 bits from seed 18384. The meters are the ones EXPERIMENTS.md
  // ("Perf") records for this configuration since the seed build.
  const ConvexAgreement proto;
  constexpr std::size_t kBits = std::size_t{1} << 14;
  SimConfig cfg;
  cfg.n = 13;
  cfg.t = 4;
  Rng rng(2000 + kBits);
  for (int i = 0; i < cfg.n; ++i) {
    cfg.inputs.emplace_back(
        BigNat::pow2(kBits - 1) + rng.nat_below_pow2(kBits - 1), false);
  }
  for (const int id : {1, 4, 7, 10}) {
    cfg.corruptions.push_back({id, adv::Kind::kGarbage});
  }
  cfg.extreme_low = BigInt(0);
  cfg.extreme_high = BigInt(BigNat::pow2(24), false);
  const SimResult r = run_simulation(proto, cfg);
  EXPECT_TRUE(r.agreement());
  EXPECT_TRUE(r.convex_validity(cfg.inputs));
  EXPECT_EQ(r.stats.honest_bits(), 1044472u);
  EXPECT_EQ(r.stats.rounds, 618u);
}

}  // namespace
}  // namespace coca::ca
