// Round-schedule contracts.
//
// Composition of synchronous protocols relies on a strict invariant (stated
// in ba_interface.h): the number of rounds a building block advances may
// depend only on (n, t) and on *agreed* values -- never on a single party's
// private input. If one implementation ever violated this, honest parties
// would drift out of lock-step and the whole stack would deadlock or read
// the wrong rounds' messages. These tests pin the invariant for every
// building block, plus the agreed-value-dependence allowance for the
// composite protocols.
#include <gtest/gtest.h>

#include "ba/ba_plus.h"
#include "ba/long_ba_plus.h"
#include "ba/phase_king.h"
#include "ba/turpin_coan.h"
#include "ca/driver.h"
#include "ca/high_cost_ca.h"
#include "tests/support.h"
#include "util/rng.h"

namespace coca {
namespace {

using test::run_parties;

struct Fixture {
  ba::PhaseKingBinary bin;
  ba::TurpinCoan tc{bin};
  ba::BAKit kit{&bin, &tc};
};

// Runs `body` for several input assignments and asserts one round count.
template <class MakeBody>
void expect_fixed_rounds(int n, int t, const MakeBody& make_body,
                         std::size_t expected_variants = 4) {
  std::optional<std::size_t> rounds;
  for (std::size_t variant = 0; variant < expected_variants; ++variant) {
    auto run = run_parties<int>(n, t, make_body(variant));
    if (!rounds) {
      rounds = run.stats.rounds;
    } else {
      EXPECT_EQ(run.stats.rounds, *rounds) << "variant " << variant;
    }
  }
}

TEST(RoundSchedule, PhaseKingBinaryFixed) {
  const ba::PhaseKingBinary bin;
  expect_fixed_rounds(7, 2, [&](std::size_t variant) {
    return std::function<int(net::PartyContext&, int)>(
        [&bin, variant](net::PartyContext& ctx, int id) {
          const bool input = variant == 0   ? false
                             : variant == 1 ? true
                             : variant == 2 ? id % 2 == 0
                                            : id < 2;
          return static_cast<int>(bin.run(ctx, input));
        });
  });
}

TEST(RoundSchedule, PhaseKingMultivaluedFixed) {
  const ba::PhaseKingMultivalued mv;
  expect_fixed_rounds(7, 2, [&](std::size_t variant) {
    return std::function<int(net::PartyContext&, int)>(
        [&mv, variant](net::PartyContext& ctx, int id) {
          ba::MaybeBytes input;
          if (variant == 1) input = Bytes{1, 2, 3};
          if (variant == 2) input = Bytes(static_cast<std::size_t>(id) + 1, 9);
          if (variant == 3 && id % 2 == 0) input = Bytes{7};
          (void)mv.run(ctx, input);
          return 0;
        });
  });
}

TEST(RoundSchedule, TurpinCoanFixed) {
  Fixture f;
  expect_fixed_rounds(7, 2, [&](std::size_t variant) {
    return std::function<int(net::PartyContext&, int)>(
        [&f, variant](net::PartyContext& ctx, int id) {
          ba::MaybeBytes input = Bytes{static_cast<std::uint8_t>(
              variant == 0 ? 1 : variant == 1 ? id : id % 2)};
          if (variant == 3) input.reset();
          (void)f.tc.run(ctx, input);
          return 0;
        });
  });
}

TEST(RoundSchedule, BAPlusDependsOnlyOnAgreedBranch) {
  // Pi_BA+ early-exits after its a-stage when the agreed confirmation bit
  // is 1 -- an *agreed*-value dependence, which keeps parties in lock-step.
  // Re-running the same configuration must reproduce the same round count,
  // and the pre-agreed configuration must use at most as many rounds as a
  // two-camp one (which falls through to the b-stage).
  Fixture f;
  const ba::BAPlus bap(f.kit);
  const auto rounds_for = [&](bool distinct) {
    auto run = run_parties<int>(7, 2, [&](net::PartyContext& ctx, int id) {
      // distinct: no candidate survives the vote, a = b = bottom, and the
      // agreed confirmation bit is 0 twice -> both stages run.
      const Bytes input(32,
                        static_cast<std::uint8_t>(distinct ? 10 + id : 1));
      (void)bap.run(ctx, input);
      return 0;
    });
    return run.stats.rounds;
  };
  const std::size_t agreed = rounds_for(false);
  const std::size_t fallthrough = rounds_for(true);
  EXPECT_EQ(agreed, rounds_for(false));
  EXPECT_EQ(fallthrough, rounds_for(true));
  EXPECT_LT(agreed, fallthrough);
}

TEST(RoundSchedule, HighCostCAFixed) {
  const ca::HighCostCA hc;
  expect_fixed_rounds(7, 2, [&](std::size_t variant) {
    return std::function<int(net::PartyContext&, int)>(
        [&hc, variant](net::PartyContext& ctx, int id) {
          const BigNat input(variant == 0   ? 5
                             : variant == 1 ? static_cast<unsigned>(id)
                             : variant == 2 ? 1u << id
                                            : 0);
          (void)hc.run(ctx, input);
          return 0;
        });
  });
}

// Composite protocols: rounds may depend on agreed outcomes (e.g. how many
// prefix-search iterations return bottom), but must be identical whenever
// the honest input *multiset placement* is merely permuted -- agreement on
// every intermediate value forces the same control flow.
TEST(RoundSchedule, PiZPermutationInvariant) {
  const ca::ConvexAgreement proto;
  std::vector<BigInt> base{BigInt(100), BigInt(207), BigInt(399),
                           BigInt(58),  BigInt(311), BigInt(42),
                           BigInt(271)};
  std::optional<std::size_t> rounds;
  std::optional<BigInt> output;
  for (int rotation = 0; rotation < 4; ++rotation) {
    ca::SimConfig cfg;
    cfg.n = 7;
    cfg.t = 2;
    for (int i = 0; i < 7; ++i) {
      cfg.inputs.push_back(base[static_cast<std::size_t>((i + rotation) % 7)]);
    }
    const ca::SimResult r = run_simulation(proto, cfg);
    if (!rounds) {
      rounds = r.stats.rounds;
      output = *r.outputs[0];
    } else {
      EXPECT_EQ(r.stats.rounds, *rounds) << "rotation " << rotation;
      // The agreed output must also be permutation-invariant: nothing in
      // the protocol references party identity except the king order.
      EXPECT_EQ(*r.outputs[0], *output);
    }
  }
}

// Adversary independence: whatever bytes byzantine parties inject, the
// honest round count of the full protocol cannot change (they can bias
// agreed values, but every branch still advances the same sub-protocols).
TEST(RoundSchedule, PiZRoundsAdversaryIndependentOnFixedInputs) {
  const ca::ConvexAgreement proto;
  std::optional<std::size_t> clean_rounds;
  for (const adv::Kind kind : adv::kAllKinds) {
    ca::SimConfig cfg;
    cfg.n = 7;
    cfg.t = 2;
    cfg.inputs = {BigInt(1000), BigInt(1000), BigInt(1000), BigInt(1000),
                  BigInt(1000), BigInt(0),    BigInt(0)};
    cfg.corruptions = {{5, kind}, {6, kind}};
    const ca::SimResult r = run_simulation(proto, cfg);
    if (!clean_rounds) {
      clean_rounds = r.stats.rounds;
    } else {
      EXPECT_EQ(r.stats.rounds, *clean_rounds) << adv::to_string(kind);
    }
  }
}

}  // namespace
}  // namespace coca
