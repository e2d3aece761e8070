// HighCostCA (Appendix A.4, Theorem 3): trusted intervals + king phases.
#include "ca/high_cost_ca.h"

#include <gtest/gtest.h>

#include "adversary/strategies.h"
#include "tests/support.h"
#include "util/rng.h"
#include "util/wire.h"

namespace coca::ca {
namespace {

using test::all_agree;
using test::max_t;
using test::run_parties;

::testing::AssertionResult in_range(
    const std::vector<std::optional<BigNat>>& outputs,
    const std::vector<BigNat>& inputs_by_id) {
  std::optional<BigNat> lo, hi;
  for (std::size_t id = 0; id < outputs.size(); ++id) {
    if (!outputs[id]) continue;
    const BigNat& in = inputs_by_id[id];
    if (!lo || in < *lo) lo = in;
    if (!hi || in > *hi) hi = in;
  }
  for (const auto& out : outputs) {
    if (out && (*out < *lo || *out > *hi)) {
      return ::testing::AssertionFailure()
             << "output " << out->to_decimal() << " outside ["
             << lo->to_decimal() << ", " << hi->to_decimal() << "]";
    }
  }
  return ::testing::AssertionSuccess();
}

class HighCostSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HighCostSweep, AgreementAndValidityRandomInputs) {
  const auto [n, seed] = GetParam();
  const int t = max_t(n);
  const HighCostCA ca;
  Rng rng(static_cast<std::uint64_t>(seed) * 1000 + n);
  std::vector<BigNat> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(BigNat(rng.below(1000)));
  auto run = run_parties<BigNat>(n, t, [&](net::PartyContext& ctx, int id) {
    return ca.run(ctx, inputs[static_cast<std::size_t>(id)]);
  });
  EXPECT_TRUE(all_agree(run.outputs));
  EXPECT_TRUE(in_range(run.outputs, inputs));
}

TEST_P(HighCostSweep, AgreementAndValidityUnderAdversaries) {
  const auto [n, seed] = GetParam();
  const int t = max_t(n);
  const HighCostCA ca;
  Rng rng(static_cast<std::uint64_t>(seed) * 77 + n);
  std::vector<BigNat> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(BigNat(500 + rng.below(100)));
  std::set<int> byz;
  for (int i = 0; i < t; ++i) byz.insert(i);  // corrupt the first t kings
  auto run = run_parties<BigNat>(
      n, t,
      [&](net::PartyContext& ctx, int id) {
        return ca.run(ctx, inputs[static_cast<std::size_t>(id)]);
      },
      byz, [&](int id) -> std::shared_ptr<net::ByzantineStrategy> {
        switch (id % 3) {
          case 0:
            return std::make_shared<adv::Garbage>();
          case 1:
            return std::make_shared<adv::Replay>();
          default:
            return std::make_shared<adv::Silent>();
        }
      });
  EXPECT_TRUE(all_agree(run.outputs));
  EXPECT_TRUE(in_range(run.outputs, inputs));
}

INSTANTIATE_TEST_SUITE_P(Sizes, HighCostSweep,
                         ::testing::Combine(::testing::Values(4, 7, 10, 13),
                                            ::testing::Values(1, 2, 3)));

TEST(HighCostCA, IdenticalInputsStayPut) {
  const int n = 7;
  const HighCostCA ca;
  auto run = run_parties<BigNat>(n, 2, [&](net::PartyContext& ctx, int) {
    return ca.run(ctx, BigNat(42));
  });
  for (const auto& out : run.outputs) EXPECT_EQ(*out, BigNat(42));
}

TEST(HighCostCA, ByzantineExtremesCannotDragOutput) {
  // t parties report values far outside the honest cluster; the trusted
  // intervals must exclude them.
  const int n = 10;
  const int t = 3;
  const HighCostCA ca;
  std::vector<BigNat> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(BigNat(1000 + i));
  class Extremist final : public net::ByzantineStrategy {
   public:
    void on_round(const net::RoundView& view,
                  const std::function<void(int, Bytes)>& send) override {
      Writer w;
      w.bignat(BigNat::pow2(400));  // enormous value, every round
      const Bytes payload = std::move(w).take();
      for (int to = 0; to < view.n; ++to) send(to, payload);
    }
  };
  auto run = run_parties<BigNat>(
      n, t,
      [&](net::PartyContext& ctx, int id) {
        return ca.run(ctx, inputs[static_cast<std::size_t>(id)]);
      },
      {7, 8, 9}, [](int) { return std::make_shared<Extremist>(); });
  EXPECT_TRUE(all_agree(run.outputs));
  for (const auto& out : run.outputs) {
    if (out) {
      EXPECT_GE(*out, BigNat(1000));
      EXPECT_LE(*out, BigNat(1006));  // honest ids 0..6
    }
  }
}

TEST(HighCostCA, BigValuesWork) {
  const int n = 4;
  const HighCostCA ca;
  const BigNat base = BigNat::pow2(300);
  std::vector<BigNat> inputs{base, base + BigNat(5), base + BigNat(2),
                             base + BigNat(9)};
  auto run = run_parties<BigNat>(n, 1, [&](net::PartyContext& ctx, int id) {
    return ca.run(ctx, inputs[static_cast<std::size_t>(id)]);
  });
  EXPECT_TRUE(all_agree(run.outputs));
  EXPECT_GE(*run.outputs[0], base);
  EXPECT_LE(*run.outputs[0], base + BigNat(9));
}

TEST(HighCostCA, RoundsLinearInT) {
  const HighCostCA ca;
  const auto rounds_for = [&](int n, int t) {
    auto run = run_parties<BigNat>(n, t, [&](net::PartyContext& ctx, int id) {
      return ca.run(ctx, BigNat(static_cast<std::uint64_t>(id)));
    });
    return run.stats.rounds;
  };
  // Setup (2 rounds) + 4 rounds per king phase.
  EXPECT_EQ(rounds_for(4, 1), 2u + 4u * 2u);
  EXPECT_EQ(rounds_for(7, 2), 2u + 4u * 3u);
  EXPECT_EQ(rounds_for(10, 3), 2u + 4u * 4u);
}

TEST(HighCostCA, CommunicationCubicInN) {
  const HighCostCA ca;
  const auto bytes_for = [&](int n) {
    auto run = run_parties<BigNat>(
        n, max_t(n), [&](net::PartyContext& ctx, int id) {
          return ca.run(ctx, BigNat(100 + static_cast<std::uint64_t>(id)));
        });
    return run.stats.honest_bytes;
  };
  // Doubling n with t ~ n/3 should scale bytes by roughly 2^3 = 8 (within
  // generous slack: message framing adds lower-order terms).
  const double ratio =
      static_cast<double>(bytes_for(16)) / static_cast<double>(bytes_for(8));
  EXPECT_GT(ratio, 5.0);
  EXPECT_LT(ratio, 12.0);
}

// A padding bit is no part of a natural. Party 3 runs honest code but sets
// the lowest padding bit of every natural it sends whose bit count is not a
// multiple of 8, and party 2 is silent. The two honest parties hold one
// value, so in each king phase their CURRENT reaches n - t = 3 only with
// party 3's dirty copy counted as the same natural. The honest parties'
// traffic and outputs must be those of the run with clean padding.
TEST(HighCostCA, DirtyPaddingIsTheSameNatural) {
  class DirtyPadding final : public net::SendTap {
   public:
    void on_send(std::size_t, int to, net::Payload payload,
                 const Emit& emit) override {
      Bytes raw = std::move(payload).detach();
      Reader r(raw);
      while (const auto v = r.bignat_view()) {
        if (v->bits % 8 == 0) continue;
        const auto last = v->packed.data() + v->packed.size() - 1 - raw.data();
        raw[static_cast<std::size_t>(last)] |= 1;
      }
      emit(to, net::Payload(std::move(raw)));
    }
  };
  const HighCostCA ca;
  const BigNat value(5);  // three bits: five padding bits
  struct Run {
    net::Transcript transcript;
    std::vector<std::optional<BigNat>> outputs =
        std::vector<std::optional<BigNat>>(2);
  };
  const auto run = [&](bool dirty) {
    Run out;
    net::SyncNetwork net(4, 1);
    net.set_transcript(&out.transcript);
    for (const int id : {0, 1}) {
      net.set_honest(id, [&, id](net::PartyContext& ctx) {
        out.outputs[static_cast<std::size_t>(id)] = ca.run(ctx, value);
      });
    }
    net.set_byzantine(2, std::make_shared<adv::Silent>());
    net.set_byzantine_protocol(
        3, [&](net::PartyContext& ctx) { (void)ca.run(ctx, value); },
        dirty ? std::make_shared<DirtyPadding>() : nullptr);
    (void)net.run();
    return out;
  };
  const auto honest_traffic = [](const net::Transcript& transcript) {
    std::vector<std::tuple<std::size_t, int, int, Bytes>> sent;
    for (std::size_t r = 0; r < transcript.rounds.size(); ++r) {
      for (const auto& m : transcript.rounds[r].messages) {
        if (m.from < 2) sent.emplace_back(r, m.from, m.to, m.payload.owned());
      }
    }
    return sent;
  };
  const Run clean = run(false);
  const Run dirty = run(true);
  ASSERT_NE(dirty.transcript, clean.transcript);  // the padding did change
  EXPECT_EQ(honest_traffic(dirty.transcript), honest_traffic(clean.transcript));
  EXPECT_EQ(dirty.outputs, clean.outputs);
  for (const auto& out : clean.outputs) EXPECT_EQ(out, value);
}

}  // namespace
}  // namespace coca::ca
