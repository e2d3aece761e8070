// FindPrefix / FindPrefixBlocks (Lemmas 1 and 4): the agreed PREFIX*
// prefixes every returned v, values stay inside the honest range, and the
// divergence witnesses v_bot satisfy property (ii).
#include "ca/find_prefix.h"

#include <gtest/gtest.h>

#include "adversary/strategies.h"
#include "ba/phase_king.h"
#include "ba/turpin_coan.h"
#include "tests/support.h"
#include "util/rng.h"
#include "util/wire.h"

namespace coca::ca {
namespace {

using test::max_t;
using test::run_parties;

struct Fixture {
  ba::PhaseKingBinary bin;
  ba::TurpinCoan tc{bin};
  ba::BAKit kit{&bin, &tc};
  ba::LongBAPlus lba{kit};
};

Bitstring in_range_value(Rng& rng, std::uint64_t lo, std::uint64_t hi,
                         std::size_t ell) {
  return Bitstring::from_u64(lo + rng.below(hi - lo + 1), ell);
}

// Checks Lemma 1's postconditions for honest parties with inputs `inputs`.
void check_lemma(const std::vector<std::optional<FindPrefixResult>>& outputs,
                 const std::vector<Bitstring>& inputs, std::size_t ell,
                 std::size_t unit, int t) {
  // Same prefix everywhere; whole number of units.
  const FindPrefixResult* first = nullptr;
  for (const auto& out : outputs) {
    if (!out) continue;
    if (!first) first = &*out;
    ASSERT_EQ(out->prefix, first->prefix);
    EXPECT_EQ(out->prefix.size() % unit, 0u);
    // (i) v extends the prefix and stays in the honest range.
    EXPECT_TRUE(out->v.has_prefix(out->prefix));
    EXPECT_EQ(out->v.size(), ell);
    EXPECT_EQ(out->v_bot().size(), ell);
  }
  ASSERT_NE(first, nullptr);

  // Range check: v and v_bot within [min input, max input].
  const Bitstring* lo = nullptr;
  const Bitstring* hi = nullptr;
  for (std::size_t id = 0; id < outputs.size(); ++id) {
    if (!outputs[id]) continue;
    const Bitstring& in = inputs[id];
    if (!lo || Bitstring::numeric_compare(in, *lo) ==
                   std::strong_ordering::less) {
      lo = &in;
    }
    if (!hi || Bitstring::numeric_compare(in, *hi) ==
                   std::strong_ordering::greater) {
      hi = &in;
    }
  }
  for (const auto& out : outputs) {
    if (!out) continue;
    for (const Bitstring* v : {&out->v, &out->v_bot()}) {
      EXPECT_NE(Bitstring::numeric_compare(*v, *lo),
                std::strong_ordering::less);
      EXPECT_NE(Bitstring::numeric_compare(*v, *hi),
                std::strong_ordering::greater);
    }
  }

  // (ii) If the prefix is partial, check the witness property for both
  // one-unit extensions of PREFIX*: t+1 honest v_bot diverge from each.
  if (first->prefix.size() < ell) {
    for (const bool bit : {false, true}) {
      // Build an arbitrary (unit)-extension whose first bit is `bit`.
      Bitstring ext = first->prefix;
      ext.push_back(bit);
      ext = Bitstring::min_fill(ext, first->prefix.size() + unit);
      int diverging = 0;
      for (const auto& out : outputs) {
        if (out && !out->v_bot().has_prefix(ext)) ++diverging;
      }
      EXPECT_GE(diverging, t + 1)
          << "extension " << ext.to_string() << " lacks witnesses";
    }
  }
}

class FindPrefixSweep
    : public ::testing::TestWithParam<std::tuple<int, std::size_t, int>> {};

TEST_P(FindPrefixSweep, LemmaOnePostconditions) {
  const auto [n, ell, seed] = GetParam();
  const int t = max_t(n);
  Fixture f;
  Rng rng(static_cast<std::uint64_t>(seed) * 31 + n + ell);
  std::vector<Bitstring> inputs;
  for (int i = 0; i < n; ++i) {
    inputs.push_back(in_range_value(rng, 900, 1100, ell));
  }
  auto run = run_parties<FindPrefixResult>(
      n, t, [&](net::PartyContext& ctx, int id) {
        return find_prefix(ctx, f.lba, ell,
                           inputs[static_cast<std::size_t>(id)]);
      });
  check_lemma(run.outputs, inputs, ell, 1, t);
}

TEST_P(FindPrefixSweep, LemmaOneUnderAdversary) {
  const auto [n, ell, seed] = GetParam();
  const int t = max_t(n);
  Fixture f;
  Rng rng(static_cast<std::uint64_t>(seed) * 77 + n + ell);
  std::vector<Bitstring> inputs;
  for (int i = 0; i < n; ++i) {
    inputs.push_back(in_range_value(rng, 500, 40000, ell));
  }
  std::set<int> byz;
  for (int i = 0; i < t; ++i) byz.insert(n - 1 - i);
  auto run = run_parties<FindPrefixResult>(
      n, t,
      [&](net::PartyContext& ctx, int id) {
        return find_prefix(ctx, f.lba, ell,
                           inputs[static_cast<std::size_t>(id)]);
      },
      byz,
      [&](int id) -> std::shared_ptr<net::ByzantineStrategy> {
        return id % 2 ? std::static_pointer_cast<net::ByzantineStrategy>(
                            std::make_shared<adv::Replay>())
                      : std::make_shared<adv::Garbage>();
      });
  check_lemma(run.outputs, inputs, ell, 1, t);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, FindPrefixSweep,
    ::testing::Combine(::testing::Values(4, 7, 10),
                       ::testing::Values(std::size_t{16}, std::size_t{64}),
                       ::testing::Values(1, 2)));

TEST(FindPrefix, IdenticalInputsYieldFullPrefix) {
  const int n = 7;
  Fixture f;
  const Bitstring v = Bitstring::from_u64(12345, 20);
  auto run = run_parties<FindPrefixResult>(
      n, 2, [&](net::PartyContext& ctx, int) {
        return find_prefix(ctx, f.lba, 20, v);
      });
  for (const auto& out : run.outputs) {
    EXPECT_EQ(out->prefix, v);  // Pi_lBA+ never returns bottom here
    EXPECT_EQ(out->v, v);
  }
}

TEST(FindPrefix, PrefixAtLeastCommonPrefixOfHonestInputs) {
  // Lemma 1 discussion: PREFIX* is at least as long as the honest inputs'
  // longest common prefix (byzantine parties cannot shorten it).
  const int n = 7;
  const int t = 2;
  Fixture f;
  const std::size_t ell = 32;
  // Honest inputs share the top 20 bits.
  std::vector<Bitstring> inputs;
  Rng rng(5);
  for (int i = 0; i < n; ++i) {
    Bitstring v = Bitstring::from_u64(0xABCDE, 20);
    v.append(rng.bits(12));
    inputs.push_back(v);
  }
  auto run = run_parties<FindPrefixResult>(
      n, t,
      [&](net::PartyContext& ctx, int id) {
        return find_prefix(ctx, f.lba, ell,
                           inputs[static_cast<std::size_t>(id)]);
      },
      {5, 6}, [](int) { return std::make_shared<adv::Replay>(); });
  std::size_t lcp = ell;
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) {
      lcp = std::min(lcp, Bitstring::common_prefix_len(
                              inputs[static_cast<std::size_t>(a)],
                              inputs[static_cast<std::size_t>(b)]));
    }
  }
  for (const auto& out : run.outputs) {
    if (out) {
      EXPECT_GE(out->prefix.size(), lcp);
    }
  }
}

class FindPrefixBlocksSweep : public ::testing::TestWithParam<int> {};

TEST_P(FindPrefixBlocksSweep, LemmaFourPostconditions) {
  const int n = GetParam();
  const int t = max_t(n);
  Fixture f;
  const std::size_t num_blocks = static_cast<std::size_t>(n) * n;
  const std::size_t unit = 8;
  const std::size_t ell = num_blocks * unit;
  Rng rng(static_cast<std::uint64_t>(n));
  std::vector<Bitstring> inputs;
  // Values agreeing on a long prefix, diverging in the tail blocks.
  const Bitstring head = rng.bits(ell - 24);
  for (int i = 0; i < n; ++i) {
    Bitstring v = head;
    v.append(rng.bits(24));
    inputs.push_back(v);
  }
  auto run = run_parties<FindPrefixResult>(
      n, t, [&](net::PartyContext& ctx, int id) {
        return find_prefix_blocks(ctx, f.lba, ell, num_blocks,
                                  inputs[static_cast<std::size_t>(id)]);
      });
  check_lemma(run.outputs, inputs, ell, unit, t);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FindPrefixBlocksSweep,
                         ::testing::Values(4, 7));

TEST(FindPrefixBlocks, IterationCountLogInBlocks) {
  // O(log n^2) Pi_lBA+ iterations, visible through the round count being
  // far below the bit-search equivalent for the same ell.
  const int n = 4;
  const int t = 1;
  Fixture f;
  const std::size_t ell = 4096;  // n^2 = 16 blocks of 256 bits
  Rng rng(9);
  const Bitstring shared_head = rng.bits(ell - 8);
  const auto run_variant = [&](bool blocks) {
    std::vector<Bitstring> inputs;
    Rng tail_rng(10);
    for (int i = 0; i < n; ++i) {
      Bitstring v = shared_head;
      v.append(tail_rng.bits(8));
      inputs.push_back(v);
    }
    return run_parties<FindPrefixResult>(
        n, t, [&](net::PartyContext& ctx, int id) {
          return blocks ? find_prefix_blocks(
                              ctx, f.lba, ell, 16,
                              inputs[static_cast<std::size_t>(id)])
                        : find_prefix(ctx, f.lba, ell,
                                      inputs[static_cast<std::size_t>(id)]);
        });
  };
  const auto block_run = run_variant(true);
  const auto bit_run = run_variant(false);
  EXPECT_LT(block_run.stats.rounds, bit_run.stats.rounds);
}

// ---- Differential test: the search's lazy v_bot against the copy-based
// search it replaced, which copied v into v_bot up front and on every
// bottom, and cut each window out of v with substr before encoding it.

struct RefResult {
  Bitstring prefix;
  Bitstring v;
  Bitstring v_bot;
  bool bottom_before_fill = false;  // a bottom, then later a fill
  bool bottom_after_fill = false;   // a fill, then later a bottom
};

RefResult reference_search(net::PartyContext& ctx,
                           const ba::LongBAPlus& lba_plus,
                           std::size_t total_units, std::size_t unit,
                           Bitstring v) {
  std::size_t left = 1;
  std::size_t right = total_units + 1;
  Bitstring v_bot = v;
  Bitstring prefix;
  bool bottom = false;
  bool filled = false;
  RefResult out;
  while (left != right) {
    const std::size_t mid = (left + right) / 2;
    const std::size_t len = (mid - left + 1) * unit;
    const Bitstring window = v.substr((left - 1) * unit, len);
    Writer w;
    w.bitstring(window);
    const auto agreed_bytes = lba_plus.run(ctx, std::move(w).take());
    std::optional<Bitstring> agreed;
    if (agreed_bytes) {
      Reader r(*agreed_bytes);
      agreed = r.bitstring();
      if (!agreed || !r.at_end() || agreed->size() != len) agreed.reset();
    }
    if (!agreed) {
      v_bot = v;
      right = mid;
      bottom = true;
      out.bottom_after_fill |= filled;
    } else {
      prefix.append(*agreed);
      const std::size_t agree = Bitstring::common_prefix_len(v, prefix);
      if (agree < prefix.size()) {
        v = v.bit(agree) ? Bitstring::max_fill(prefix, v.size())
                         : Bitstring::min_fill(prefix, v.size());
        filled = true;
        out.bottom_before_fill |= bottom;
      }
      left = mid + 1;
    }
  }
  out.prefix = std::move(prefix);
  out.v = std::move(v);
  out.v_bot = std::move(v_bot);
  return out;
}

// Inputs drawn from three values that share a seeded-length prefix, so
// some windows are agreed (and diverging parties fill) while others end
// in bottom.
std::vector<Bitstring> clustered_inputs(Rng& rng, int n, std::size_t ell) {
  const Bitstring head = rng.bits(rng.below(ell / 2));
  std::vector<Bitstring> pool;
  for (int i = 0; i < 3; ++i) {
    Bitstring v = head;
    v.append(rng.bits(ell - head.size()));
    pool.push_back(std::move(v));
  }
  std::vector<Bitstring> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(pool[rng.below(3)]);
  return inputs;
}

TEST(FindPrefixDifferential, LazyWitnessMatchesCopyingSearch) {
  bool bottom_before_fill = false;
  bool bottom_after_fill = false;
  Fixture f;
  for (const bool blocks : {false, true}) {
    for (const int n : {4, 7}) {
      const int t = max_t(n);
      const std::size_t num_blocks = static_cast<std::size_t>(n) * n;
      const std::size_t ell = blocks ? num_blocks * 3 : 24;
      const std::size_t units = blocks ? num_blocks : ell;
      const std::size_t unit = ell / units;
      for (const bool byzantine : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 12; ++seed) {
          Rng rng(seed * 131 + static_cast<std::uint64_t>(n) + blocks);
          const auto inputs = clustered_inputs(rng, n, ell);
          std::set<int> byz;
          if (byzantine) {
            for (int i = 0; i < t; ++i) byz.insert(n - 1 - i);
          }
          const auto strategy =
              [](int id) -> std::shared_ptr<net::ByzantineStrategy> {
            return id % 2 ? std::static_pointer_cast<net::ByzantineStrategy>(
                                std::make_shared<adv::Replay>())
                          : std::make_shared<adv::Garbage>();
          };
          const auto input = [&](int id) {
            return inputs[static_cast<std::size_t>(id)];
          };
          const auto got = run_parties<FindPrefixResult>(
              n, t,
              [&](net::PartyContext& ctx, int id) {
                return blocks ? find_prefix_blocks(ctx, f.lba, ell,
                                                   num_blocks, input(id))
                              : find_prefix(ctx, f.lba, ell, input(id));
              },
              byz, strategy);
          const auto want = run_parties<RefResult>(
              n, t,
              [&](net::PartyContext& ctx, int id) {
                return reference_search(ctx, f.lba, units, unit, input(id));
              },
              byz, strategy);
          EXPECT_EQ(got.stats.rounds, want.stats.rounds);
          for (std::size_t id = 0; id < got.outputs.size(); ++id) {
            ASSERT_EQ(got.outputs[id].has_value(),
                      want.outputs[id].has_value());
            if (!got.outputs[id]) continue;
            const FindPrefixResult& g = *got.outputs[id];
            const RefResult& w = *want.outputs[id];
            ASSERT_EQ(g.prefix, w.prefix) << "seed " << seed << " id " << id;
            ASSERT_EQ(g.v, w.v) << "seed " << seed << " id " << id;
            ASSERT_EQ(g.v_bot(), w.v_bot) << "seed " << seed << " id " << id;
            bottom_before_fill |= w.bottom_before_fill;
            bottom_after_fill |= w.bottom_after_fill;
          }
        }
      }
    }
  }
  // The runs reach both orders of bottom and fill.
  EXPECT_TRUE(bottom_before_fill);
  EXPECT_TRUE(bottom_after_fill);
}

}  // namespace
}  // namespace coca::ca
