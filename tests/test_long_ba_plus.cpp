// Pi_lBA+ (Theorem 1): the long-message extension of Pi_BA+ built on
// Reed-Solomon codewords and Merkle accumulators.
#include "ba/long_ba_plus.h"

#include <gtest/gtest.h>

#include <string>

#include "adversary/strategies.h"
#include "ba/phase_king.h"
#include "ba/turpin_coan.h"
#include "tests/support.h"
#include "util/rng.h"
#include "util/wire.h"

namespace coca::ba {
namespace {

using test::all_agree;
using test::max_t;
using test::run_parties;

struct Fixture {
  PhaseKingBinary bin;
  TurpinCoan tc{bin};
  BAKit kit{&bin, &tc};
  LongBAPlus lba{kit};
};

class LongBAPlusSweep
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(LongBAPlusSweep, ValidityAllSameLongValue) {
  const auto [n, len] = GetParam();
  const int t = max_t(n);
  Fixture f;
  Rng rng(static_cast<std::uint64_t>(n) * 31 + len);
  const Bytes input = rng.bytes(len);
  auto run = run_parties<MaybeBytes>(n, t, [&](net::PartyContext& ctx, int) {
    return f.lba.run(ctx, input);
  });
  for (const auto& out : run.outputs) {
    ASSERT_TRUE(out->has_value());
    EXPECT_EQ(**out, input);
  }
}

TEST_P(LongBAPlusSweep, ValidityUnderByzantineShareInjection) {
  const auto [n, len] = GetParam();
  const int t = max_t(n);
  Fixture f;
  Rng rng(static_cast<std::uint64_t>(n) * 97 + len);
  const Bytes input = rng.bytes(len);
  std::set<int> byz;
  for (int i = 0; i < t; ++i) byz.insert(i);
  // Replay corrupts the distributing step with plausible-looking tuples of
  // the wrong index/recipient; Merkle verification must sort it out.
  auto run = run_parties<MaybeBytes>(
      n, t,
      [&](net::PartyContext& ctx, int) { return f.lba.run(ctx, input); }, byz,
      [](int) { return std::make_shared<adv::Replay>(); });
  for (const auto& out : run.outputs) {
    if (!out) continue;
    ASSERT_TRUE(out->has_value());
    EXPECT_EQ(**out, input);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LongBAPlusSweep,
    ::testing::Combine(::testing::Values(4, 7, 10, 13),
                       ::testing::Values(std::size_t{1}, std::size_t{100},
                                         std::size_t{4096})));

/// Re-sends the byzantine party's distribute-step (index, share, witness)
/// tuples, recognised by their exact layout, with one field tampered; all
/// other traffic passes unchanged.
class TupleTamper final : public net::SendTap {
 public:
  enum class Mode { kWitnessLevel, kShare, kDuplicateIndex, kIndexOutOfRange };

  TupleTamper(Mode mode, std::size_t n) : mode_(mode), n_(n) {}

  std::size_t tampered() const { return tampered_; }

  void on_send(std::size_t, int to, net::Payload payload,
               const Emit& emit) override {
    const auto wit = witness_offset(payload.span());
    if (!wit) {
      emit(to, std::move(payload));
      return;
    }
    Bytes raw = std::move(payload).detach();
    const std::size_t level = tampered_++ % ceil_log2(n_);
    switch (mode_) {
      case Mode::kWitnessLevel:
        raw[*wit + 32 * level + level] ^= 0x10;
        emit(to, net::Payload(std::move(raw)));
        break;
      case Mode::kShare:
        raw[8] ^= 0x01;  // the share's first byte, after index and length
        emit(to, net::Payload(std::move(raw)));
        break;
      case Mode::kDuplicateIndex: {
        // The genuine tuple relabelled as the next index, then the genuine
        // tuple twice: two claims on one index, and one claim repeated.
        Bytes relabelled = raw;
        relabelled[0] = static_cast<std::uint8_t>((raw[0] + 1) % n_);
        emit(to, net::Payload(std::move(relabelled)));
        emit(to, net::Payload::copy_of(raw));
        emit(to, net::Payload(std::move(raw)));
        break;
      }
      case Mode::kIndexOutOfRange: {
        Bytes beyond = raw;
        beyond[0] = static_cast<std::uint8_t>(n_ + raw[0]);
        raw[3] = 0xFF;  // an index near 2^32
        emit(to, net::Payload(std::move(beyond)));
        emit(to, net::Payload(std::move(raw)));
        break;
      }
    }
  }

 private:
  /// Offset of the witness when `raw` is exactly a tuple of this tree's
  /// depth (u32 index < n, u32-length share, u8 depth, 32 bytes a level).
  std::optional<std::size_t> witness_offset(
      std::span<const std::uint8_t> raw) const {
    Reader r(raw);
    const auto index = r.u32();
    const auto share = r.bytes_view();
    const auto wlen = r.u8();
    if (!index || *index >= n_ || !share || !wlen ||
        *wlen != ceil_log2(n_) || r.remaining() != 32 * std::size_t{*wlen}) {
      return std::nullopt;
    }
    return raw.size() - r.remaining();
  }

  Mode mode_;
  std::size_t n_;
  std::size_t tampered_ = 0;
};

class LongBAPlusTamperedTuples
    : public ::testing::TestWithParam<std::tuple<int, TupleTamper::Mode>> {};

TEST_P(LongBAPlusTamperedTuples, HonestOutputIsTheInput) {
  const auto [n, mode] = GetParam();
  const int t = max_t(n);
  Fixture f;
  Rng rng(static_cast<std::uint64_t>(n) * 131 + static_cast<int>(mode));
  const Bytes input = rng.bytes(300);
  net::SyncNetwork net(n, t);
  std::vector<std::optional<MaybeBytes>> outputs(static_cast<std::size_t>(n));
  std::vector<std::shared_ptr<TupleTamper>> taps;
  for (int id = 0; id < n; ++id) {
    const auto body = [&f, &input](net::PartyContext& ctx) {
      return f.lba.run(ctx, input);
    };
    if (id < t) {
      taps.push_back(
          std::make_shared<TupleTamper>(mode, static_cast<std::size_t>(n)));
      net.set_byzantine_protocol(
          id, [body](net::PartyContext& ctx) { (void)body(ctx); },
          taps.back());
    } else {
      net.set_honest(id, [&outputs, body, id](net::PartyContext& ctx) {
        outputs[static_cast<std::size_t>(id)] = body(ctx);
      });
    }
  }
  (void)net.run();
  for (const auto& tap : taps) {
    // Step 3a sends n tuples and step 3b re-broadcasts one to n parties.
    EXPECT_EQ(tap->tampered(), 2 * static_cast<std::size_t>(n));
  }
  for (int id = t; id < n; ++id) {
    const auto& out = outputs[static_cast<std::size_t>(id)];
    ASSERT_TRUE(out && out->has_value()) << "party " << id;
    EXPECT_EQ(**out, input) << "party " << id;
  }
}

std::string tamper_case_name(
    const ::testing::TestParamInfo<LongBAPlusTamperedTuples::ParamType>&
        info) {
  static constexpr const char* kModes[] = {"WitnessLevel", "Share",
                                           "DuplicateIndex", "IndexOutOfRange"};
  std::string name = "n";
  name += std::to_string(std::get<0>(info.param));
  name += '_';
  name += kModes[static_cast<int>(std::get<1>(info.param))];
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Modes, LongBAPlusTamperedTuples,
    ::testing::Combine(
        ::testing::Values(4, 7, 13),
        ::testing::Values(TupleTamper::Mode::kWitnessLevel,
                          TupleTamper::Mode::kShare,
                          TupleTamper::Mode::kDuplicateIndex,
                          TupleTamper::Mode::kIndexOutOfRange)),
    tamper_case_name);

TEST(LongBAPlus, IntrusionToleranceWithDistinctInputs) {
  const int n = 10;
  const int t = 3;
  Fixture f;
  std::set<Bytes> honest_inputs;
  for (int id = 0; id < 7; ++id) {
    honest_inputs.insert(Bytes(200, static_cast<std::uint8_t>(id)));
  }
  auto run = run_parties<MaybeBytes>(
      n, t,
      [&](net::PartyContext& ctx, int id) {
        return f.lba.run(ctx, Bytes(200, static_cast<std::uint8_t>(id)));
      },
      {7, 8, 9}, [](int) { return std::make_shared<adv::Garbage>(); });
  EXPECT_TRUE(all_agree(run.outputs));
  for (const auto& out : run.outputs) {
    if (!out) continue;
    EXPECT_TRUE(!out->has_value() || honest_inputs.contains(**out));
  }
}

TEST(LongBAPlus, BoundedPreAgreement) {
  // n-2t honest parties share a long value: the output must be that value
  // (non-bottom by Def. 4, honest by Def. 3, and unique sharers' value).
  const int n = 13;
  const int t = 4;
  Fixture f;
  const Bytes shared(1000, 0xAB);
  auto run = run_parties<MaybeBytes>(
      n, t,
      [&](net::PartyContext& ctx, int id) {
        // ids 4..8 (n-2t = 5 parties) share; 9..12 hold distinct values.
        return f.lba.run(ctx, id <= 8 ? shared
                                      : Bytes(1000, static_cast<std::uint8_t>(id)));
      },
      {0, 1, 2, 3}, [](int) { return std::make_shared<adv::Silent>(); });
  for (const auto& out : run.outputs) {
    if (!out) continue;
    ASSERT_TRUE(out->has_value());
  }
  EXPECT_TRUE(all_agree(run.outputs));
}

TEST(LongBAPlus, EmptyValueRoundTrips) {
  const int n = 4;
  Fixture f;
  auto run = run_parties<MaybeBytes>(n, 1, [&](net::PartyContext& ctx, int) {
    return f.lba.run(ctx, Bytes{});
  });
  for (const auto& out : run.outputs) {
    ASSERT_TRUE(out->has_value());
    EXPECT_TRUE((*out)->empty());
  }
}

TEST(LongBAPlus, ExtensionBeatsNaiveOnLongMessages) {
  // Theorem 1's point: per-party cost of Pi_lBA+ is O(l) + poly(n, kappa),
  // while Turpin-Coan on the full value is O(l n) per party. Compare total
  // honest bytes at fixed n and growing l.
  const int n = 10;
  const int t = 3;
  Fixture f;
  const std::size_t len = 64 * 1024;
  const Bytes input(len, 0x3C);

  auto ext = run_parties<MaybeBytes>(n, t, [&](net::PartyContext& ctx, int) {
    return f.lba.run(ctx, input);
  });
  auto naive = run_parties<MaybeBytes>(n, t, [&](net::PartyContext& ctx, int) {
    return f.tc.run(ctx, input);
  });
  EXPECT_LT(ext.stats.honest_bytes * 2, naive.stats.honest_bytes)
      << "extension protocol should be at least 2x cheaper at l=" << len;
}

TEST(LongBAPlus, HonestRunCopiesNoPayload) {
  // Every honest message is sent as the buffer it was built in: BA+ moves
  // its root input into its broadcast and each tuple is sent as built, so
  // the engine deep-copies nothing.
  const int n = 7;
  Fixture f;
  const Bytes input = Rng(7).bytes(1024 / 8);
  auto run = run_parties<MaybeBytes>(n, max_t(n),
                                     [&](net::PartyContext& ctx, int) {
                                       return f.lba.run(ctx, input);
                                     });
  for (const auto& out : run.outputs) {
    ASSERT_TRUE(out->has_value());
    EXPECT_EQ(**out, input);
  }
  EXPECT_EQ(run.stats.payload_copies, 0u);
}

TEST(LongBAPlus, DifferentLengthInputsAgree) {
  const int n = 7;
  const int t = 2;
  Fixture f;
  auto run = run_parties<MaybeBytes>(n, t, [&](net::PartyContext& ctx, int id) {
    return f.lba.run(ctx, Bytes(static_cast<std::size_t>(10 + 50 * id),
                                static_cast<std::uint8_t>(id)));
  });
  EXPECT_TRUE(all_agree(run.outputs));
}

}  // namespace
}  // namespace coca::ba
