// The mutation adversary itself: operator behaviour, the SendTap wiring
// through SyncNetwork, and the determinism contract (same seed => same
// transcript) that corpus replay relies on.
#include "adversary/mutator.h"

#include <gtest/gtest.h>

#include "net/sync_network.h"

namespace coca::adv {
namespace {

constexpr int kRounds = 6;

/// All-honest-code network of n parties where every party broadcasts a
/// distinct beacon each round; party `byz` runs the same code behind a
/// Mutator with `config`. Returns the canonical transcript.
net::Transcript beacon_run(int n, int byz, MutatorConfig config) {
  net::SyncNetwork net(n, 1);
  net::Transcript transcript;
  net.set_transcript(&transcript);
  const auto beacon = [](net::PartyContext& ctx) {
    for (int r = 0; r < kRounds; ++r) {
      for (int to = 0; to < ctx.n(); ++to) {
        ctx.send(to, Bytes{static_cast<std::uint8_t>(ctx.id()),
                           static_cast<std::uint8_t>(r),
                           static_cast<std::uint8_t>(to), 0xAB});
      }
      (void)ctx.advance();
    }
  };
  config.n = n;
  for (int id = 0; id < n; ++id) {
    if (id == byz) {
      net.set_byzantine_protocol(id, beacon,
                                 std::make_shared<Mutator>(config));
    } else {
      net.set_honest(id, beacon);
    }
  }
  (void)net.run();
  return transcript;
}

/// Messages party `from` sent in `t`, flattened as (round, to, payload).
struct Sent {
  std::size_t round;
  int to;
  Bytes payload;
};
std::vector<Sent> sent_by(const net::Transcript& t, int from) {
  std::vector<Sent> out;
  for (std::size_t r = 0; r < t.rounds.size(); ++r) {
    for (const auto& m : t.rounds[r].messages) {
      if (m.from == from) out.push_back({r, m.to, m.payload.owned()});
    }
  }
  return out;
}

MutatorConfig only(MutOp op, std::uint64_t seed = 7) {
  MutatorConfig config;
  config.seed = seed;
  config.weights.fill(0);
  config.weights[static_cast<std::size_t>(op)] = 1;
  return config;
}

TEST(Mutator, AllZeroWeightsArePurePassthrough) {
  MutatorConfig config;
  config.seed = 1;
  config.weights.fill(0);
  const net::Transcript tapped = beacon_run(4, 2, config);
  // Reference: the identical run with the same party byzantine but untapped
  // (set_byzantine_protocol without a tap), so only the tap can differ.
  net::Transcript plain;
  {
    net::SyncNetwork net(4, 1);
    net.set_transcript(&plain);
    const auto beacon = [](net::PartyContext& ctx) {
      for (int r = 0; r < kRounds; ++r) {
        for (int to = 0; to < ctx.n(); ++to) {
          ctx.send(to, Bytes{static_cast<std::uint8_t>(ctx.id()),
                             static_cast<std::uint8_t>(r),
                             static_cast<std::uint8_t>(to), 0xAB});
        }
        (void)ctx.advance();
      }
    };
    for (int id = 0; id < 4; ++id) {
      if (id == 2) {
        net.set_byzantine_protocol(id, beacon);
      } else {
        net.set_honest(id, beacon);
      }
    }
    (void)net.run();
  }
  EXPECT_EQ(tapped, plain);
}

TEST(Mutator, KeepPassesEveryMessageUnchanged) {
  const auto msgs = sent_by(beacon_run(4, 2, only(MutOp::kKeep)), 2);
  ASSERT_EQ(msgs.size(), static_cast<std::size_t>(kRounds * 4));
  for (const auto& m : msgs) {
    EXPECT_EQ(m.payload[0], 2);
    EXPECT_EQ(m.payload[3], 0xAB);
  }
}

TEST(Mutator, OmitDropsEverything) {
  EXPECT_TRUE(sent_by(beacon_run(4, 2, only(MutOp::kOmit)), 2).empty());
}

TEST(Mutator, DelayReplaysInALaterRound) {
  MutatorConfig config = only(MutOp::kDelay);
  config.max_delay = 2;
  const auto msgs = sent_by(beacon_run(4, 2, config), 2);
  EXPECT_FALSE(msgs.empty());
  for (const auto& m : msgs) {
    // Payload byte 1 is the round the wrapped protocol staged it in.
    const std::size_t staged = m.payload[1];
    EXPECT_GT(m.round, staged);
    EXPECT_LE(m.round, staged + config.max_delay);
  }
  // The final rounds' messages are still held when the protocol finishes:
  // some messages must have been dropped relative to the 4 * kRounds staged.
  EXPECT_LT(msgs.size(), static_cast<std::size_t>(kRounds * 4));
}

TEST(Mutator, TruncateOnlyShrinks) {
  const auto msgs = sent_by(beacon_run(4, 2, only(MutOp::kTruncate)), 2);
  ASSERT_FALSE(msgs.empty());
  for (const auto& m : msgs) EXPECT_LT(m.payload.size(), 4u);
}

TEST(Mutator, ExtendOnlyGrows) {
  const auto msgs = sent_by(beacon_run(4, 2, only(MutOp::kExtend)), 2);
  ASSERT_FALSE(msgs.empty());
  for (const auto& m : msgs) {
    EXPECT_GT(m.payload.size(), 4u);
    EXPECT_EQ(m.payload[0], 2);  // original bytes preserved as a prefix
  }
}

TEST(Mutator, EquivocateCrossesRecipients) {
  const auto msgs = sent_by(beacon_run(4, 2, only(MutOp::kEquivocate)), 2);
  // Every original message is passed through, plus corrupted copies.
  EXPECT_GT(msgs.size(), static_cast<std::size_t>(kRounds * 4));
  bool crossed = false;
  for (const auto& m : msgs) {
    // Payload byte 2 records the intended recipient; a mismatch with the
    // wire recipient is a cross-recipient copy.
    if (m.payload.size() >= 3 && m.payload[2] != m.to) crossed = true;
  }
  EXPECT_TRUE(crossed);
}

TEST(Mutator, FieldTweakKeepsLengthButChangesBytes) {
  const auto msgs = sent_by(beacon_run(4, 2, only(MutOp::kFieldTweak)), 2);
  ASSERT_FALSE(msgs.empty());
  bool changed = false;
  for (const auto& m : msgs) {
    EXPECT_EQ(m.payload.size(), 4u);
    if (m.payload != Bytes{2, m.payload[1], static_cast<std::uint8_t>(m.to),
                           0xAB}) {
      changed = true;
    }
  }
  EXPECT_TRUE(changed);
}

TEST(Mutator, SameSeedSameTranscript) {
  MutatorConfig config;
  config.seed = 99;
  EXPECT_EQ(beacon_run(5, 1, config), beacon_run(5, 1, config));
}

TEST(Mutator, DifferentSeedsDiverge) {
  MutatorConfig a;
  a.seed = 1;
  MutatorConfig b;
  b.seed = 2;
  EXPECT_NE(beacon_run(5, 1, a), beacon_run(5, 1, b));
}

TEST(Mutator, OpCountsCoverEveryOperatorUnderDefaultWeights) {
  MutatorConfig config;
  config.seed = 5;
  config.n = 4;
  Mutator mutator(config);
  std::vector<std::pair<int, Bytes>> emitted;
  const net::SendTap::Emit emit = [&](int to, net::Payload payload) {
    emitted.emplace_back(to, payload.owned());
  };
  for (std::size_t round = 0; round < 400; ++round) {
    mutator.on_round_start(round, emit);
    for (int to = 0; to < 4; ++to) {
      mutator.on_send(round, to, Bytes{1, 2, 3, 4, 5, 6, 7, 8}, emit);
    }
  }
  const auto& counts = mutator.op_counts();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kNumMutOps; ++i) {
    EXPECT_GT(counts[i], 0u) << to_string(static_cast<MutOp>(i));
    total += counts[i];
  }
  EXPECT_EQ(total, 1600u);
}

}  // namespace
}  // namespace coca::adv
