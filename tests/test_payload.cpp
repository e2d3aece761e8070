// Tests for the payload substrate (net/payload.h) and its integration
// contract with SyncNetwork:
//   * Payload view semantics: wrap, slice, detach (steal vs copy-on-write),
//     equality, and the PayloadMetrics copy accounting -- for inline
//     payloads (at most kInline bytes) and shared views alike.
//   * Honest-path zero-copy: an all-honest broadcast run performs no deep
//     payload copies at all (RunStats::payload_copies == 0).
//   * COW aliasing: a SendTap that corrupts one recipient's payload must not
//     leak the mutation into the other recipients' views or the transcript.
//   * first_per_sender filters by view (refcount bumps), never byte copies.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "net/payload.h"
#include "net/sync_network.h"
#include "util/common.h"

namespace coca::net {
namespace {

Bytes make_bytes(std::size_t size, std::uint8_t start) {
  Bytes b(size);
  for (std::size_t i = 0; i < size; ++i) {
    b[i] = static_cast<std::uint8_t>(start + i);
  }
  return b;
}

/// Samples the process-wide copy counters; tests diff before/after.
struct MetricsSample {
  std::uint64_t copies = PayloadMetrics::copies();
  std::uint64_t bytes = PayloadMetrics::bytes_copied();

  std::uint64_t copies_since() const { return PayloadMetrics::copies() - copies; }
  std::uint64_t bytes_since() const {
    return PayloadMetrics::bytes_copied() - bytes;
  }
};

TEST(Payload, WrapFromRvalueIsZeroCopy) {
  const MetricsSample before;
  Bytes b = make_bytes(64, 1);
  const std::uint8_t* data = b.data();
  Payload p(std::move(b));
  EXPECT_EQ(p.size(), 64u);
  EXPECT_EQ(p.data(), data);  // same heap buffer: moved, not copied
  EXPECT_EQ(before.copies_since(), 0u);
  EXPECT_EQ(before.bytes_since(), 0u);
}

TEST(Payload, CopyOfCountsTheDeepCopy) {
  const Bytes b = make_bytes(100, 7);
  const MetricsSample before;
  Payload p = Payload::copy_of(b);
  EXPECT_EQ(p, b);
  EXPECT_NE(p.data(), b.data());
  EXPECT_EQ(before.copies_since(), 1u);
  EXPECT_EQ(before.bytes_since(), 100u);
}

TEST(Payload, ViewCopiesShareOneBufferForFree) {
  const MetricsSample before;
  Payload p(make_bytes(32, 0));
  EXPECT_EQ(p.use_count(), 1);
  Payload q = p;
  Payload r = q;
  EXPECT_EQ(p.use_count(), 3);
  EXPECT_EQ(q.data(), p.data());
  EXPECT_EQ(r.data(), p.data());
  EXPECT_EQ(before.copies_since(), 0u);
}

TEST(Payload, SliceIsAViewOfTheSameBuffer) {
  const MetricsSample before;
  Payload p(make_bytes(32, 0));
  Payload s = p.slice(8, 16);
  EXPECT_EQ(s.size(), 16u);
  EXPECT_EQ(s.data(), p.data() + 8);
  EXPECT_EQ(p.use_count(), 2);
  EXPECT_EQ(s[0], p[8]);
  EXPECT_EQ(before.copies_since(), 0u);
  // An empty slice drops its buffer reference.
  Payload e = p.slice(4, 0);
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.use_count(), 0);
  EXPECT_THROW(p.slice(20, 16), Error);
}

TEST(Payload, DetachStealsWhenSoleOwner) {
  const MetricsSample before;
  Payload p(make_bytes(48, 9));
  const std::uint8_t* data = p.data();
  Bytes stolen = std::move(p).detach();
  EXPECT_EQ(stolen.data(), data);  // the buffer itself moved out
  EXPECT_EQ(before.copies_since(), 0u);
}

TEST(Payload, DetachCopiesWhenShared) {
  Payload p(make_bytes(48, 9));
  Payload alias = p;
  const MetricsSample before;
  Bytes copy = std::move(p).detach();
  copy[0] = 0xFF;  // mutate the detached bytes...
  EXPECT_EQ(alias[0], 9);  // ...the surviving view is untouched
  EXPECT_EQ(before.copies_since(), 1u);
  EXPECT_EQ(before.bytes_since(), 48u);
}

TEST(Payload, EqualityIsContentOverTheViewedWindow) {
  Payload p(make_bytes(16, 5));
  Payload q(make_bytes(16, 5));
  EXPECT_EQ(p, q);  // distinct buffers, equal content
  EXPECT_EQ(p, make_bytes(16, 5));
  EXPECT_FALSE(p == make_bytes(16, 6));
  // A slice compares by its window, not the backing buffer.
  Bytes whole = make_bytes(16, 5);
  Payload s = p.slice(4, 8);
  EXPECT_EQ(s, Bytes(whole.begin() + 4, whole.begin() + 12));
}

/// The same bytes as an owning payload (inline up to kInline bytes) and as
/// a slab view, which is a shared view at any length.
Payload shared_view_of(const Bytes& b) {
  return Payload(std::make_shared<Bytes>(b), 0, b.size());
}

/// Byte strings of 23, 24 and 25 bytes -- both sides of the inline limit --
/// that differ in the first byte, the last byte, or only in length.
std::vector<Bytes> around_the_inline_limit() {
  std::vector<Bytes> out;
  for (const std::size_t size : {23, 24, 25}) {
    for (const std::uint8_t start : {0, 1}) {
      Bytes b = make_bytes(size, start);
      out.push_back(b);
      b.back() ^= 0x80;
      out.push_back(b);
    }
  }
  return out;
}

TEST(Payload, SmallPayloadsAreInlineAndLargeOnesShared) {
  static_assert(Payload::kInline == 24);
  for (const Bytes& b : around_the_inline_limit()) {
    const MetricsSample before;
    const Payload owned{Bytes(b)};
    EXPECT_EQ(owned.use_count(), b.size() <= Payload::kInline ? 0 : 1);
    EXPECT_EQ(shared_view_of(b).use_count(), 1);  // slab views stay shared
    EXPECT_EQ(owned, b);
    EXPECT_EQ(before.copies_since(), 0u);  // contract 2: inline is no copy
  }
  const Payload one = Payload::inline_of({7});
  EXPECT_EQ(one, Bytes{7});
  EXPECT_EQ(one.use_count(), 0);
  EXPECT_TRUE(Payload().empty());
}

TEST(Payload, InlineAndSharedCompareLikeBytes) {
  std::vector<Payload> both;
  for (const Bytes& b : around_the_inline_limit()) {
    both.emplace_back(Bytes(b));
    both.push_back(shared_view_of(b));
  }
  const auto bytes_less = [](const Bytes& a, const Bytes& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  };
  for (const Payload& p : both) {
    for (const Payload& q : both) {
      const Bytes a = p.owned();
      const Bytes b = q.owned();
      EXPECT_EQ(p == q, a == b);
      EXPECT_EQ(p < q, bytes_less(a, b));
    }
  }
  // A count takes the inline and the shared copy of one value as one
  // value, and ascends in Bytes order whatever the representation.
  std::vector<ValueCount> counts;
  for (const Payload& p : both) count_value(counts, p);
  ASSERT_EQ(counts.size(), both.size() / 2);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].count, 2);
    if (i > 0) {
      EXPECT_TRUE(bytes_less(counts[i - 1].value.owned(),
                             counts[i].value.owned()));
    }
  }
}

TEST(Payload, SliceWorksOnBothRepresentations) {
  for (const Bytes& b : around_the_inline_limit()) {
    const Bytes middle(b.begin() + 1, b.end() - 1);
    Payload inline_or_shared{Bytes(b)};
    const Payload shared = shared_view_of(b);
    const MetricsSample before;
    const Payload s = shared.slice(1, b.size() - 2);
    EXPECT_EQ(s, middle);
    EXPECT_EQ(s.data(), shared.data() + 1);  // same buffer
    const Payload t = inline_or_shared.slice(1, b.size() - 2);
    EXPECT_EQ(t, middle);
    EXPECT_EQ(t.use_count(), inline_or_shared.use_count() == 0 ? 0 : 2);
    inline_or_shared = Payload();  // an inline slice owns its bytes
    EXPECT_EQ(t, middle);
    EXPECT_TRUE(shared.slice(3, 0).empty());
    EXPECT_EQ(before.copies_since(), 0u);
    // A counted copy of a slice copies its window only.
    EXPECT_EQ(s.to_bytes(), middle);
    EXPECT_EQ(before.copies_since(), 1u);
    EXPECT_EQ(before.bytes_since(), middle.size());
  }
}

// Contract 3: an inline payload has no buffer to hand over, so detach()
// counts one copy -- as a shared or sliced view does -- which keeps the
// simulator's payload_copies equal to the wire's, where the same small
// payload arrives as a shared slab view.
TEST(Payload, DetachOfInlineCountsOneCopy) {
  for (const std::size_t size : {1, 23, 24}) {
    Payload p(make_bytes(size, 3));
    ASSERT_EQ(p.use_count(), 0);
    const MetricsSample before;
    const Bytes out = std::move(p).detach();
    EXPECT_EQ(out, make_bytes(size, 3));
    EXPECT_EQ(before.copies_since(), 1u);
    EXPECT_EQ(before.bytes_since(), size);
  }
  Payload large(make_bytes(25, 3));  // sole owner of a full buffer: free
  const MetricsSample before;
  (void)std::move(large).detach();
  EXPECT_EQ(before.copies_since(), 0u);
}

TEST(Payload, CopiesAndMovesKeepTheBytes) {
  for (const Bytes& b : around_the_inline_limit()) {
    Payload p{Bytes(b)};
    Payload copy = p;
    Payload moved = std::move(p);
    EXPECT_EQ(copy, b);
    EXPECT_EQ(moved, b);
    copy = moved;
    EXPECT_EQ(copy, b);
    Payload other = Payload::inline_of({1, 2});
    other = std::move(copy);
    EXPECT_EQ(other, b);
    other = Payload::inline_of({9});
    EXPECT_EQ(other, Bytes{9});
  }
}

TEST(Payload, FirstPerSenderNeverCopiesBytes) {
  Payload shared(make_bytes(256, 1));
  std::vector<Envelope> inbox;  // sender-ordered, as advance() delivers it
  inbox.push_back({0, shared});
  inbox.push_back({1, shared});
  inbox.push_back({2, shared});
  inbox.push_back({2, Payload(make_bytes(8, 0))});  // duplicate sender
  const MetricsSample before;
  const std::vector<Envelope> kept = first_per_sender(inbox);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].from, 0);
  EXPECT_EQ(kept[1].from, 1);
  EXPECT_EQ(kept[2].from, 2);
  EXPECT_EQ(kept[2].payload.data(), shared.data());  // first msg kept, by view
  EXPECT_EQ(before.copies_since(), 0u);
  // The rvalue overload filters in place, also without copying.
  std::vector<Envelope> moved = first_per_sender(std::move(inbox));
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_EQ(before.copies_since(), 0u);
}

// An all-honest run where every party broadcasts a fresh buffer each round:
// with the shared-buffer substrate the whole execution performs zero deep
// payload copies -- the acceptance invariant for the zero-copy wire path.
TEST(PayloadNetwork, HonestBroadcastIsZeroCopy) {
  const int n = 7;
  const int rounds = 4;
  SyncNetwork net(n, 2);
  for (int i = 0; i < n; ++i) {
    net.set_honest(i, [rounds](PartyContext& ctx) {
      for (int r = 0; r < rounds; ++r) {
        Bytes msg = make_bytes(1024, static_cast<std::uint8_t>(r));
        ctx.send_all(std::move(msg));
        const std::vector<Envelope> inbox = ctx.advance();
        ASSERT_EQ(inbox.size(), static_cast<std::size_t>(ctx.n()));
      }
    });
  }
  const RunStats stats = net.run();
  EXPECT_EQ(stats.rounds, static_cast<std::size_t>(rounds));
  EXPECT_EQ(stats.payload_copies, 0u);
  EXPECT_EQ(stats.payload_bytes_copied, 0u);
}

// The Phase-King shape: every party broadcasts one byte per round, built
// inline with no Bytes allocation or as a 1-byte Bytes. Inline payloads are
// copied into every mailbox and the transcript, and none of that counts.
TEST(PayloadNetwork, HonestOneByteBroadcastIsZeroCopy) {
  const int n = 7;
  const int rounds = 6;
  SyncNetwork net(n, 2);
  for (int i = 0; i < n; ++i) {
    net.set_honest(i, [](PartyContext& ctx) {
      for (int r = 0; r < rounds; ++r) {
        const auto v = static_cast<std::uint8_t>(ctx.id() + r);
        if (r % 2 == 0) {
          ctx.send_all(Payload::inline_of({v}));
        } else {
          ctx.send_all(Bytes{v});
        }
        for (const Envelope& e : first_per_sender(ctx.advance())) {
          ASSERT_EQ(e.payload, Bytes{static_cast<std::uint8_t>(e.from + r)});
        }
      }
    });
  }
  Transcript transcript;
  net.set_transcript(&transcript);
  const RunStats stats = net.run();
  EXPECT_EQ(stats.rounds, static_cast<std::size_t>(rounds));
  EXPECT_EQ(stats.honest_bytes, static_cast<std::uint64_t>(n * n * rounds));
  EXPECT_EQ(stats.payload_copies, 0u);
  EXPECT_EQ(stats.payload_bytes_copied, 0u);
}

// Broadcasting an lvalue is the one honest-path operation that must copy;
// the stats account for exactly that copy.
TEST(PayloadNetwork, LvalueSendAllCountsOneCopyPerBroadcast) {
  const int n = 4;
  SyncNetwork net(n, 1);
  for (int i = 0; i < n; ++i) {
    net.set_honest(i, [](PartyContext& ctx) {
      const Bytes msg = make_bytes(100, 0);  // lvalue: send_all must copy it
      ctx.send_all(msg);
      ctx.advance();
    });
  }
  const RunStats stats = net.run();
  EXPECT_EQ(stats.payload_copies, static_cast<std::uint64_t>(n));
  EXPECT_EQ(stats.payload_bytes_copied, static_cast<std::uint64_t>(n) * 100);
}

// Two networks running concurrently on separate threads must each see only
// their own substrate copies in RunStats: the per-run counters are
// thread-local deltas, not slices of the process-wide totals. Before the
// per-run isolation, the copy-heavy run's counts bled into the clean run's
// RunStats whenever the two overlapped.
TEST(PayloadNetwork, ConcurrentRunsDoNotCrossContaminate) {
  constexpr int kN = 4;
  constexpr int kRounds = 40;
  std::atomic<bool> go{false};
  RunStats clean_stats;
  RunStats dirty_stats;

  const auto drive = [&](bool copy_heavy, RunStats* out) {
    while (!go.load()) std::this_thread::yield();
    SyncNetwork net(kN, 1);
    for (int i = 0; i < kN; ++i) {
      net.set_honest(i, [copy_heavy](PartyContext& ctx) {
        for (int r = 0; r < kRounds; ++r) {
          if (copy_heavy) {
            const Bytes msg = make_bytes(128, 1);  // lvalue: one copy per call
            ctx.send_all(msg);
          } else {
            ctx.send_all(make_bytes(128, 1));  // rvalue: zero-copy
          }
          ctx.advance();
        }
      });
    }
    *out = net.run();
  };

  std::thread clean(drive, false, &clean_stats);
  std::thread dirty(drive, true, &dirty_stats);
  go.store(true);
  clean.join();
  dirty.join();

  EXPECT_EQ(clean_stats.payload_copies, 0u);
  EXPECT_EQ(clean_stats.payload_bytes_copied, 0u);
  EXPECT_EQ(dirty_stats.payload_copies,
            static_cast<std::uint64_t>(kN) * kRounds);
  EXPECT_EQ(dirty_stats.payload_bytes_copied,
            static_cast<std::uint64_t>(kN) * kRounds * 128);
}

/// Corrupts the first byte of every payload addressed to `victim`; forwards
/// all other messages untouched (as the original shared views).
class CorruptOneRecipient : public SendTap {
 public:
  explicit CorruptOneRecipient(int victim) : victim_(victim) {}

  void on_send(std::size_t /*round*/, int to, Payload payload,
               const Emit& emit) override {
    if (to == victim_ && !payload.empty()) {
      Bytes owned = std::move(payload).detach();  // COW: copies, buffer shared
      owned[0] ^= 0xFF;
      emit(to, Payload(std::move(owned)));
    } else {
      emit(to, std::move(payload));
    }
  }

 private:
  int victim_;
};

// A tapped send_all delivers one shared buffer to n recipients; the tap
// detaches and corrupts only the victim's copy. Copy-on-write must isolate
// the mutation: every other recipient and the transcript keep the original
// bytes, and exactly one deep copy is performed per corrupted broadcast.
TEST(PayloadNetwork, SendTapMutationDoesNotLeakIntoSharedViews) {
  const int n = 5;
  const int byz = 2;
  const int victim = 4;
  const Bytes original = make_bytes(512, 0x10);
  Bytes corrupted = original;
  corrupted[0] ^= 0xFF;

  SyncNetwork net(n, 1);
  std::vector<std::vector<Envelope>> inboxes(n);
  for (int i = 0; i < n; ++i) {
    if (i == byz) continue;
    net.set_honest(i, [i, &inboxes](PartyContext& ctx) {
      inboxes[i] = ctx.advance();
    });
  }
  net.set_byzantine_protocol(
      byz,
      [&original](PartyContext& ctx) {
        Bytes msg = original;
        ctx.send_all(std::move(msg));
        ctx.advance();
      },
      std::make_shared<CorruptOneRecipient>(victim));
  Transcript transcript;
  net.set_transcript(&transcript);

  const MetricsSample before;
  const RunStats stats = net.run();

  // Exactly one deep copy: the victim's detach. (Byzantine traffic is not
  // metered in honest_bytes, but substrate copies are counted regardless.)
  EXPECT_EQ(stats.payload_copies, 1u);
  EXPECT_EQ(stats.payload_bytes_copied, 512u);
  EXPECT_EQ(before.copies_since(), 1u);

  // The victim sees the corruption, nobody else does.
  for (int i = 0; i < n; ++i) {
    if (i == byz) continue;
    ASSERT_EQ(inboxes[i].size(), 1u) << "party " << i;
    EXPECT_EQ(inboxes[i][0].from, byz);
    EXPECT_EQ(inboxes[i][0].payload, i == victim ? corrupted : original)
        << "party " << i;
  }

  // The transcript's views of the untouched deliveries are the originals.
  ASSERT_EQ(transcript.rounds.size(), stats.rounds);
  int seen = 0;
  for (const Transcript::Round& round : transcript.rounds) {
    for (const Transcript::Msg& msg : round.messages) {
      if (msg.from != byz) continue;
      ++seen;
      EXPECT_EQ(msg.payload, msg.to == victim ? corrupted : original)
          << "transcript message to " << msg.to;
    }
  }
  EXPECT_EQ(seen, n);  // send_all reaches every party, including self
}

}  // namespace
}  // namespace coca::net
