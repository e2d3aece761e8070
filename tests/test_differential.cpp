// Differential property tests: the from-scratch substrates cross-checked
// against native 64-bit arithmetic on random inputs, plus a large-scale
// whole-stack smoke test.
#include <gtest/gtest.h>

#include "ca/driver.h"
#include "tests/support.h"
#include "util/bignat.h"
#include "util/rng.h"
#include "util/wire.h"

namespace coca {
namespace {

TEST(Differential, BigNatArithmeticMatchesU64) {
  Rng rng(2026);
  for (int iter = 0; iter < 3000; ++iter) {
    const std::uint64_t a = rng.below(1ull << 31);
    const std::uint64_t b = rng.below(1ull << 31);
    const BigNat A(a), B(b);
    EXPECT_EQ((A + B).to_u64(), a + b);
    EXPECT_EQ((A * B).to_u64(), a * b);
    if (a >= b) {
      EXPECT_EQ((A - B).to_u64(), a - b);
    }
    EXPECT_EQ(A < B, a < b);
    EXPECT_EQ(A == B, a == b);
    const std::size_t sh = rng.below(20);
    EXPECT_EQ((A << sh).to_u64(), a << sh);
    EXPECT_EQ((A >> sh).to_u64(), a >> sh);
    std::uint32_t rem = 0;
    const std::uint32_t div = 1 + static_cast<std::uint32_t>(rng.below(1000));
    EXPECT_EQ(A.div_u32(div, rem).to_u64(), a / div);
    EXPECT_EQ(rem, a % div);
  }
}

TEST(Differential, BigNatDecimalMatchesU64) {
  Rng rng(2027);
  for (int iter = 0; iter < 500; ++iter) {
    const std::uint64_t a = rng.next_u64();
    EXPECT_EQ(BigNat(a).to_decimal(), std::to_string(a));
    EXPECT_EQ(BigNat::from_decimal(std::to_string(a)).to_u64(), a);
  }
}

TEST(Differential, BigIntArithmeticMatchesI64) {
  Rng rng(2028);
  for (int iter = 0; iter < 3000; ++iter) {
    const std::int64_t a =
        static_cast<std::int64_t>(rng.below(1ull << 40)) - (1ll << 39);
    const std::int64_t b =
        static_cast<std::int64_t>(rng.below(1ull << 40)) - (1ll << 39);
    const BigInt A(a), B(b);
    EXPECT_EQ(A + B, BigInt(a + b));
    EXPECT_EQ(A - B, BigInt(a - b));
    EXPECT_EQ(-A, BigInt(-a));
    EXPECT_EQ(A < B, a < b);
    EXPECT_EQ(A == B, a == b);
    EXPECT_EQ(A.to_decimal(), std::to_string(a));
  }
}

TEST(Differential, BitstringOpsMatchU64Bits) {
  Rng rng(2029);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t width = 1 + rng.below(64);
    const std::uint64_t a =
        width == 64 ? rng.next_u64() : rng.below(1ull << width);
    const Bitstring A = Bitstring::from_u64(a, width);
    // Bit access vs shifts.
    const std::size_t i = rng.below(width);
    EXPECT_EQ(A.bit(i), ((a >> (width - 1 - i)) & 1) == 1);
    // Prefix as numeric truncation.
    const std::size_t p = rng.below(width + 1);
    if (p > 0 && width - p < 64) {
      EXPECT_EQ(A.prefix(p).to_u64(), a >> (width - p));
    }
    // MIN/MAX fill as OR with low bits.
    if (p < width) {
      const std::uint64_t ones_tail = (width - p) >= 64
                                          ? ~std::uint64_t{0}
                                          : (1ull << (width - p)) - 1;
      EXPECT_EQ(Bitstring::max_fill(A.prefix(p), width).to_u64(),
                (a & ~ones_tail) | ones_tail);
      EXPECT_EQ(Bitstring::min_fill(A.prefix(p), width).to_u64(),
                a & ~ones_tail);
    }
    // Round trip through BigNat.
    EXPECT_EQ(BigNat::from_bits(A).to_u64(), a);
    EXPECT_EQ(BigNat(a).to_bits(width), A);
  }
}

TEST(Differential, CommonPrefixMatchesXorClz) {
  Rng rng(2030);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    const std::size_t expected =
        a == b ? 64
               : static_cast<std::size_t>(__builtin_clzll(a ^ b));
    EXPECT_EQ(Bitstring::common_prefix_len(Bitstring::from_u64(a, 64),
                                           Bitstring::from_u64(b, 64)),
              expected);
  }
}

// Bytes `x` start with an accepted natural iff they hold a u64 bit count and
// that many packed bits, and masking the padding bits leaves exactly
// Writer::bignat's encoding of the natural those bits denote. Returns the
// accepted field's length.
std::optional<std::size_t> reference_nat_field(const Bytes& x) {
  if (x.size() < 8) return std::nullopt;
  std::uint64_t nbits = 0;
  for (std::size_t i = 8; i-- > 0;) nbits = (nbits << 8) | x[i];
  if (nbits > (x.size() - 8) * 8) return std::nullopt;
  const std::size_t nbytes = (static_cast<std::size_t>(nbits) + 7) / 8;
  Bytes field(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(8 + nbytes));
  if (nbits % 8 != 0) {
    field.back() &= static_cast<std::uint8_t>(0xFF << (8 - nbits % 8));
  }
  const Bytes packed(field.begin() + 8, field.end());
  Writer w;
  w.bignat(BigNat::from_bits(Bitstring::from_packed(packed, nbits)));
  if (w.peek() != field) return std::nullopt;
  return field.size();
}

// A natural of exactly `bits` bits (zero when `bits` is 0).
BigNat nat_with_bits(Rng& rng, std::size_t bits) {
  if (bits == 0) return BigNat();
  return BigNat::pow2(bits - 1) + rng.nat_below_pow2(bits - 1);
}

// Writer::bignat's encoding with random padding bits set.
Bytes dirty_encoding(Rng& rng, const BigNat& v) {
  Writer w;
  w.bignat(v);
  Bytes out = std::move(w).take();
  const std::size_t pad = (8 - v.bit_length() % 8) % 8;
  if (pad != 0) out.back() |= static_cast<std::uint8_t>(rng.below(1u << pad));
  return out;
}

// NatView's order and decode against BigNat on random pairs (zero, bit
// lengths 1-130 across byte boundaries, dirty-padding twins), and the view
// check against Reader::bignat() and a reference on truncated,
// leading-zero, absurd-length and random encodings.
TEST(Differential, NatOrderMatchesBigNat) {
  Rng rng(2031);
  const auto view_of = [](const Bytes& enc) {
    Reader r(enc);
    const auto v = r.bignat_view();
    EXPECT_TRUE(v.has_value() && r.at_end());
    return *v;
  };
  for (int iter = 0; iter < 4000; ++iter) {
    // Lengths are drawn from a narrow band half the time, so equal bit
    // counts (the byte comparison path) are common.
    const std::size_t base = rng.below(131);
    const auto draw_bits = [&] {
      return rng.next_bool() ? base : static_cast<std::size_t>(rng.below(131));
    };
    const BigNat a = nat_with_bits(rng, draw_bits());
    const BigNat b = rng.below(4) == 0 ? a : nat_with_bits(rng, draw_bits());
    const Bytes ea = dirty_encoding(rng, a);
    const Bytes eb = dirty_encoding(rng, b);
    const NatView va = view_of(ea);
    const NatView vb = view_of(eb);
    EXPECT_EQ(va <=> vb, a <=> b) << a.to_decimal() << " vs " << b.to_decimal();
    EXPECT_EQ(va.decode(), a);
  }

  std::vector<Bytes> inputs;
  for (int iter = 0; iter < 300; ++iter) {
    const BigNat v = nat_with_bits(rng, rng.below(131));
    const Bytes enc = dirty_encoding(rng, v);
    for (std::size_t len = 0; len <= enc.size(); ++len) {  // truncations
      inputs.emplace_back(enc.begin(),
                          enc.begin() + static_cast<std::ptrdiff_t>(len));
    }
    Writer leading_zeros;  // the same natural with 1-9 leading zero bits
    leading_zeros.bitstring(v.to_bits(v.bit_length() + 1 + rng.below(9)));
    inputs.push_back(leading_zeros.peek());
    for (const std::uint64_t absurd :
         {std::uint64_t{enc.size() * 8 + 1}, std::uint64_t{1} << 63,
          ~std::uint64_t{0}}) {
      Writer w;
      w.u64(absurd);
      w.raw(std::span<const std::uint8_t>(enc).subspan(8));
      inputs.push_back(w.peek());
    }
    inputs.push_back(rng.bytes(rng.below(24)));
  }
  for (const Bytes& x : inputs) {
    const auto want = reference_nat_field(x);
    Reader by_view(x);
    const auto view = by_view.bignat_view();
    Reader by_value(x);
    const auto value = by_value.bignat();
    ASSERT_EQ(view.has_value(), want.has_value());
    ASSERT_EQ(value.has_value(), want.has_value());
    if (!want) continue;
    EXPECT_EQ(by_view.remaining(), x.size() - *want);
    EXPECT_EQ(by_value.remaining(), x.size() - *want);
    EXPECT_EQ(view->decode(), *value);
  }
}

TEST(Differential, LargeScaleSmoke) {
  // One big run: n = 31, t = 10, mixed adversaries, 4096-bit magnitudes.
  const ca::ConvexAgreement proto;
  ca::SimConfig cfg;
  cfg.n = 31;
  cfg.t = 10;
  Rng rng(31);
  for (int i = 0; i < 31; ++i) {
    cfg.inputs.emplace_back(BigNat::pow2(4095) + rng.nat_below_pow2(4094),
                            false);
  }
  const adv::Kind kinds[] = {adv::Kind::kSplitBrain, adv::Kind::kReplay,
                             adv::Kind::kSpam, adv::Kind::kGarbage,
                             adv::Kind::kExtremeHigh};
  for (int i = 0; i < 10; ++i) {
    cfg.corruptions.push_back({3 * i + 1, kinds[i % 5]});
  }
  const ca::SimResult r = run_simulation(proto, cfg);
  EXPECT_TRUE(test::InvariantOracle::convex_agreement(r, cfg.inputs));
}

}  // namespace
}  // namespace coca
