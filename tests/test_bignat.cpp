// Unit tests for BigNat / BigInt (arbitrary-precision values).
#include "util/bignat.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace coca {
namespace {

TEST(BigNat, ZeroBasics) {
  const BigNat z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_u64(), 0u);
  EXPECT_EQ(z.to_decimal(), "0");
  EXPECT_EQ(BigNat(0), z);
}

TEST(BigNat, BitLengthMatchesPaperDefinition) {
  // |BITS(v)| = k with 2^{k-1} <= v < 2^k.
  EXPECT_EQ(BigNat(1).bit_length(), 1u);
  EXPECT_EQ(BigNat(2).bit_length(), 2u);
  EXPECT_EQ(BigNat(3).bit_length(), 2u);
  EXPECT_EQ(BigNat(4).bit_length(), 3u);
  EXPECT_EQ(BigNat(255).bit_length(), 8u);
  EXPECT_EQ(BigNat(256).bit_length(), 9u);
  EXPECT_EQ((BigNat(1) << 100).bit_length(), 101u);
}

TEST(BigNat, BitsRoundTrip) {
  Rng rng(3);
  for (int iter = 0; iter < 100; ++iter) {
    const BigNat v = rng.nat_below_pow2(1 + rng.below(300));
    const std::size_t ell = v.bit_length() + rng.below(20);
    EXPECT_EQ(BigNat::from_bits(v.to_bits(std::max<std::size_t>(ell, 1))), v);
  }
}

// Bit-at-a-time references for BITS_l and VAL, built only from
// Bitstring::bit/set_bit and single limb bits, so they share no code with
// the 64-bit byte-swapped paths of to_bits/from_bits.
Bitstring ref_to_bits(const BigNat& v, std::size_t ell) {
  Bitstring out = Bitstring::zeros(ell);
  const auto& limbs = v.limbs();
  for (std::size_t k = 0; k < 64 * limbs.size(); ++k) {
    if ((limbs[k / 64] >> (k % 64)) & 1U) out.set_bit(ell - 1 - k, true);
  }
  return out;
}

std::vector<std::uint64_t> ref_limbs(const Bitstring& bits) {
  std::vector<std::uint64_t> limbs(ceil_div(bits.size(), 64), 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const std::size_t k = bits.size() - 1 - i;  // weight of bit i
    if (bits.bit(i)) limbs[k / 64] |= std::uint64_t{1} << (k % 64);
  }
  while (!limbs.empty() && limbs.back() == 0) limbs.pop_back();
  return limbs;
}

TEST(BigNat, BitsMatchBitReferenceAtEveryPad) {
  Rng rng(31);
  std::vector<std::size_t> ells;
  for (std::size_t ell = 1; ell <= 200; ++ell) ells.push_back(ell);
  for (std::size_t ell : {4096u, 4097u, 4159u, 9001u}) ells.push_back(ell);
  for (std::size_t ell : ells) {
    // pad = (8 - ell % 8) % 8 takes every value 0-7 over these widths.
    for (const BigNat& v :
         {rng.nat_below_pow2(ell), rng.nat_below_pow2(rng.below(ell + 1)),
          BigNat::max_with_bits(ell), BigNat(0)}) {
      const Bitstring bits = v.to_bits(ell);
      ASSERT_EQ(bits, ref_to_bits(v, ell)) << "ell=" << ell;
      ASSERT_EQ(BigNat::from_bits(bits).limbs(), v.limbs()) << "ell=" << ell;
    }
    // from_bits on its own, against the reference, for arbitrary bits.
    const Bitstring bits = rng.bits(ell);
    ASSERT_EQ(BigNat::from_bits(bits).limbs(), ref_limbs(bits))
        << "ell=" << ell;
  }
}

TEST(BigNat, ToBitsRejectsTooSmallWidth) {
  EXPECT_THROW(BigNat(256).to_bits(8), Error);
  EXPECT_NO_THROW(BigNat(255).to_bits(8));
}

TEST(BigNat, MaxWithBits) {
  EXPECT_EQ(BigNat::max_with_bits(0), BigNat(0));
  EXPECT_EQ(BigNat::max_with_bits(1), BigNat(1));
  EXPECT_EQ(BigNat::max_with_bits(8), BigNat(255));
  EXPECT_EQ(BigNat::max_with_bits(64), BigNat(~std::uint64_t{0}));
  EXPECT_EQ(BigNat::max_with_bits(100) + BigNat(1), BigNat::pow2(100));
}

TEST(BigNat, CompareOrdering) {
  EXPECT_LT(BigNat(3), BigNat(5));
  EXPECT_GT(BigNat::pow2(100), BigNat::pow2(99));
  EXPECT_EQ(BigNat::pow2(64), BigNat(1) << 64);
  EXPECT_LT(BigNat::max_with_bits(64), BigNat::pow2(64));
}

TEST(BigNat, AddSubRoundTrip) {
  Rng rng(17);
  for (int iter = 0; iter < 100; ++iter) {
    const BigNat a = rng.nat_below_pow2(200);
    const BigNat b = rng.nat_below_pow2(180);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a + b) - a, b);
    EXPECT_GE(a + b, a);
  }
}

TEST(BigNat, SubUnderflowThrows) {
  EXPECT_THROW(BigNat(3) - BigNat(5), Error);
}

TEST(BigNat, AddCarryChain) {
  // 2^192 - 1 + 1 ripples a carry through three limbs.
  EXPECT_EQ(BigNat::max_with_bits(192) + BigNat(1), BigNat::pow2(192));
}

TEST(BigNat, MulMatchesShifts) {
  Rng rng(23);
  for (int iter = 0; iter < 50; ++iter) {
    const BigNat a = rng.nat_below_pow2(150);
    EXPECT_EQ(a * BigNat(2), a << 1);
    EXPECT_EQ(a * BigNat::pow2(64), a << 64);
    EXPECT_EQ(a * BigNat(0), BigNat(0));
    EXPECT_EQ(a * BigNat(1), a);
  }
}

TEST(BigNat, MulCommutesAndDistributes) {
  Rng rng(29);
  for (int iter = 0; iter < 30; ++iter) {
    const BigNat a = rng.nat_below_pow2(120);
    const BigNat b = rng.nat_below_pow2(90);
    const BigNat c = rng.nat_below_pow2(70);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST(BigNat, ShiftRoundTrip) {
  Rng rng(31);
  for (int iter = 0; iter < 50; ++iter) {
    const BigNat a = rng.nat_below_pow2(100);
    const std::size_t s = rng.below(130);
    EXPECT_EQ((a << s) >> s, a);
  }
  EXPECT_EQ(BigNat(5) >> 10, BigNat(0));
}

TEST(BigNat, DecimalRoundTrip) {
  for (const char* s :
       {"0", "1", "9", "10", "999999999", "1000000000",
        "123456789012345678901234567890123456789012345678901234567890"}) {
    EXPECT_EQ(BigNat::from_decimal(s).to_decimal(), s);
  }
}

TEST(BigNat, DecimalRejectsGarbage) {
  EXPECT_THROW(BigNat::from_decimal(""), Error);
  EXPECT_THROW(BigNat::from_decimal("12a3"), Error);
  EXPECT_THROW(BigNat::from_decimal("-5"), Error);
}

TEST(BigNat, DivU32) {
  std::uint32_t rem = 0;
  const BigNat big = BigNat::from_decimal("123456789012345678901234567890");
  const BigNat q = big.div_u32(1000, rem);
  EXPECT_EQ(rem, 890u);
  EXPECT_EQ(q.to_decimal(), "123456789012345678901234567");
  EXPECT_THROW(big.div_u32(0, rem), Error);
}

TEST(BigInt, SignHandling) {
  EXPECT_EQ(BigInt(-5).to_decimal(), "-5");
  EXPECT_EQ(BigInt(5).to_decimal(), "5");
  EXPECT_FALSE(BigInt(0).negative());
  EXPECT_FALSE(BigInt(BigNat(0), true).negative());  // -0 normalizes to 0
  EXPECT_EQ(BigInt(BigNat(0), true), BigInt(0));
}

TEST(BigInt, Int64MinConversion) {
  const BigInt v(std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(v.to_decimal(), "-9223372036854775808");
}

TEST(BigInt, Ordering) {
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_LT(BigInt(-3), BigInt(0));
  EXPECT_LT(BigInt(0), BigInt(3));
  EXPECT_LT(BigInt(-1000), BigInt(1));
  EXPECT_EQ(BigInt(7), BigInt(7));
}

TEST(BigInt, ArithmeticSignedCases) {
  EXPECT_EQ(BigInt(5) + BigInt(-3), BigInt(2));
  EXPECT_EQ(BigInt(3) + BigInt(-5), BigInt(-2));
  EXPECT_EQ(BigInt(-3) + BigInt(-5), BigInt(-8));
  EXPECT_EQ(BigInt(3) - BigInt(5), BigInt(-2));
  EXPECT_EQ(BigInt(-3) - BigInt(-5), BigInt(2));
  EXPECT_EQ(-BigInt(7), BigInt(-7));
  EXPECT_EQ(-BigInt(0), BigInt(0));
}

TEST(BigInt, FromDecimal) {
  EXPECT_EQ(BigInt::from_decimal("-123"), BigInt(-123));
  EXPECT_EQ(BigInt::from_decimal("123"), BigInt(123));
  EXPECT_THROW(BigInt::from_decimal("-"), Error);
}

}  // namespace
}  // namespace coca
