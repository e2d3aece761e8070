// Unit tests for the Bitstring value model (the paper's BITS_l / VAL /
// MIN_l / MAX_l formalism).
#include "util/bitstring.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace coca {
namespace {

TEST(Bitstring, ZerosAndOnes) {
  EXPECT_EQ(Bitstring::zeros(5).to_string(), "00000");
  EXPECT_EQ(Bitstring::ones(5).to_string(), "11111");
  EXPECT_EQ(Bitstring::zeros(0).size(), 0u);
  EXPECT_TRUE(Bitstring::zeros(0).empty());
}

TEST(Bitstring, FromStringRoundTrip) {
  const std::string s = "1011001110001";
  EXPECT_EQ(Bitstring::from_string(s).to_string(), s);
}

TEST(Bitstring, FromStringRejectsBadChars) {
  EXPECT_THROW(Bitstring::from_string("01012"), Error);
}

TEST(Bitstring, FromU64MatchesPaperDefinition) {
  // BITS_8(5) = 00000101: prepend zeroes to the minimal representation.
  EXPECT_EQ(Bitstring::from_u64(5, 8).to_string(), "00000101");
  EXPECT_EQ(Bitstring::from_u64(0, 4).to_string(), "0000");
  EXPECT_EQ(Bitstring::from_u64(255, 8).to_string(), "11111111");
}

TEST(Bitstring, FromU64RejectsOverflow) {
  EXPECT_THROW(Bitstring::from_u64(256, 8), Error);
  EXPECT_NO_THROW(Bitstring::from_u64(~std::uint64_t{0}, 64));
}

TEST(Bitstring, ToU64RoundTrip) {
  for (std::uint64_t v : {0ull, 1ull, 5ull, 255ull, 256ull, 123456789ull}) {
    EXPECT_EQ(Bitstring::from_u64(v, 40).to_u64(), v);
  }
}

TEST(Bitstring, BitAccess) {
  Bitstring b = Bitstring::from_string("10110");
  EXPECT_TRUE(b.bit(0));
  EXPECT_FALSE(b.bit(1));
  EXPECT_TRUE(b.bit(2));
  EXPECT_TRUE(b.bit(3));
  EXPECT_FALSE(b.bit(4));
  EXPECT_THROW(b.bit(5), Error);
  b.set_bit(1, true);
  EXPECT_EQ(b.to_string(), "11110");
  b.set_bit(0, false);
  EXPECT_EQ(b.to_string(), "01110");
}

TEST(Bitstring, PushBack) {
  Bitstring b;
  for (char c : std::string("110100101")) b.push_back(c == '1');
  EXPECT_EQ(b.to_string(), "110100101");
}

TEST(Bitstring, AppendAligned) {
  Bitstring a = Bitstring::from_string("10101010");
  a.append(Bitstring::from_string("1111"));
  EXPECT_EQ(a.to_string(), "101010101111");
}

TEST(Bitstring, AppendUnaligned) {
  Bitstring a = Bitstring::from_string("101");
  a.append(Bitstring::from_string("0110011"));
  EXPECT_EQ(a.to_string(), "1010110011");
}

TEST(Bitstring, AppendEmpty) {
  Bitstring a = Bitstring::from_string("101");
  a.append(Bitstring());
  EXPECT_EQ(a.to_string(), "101");
  Bitstring b;
  b.append(a);
  EXPECT_EQ(b.to_string(), "101");
}

TEST(Bitstring, SubstrBasics) {
  const Bitstring b = Bitstring::from_string("110100101100");
  EXPECT_EQ(b.substr(0, 4).to_string(), "1101");
  EXPECT_EQ(b.substr(3, 5).to_string(), "10010");
  EXPECT_EQ(b.substr(11, 1).to_string(), "0");
  EXPECT_EQ(b.substr(12, 0).size(), 0u);
  EXPECT_THROW(b.substr(10, 3), Error);
}

TEST(Bitstring, SubstrAppendRoundTripRandom) {
  Rng rng(42);
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t len = 1 + rng.below(300);
    const Bitstring b = rng.bits(len);
    const std::size_t cut = rng.below(len + 1);
    Bitstring joined = b.prefix(cut);
    joined.append(b.substr(cut, len - cut));
    EXPECT_EQ(joined, b) << "len=" << len << " cut=" << cut;
  }
}

TEST(Bitstring, HasPrefix) {
  const Bitstring b = Bitstring::from_string("1101001");
  EXPECT_TRUE(b.has_prefix(Bitstring()));
  EXPECT_TRUE(b.has_prefix(Bitstring::from_string("1101")));
  EXPECT_TRUE(b.has_prefix(b));
  EXPECT_FALSE(b.has_prefix(Bitstring::from_string("1100")));
  EXPECT_FALSE(b.has_prefix(Bitstring::from_string("11010011")));
}

TEST(Bitstring, MinMaxFill) {
  const Bitstring p = Bitstring::from_string("101");
  EXPECT_EQ(Bitstring::min_fill(p, 8).to_string(), "10100000");
  EXPECT_EQ(Bitstring::max_fill(p, 8).to_string(), "10111111");
  EXPECT_EQ(Bitstring::min_fill(p, 3), p);
  EXPECT_THROW(Bitstring::min_fill(p, 2), Error);
}

TEST(Bitstring, MinMaxFillBracketEveryExtension) {
  // Remark 1's engine: MIN/MAX of a prefix bound every value extending it.
  Rng rng(7);
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t ell = 16;
    const Bitstring v = rng.bits(ell);
    const std::size_t cut = rng.below(ell + 1);
    const Bitstring p = v.prefix(cut);
    EXPECT_NE(Bitstring::numeric_compare(Bitstring::min_fill(p, ell), v),
              std::strong_ordering::greater);
    EXPECT_NE(Bitstring::numeric_compare(Bitstring::max_fill(p, ell), v),
              std::strong_ordering::less);
  }
}

TEST(Bitstring, CommonPrefixLen) {
  const Bitstring a = Bitstring::from_string("110100101");
  const Bitstring b = Bitstring::from_string("110101111");
  EXPECT_EQ(Bitstring::common_prefix_len(a, b), 5u);
  EXPECT_EQ(Bitstring::common_prefix_len(a, a), a.size());
  EXPECT_EQ(Bitstring::common_prefix_len(a, Bitstring()), 0u);
  EXPECT_EQ(Bitstring::common_prefix_len(Bitstring::from_string("0"),
                                          Bitstring::from_string("1")),
            0u);
}

TEST(Bitstring, NumericCompareMatchesValueOrder) {
  // For equal lengths, lexicographic bit order equals numeric order of VAL.
  Rng rng(13);
  for (int iter = 0; iter < 200; ++iter) {
    const std::uint64_t x = rng.below(1 << 20);
    const std::uint64_t y = rng.below(1 << 20);
    const auto cmp = Bitstring::numeric_compare(Bitstring::from_u64(x, 20),
                                                Bitstring::from_u64(y, 20));
    EXPECT_EQ(cmp == std::strong_ordering::less, x < y);
    EXPECT_EQ(cmp == std::strong_ordering::equal, x == y);
  }
}

TEST(Bitstring, NumericCompareRequiresEqualLengths) {
  EXPECT_THROW(Bitstring::numeric_compare(Bitstring::zeros(3),
                                          Bitstring::zeros(4)),
               Error);
}

TEST(Bitstring, PackedRoundTrip) {
  Rng rng(99);
  for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 200u}) {
    const Bitstring b = rng.bits(len);
    EXPECT_EQ(Bitstring::from_packed(b.packed(), b.size()), b);
  }
}

TEST(Bitstring, FromPackedMasksTrailingBits) {
  // Wire data may set the unused trailing bits; the invariant must hold so
  // equal bitstrings have equal packed forms.
  const Bytes dirty{0xFF};
  const Bitstring b = Bitstring::from_packed(dirty, 3);
  EXPECT_EQ(b.to_string(), "111");
  EXPECT_EQ(b.packed()[0], 0xE0);
}

TEST(Bitstring, FromPackedRejectsWrongSize) {
  EXPECT_THROW(Bitstring::from_packed(Bytes{0x00, 0x00}, 3), Error);
}

// ---------------------------------------------------------------------------
// Differential tests against a bit-at-a-time reference. The reference uses
// only zeros(), bit() and set_bit(), so it shares no code with the memcpy
// and 64-bit word paths of copy_bits, min_fill, max_fill and
// common_prefix_len; a bug that a round trip would undo still shows here.
// Comparing with operator== also checks the zero pad bits.

Bitstring ref_substr(const Bitstring& b, std::size_t pos, std::size_t len) {
  Bitstring out = Bitstring::zeros(len);
  for (std::size_t i = 0; i < len; ++i) out.set_bit(i, b.bit(pos + i));
  return out;
}

Bitstring ref_concat(const Bitstring& a, const Bitstring& b) {
  Bitstring out = Bitstring::zeros(a.size() + b.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.set_bit(i, a.bit(i));
  for (std::size_t i = 0; i < b.size(); ++i) out.set_bit(a.size() + i, b.bit(i));
  return out;
}

Bitstring ref_fill(const Bitstring& prefix, std::size_t ell, bool one) {
  Bitstring out = Bitstring::zeros(ell);
  for (std::size_t i = 0; i < ell; ++i) {
    out.set_bit(i, i < prefix.size() ? prefix.bit(i) : one);
  }
  return out;
}

std::size_t ref_common_prefix_len(const Bitstring& a, const Bitstring& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a.bit(i) == b.bit(i)) ++i;
  return i;
}

// Lengths 0-200 (every length mod 64 and mod 8) plus a few of at least 2^12.
std::vector<std::size_t> diff_lengths() {
  std::vector<std::size_t> lens;
  for (std::size_t len = 0; len <= 200; ++len) lens.push_back(len);
  for (std::size_t len : {4096u, 4097u, 4163u, 9001u}) lens.push_back(len);
  return lens;
}

TEST(Bitstring, SubstrMatchesBitReferenceAtEverySourceOffset) {
  Rng rng(101);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len : diff_lengths()) {
      // Source bits before `pos` and after the window, so the copy starts
      // mid-byte and need not end on the source's last byte.
      const std::size_t pos = 8 * rng.below(3) + off;
      const Bitstring src = rng.bits(pos + len + rng.below(20));
      ASSERT_EQ(src.substr(pos, len), ref_substr(src, pos, len))
          << "off=" << off << " len=" << len;
    }
  }
}

TEST(Bitstring, SubstrEndingOnTheLastSourceByte) {
  // The word path reads one source byte past each 64-bit step. Here the
  // window ends exactly at the end of a tightly allocated source, so an
  // out-of-bounds lookahead is a heap overflow under AddressSanitizer.
  Rng rng(102);
  for (std::size_t off = 1; off < 8; ++off) {
    for (std::size_t len : {64u, 65u, 71u, 72u, 127u, 128u, 200u, 4096u, 4101u}) {
      const Bitstring src = rng.bits(off + len);
      ASSERT_EQ(src.packed().size(), ceil_div(off + len, 8));
      ASSERT_EQ(src.substr(off, len), ref_substr(src, off, len))
          << "off=" << off << " len=" << len;
    }
  }
}

TEST(Bitstring, AppendMatchesBitReferenceAtEveryDestinationOffset) {
  Rng rng(103);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len : diff_lengths()) {
      const Bitstring head = rng.bits(8 * rng.below(3) + off);
      const Bitstring tail = rng.bits(len);
      Bitstring joined = head;
      joined.append(tail);
      ASSERT_EQ(joined, ref_concat(head, tail))
          << "off=" << off << " len=" << len;
    }
  }
}

TEST(Bitstring, MinMaxFillMatchBitReferenceAtEveryPrefixOffset) {
  Rng rng(104);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len : diff_lengths()) {
      // A prefix ending at bit offset `off` of its last byte, filled by
      // `len` bits to an ell that is not a multiple of 8 in general.
      const Bitstring prefix = rng.bits(8 * rng.below(3) + off);
      const std::size_t ell = prefix.size() + len;
      ASSERT_EQ(Bitstring::min_fill(prefix, ell), ref_fill(prefix, ell, false))
          << "off=" << off << " len=" << len;
      ASSERT_EQ(Bitstring::max_fill(prefix, ell), ref_fill(prefix, ell, true))
          << "off=" << off << " len=" << len;
    }
  }
}

TEST(Bitstring, CommonPrefixLenMatchesBitReference) {
  Rng rng(105);
  for (std::size_t len : diff_lengths()) {
    const Bitstring a = rng.bits(len);
    // b shares a random-length prefix of a, then differs in one bit (or
    // not at all), and has its own length.
    Bitstring b = a.prefix(rng.below(len + 1));
    if (b.size() < len && rng.next_bool()) b.push_back(!a.bit(b.size()));
    b.append(rng.bits(rng.below(100)));
    ASSERT_EQ(Bitstring::common_prefix_len(a, b), ref_common_prefix_len(a, b))
        << "len=" << len;
    ASSERT_EQ(Bitstring::common_prefix_len(a, a), len);
  }
}

// A prefix for `v`: a random-length prefix of v with, half the time, one
// bit flipped, so that long common prefixes and both sides are frequent.
Bitstring near_prefix(Rng& rng, const Bitstring& v) {
  Bitstring p = v.prefix(rng.below(v.size() + 1));
  if (!p.empty() && rng.next_bool()) {
    const std::size_t flip = rng.below(p.size());
    p.set_bit(flip, !p.bit(flip));
  }
  return p;
}

TEST(Bitstring, FirstDivergentBitDecidesTheSideOfTheFills) {
  // GetOutput's side rule: a value v without PREFIX* lies below
  // MIN_l(PREFIX*) iff its first bit off PREFIX* is 0, and above
  // MAX_l(PREFIX*) iff it is 1.
  Rng rng(106);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t ell = 1 + rng.below(iter < 1900 ? 150 : 5000);
    const Bitstring v = rng.bits(ell);
    const Bitstring prefix = near_prefix(rng, v);
    const std::size_t agree = Bitstring::common_prefix_len(v, prefix);
    const auto vs_min =
        Bitstring::numeric_compare(v, Bitstring::min_fill(prefix, ell));
    const auto vs_max =
        Bitstring::numeric_compare(v, Bitstring::max_fill(prefix, ell));
    if (agree == prefix.size()) {
      EXPECT_TRUE(v.has_prefix(prefix));
      EXPECT_NE(vs_min, std::strong_ordering::less);
      EXPECT_NE(vs_max, std::strong_ordering::greater);
    } else {
      EXPECT_FALSE(v.has_prefix(prefix));
      const bool below = !v.bit(agree);
      EXPECT_EQ(vs_min == std::strong_ordering::less, below) << "ell=" << ell;
      EXPECT_EQ(vs_max == std::strong_ordering::greater, !below)
          << "ell=" << ell;
    }
  }
}

TEST(Bitstring, FirstDivergentBitOrdersAValueAgainstAPrefix) {
  // FindPrefix's rule: v's first |PREFIX*| bits compare with PREFIX* as
  // their first differing bit does.
  Rng rng(107);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t ell = 1 + rng.below(iter < 1900 ? 150 : 5000);
    const Bitstring v = rng.bits(ell);
    const Bitstring prefix = near_prefix(rng, v);
    const std::size_t agree = Bitstring::common_prefix_len(v, prefix);
    const auto want = Bitstring::numeric_compare(v.prefix(prefix.size()), prefix);
    if (agree == prefix.size()) {
      EXPECT_EQ(want, std::strong_ordering::equal);
    } else {
      EXPECT_EQ(want, v.bit(agree) ? std::strong_ordering::greater
                                   : std::strong_ordering::less);
    }
  }
}

}  // namespace
}  // namespace coca
