// GF(2^16) field axioms and Reed-Solomon erasure-coding tests.
#include <gtest/gtest.h>

#include "codec/gf16.h"
#include "codec/reed_solomon.h"
#include "util/rng.h"

namespace coca::codec {
namespace {

TEST(GF16, TableConsistency) {
  const GF16& f = GF16::instance();
  // exp/log are mutually inverse over the multiplicative group.
  for (std::size_t i = 0; i < GF16::kOrder; i += 97) {
    const GF16::Elem e = f.exp(i);
    ASSERT_NE(e, 0);
    EXPECT_EQ(f.log(e), i);
  }
}

TEST(GF16, FieldAxiomsSampled) {
  const GF16& f = GF16::instance();
  Rng rng(5);
  for (int iter = 0; iter < 2000; ++iter) {
    const auto a = static_cast<GF16::Elem>(rng.next_u64());
    const auto b = static_cast<GF16::Elem>(rng.next_u64());
    const auto c = static_cast<GF16::Elem>(rng.next_u64());
    EXPECT_EQ(f.mul(a, b), f.mul(b, a));
    EXPECT_EQ(f.mul(a, f.mul(b, c)), f.mul(f.mul(a, b), c));
    EXPECT_EQ(f.mul(a, GF16::add(b, c)),
              GF16::add(f.mul(a, b), f.mul(a, c)));
    EXPECT_EQ(f.mul(a, 1), a);
    EXPECT_EQ(f.mul(a, 0), 0);
  }
}

TEST(GF16, InverseLaw) {
  const GF16& f = GF16::instance();
  Rng rng(6);
  for (int iter = 0; iter < 2000; ++iter) {
    const auto a = static_cast<GF16::Elem>(1 + rng.below(GF16::kOrder));
    EXPECT_EQ(f.mul(a, f.inv(a)), 1) << a;
    EXPECT_EQ(f.div(f.mul(a, 0x1234), a), 0x1234);
  }
  EXPECT_THROW(f.inv(0), Error);
}

class RSRoundTrip : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RSRoundTrip, AnyKSharesReconstruct) {
  const auto [n, t] = GetParam();
  const std::size_t k = static_cast<std::size_t>(n - t);
  const ReedSolomon rs(static_cast<std::size_t>(n), k);
  Rng rng(static_cast<std::uint64_t>(n) * 1000 + t);
  for (const std::size_t size : {1u, 2u, 3u, 17u, 64u, 257u, 1000u}) {
    const Bytes data = rng.bytes(size);
    const auto shares = rs.encode(data);
    ASSERT_EQ(shares.size(), static_cast<std::size_t>(n));
    for (const auto& s : shares) EXPECT_EQ(s.size(), rs.share_size(size));

    // Reconstruct from a random k-subset.
    std::vector<std::size_t> idx(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    for (std::size_t i = idx.size(); i-- > 1;) {
      std::swap(idx[i], idx[rng.below(i + 1)]);
    }
    std::vector<std::pair<std::size_t, Bytes>> subset;
    for (std::size_t i = 0; i < k; ++i) {
      subset.emplace_back(idx[i], shares[idx[i]]);
    }
    const auto decoded = rs.decode(subset, size);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, data) << "n=" << n << " size=" << size;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RSRoundTrip,
                         ::testing::Values(std::tuple{4, 1}, std::tuple{7, 2},
                                           std::tuple{10, 3}, std::tuple{13, 4},
                                           std::tuple{31, 10},
                                           std::tuple{64, 21}));

TEST(ReedSolomon, SystematicPrefix) {
  // Shares 0..k-1 carry the data symbols verbatim (share j = symbol j of
  // each chunk).
  const ReedSolomon rs(7, 5);
  Bytes data(10);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i + 1);
  }
  const auto shares = rs.encode(data);  // one chunk of 5 symbols
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(shares[j], Bytes({data[2 * j], data[2 * j + 1]}));
  }
}

TEST(ReedSolomon, DecodeFromParityOnly) {
  const ReedSolomon rs(10, 4);
  Rng rng(77);
  const Bytes data = rng.bytes(100);
  const auto shares = rs.encode(data);
  std::vector<std::pair<std::size_t, Bytes>> parity;
  for (std::size_t j = 6; j < 10; ++j) parity.emplace_back(j, shares[j]);
  EXPECT_EQ(rs.decode(parity, data.size()), data);
}

TEST(ReedSolomon, DecodeRejectsTooFewShares) {
  const ReedSolomon rs(7, 5);
  const auto shares = rs.encode(Bytes(20, 0xAB));
  std::vector<std::pair<std::size_t, Bytes>> few;
  for (std::size_t j = 0; j < 4; ++j) few.emplace_back(j, shares[j]);
  EXPECT_EQ(rs.decode(few, 20), std::nullopt);
}

TEST(ReedSolomon, DecodeIgnoresBadIndicesAndSizes) {
  const ReedSolomon rs(7, 5);
  Rng rng(78);
  const Bytes data = rng.bytes(33);
  const auto shares = rs.encode(data);
  std::vector<std::pair<std::size_t, Bytes>> pool;
  pool.emplace_back(99, shares[0]);                  // bad index
  pool.emplace_back(0, Bytes{0x01});                 // bad size
  for (std::size_t j = 0; j < 5; ++j) pool.emplace_back(j, shares[j]);
  pool.emplace_back(0, shares[0]);                   // duplicate index
  EXPECT_EQ(rs.decode(pool, data.size()), data);
}

TEST(ReedSolomon, ShareSizeIsCeilOverK) {
  const ReedSolomon rs(31, 21);
  EXPECT_EQ(rs.share_size(1), 2u);
  EXPECT_EQ(rs.share_size(42), 2u);
  EXPECT_EQ(rs.share_size(43), 4u);
  EXPECT_EQ(rs.share_size(420), 20u);
}

TEST(ReedSolomon, RejectsBadParameters) {
  EXPECT_THROW(ReedSolomon(0, 0), Error);
  EXPECT_THROW(ReedSolomon(5, 6), Error);
  EXPECT_THROW(ReedSolomon(70000, 10), Error);
  EXPECT_NO_THROW(ReedSolomon(1, 1));
}

// ---- Differential tests: vectorized production kernels vs the ref_ scalar
// oracle. The table-driven MulBy/axpy encode and decode paths must be
// bit-for-bit identical to the original symbol-at-a-time implementation:
// the wire format (and hence every Merkle root and replay corpus) depends
// on it.

TEST(GF16, MulByMatchesFieldMul) {
  const GF16& f = GF16::instance();
  Rng rng(91);
  for (int iter = 0; iter < 200; ++iter) {
    const auto c = static_cast<GF16::Elem>(rng.next_u64());
    const MulBy by_c(f, c);
    for (int j = 0; j < 64; ++j) {
      const auto x = static_cast<GF16::Elem>(rng.next_u64());
      ASSERT_EQ(by_c(x), f.mul(c, x)) << "c=" << c << " x=" << x;
    }
    // Edges of the nibble decomposition.
    for (const GF16::Elem x : {0x0000, 0x0001, 0x00FF, 0x0100, 0xFF00, 0xFFFF}) {
      ASSERT_EQ(by_c(x), f.mul(c, x)) << "c=" << c << " x=" << x;
    }
  }
}

TEST(GF16, MulBeAndAxpyBeMatchScalarLoop) {
  const GF16& f = GF16::instance();
  Rng rng(92);
  // Sizes straddle the 8-bytes-per-iteration wide loop: remainders 0..7
  // plus single-symbol and empty buffers.
  for (const std::size_t bytes : {0u, 2u, 6u, 8u, 10u, 14u, 16u, 18u, 24u,
                                  30u, 64u, 66u, 126u, 1024u, 1030u}) {
    const auto c = static_cast<GF16::Elem>(rng.next_u64());
    const MulBy by_c(f, c);
    const Bytes src = rng.bytes(bytes);
    Bytes dst_fast(bytes, 0);
    by_c.mul_be(dst_fast.data(), src.data(), bytes);
    Bytes acc_fast = rng.bytes(bytes);
    Bytes acc_ref = acc_fast;
    by_c.axpy_be(acc_fast.data(), src.data(), bytes);
    for (std::size_t i = 0; i < bytes; i += 2) {
      const auto x = static_cast<GF16::Elem>((src[i] << 8) | src[i + 1]);
      const GF16::Elem y = f.mul(c, x);
      ASSERT_EQ(dst_fast[i], y >> 8) << "bytes=" << bytes << " i=" << i;
      ASSERT_EQ(dst_fast[i + 1], y & 0xFF) << "bytes=" << bytes << " i=" << i;
      acc_ref[i] ^= static_cast<std::uint8_t>(y >> 8);
      acc_ref[i + 1] ^= static_cast<std::uint8_t>(y & 0xFF);
    }
    ASSERT_EQ(acc_fast, acc_ref) << "bytes=" << bytes;
  }
}

TEST(ReedSolomon, EncodeMatchesReferenceAcrossSizes) {
  Rng rng(93);
  // Sizes chosen to straddle the small-buffer threshold (512-byte shares)
  // where encode switches between the ref_ scalar path and the MulBy axpy
  // path, plus odd lengths exercising the padding of the final chunk.
  const std::size_t sizes[] = {1,   2,    3,    17,   100,  511,   512,
                               513, 1000, 4095, 4096, 4097, 10000, 65537};
  for (const auto& [n, k] : {std::pair<std::size_t, std::size_t>{4, 3},
                             {7, 5}, {13, 9}, {31, 21}, {64, 43}}) {
    const ReedSolomon rs(n, k);
    for (const std::size_t size : sizes) {
      const Bytes data = rng.bytes(size);
      ASSERT_EQ(rs.encode(data), ref_::encode(n, k, data))
          << "n=" << n << " k=" << k << " size=" << size;
    }
  }
}

TEST(ReedSolomon, DecodeMatchesReferenceOnAdversarialShareLists) {
  Rng rng(94);
  for (const auto& [n, k] : {std::pair<std::size_t, std::size_t>{7, 5},
                             {13, 9}, {31, 21}}) {
    const ReedSolomon rs(n, k);
    for (const std::size_t size : {1u, 40u, 511u, 513u, 2048u, 9973u}) {
      const Bytes data = rng.bytes(size);
      const auto shares = rs.encode(data);
      // Adversarial list: shuffled order, a duplicate index with different
      // bytes, an out-of-range index, a wrong-size share -- the decoders
      // must make identical keep/ignore decisions.
      std::vector<std::pair<std::size_t, Bytes>> pool;
      std::vector<std::size_t> idx(n);
      for (std::size_t i = 0; i < n; ++i) idx[i] = i;
      for (std::size_t i = n; i-- > 1;) std::swap(idx[i], idx[rng.below(i + 1)]);
      for (std::size_t i = 0; i < k; ++i) pool.emplace_back(idx[i], shares[idx[i]]);
      pool.insert(pool.begin() + 1,
                  {pool[0].first, rng.bytes(pool[0].second.size())});
      pool.emplace_back(n + 5, shares[0]);
      pool.emplace_back(idx[k % n], Bytes{0x01});
      const auto fast = rs.decode(pool, size);
      const auto ref = ref_::decode(n, k, pool, size);
      ASSERT_EQ(fast, ref) << "n=" << n << " size=" << size;
      ASSERT_EQ(fast, data) << "n=" << n << " size=" << size;
    }
    // Too-few-shares rejection must agree as well.
    const Bytes data = rng.bytes(100);
    const auto shares = rs.encode(data);
    std::vector<std::pair<std::size_t, Bytes>> few;
    for (std::size_t i = 0; i + 1 < k; ++i) few.emplace_back(i, shares[i]);
    ASSERT_EQ(rs.decode(few, 100), std::nullopt);
    ASSERT_EQ(ref_::decode(n, k, few, 100), std::nullopt);
  }
}

TEST(ReedSolomon, DeterministicEncoding) {
  // The paper relies on RS.ENCODE being deterministic: same value, same
  // codewords (hence the same Merkle root at every honest party).
  const ReedSolomon rs(13, 9);
  const Bytes data(500, 0x5A);
  EXPECT_EQ(rs.encode(data), rs.encode(data));
}

}  // namespace
}  // namespace coca::codec
