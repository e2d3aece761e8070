// GF(2^16) field axioms and Reed-Solomon erasure-coding tests.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "codec/gf16.h"
#include "codec/reed_solomon.h"
#include "util/rng.h"

namespace coca::codec {
namespace {

/// The n shares of `data` back to back, encoded into a buffer pre-filled
/// with `fill`, so a byte the encoder fails to write shows.
Bytes encode(const ReedSolomon& rs, const Bytes& data,
             std::uint8_t fill = 0xA5) {
  Bytes out(rs.n() * rs.share_size(data.size()), fill);
  rs.encode(data, out);
  return out;
}

/// Share `i` of an `encode` result with `ssize`-byte shares.
std::span<const std::uint8_t> share(const Bytes& coded, std::size_t ssize,
                                    std::size_t i) {
  return std::span<const std::uint8_t>(coded).subspan(i * ssize, ssize);
}

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
    const std::size_t ssize = rs.share_size(size);
    const Bytes coded = encode(rs, data);
    ASSERT_EQ(coded.size(), static_cast<std::size_t>(n) * ssize);

    // Reconstruct from a random k-subset.
    std::vector<std::size_t> idx(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    for (std::size_t i = idx.size(); i-- > 1;) {
      std::swap(idx[i], idx[rng.below(i + 1)]);
    }
    std::vector<ShareView> subset;
    for (std::size_t i = 0; i < k; ++i) {
      subset.push_back({idx[i], share(coded, ssize, idx[i])});
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
  const Bytes coded = encode(rs, data);  // one chunk of 5 symbols
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(Bytes(coded.begin() + 2 * j, coded.begin() + 2 * j + 2),
              Bytes({data[2 * j], data[2 * j + 1]}));
  }
}

TEST(ReedSolomon, DecodeFromParityOnly) {
  const ReedSolomon rs(10, 4);
  Rng rng(77);
  const Bytes data = rng.bytes(100);
  const Bytes coded = encode(rs, data);
  const std::size_t ssize = rs.share_size(data.size());
  std::vector<ShareView> parity;
  for (std::size_t j = 6; j < 10; ++j) {
    parity.push_back({j, share(coded, ssize, j)});
  }
  EXPECT_EQ(rs.decode(parity, data.size()), data);
}

TEST(ReedSolomon, DecodeRejectsTooFewShares) {
  const ReedSolomon rs(7, 5);
  const Bytes coded = encode(rs, Bytes(20, 0xAB));
  std::vector<ShareView> few;
  for (std::size_t j = 0; j < 4; ++j) {
    few.push_back({j, share(coded, rs.share_size(20), j)});
  }
  EXPECT_EQ(rs.decode(few, 20), std::nullopt);
}

TEST(ReedSolomon, DecodeIgnoresBadIndicesAndSizes) {
  const ReedSolomon rs(7, 5);
  Rng rng(78);
  const Bytes data = rng.bytes(33);
  const Bytes coded = encode(rs, data);
  const std::size_t ssize = rs.share_size(data.size());
  const Bytes tiny{0x01};
  std::vector<ShareView> pool;
  pool.push_back({99, share(coded, ssize, 0)});  // bad index
  pool.push_back({0, tiny});                     // bad size
  for (std::size_t j = 0; j < 5; ++j) {
    pool.push_back({j, share(coded, ssize, j)});
  }
  pool.push_back({0, share(coded, ssize, 0)});  // duplicate index
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

// mul_be/axpy_be, and each loop they dispatch to called directly, against
// the field: every even length from 0 to 130 bytes (so the 32-byte AVX2
// step meets each tail length and the scalar 8-byte step each remainder)
// plus buffers around 1 and 4 KiB, for the coefficients at the edges of the
// nibble tables and random ones.
TEST(GF16, MulBeAndAxpyBeMatchScalarLoop) {
  const GF16& f = GF16::instance();
  struct Kernel {
    const char* name;
    detail::MulByKernel mul;
    detail::MulByKernel axpy;
  };
  std::vector<Kernel> kernels = {
      {"MulBy members",
       [](const MulBy& m, std::uint8_t* d, const std::uint8_t* s,
          std::size_t b) { m.mul_be(d, s, b); },
       [](const MulBy& m, std::uint8_t* d, const std::uint8_t* s,
          std::size_t b) { m.axpy_be(d, s, b); }},
      {"scalar", detail::mul_be_scalar, detail::axpy_be_scalar}};
  if (detail::avx2_available()) {
    kernels.push_back({"avx2", detail::mul_be_avx2, detail::axpy_be_avx2});
  }
  std::vector<std::size_t> lengths;
  for (std::size_t b = 0; b <= 130; b += 2) lengths.push_back(b);
  for (const std::size_t b : {1024u, 1030u, 4094u, 4096u, 4098u}) {
    lengths.push_back(b);
  }
  Rng rng(92);
  std::vector<GF16::Elem> coefs = {0x0000, 0x0001, 0xFFFF};
  for (int i = 0; i < 4; ++i) {
    coefs.push_back(static_cast<GF16::Elem>(rng.next_u64()));
  }
  for (const GF16::Elem c : coefs) {
    const MulBy by_c(f, c);
    for (const std::size_t bytes : lengths) {
      const Bytes src = rng.bytes(bytes);
      const Bytes acc0 = rng.bytes(bytes);
      Bytes want_mul(bytes);
      Bytes want_axpy = acc0;
      for (std::size_t i = 0; i < bytes; i += 2) {
        const auto x = static_cast<GF16::Elem>(src[i] << 8 | src[i + 1]);
        const GF16::Elem y = f.mul(c, x);
        want_mul[i] = static_cast<std::uint8_t>(y >> 8);
        want_mul[i + 1] = static_cast<std::uint8_t>(y);
        want_axpy[i] ^= static_cast<std::uint8_t>(y >> 8);
        want_axpy[i + 1] ^= static_cast<std::uint8_t>(y);
      }
      for (const Kernel& kernel : kernels) {
        // Poisoned output, so a byte the kernel fails to write shows.
        Bytes got_mul(bytes, 0xA5);
        kernel.mul(by_c, got_mul.data(), src.data(), bytes);
        ASSERT_EQ(got_mul, want_mul)
            << kernel.name << " mul_be c=" << c << " bytes=" << bytes;
        Bytes got_axpy = acc0;
        kernel.axpy(by_c, got_axpy.data(), src.data(), bytes);
        ASSERT_EQ(got_axpy, want_axpy)
            << kernel.name << " axpy_be c=" << c << " bytes=" << bytes;
      }
    }
  }
}

// The AVX2 loop serves mul_be/axpy_be exactly when the CPU has AVX2, so a
// broken dispatcher cannot silently fall back to the scalar loop.
TEST(GF16, KernelDispatchFollowsCpuid) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  const bool avx2 = __builtin_cpu_supports("avx2") != 0;
#else
  const bool avx2 = false;
#endif
  EXPECT_EQ(detail::avx2_available(), avx2);
  EXPECT_EQ(detail::mul_be_kernel(),
            avx2 ? detail::mul_be_avx2 : detail::mul_be_scalar);
  EXPECT_EQ(detail::axpy_be_kernel(),
            avx2 ? detail::axpy_be_avx2 : detail::axpy_be_scalar);
}

TEST(ReedSolomon, EncodeMatchesReferenceAcrossSizes) {
  Rng rng(93);
  // Sizes chosen to straddle the small-buffer threshold (448-byte shares)
  // where encode switches between its scalar symbol loop and the MulBy
  // kernels, plus odd lengths exercising the padding of the final chunk.
  const std::size_t sizes[] = {1,   2,    3,    17,   100,  511,   512,
                               513, 1000, 4095, 4096, 4097, 10000, 65537};
  for (const auto& [n, k] : {std::pair<std::size_t, std::size_t>{4, 3},
                             {7, 5}, {13, 9}, {31, 21}, {64, 43}}) {
    const ReedSolomon rs(n, k);
    for (const std::size_t size : sizes) {
      const Bytes data = rng.bytes(size);
      ASSERT_EQ(encode(rs, data), ref_::encode(n, k, data))
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
      const std::size_t ssize = rs.share_size(size);
      const Bytes coded = encode(rs, data);
      // Adversarial list: shuffled order, a duplicate index with different
      // bytes, an out-of-range index, a wrong-size share -- the decoders
      // must make identical keep/ignore decisions.
      std::vector<ShareView> pool;
      std::vector<std::size_t> idx(n);
      for (std::size_t i = 0; i < n; ++i) idx[i] = i;
      for (std::size_t i = n; i-- > 1;) std::swap(idx[i], idx[rng.below(i + 1)]);
      for (std::size_t i = 0; i < k; ++i) {
        pool.push_back({idx[i], share(coded, ssize, idx[i])});
      }
      const Bytes forged = rng.bytes(ssize);
      const Bytes tiny{0x01};
      pool.insert(pool.begin() + 1, {pool[0].index, forged});
      pool.push_back({n + 5, share(coded, ssize, 0)});
      pool.push_back({idx[k % n], tiny});
      const auto fast = rs.decode(pool, size);
      const auto ref = ref_::decode(n, k, pool, size);
      ASSERT_EQ(fast, ref) << "n=" << n << " size=" << size;
      ASSERT_EQ(fast, data) << "n=" << n << " size=" << size;
    }
    // Too-few-shares rejection must agree as well.
    const Bytes data = rng.bytes(100);
    const Bytes coded = encode(rs, data);
    std::vector<ShareView> few;
    for (std::size_t i = 0; i + 1 < k; ++i) {
      few.push_back({i, share(coded, rs.share_size(100), i)});
    }
    ASSERT_EQ(rs.decode(few, 100), std::nullopt);
    ASSERT_EQ(ref_::decode(n, k, few, 100), std::nullopt);
  }
}

// lBA+'s shape on a 2^22-bit input at n = 7: (7, 5) with a 2^19 + 8-byte
// payload, so the shares are ~100 KiB and the final chunk is padded.
TEST(ReedSolomon, WideInputShapeMatchesReference) {
  const std::size_t n = 7;
  const std::size_t k = 5;
  const ReedSolomon rs(n, k);
  Rng rng(96);
  const Bytes data = rng.bytes((std::size_t{1} << 19) + 8);
  const Bytes coded = encode(rs, data);
  ASSERT_EQ(coded, ref_::encode(n, k, data));
  // Shares 2..6: both parity shares stand in for systematic shares 0 and
  // 1, so two columns are interpolated and three are copied.
  const std::size_t ssize = rs.share_size(data.size());
  std::vector<ShareView> pool;
  for (std::size_t i = n - k; i < n; ++i) {
    pool.push_back({i, share(coded, ssize, i)});
  }
  const auto decoded = rs.decode(pool, data.size());
  ASSERT_EQ(decoded, ref_::decode(n, k, pool, data.size()));
  ASSERT_EQ(decoded, data);
}

TEST(ReedSolomon, DeterministicEncoding) {
  // The paper relies on RS.ENCODE being deterministic: same value, same
  // codewords (hence the same Merkle root at every honest party).
  const ReedSolomon rs(13, 9);
  const Bytes data(500, 0x5A);
  EXPECT_EQ(encode(rs, data), encode(rs, data));
}

// The codes the two tests below run: no parity, one parity share, n = 7 as
// on piz_wide_input, n - k >= k (so a parity-only selection exists), and
// n = 31.
constexpr std::pair<std::size_t, std::size_t> kOverwriteCodes[] = {
    {1, 1}, {2, 1}, {4, 3}, {7, 5}, {10, 4}, {31, 21}};

// Payload sizes with shares on both sides of the 448-byte threshold where
// combine() switches from its symbol loop to the MulBy kernels.
std::vector<std::size_t> overwrite_sizes(std::size_t k) {
  std::vector<std::size_t> sizes;
  for (std::size_t b = 0; b <= 300; ++b) sizes.push_back(b);
  for (const std::size_t b : {446 * k, 446 * k + 1, 448 * k + 3}) {
    sizes.push_back(b);
  }
  sizes.push_back(64 * 1024);
  return sizes;
}

// encode writes every byte of its output: into a buffer pre-filled with
// 0xA5 and one pre-filled with 0x5A it writes the reference codewords.
TEST(ReedSolomon, EncodeWritesEveryByte) {
  Rng rng(97);
  for (const auto& [n, k] : kOverwriteCodes) {
    const ReedSolomon rs(n, k);
    for (const std::size_t size : overwrite_sizes(k)) {
      const Bytes data = rng.bytes(size);
      const Bytes want = ref_::encode(n, k, data);
      ASSERT_EQ(encode(rs, data, 0xA5), want)
          << "n=" << n << " k=" << k << " size=" << size;
      ASSERT_EQ(encode(rs, data, 0x5A), want)
          << "n=" << n << " k=" << k << " size=" << size;
    }
  }
}

// Decode over share views against the reference on three selections: the
// k systematic shares, a mix (odd indices first, then even), and parity
// shares first (parity only where n - k >= k).
TEST(ReedSolomon, DecodeViewsMatchReference) {
  Rng rng(98);
  for (const auto& [n, k] : kOverwriteCodes) {
    const ReedSolomon rs(n, k);
    std::vector<std::size_t> systematic;
    std::vector<std::size_t> mixed;
    std::vector<std::size_t> parity_first;
    for (std::size_t i = 0; i < k; ++i) systematic.push_back(i);
    for (std::size_t i = 1; i < n; i += 2) mixed.push_back(i);
    for (std::size_t i = 0; i < n; i += 2) mixed.push_back(i);
    for (std::size_t i = n; i-- > 0;) parity_first.push_back(i);
    for (const std::size_t size : overwrite_sizes(k)) {
      const Bytes data = rng.bytes(size);
      const std::size_t ssize = rs.share_size(size);
      const Bytes coded = encode(rs, data);
      for (const auto* order : {&systematic, &mixed, &parity_first}) {
        std::vector<ShareView> pool;
        for (std::size_t i = 0; i < k; ++i) {
          pool.push_back({(*order)[i], share(coded, ssize, (*order)[i])});
        }
        const auto fast = rs.decode(pool, size);
        ASSERT_EQ(fast, ref_::decode(n, k, pool, size))
            << "n=" << n << " k=" << k << " size=" << size;
        ASSERT_EQ(fast, data) << "n=" << n << " k=" << k << " size=" << size;
      }
    }
  }
}

}  // namespace
}  // namespace coca::codec
