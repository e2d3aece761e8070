#include "codec/gf16.h"

#include <algorithm>
#include <cstring>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

namespace coca::codec {

namespace {

// Candidate degree-16 polynomials over GF(2); the constructor verifies
// primitivity, so an error in this list is caught at startup, not at decode.
constexpr std::uint32_t kCandidatePolys[] = {
    0x1100B,  // x^16 + x^12 + x^3 + x + 1
    0x1002D,  // x^16 + x^5 + x^3 + x^2 + 1
    0x100B7,  // x^16 + x^7 + x^5 + x^4 + x^2 + x + 1
};

}  // namespace

GF16::GF16() {
  for (const std::uint32_t poly : kCandidatePolys) {
    // Walk powers of alpha = x. If x is a primitive element modulo `poly`,
    // the walk visits every nonzero element exactly once before returning
    // to 1 after kOrder steps.
    bool seen[kOrder + 1] = {};
    std::uint32_t x = 1;
    bool ok = true;
    for (std::size_t i = 0; i < kOrder; ++i) {
      if (x == 0 || x > 0xFFFF || seen[x]) {
        ok = false;
        break;
      }
      seen[x] = true;
      exp_[i] = static_cast<Elem>(x);
      log_[x] = static_cast<std::uint16_t>(i);
      x <<= 1;
      if (x & 0x10000U) x ^= poly;
    }
    if (ok && x == 1) {
      for (std::size_t i = 0; i < kOrder; ++i) exp_[kOrder + i] = exp_[i];
      return;
    }
    // Not primitive: reset and try the next candidate.
    for (auto& e : exp_) e = 0;
    for (auto& l : log_) l = 0;
  }
  ensure(false, "no primitive polynomial candidate for GF(2^16) validated");
}

const GF16& GF16::instance() {
  static const GF16 field;
  return field;
}

MulBy::MulBy(const GF16& f, Elem c) {
  // Nibble tables: c * (d << 4s) for every nibble value d and nibble
  // position s. By linearity each entry is the XOR of its bits' products
  // c * 2^b: 16 field muls, the only ones this constructor performs.
  Elem nib[4][16];
  for (int s = 0; s < 4; ++s) {
    nib[s][0] = 0;
    for (int b = 0; b < 4; ++b) {
      nib[s][1 << b] = f.mul(c, static_cast<Elem>(1U << (4 * s + b)));
    }
    for (int d = 3; d < 16; ++d) {
      if ((d & (d - 1)) != 0) {
        nib[s][d] = static_cast<Elem>(nib[s][d & (d - 1)] ^ nib[s][d & -d]);
      }
    }
    for (int d = 0; d < 16; ++d) {
      nib_[2 * s][d] = static_cast<std::uint8_t>(nib[s][d]);
      nib_[2 * s + 1][d] = static_cast<std::uint8_t>(nib[s][d] >> 8);
    }
  }
  // Without AVX2 the scalar loop runs: fold nibble pairs into byte tables
  // by GF(2)-linearity, XORs only, in rows of 16 the compiler vectorizes.
  // The AVX2 loop reads only the nibble tables.
  if (detail::avx2_available()) return;
  folded_ = true;
  for (int h = 0; h < 16; ++h) {
    for (int l = 0; l < 16; ++l) {
      lo_[16 * h + l] = static_cast<Elem>(nib[0][l] ^ nib[1][h]);
      hi_[16 * h + l] = static_cast<Elem>(nib[2][l] ^ nib[3][h]);
    }
  }
}

void MulBy::mul_be(std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t bytes) const {
  detail::mul_be_kernel()(*this, dst, src, bytes);
}

void MulBy::axpy_be(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t bytes) const {
  detail::axpy_be_kernel()(*this, dst, src, bytes);
}

namespace detail {

using Elem = GF16::Elem;

void mul_be_scalar(const MulBy& m, std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t bytes) {
  std::size_t i = 0;
  // Four symbols per iteration; the products are packed into one 64-bit
  // lane and stored with a single memcpy (endian-agnostic: the lane is
  // treated as bytes at both ends).
  for (; i + 8 <= bytes; i += 8) {
    std::uint8_t lane[8];
    for (std::size_t s = 0; s < 8; s += 2) {
      const Elem y = m(static_cast<Elem>(src[i + s] << 8 | src[i + s + 1]));
      lane[s] = static_cast<std::uint8_t>(y >> 8);
      lane[s + 1] = static_cast<std::uint8_t>(y);
    }
    std::memcpy(dst + i, lane, 8);
  }
  for (; i + 2 <= bytes; i += 2) {
    const Elem y = m(static_cast<Elem>(src[i] << 8 | src[i + 1]));
    dst[i] = static_cast<std::uint8_t>(y >> 8);
    dst[i + 1] = static_cast<std::uint8_t>(y);
  }
}

void axpy_be_scalar(const MulBy& m, std::uint8_t* dst,
                    const std::uint8_t* src, std::size_t bytes) {
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint8_t lane[8];
    for (std::size_t s = 0; s < 8; s += 2) {
      const Elem y = m(static_cast<Elem>(src[i + s] << 8 | src[i + s + 1]));
      lane[s] = static_cast<std::uint8_t>(y >> 8);
      lane[s + 1] = static_cast<std::uint8_t>(y);
    }
    std::uint64_t a;
    std::uint64_t b;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, lane, 8);
    a ^= b;  // the 64-bit-wide accumulate
    std::memcpy(dst + i, &a, 8);
  }
  for (; i + 2 <= bytes; i += 2) {
    const Elem y = m(static_cast<Elem>(src[i] << 8 | src[i + 1]));
    dst[i] ^= static_cast<std::uint8_t>(y >> 8);
    dst[i + 1] ^= static_cast<std::uint8_t>(y);
  }
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

bool avx2_available() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}

namespace {

// One 32-byte step of both entry points: `kAccumulate` selects
// dst ^= c*src over dst = c*src. Byte 2i of the buffer is symbol i's high
// byte h, byte 2i+1 its low byte l; the product's high byte lands at 2i,
// its low byte at 2i+1. lo[s] / hi[s]: the low / high product byte tables
// for nibble position s, broadcast to both 128-bit lanes (PSHUFB looks up
// within a lane).
template <bool kAccumulate>
__attribute__((target("avx2"), always_inline)) inline void avx2_step(
    const __m256i (&lo)[4], const __m256i (&hi)[4], std::uint8_t* dst,
    const std::uint8_t* src) {
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  // Swaps the two bytes of every symbol.
  const __m256i swap = _mm256_setr_epi8(
      1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14,  //
      1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14);
  // Top bit set in the odd (low-byte) positions: the blend selector.
  const __m256i odd = _mm256_set1_epi16(static_cast<short>(0xFF00));
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
  const __m256i p = _mm256_shuffle_epi8(v, swap);  // each byte's partner
  const __m256i v0 = _mm256_and_si256(v, nibble);
  const __m256i v1 = _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble);
  const __m256i p0 = _mm256_and_si256(p, nibble);
  const __m256i p1 = _mm256_and_si256(_mm256_srli_epi16(p, 4), nibble);
  // Even bytes hold h (own) and l (partner): the product's high byte.
  const __m256i even = _mm256_xor_si256(
      _mm256_xor_si256(_mm256_shuffle_epi8(hi[0], p0),
                       _mm256_shuffle_epi8(hi[1], p1)),
      _mm256_xor_si256(_mm256_shuffle_epi8(hi[2], v0),
                       _mm256_shuffle_epi8(hi[3], v1)));
  // Odd bytes hold l (own) and h (partner): the product's low byte.
  const __m256i odd_bytes = _mm256_xor_si256(
      _mm256_xor_si256(_mm256_shuffle_epi8(lo[0], v0),
                       _mm256_shuffle_epi8(lo[1], v1)),
      _mm256_xor_si256(_mm256_shuffle_epi8(lo[2], p0),
                       _mm256_shuffle_epi8(lo[3], p1)));
  __m256i y = _mm256_blendv_epi8(even, odd_bytes, odd);
  if constexpr (kAccumulate) {
    y = _mm256_xor_si256(
        y, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst)));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), y);
}

// 32 bytes per step; the last, partial step runs on zero-padded copies of
// the tail, so no buffer needs the scalar loop or its byte tables.
template <bool kAccumulate>
__attribute__((target("avx2"))) void avx2_loop(const MulBy& m,
                                               std::uint8_t* dst,
                                               const std::uint8_t* src,
                                               std::size_t bytes) {
  const auto* t = reinterpret_cast<const __m128i*>(m.nibble_tables());
  __m256i lo[4];
  __m256i hi[4];
  for (int s = 0; s < 4; ++s) {
    lo[s] = _mm256_broadcastsi128_si256(_mm_load_si128(t + 2 * s));
    hi[s] = _mm256_broadcastsi128_si256(_mm_load_si128(t + 2 * s + 1));
  }
  std::size_t i = 0;
  for (; i + 32 <= bytes; i += 32) {
    avx2_step<kAccumulate>(lo, hi, dst + i, src + i);
  }
  if (i < bytes) {
    const std::size_t rest = bytes - i;
    std::uint8_t s[32] = {};
    std::uint8_t d[32] = {};
    std::memcpy(s, src + i, rest);
    if constexpr (kAccumulate) std::memcpy(d, dst + i, rest);
    avx2_step<kAccumulate>(lo, hi, d, s);
    std::memcpy(dst + i, d, rest);
  }
}

}  // namespace

void mul_be_avx2(const MulBy& m, std::uint8_t* dst, const std::uint8_t* src,
                 std::size_t bytes) {
  avx2_loop<false>(m, dst, src, bytes);
}

void axpy_be_avx2(const MulBy& m, std::uint8_t* dst, const std::uint8_t* src,
                  std::size_t bytes) {
  avx2_loop<true>(m, dst, src, bytes);
}

#else  // not x86-64 GCC/Clang: the scalar loop only

bool avx2_available() { return false; }

void mul_be_avx2(const MulBy& m, std::uint8_t* dst, const std::uint8_t* src,
                 std::size_t bytes) {
  mul_be_scalar(m, dst, src, bytes);
}

void axpy_be_avx2(const MulBy& m, std::uint8_t* dst, const std::uint8_t* src,
                  std::size_t bytes) {
  axpy_be_scalar(m, dst, src, bytes);
}

#endif

MulByKernel mul_be_kernel() {
  static const MulByKernel k = avx2_available() ? mul_be_avx2 : mul_be_scalar;
  return k;
}

MulByKernel axpy_be_kernel() {
  static const MulByKernel k =
      avx2_available() ? axpy_be_avx2 : axpy_be_scalar;
  return k;
}

}  // namespace detail

}  // namespace coca::codec
