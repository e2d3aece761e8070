#include "codec/gf16.h"

#include <algorithm>
#include <cstring>
#include <vector>

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
  // Packed nibble tables: c * (d << 4s) for every nibble value d and nibble
  // position s. 64 field muls, the only ones this constructor performs.
  Elem nib[4][16];
  for (int s = 0; s < 4; ++s) {
    for (int d = 0; d < 16; ++d) {
      nib[s][d] = f.mul(c, static_cast<Elem>(d << (4 * s)));
    }
  }
  // Fold nibble pairs into byte tables by GF(2)-linearity: XORs only.
  for (int b = 0; b < 256; ++b) {
    lo_[b] = static_cast<Elem>(nib[0][b & 15] ^ nib[1][b >> 4]);
    hi_[b] = static_cast<Elem>(nib[2][b & 15] ^ nib[3][b >> 4]);
  }
}

void MulBy::mul_be(std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t bytes) const {
  std::size_t i = 0;
  // Four symbols per iteration; the products are packed into one 64-bit
  // lane and stored with a single memcpy (endian-agnostic: the lane is
  // treated as bytes at both ends).
  for (; i + 8 <= bytes; i += 8) {
    std::uint8_t lane[8];
    for (std::size_t s = 0; s < 8; s += 2) {
      const Elem y = static_cast<Elem>(lo_[src[i + s + 1]] ^ hi_[src[i + s]]);
      lane[s] = static_cast<std::uint8_t>(y >> 8);
      lane[s + 1] = static_cast<std::uint8_t>(y);
    }
    std::memcpy(dst + i, lane, 8);
  }
  for (; i + 2 <= bytes; i += 2) {
    const Elem y = static_cast<Elem>(lo_[src[i + 1]] ^ hi_[src[i]]);
    dst[i] = static_cast<std::uint8_t>(y >> 8);
    dst[i + 1] = static_cast<std::uint8_t>(y);
  }
}

void MulBy::axpy_be(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t bytes) const {
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint8_t lane[8];
    for (std::size_t s = 0; s < 8; s += 2) {
      const Elem y = static_cast<Elem>(lo_[src[i + s + 1]] ^ hi_[src[i + s]]);
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
    const Elem y = static_cast<Elem>(lo_[src[i + 1]] ^ hi_[src[i]]);
    dst[i] ^= static_cast<std::uint8_t>(y >> 8);
    dst[i + 1] ^= static_cast<std::uint8_t>(y);
  }
}

}  // namespace coca::codec
