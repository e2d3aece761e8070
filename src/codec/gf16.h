// GF(2^16) arithmetic via log/antilog tables.
//
// Field for the Reed-Solomon codes of Section 7: symbols are elements of
// GF(2^a) with n <= 2^a - 1; a = 16 supports up to 65535 parties. Tables are
// built once at first use from a verified primitive polynomial (the builder
// checks that x generates the full multiplicative group, so a wrong constant
// cannot silently produce a non-field).
//
// `MulBy` is the bulk-multiplication kernel: multiplication by a fixed
// constant c is GF(2)-linear in the 16 input bits, so c*x decomposes into
// XORs of per-nibble partial products. The constructor builds the four
// packed nibble tables (64 field muls) and folds them into two 256-entry
// byte tables (XORs only); `mul_be`/`axpy_be` then stream over big-endian
// symbol buffers at two L1 lookups per symbol with 64-bit-wide XOR/stores --
// the inner loop of Reed-Solomon encode/decode.
#pragma once

#include <cstdint>

#include "util/common.h"

namespace coca::codec {

class GF16 {
 public:
  using Elem = std::uint16_t;

  /// The process-wide field instance (tables built on first call).
  static const GF16& instance();

  /// Addition == subtraction == XOR in characteristic 2.
  static constexpr Elem add(Elem a, Elem b) { return a ^ b; }

  Elem mul(Elem a, Elem b) const {
    if (a == 0 || b == 0) return 0;
    return exp_[static_cast<std::size_t>(log_[a]) + log_[b]];
  }

  Elem inv(Elem a) const {
    require(a != 0, "GF16::inv: zero has no inverse");
    return exp_[kOrder - log_[a]];
  }

  Elem div(Elem a, Elem b) const { return mul(a, inv(b)); }

  /// alpha^i for i in [0, 2*kOrder).
  Elem exp(std::size_t i) const { return exp_[i % kOrder]; }
  std::uint16_t log(Elem a) const {
    require(a != 0, "GF16::log: log of zero");
    return log_[a];
  }

  /// Multiplicative group order: 2^16 - 1.
  static constexpr std::size_t kOrder = 65535;

 private:
  GF16();

  // exp_ doubled so mul() needs no modular reduction of the exponent sum.
  Elem exp_[2 * kOrder] = {};
  std::uint16_t log_[kOrder + 1] = {};
};

/// Multiplication by a fixed field constant, for bulk symbol streams.
///
/// Construction costs 64 field muls (the packed nibble tables) plus 512
/// XORs (folding into byte tables); amortize it over at least a few hundred
/// symbols -- Reed-Solomon keeps a scalar path for small buffers.
class MulBy {
 public:
  using Elem = GF16::Elem;

  MulBy(const GF16& f, Elem c);

  /// c * x, two L1 lookups.
  Elem operator()(Elem x) const {
    return static_cast<Elem>(lo_[x & 0xFF] ^ hi_[x >> 8]);
  }

  /// dst = c * src over `bytes` bytes of big-endian 16-bit symbols
  /// (`bytes` must be even; buffers must not overlap).
  void mul_be(std::uint8_t* dst, const std::uint8_t* src,
              std::size_t bytes) const;

  /// dst ^= c * src (same layout contract): the GF(2^16) axpy.
  void axpy_be(std::uint8_t* dst, const std::uint8_t* src,
               std::size_t bytes) const;

 private:
  Elem lo_[256];  // c * x for x in 0..255 (low source byte)
  Elem hi_[256];  // c * (x << 8)         (high source byte)
};

}  // namespace coca::codec
