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
// nibble tables (16 field muls) as eight 16-byte tables (the low and high
// product byte per nibble position) and, only on hosts without AVX2, where
// the scalar loop runs, folds them into two 256-entry byte tables (XORs
// only). `mul_be`/`axpy_be` stream
// over big-endian symbol buffers -- the inner loop of Reed-Solomon encode
// and decode -- and dispatch at run time:
//   * AVX2 (split-nibble technique, Plank, Greenan and Miller, FAST 2013):
//     per 32 bytes one byte-swap PSHUFB fetches each symbol's partner byte,
//     eight table PSHUFBs look up the nibbles, and one blend keeps each
//     byte's half of the product; a tail under 32 bytes takes one more
//     step on a zero-padded copy;
//   * scalar: two byte-table lookups per symbol, on hosts without AVX2.
// Both loops compute the same field products, so the choice never changes
// a codeword. The AVX2 loop is one `target("avx2")` function behind a
// cached CPUID check; the build sets no global ISA flag.
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
/// Construction costs 16 field muls plus XORs (the nibble tables), and
/// without AVX2 512 XORs more (folding them into byte tables); amortize it
/// over a few hundred bytes -- Reed-Solomon keeps a scalar path for small
/// buffers.
class MulBy {
 public:
  using Elem = GF16::Elem;

  MulBy(const GF16& f, Elem c);

  /// c * x: two byte-table lookups where the tables are folded (no AVX2),
  /// else four nibble-table lookups.
  Elem operator()(Elem x) const {
    if (folded_) return static_cast<Elem>(lo_[x & 0xFF] ^ hi_[x >> 8]);
    Elem y = 0;
    for (int s = 0; s < 4; ++s) {
      const unsigned d = (x >> (4 * s)) & 0xFU;
      y ^= static_cast<Elem>(nib_[2 * s][d] | nib_[2 * s + 1][d] << 8);
    }
    return y;
  }

  /// dst = c * src over `bytes` bytes of big-endian 16-bit symbols
  /// (`bytes` must be even; buffers must not overlap).
  void mul_be(std::uint8_t* dst, const std::uint8_t* src,
              std::size_t bytes) const;

  /// dst ^= c * src (same layout contract): the GF(2^16) axpy.
  void axpy_be(std::uint8_t* dst, const std::uint8_t* src,
               std::size_t bytes) const;

  /// nib_[2s] / nib_[2s + 1]: low / high byte of c * (d << 4s) for every
  /// nibble value d at nibble position s (s = 0 is the symbol's low nibble).
  /// The AVX2 loop's PSHUFB tables.
  using NibbleTables = std::uint8_t[8][16];
  const NibbleTables& nibble_tables() const { return nib_; }

 private:
  // Set only where the scalar loop runs: on hosts without AVX2.
  bool folded_ = false;
  Elem lo_[256];  // c * x for x in 0..255 (low source byte), once folded
  Elem hi_[256];  // c * (x << 8)         (high source byte), once folded
  alignas(16) NibbleTables nib_;
};

/// The loops behind `MulBy::mul_be`/`axpy_be`, callable one by one so tests
/// can check each against the field on any host that runs it. Not a
/// switch: production code calls only the MulBy members.
namespace detail {

using MulByKernel = void (*)(const MulBy& m, std::uint8_t* dst,
                             const std::uint8_t* src, std::size_t bytes);

/// Two byte-table lookups per symbol (four nibble-table lookups on an AVX2
/// host, where the byte tables are not folded); runs everywhere.
void mul_be_scalar(const MulBy& m, std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t bytes);
void axpy_be_scalar(const MulBy& m, std::uint8_t* dst,
                    const std::uint8_t* src, std::size_t bytes);

/// True when the AVX2 loop is compiled in and the CPU supports AVX2
/// (checked once, then cached).
bool avx2_available();

/// 32 bytes per step, the tail on a zero-padded copy. Precondition:
/// avx2_available().
void mul_be_avx2(const MulBy& m, std::uint8_t* dst, const std::uint8_t* src,
                 std::size_t bytes);
void axpy_be_avx2(const MulBy& m, std::uint8_t* dst, const std::uint8_t* src,
                  std::size_t bytes);

/// The loops `mul_be` / `axpy_be` dispatch to on this host.
MulByKernel mul_be_kernel();
MulByKernel axpy_be_kernel();

}  // namespace detail

}  // namespace coca::codec
