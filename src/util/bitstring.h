// Fixed-length bitstrings, MSB-first: the paper's value model.
//
// The protocols in the paper manipulate l-bit representations BITS_l(v) of
// natural numbers: prefixes, blocks, and the padding operators MIN_l / MAX_l
// (append zeroes / ones). For equal-length bitstrings, numeric order of the
// represented values coincides with lexicographic bit order, which is the
// central fact the longest-common-prefix search exploits.
//
// `Bitstring` stores bits packed MSB-first within each byte; trailing unused
// bits of the final byte are kept zero so that packed bytes compare and hash
// consistently.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/common.h"

namespace coca {

class Bitstring {
 public:
  /// Empty bitstring (the paper's initial PREFIX* := empty string).
  Bitstring() = default;

  /// `n` zero bits.
  static Bitstring zeros(std::size_t n);
  /// `n` one bits.
  static Bitstring ones(std::size_t n);
  /// Parse from a string of '0'/'1' characters.
  static Bitstring from_string(std::string_view s);
  /// The `width`-bit representation BITS_width(v) of a 64-bit value.
  /// Throws if `v` does not fit in `width` bits.
  static Bitstring from_u64(std::uint64_t v, std::size_t width);
  /// Reconstruct from packed MSB-first bytes (inverse of `packed()`).
  static Bitstring from_packed(Bytes packed, std::size_t nbits);

  std::size_t size() const { return nbits_; }
  bool empty() const { return nbits_ == 0; }

  /// Bit at position `i`, 0-indexed from the most significant end.
  /// (The paper's B^{i}_l(v) is 1-indexed; callers adjust.)
  bool bit(std::size_t i) const;
  void set_bit(std::size_t i, bool v);

  void push_back(bool v);
  void append(const Bitstring& other);

  /// Bits [pos, pos+len) as a new bitstring.
  Bitstring substr(std::size_t pos, std::size_t len) const;
  /// Appends bits [pos, pos+len) to `out`, packed MSB-first with zero pad
  /// bits: the bytes of `substr(pos, len).packed()`, without the substring.
  void append_packed(std::size_t pos, std::size_t len, Bytes& out) const;
  /// First `len` bits.
  Bitstring prefix(std::size_t len) const { return substr(0, len); }
  /// True iff `p` is a prefix of *this.
  bool has_prefix(const Bitstring& p) const;

  /// MIN_l(prefix): lowest l-bit value with this prefix (append zeroes).
  static Bitstring min_fill(const Bitstring& prefix, std::size_t ell);
  /// MAX_l(prefix): highest l-bit value with this prefix (append ones).
  static Bitstring max_fill(const Bitstring& prefix, std::size_t ell);

  /// Length of the longest common prefix of `a` and `b`.
  static std::size_t common_prefix_len(const Bitstring& a, const Bitstring& b);

  /// Numeric comparison of VAL(a) vs VAL(b); requires a.size() == b.size()
  /// (for equal lengths this is exactly lexicographic bit order).
  static std::strong_ordering numeric_compare(const Bitstring& a,
                                              const Bitstring& b);

  /// Value of the bitstring as a 64-bit integer; throws if size() > 64.
  std::uint64_t to_u64() const;

  bool operator==(const Bitstring& other) const = default;

  /// Packed MSB-first bytes; ceil(size()/8) of them, trailing bits zero.
  const Bytes& packed() const { return bytes_; }

  /// "0101..." rendering, for diagnostics and tests.
  std::string to_string() const;

 private:
  /// `prefix` padded to `ell` bits with the bit that `pattern` repeats:
  /// MIN_l for 0x00, MAX_l for 0xFF.
  static Bitstring fill(const Bitstring& prefix, std::size_t ell,
                        std::uint8_t pattern);
  /// Zeroes the unused trailing bits of the final byte.
  void clear_pad();

  Bytes bytes_;
  std::size_t nbits_ = 0;
};

}  // namespace coca
