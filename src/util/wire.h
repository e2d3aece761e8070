// Wire serialization with bounds-checked parsing.
//
// Every byte honest parties receive may come from a byzantine party, so the
// decoding side never trusts length fields or assumes well-formedness:
// `Reader` returns std::nullopt instead of reading out of bounds, and callers
// drop malformed messages. This is the code-level counterpart of the paper's
// "parties ignore values outside N" instructions.
//
// Encoding conventions (little-endian fixed-width integers):
//   u8/u16/u32/u64     raw little-endian
//   bytes              u32 length + raw bytes
//   bitstring          u64 bit count + packed MSB-first bytes
//   bignat             bitstring of the minimal representation; padding
//                      bits are ignored on read (see NatView)
#pragma once

#include <compare>
#include <cstring>
#include <optional>
#include <span>

#include "util/bignat.h"
#include "util/bitstring.h"
#include "util/common.h"

namespace coca {

/// A `bignat` field checked as `Reader::bignat()` checks it, not decoded.
/// Its padding bits are as received and no part of the value, so compare
/// views by `<=>`, never byte-wise.
struct NatView {
  std::size_t bits = 0;
  std::span<const std::uint8_t> packed;

  Bitstring to_bits() const {
    return Bitstring::from_packed(Bytes(packed.begin(), packed.end()), bits);
  }
  BigNat decode() const { return BigNat::from_bits(to_bits()); }
  /// Numeric order: with no leading zero bit, more bits is larger; at equal
  /// counts the MSB-first bytes compare in order, padding masked.
  std::strong_ordering operator<=>(const NatView& o) const {
    if (bits != o.bits || bits == 0) return bits <=> o.bits;
    const std::size_t last = packed.size() - 1;
    if (const int c = std::memcmp(packed.data(), o.packed.data(), last)) {
      return c <=> 0;
    }
    const auto mask = static_cast<std::uint8_t>(0xFF << ((8 - bits % 8) % 8));
    return (packed[last] & mask) <=> (o.packed[last] & mask);
  }
};

/// Append-only message builder.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v, 2); }
  void u32(std::uint32_t v) { put_le(v, 4); }
  void u64(std::uint64_t v) { put_le(v, 8); }

  void bytes(std::span<const std::uint8_t> b) {
    u32(narrow<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  void raw(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  void bitstring(const Bitstring& b) {
    u64(b.size());
    raw(b.packed());
  }

  /// The `bitstring` field of `b.substr(pos, len)`, written from `b`.
  void bitstring(const Bitstring& b, std::size_t pos, std::size_t len) {
    buf_.reserve(buf_.size() + 8 + ceil_div(len, 8));
    u64(len);
    b.append_packed(pos, len, buf_);
  }

  void bignat(const BigNat& v) { bitstring(v.to_bits(v.bit_length())); }

  Bytes take() && { return std::move(buf_); }
  const Bytes& peek() const { return buf_; }

 private:
  void put_le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  Bytes buf_;
};

/// Bounds-checked message parser; every getter returns nullopt on underrun
/// or malformed content and leaves no way to read past the buffer.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}
  explicit Reader(const Bytes& data) : data_(data) {}

  std::optional<std::uint8_t> u8() {
    if (remaining() < 1) return std::nullopt;
    return data_[pos_++];
  }
  std::optional<std::uint16_t> u16() { return le<std::uint16_t>(2); }
  std::optional<std::uint32_t> u32() { return le<std::uint32_t>(4); }
  std::optional<std::uint64_t> u64() { return le<std::uint64_t>(8); }

  /// A `bytes` field, in place.
  std::optional<std::span<const std::uint8_t>> bytes_view() {
    const auto len = u32();
    if (!len || *len > remaining()) return std::nullopt;
    pos_ += *len;
    return data_.subspan(pos_ - *len, *len);
  }

  std::optional<Bytes> bytes() {
    const auto b = bytes_view();
    return b ? std::optional(Bytes(b->begin(), b->end())) : std::nullopt;
  }

  std::optional<Bitstring> bitstring() {
    const auto v = packed_bits();
    return v ? std::optional(v->to_bits()) : std::nullopt;
  }

  /// A `bignat` field, checked but not decoded.
  std::optional<NatView> bignat_view() {
    auto v = packed_bits();
    // Reject a leading zero bit except for zero itself; with padding bits
    // no part of the value, byzantine parties cannot make equal values
    // look distinct.
    if (v && v->bits > 0 && (v->packed[0] & 0x80) == 0) return std::nullopt;
    return v;
  }

  std::optional<BigNat> bignat() {
    const auto v = bignat_view();
    return v ? std::optional(v->decode()) : std::nullopt;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }

 private:
  template <class T>
  std::optional<T> le(std::size_t n) {
    if (remaining() < n) return std::nullopt;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += n;
    return static_cast<T>(v);
  }

  /// A `bitstring` field's bit count and packed bytes, in place;
  /// `bignat_view` adds the check that makes it a natural.
  std::optional<NatView> packed_bits() {
    const auto nbits = u64();
    // Guard against absurd length fields before allocating.
    if (!nbits || *nbits > remaining() * std::uint64_t{8}) return std::nullopt;
    const auto bits = static_cast<std::size_t>(*nbits);
    const NatView v{bits, data_.subspan(pos_, ceil_div(bits, 8))};
    pos_ += v.packed.size();
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace coca
