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
//   bignat             bitstring of the minimal representation
#pragma once

#include <optional>
#include <span>

#include "util/bignat.h"
#include "util/bitstring.h"
#include "util/common.h"

namespace coca {

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

  std::optional<Bytes> bytes() {
    const auto len = u32();
    if (!len || *len > remaining()) return std::nullopt;
    Bytes out(data_.begin() + narrow<std::ptrdiff_t>(pos_),
              data_.begin() + narrow<std::ptrdiff_t>(pos_ + *len));
    pos_ += *len;
    return out;
  }

  std::optional<Bitstring> bitstring() {
    const auto nbits = u64();
    if (!nbits) return std::nullopt;
    // Guard against absurd length fields before allocating.
    if (*nbits > remaining() * std::uint64_t{8}) return std::nullopt;
    const std::size_t nbytes = ceil_div(static_cast<std::size_t>(*nbits), 8);
    if (nbytes > remaining()) return std::nullopt;
    Bytes packed(data_.begin() + narrow<std::ptrdiff_t>(pos_),
                 data_.begin() + narrow<std::ptrdiff_t>(pos_ + nbytes));
    pos_ += nbytes;
    return Bitstring::from_packed(std::move(packed),
                                 static_cast<std::size_t>(*nbits));
  }

  std::optional<BigNat> bignat() {
    const auto bits = bitstring();
    if (!bits) return std::nullopt;
    // Reject non-canonical encodings (leading zero bit) except for zero
    // itself, so byzantine parties cannot make equal values look distinct.
    if (bits->size() > 0 && !bits->bit(0)) return std::nullopt;
    return BigNat::from_bits(*bits);
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

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace coca
