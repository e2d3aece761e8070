#include "util/bitstring.h"

#include <algorithm>
#include <cstring>

namespace coca {
namespace {

// Copies bit `src_off` of `src` to bit `dst_off` of `dst`, MSB-first, by
// OR-ing it in (the destination bit must be zero).
void copy_bit(std::uint8_t* dst, std::size_t dst_off, const std::uint8_t* src,
              std::size_t src_off) {
  if ((src[src_off / 8] >> (7 - src_off % 8)) & 1U) {
    dst[dst_off / 8] |= static_cast<std::uint8_t>(1U << (7 - dst_off % 8));
  }
}

// Copies `n` bits from `src` starting at bit offset `src_off` into `dst`
// starting at bit offset `dst_off`. Bit offsets are MSB-first. Destination
// must be zeroed in the target range. Once `dst` is byte-aligned, whole
// bytes go by memcpy when `src` is aligned too, else 64 bits per step; only
// the last < 64 bits go a byte or a bit at a time.
void copy_bits(std::uint8_t* dst, std::size_t dst_off, const std::uint8_t* src,
               std::size_t src_off, std::size_t n) {
  for (; n > 0 && dst_off % 8 != 0; ++dst_off, ++src_off, --n) {
    copy_bit(dst, dst_off, src, src_off);
  }
  std::uint8_t* d = dst + dst_off / 8;
  const std::uint8_t* s = src + src_off / 8;
  const unsigned shift = src_off % 8;
  if (shift == 0) {
    std::memcpy(d, s, n / 8);
    d += n / 8;
    s += n / 8;
  } else {
    // 64 bits span 9 source bytes; s[8] holds the last `shift` of them and
    // is in bounds because the source has at least 64 more bits.
    for (; n >= 64; n -= 64, d += 8, s += 8) {
      store_be64(d, (load_be64(s) << shift) | (s[8] >> (8 - shift)));
    }
    for (; n >= 8; n -= 8, ++d, ++s) {
      // Same argument: at least 8 more source bits, so s[1] exists.
      *d = static_cast<std::uint8_t>((s[0] << shift) | (s[1] >> (8 - shift)));
    }
  }
  for (std::size_t i = 0; i < n % 8; ++i) copy_bit(d, i, s, shift + i);
}

}  // namespace

Bitstring Bitstring::zeros(std::size_t n) {
  Bitstring b;
  b.nbits_ = n;
  b.bytes_.assign(ceil_div(n, 8), 0);
  return b;
}

Bitstring Bitstring::ones(std::size_t n) {
  Bitstring b;
  b.nbits_ = n;
  b.bytes_.assign(ceil_div(n, 8), 0xFF);
  b.clear_pad();
  return b;
}

Bitstring Bitstring::from_string(std::string_view s) {
  Bitstring b = zeros(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    require(s[i] == '0' || s[i] == '1', "Bitstring::from_string: bad char");
    if (s[i] == '1') b.set_bit(i, true);
  }
  return b;
}

Bitstring Bitstring::from_u64(std::uint64_t v, std::size_t width) {
  require(width >= 64 || v < (std::uint64_t{1} << width),
          "Bitstring::from_u64: value does not fit in width");
  Bitstring b = zeros(width);
  for (std::size_t i = 0; i < width && i < 64; ++i) {
    if ((v >> i) & 1U) b.set_bit(width - 1 - i, true);
  }
  return b;
}

Bitstring Bitstring::from_packed(Bytes packed, std::size_t nbits) {
  require(packed.size() == ceil_div(nbits, 8),
          "Bitstring::from_packed: size mismatch");
  Bitstring b;
  b.nbits_ = nbits;
  b.bytes_ = std::move(packed);
  // Enforce the trailing-bits-zero invariant (wire data may violate it).
  b.clear_pad();
  return b;
}

void Bitstring::clear_pad() {
  if (nbits_ % 8 != 0) {
    bytes_.back() &= static_cast<std::uint8_t>(0xFF << (8 - nbits_ % 8));
  }
}

bool Bitstring::bit(std::size_t i) const {
  require(i < nbits_, "Bitstring::bit: index out of range");
  return (bytes_[i / 8] >> (7 - i % 8)) & 1U;
}

void Bitstring::set_bit(std::size_t i, bool v) {
  require(i < nbits_, "Bitstring::set_bit: index out of range");
  const std::uint8_t mask = static_cast<std::uint8_t>(1U << (7 - i % 8));
  if (v) {
    bytes_[i / 8] |= mask;
  } else {
    bytes_[i / 8] &= static_cast<std::uint8_t>(~mask);
  }
}

void Bitstring::push_back(bool v) {
  if (nbits_ % 8 == 0) bytes_.push_back(0);
  ++nbits_;
  if (v) set_bit(nbits_ - 1, true);
}

void Bitstring::append(const Bitstring& other) {
  if (other.nbits_ == 0) return;
  const std::size_t new_bits = nbits_ + other.nbits_;
  bytes_.resize(ceil_div(new_bits, 8), 0);
  copy_bits(bytes_.data(), nbits_, other.bytes_.data(), 0, other.nbits_);
  nbits_ = new_bits;
}

Bitstring Bitstring::substr(std::size_t pos, std::size_t len) const {
  require(pos <= nbits_ && len <= nbits_ - pos,
          "Bitstring::substr: range out of bounds");
  Bitstring out = zeros(len);
  if (len > 0) copy_bits(out.bytes_.data(), 0, bytes_.data(), pos, len);
  return out;
}

void Bitstring::append_packed(std::size_t pos, std::size_t len,
                              Bytes& out) const {
  require(pos <= nbits_ && len <= nbits_ - pos,
          "Bitstring::append_packed: range out of bounds");
  const std::size_t at = out.size();
  out.resize(at + ceil_div(len, 8), 0);
  if (len > 0) copy_bits(out.data() + at, 0, bytes_.data(), pos, len);
}

bool Bitstring::has_prefix(const Bitstring& p) const {
  if (p.nbits_ > nbits_) return false;
  // Compare whole bytes first, then the ragged tail.
  const std::size_t full = p.nbits_ / 8;
  if (!std::equal(p.bytes_.begin(), p.bytes_.begin() + narrow<std::ptrdiff_t>(full),
                  bytes_.begin())) {
    return false;
  }
  for (std::size_t i = full * 8; i < p.nbits_; ++i) {
    if (bit(i) != p.bit(i)) return false;
  }
  return true;
}

Bitstring Bitstring::min_fill(const Bitstring& prefix, std::size_t ell) {
  return fill(prefix, ell, 0x00);
}

Bitstring Bitstring::max_fill(const Bitstring& prefix, std::size_t ell) {
  return fill(prefix, ell, 0xFF);
}

Bitstring Bitstring::fill(const Bitstring& prefix, std::size_t ell,
                          std::uint8_t pattern) {
  require(prefix.nbits_ <= ell,
          "Bitstring::min_fill/max_fill: prefix longer than ell");
  Bitstring out;
  out.nbits_ = ell;
  out.bytes_.assign(ceil_div(ell, 8), pattern);
  std::copy(prefix.bytes_.begin(), prefix.bytes_.end(), out.bytes_.begin());
  // The prefix's pad bits are zero: fill them too, then clear those past ell.
  if (prefix.nbits_ % 8 != 0) {
    out.bytes_[prefix.nbits_ / 8] |=
        static_cast<std::uint8_t>(pattern >> (prefix.nbits_ % 8));
  }
  out.clear_pad();
  return out;
}

std::size_t Bitstring::common_prefix_len(const Bitstring& a,
                                         const Bitstring& b) {
  const std::size_t max = std::min(a.nbits_, b.nbits_);
  // Skip equal 256-byte blocks by memcmp, then scan bytes, then bits.
  constexpr std::size_t kBlock = 256;
  const std::size_t full = max / 8;
  std::size_t i = 0;
  while (i + kBlock <= full &&
         std::memcmp(&a.bytes_[i], &b.bytes_[i], kBlock) == 0) {
    i += kBlock;
  }
  while (i < full && a.bytes_[i] == b.bytes_[i]) ++i;
  std::size_t bitpos = i * 8;
  while (bitpos < max && a.bit(bitpos) == b.bit(bitpos)) ++bitpos;
  return bitpos;
}

std::strong_ordering Bitstring::numeric_compare(const Bitstring& a,
                                                const Bitstring& b) {
  require(a.nbits_ == b.nbits_,
          "Bitstring::numeric_compare: lengths differ (VAL comparison is "
          "defined for equal-length representations)");
  // Equal lengths: numeric order == lexicographic order == packed-byte order
  // (trailing bits are zero on both sides).
  const int c = std::char_traits<char>::compare(
      reinterpret_cast<const char*>(a.bytes_.data()),
      reinterpret_cast<const char*>(b.bytes_.data()), a.bytes_.size());
  if (c < 0) return std::strong_ordering::less;
  if (c > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

std::uint64_t Bitstring::to_u64() const {
  require(nbits_ <= 64, "Bitstring::to_u64: more than 64 bits");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < nbits_; ++i) {
    v = (v << 1) | static_cast<std::uint64_t>(bit(i));
  }
  return v;
}

std::string Bitstring::to_string() const {
  std::string s;
  s.reserve(nbits_);
  for (std::size_t i = 0; i < nbits_; ++i) s.push_back(bit(i) ? '1' : '0');
  return s;
}

}  // namespace coca
