#include "util/bignat.h"

#include <algorithm>

namespace coca {

namespace {
// 64x64 -> 128 multiply helper (GCC/Clang builtin type).
__extension__ typedef unsigned __int128 U128;
}  // namespace

BigNat::BigNat(std::uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

void BigNat::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigNat BigNat::from_decimal(std::string_view s) {
  require(!s.empty(), "BigNat::from_decimal: empty string");
  BigNat r;
  const BigNat ten(10);
  for (const char c : s) {
    require(c >= '0' && c <= '9', "BigNat::from_decimal: bad digit");
    r = r * ten + BigNat(static_cast<std::uint64_t>(c - '0'));
  }
  return r;
}

BigNat BigNat::from_bits(const Bitstring& bits) {
  BigNat r;
  const std::size_t n = bits.size();
  if (n == 0) return r;
  // The packed MSB-first bytes, read as one big-endian integer, equal
  // VAL(bits) << pad (the trailing pad bits of the last byte are zero).
  // Load limbs eight bytes at a time from the byte tail, then undo the
  // shift in place.
  const Bytes& p = bits.packed();
  const std::size_t pad = (8 - n % 8) % 8;
  r.limbs_.assign(ceil_div(p.size(), 8), 0);
  std::size_t end = p.size();  // one past the least-significant unread byte
  std::size_t i = 0;
  for (; end >= 8; end -= 8) r.limbs_[i++] = load_be64(p.data() + end - 8);
  for (std::size_t b = 0; b < end; ++b) r.limbs_[i] = (r.limbs_[i] << 8) | p[b];
  if (pad != 0) {
    for (std::size_t k = 0; k + 1 < r.limbs_.size(); ++k) {
      r.limbs_[k] = (r.limbs_[k] >> pad) | (r.limbs_[k + 1] << (64 - pad));
    }
    r.limbs_.back() >>= pad;
  }
  r.trim();
  return r;
}

BigNat BigNat::max_with_bits(std::size_t k) {
  BigNat r;
  if (k == 0) return r;
  r.limbs_.assign(ceil_div(k, 64), ~std::uint64_t{0});
  if (k % 64 != 0) {
    r.limbs_.back() = (std::uint64_t{1} << (k % 64)) - 1;
  }
  return r;
}

BigNat BigNat::pow2(std::size_t k) {
  BigNat r;
  r.limbs_.assign(k / 64 + 1, 0);
  r.limbs_.back() = std::uint64_t{1} << (k % 64);
  return r;
}

std::size_t BigNat::bit_length() const {
  if (limbs_.empty()) return 0;
  const std::uint64_t top = limbs_.back();
  return (limbs_.size() - 1) * 64 +
         (64 - static_cast<std::size_t>(__builtin_clzll(top)));
}

Bitstring BigNat::to_bits(std::size_t ell) const {
  require(bit_length() <= ell, "BigNat::to_bits: value too large for ell bits");
  // Inverse of from_bits: store value << pad as big-endian packed bytes,
  // eight at a time from the tail (see from_bits for the layout argument).
  const std::size_t nbytes = ceil_div(ell, 8);
  const std::size_t pad = (8 - ell % 8) % 8;
  const auto limb = [&](std::size_t k) {
    return k < limbs_.size() ? limbs_[k] : std::uint64_t{0};
  };
  // Limb i of value << pad.
  const auto word = [&](std::size_t i) {
    if (pad == 0) return limb(i);
    return (limb(i) << pad) | (i > 0 ? limb(i - 1) >> (64 - pad) : 0);
  };
  Bytes packed(nbytes);
  std::size_t j = nbytes;  // one past the next byte to write
  std::size_t i = 0;
  for (; j >= 8; j -= 8) store_be64(packed.data() + j - 8, word(i++));
  for (std::uint64_t v = word(i); j > 0; v >>= 8) {
    packed[--j] = static_cast<std::uint8_t>(v);
  }
  return Bitstring::from_packed(std::move(packed), ell);
}

std::uint64_t BigNat::to_u64() const {
  require(limbs_.size() <= 1, "BigNat::to_u64: value exceeds 64 bits");
  return limbs_.empty() ? 0 : limbs_[0];
}

std::strong_ordering BigNat::operator<=>(const BigNat& o) const {
  if (limbs_.size() != o.limbs_.size()) {
    return limbs_.size() < o.limbs_.size() ? std::strong_ordering::less
                                           : std::strong_ordering::greater;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != o.limbs_[i]) {
      return limbs_[i] < o.limbs_[i] ? std::strong_ordering::less
                                     : std::strong_ordering::greater;
    }
  }
  return std::strong_ordering::equal;
}

BigNat BigNat::operator+(const BigNat& o) const {
  BigNat r;
  const std::size_t n = std::max(limbs_.size(), o.limbs_.size());
  r.limbs_.assign(n + 1, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t a = i < limbs_.size() ? limbs_[i] : 0;
    const std::uint64_t b = i < o.limbs_.size() ? o.limbs_[i] : 0;
    const std::uint64_t s = a + b;
    const std::uint64_t s2 = s + carry;
    carry = static_cast<std::uint64_t>(s < a) +
            static_cast<std::uint64_t>(s2 < s);
    r.limbs_[i] = s2;
  }
  r.limbs_[n] = carry;
  r.trim();
  return r;
}

BigNat BigNat::operator-(const BigNat& o) const {
  require(*this >= o, "BigNat::operator-: would underflow");
  BigNat r;
  r.limbs_.assign(limbs_.size(), 0);
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t b = i < o.limbs_.size() ? o.limbs_[i] : 0;
    const std::uint64_t d = limbs_[i] - b;
    const std::uint64_t d2 = d - borrow;
    borrow = static_cast<std::uint64_t>(limbs_[i] < b) +
             static_cast<std::uint64_t>(d < borrow);
    r.limbs_[i] = d2;
  }
  ensure(borrow == 0, "BigNat subtraction borrow after compare");
  r.trim();
  return r;
}

BigNat BigNat::operator*(const BigNat& o) const {
  if (is_zero() || o.is_zero()) return {};
  BigNat r;
  r.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < o.limbs_.size(); ++j) {
      const U128 cur = static_cast<U128>(limbs_[i]) * o.limbs_[j] +
                       r.limbs_[i + j] + carry;
      r.limbs_[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    r.limbs_[i + o.limbs_.size()] += carry;
  }
  r.trim();
  return r;
}

BigNat BigNat::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  BigNat r;
  r.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    r.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      r.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  r.trim();
  return r;
}

BigNat BigNat::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 64;
  if (limb_shift >= limbs_.size()) return {};
  const std::size_t bit_shift = bits % 64;
  BigNat r;
  r.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < r.limbs_.size(); ++i) {
    r.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      r.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  r.trim();
  return r;
}

BigNat BigNat::div_u32(std::uint32_t divisor, std::uint32_t& rem) const {
  require(divisor != 0, "BigNat::div_u32: division by zero");
  BigNat q;
  q.limbs_.assign(limbs_.size(), 0);
  std::uint64_t r = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    // Process the limb as two 32-bit halves so the dividend fits in 64 bits.
    const std::uint64_t hi = (r << 32) | (limbs_[i] >> 32);
    const std::uint64_t qhi = hi / divisor;
    r = hi % divisor;
    const std::uint64_t lo = (r << 32) | (limbs_[i] & 0xFFFFFFFFULL);
    const std::uint64_t qlo = lo / divisor;
    r = lo % divisor;
    q.limbs_[i] = (qhi << 32) | qlo;
  }
  rem = static_cast<std::uint32_t>(r);
  q.trim();
  return q;
}

std::string BigNat::to_decimal() const {
  if (is_zero()) return "0";
  std::string out;
  BigNat cur = *this;
  while (!cur.is_zero()) {
    std::uint32_t rem = 0;
    cur = cur.div_u32(1'000'000'000U, rem);
    // 9 digits per step, zero-padded except for the most significant group.
    for (int d = 0; d < 9; ++d) {
      out.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
      if (cur.is_zero() && rem == 0) break;
    }
  }
  std::reverse(out.begin(), out.end());
  return out;
}

BigInt::BigInt(std::int64_t v)
    : mag_(v < 0 ? static_cast<std::uint64_t>(-(v + 1)) + 1
                 : static_cast<std::uint64_t>(v)),
      neg_(v < 0) {}

BigInt BigInt::from_decimal(std::string_view s) {
  require(!s.empty(), "BigInt::from_decimal: empty string");
  bool neg = false;
  if (s.front() == '-') {
    neg = true;
    s.remove_prefix(1);
  }
  return BigInt(BigNat::from_decimal(s), neg);
}

std::strong_ordering BigInt::operator<=>(const BigInt& o) const {
  if (neg_ != o.neg_) {
    return neg_ ? std::strong_ordering::less : std::strong_ordering::greater;
  }
  const auto mag_cmp = mag_ <=> o.mag_;
  if (!neg_) return mag_cmp;
  // Both negative: larger magnitude is smaller.
  if (mag_cmp == std::strong_ordering::less) return std::strong_ordering::greater;
  if (mag_cmp == std::strong_ordering::greater) return std::strong_ordering::less;
  return std::strong_ordering::equal;
}

BigInt BigInt::operator+(const BigInt& o) const {
  if (neg_ == o.neg_) return BigInt(mag_ + o.mag_, neg_);
  if (mag_ >= o.mag_) return BigInt(mag_ - o.mag_, neg_);
  return BigInt(o.mag_ - mag_, o.neg_);
}

BigInt BigInt::operator-(const BigInt& o) const { return *this + (-o); }

std::string BigInt::to_decimal() const {
  // Built front to back: `"-" + s` inlines an insert that GCC 12 at -O3
  // misreads as an overlapping memcpy (-Wrestrict).
  std::string out = neg_ ? "-" : "";
  out += mag_.to_decimal();
  return out;
}

}  // namespace coca
