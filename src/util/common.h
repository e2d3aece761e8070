// Common foundation types for the coca library.
//
// coca reproduces "Communication-Optimal Convex Agreement" (Ghinea,
// Liu-Zhang, Wattenhofer; PODC'24). Everything above this header speaks in
// terms of `Bytes` payloads and throws `coca::Error` on contract violations.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace coca {

/// Raw message / value payload. All wire traffic is a `Bytes`.
using Bytes = std::vector<std::uint8_t>;

/// Base error for all coca failures (contract violations, protocol aborts).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws `Error` when `cond` is false. Used for API precondition checks.
inline void require(bool cond, const char* msg) {
  if (!cond) throw Error(msg);
}

/// Internal invariant check. Semantically an assert that is always on:
/// a failure indicates a bug in coca itself, not bad input.
inline void ensure(bool cond, const char* msg) {
  if (!cond) throw std::logic_error(std::string("coca internal error: ") + msg);
}

/// Checked narrowing conversion (throws on value change), cf. gsl::narrow.
template <class To, class From>
To narrow(From v) {
  const To r = static_cast<To>(v);
  if (static_cast<From>(r) != v || ((r < To{}) != (v < From{}))) {
    throw Error("narrowing conversion lost information");
  }
  return r;
}

/// Ceiling division for non-negative integers.
constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

/// The 8 bytes at `p` (any alignment) as a big-endian integer: byte 0 is the
/// most significant, matching the MSB-first bit order of packed bitstrings.
inline std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return std::endian::native == std::endian::little ? __builtin_bswap64(v) : v;
}

/// Inverse of `load_be64`: stores `v` big-endian into the 8 bytes at `p`.
inline void store_be64(std::uint8_t* p, std::uint64_t v) {
  if (std::endian::native == std::endian::little) v = __builtin_bswap64(v);
  std::memcpy(p, &v, sizeof v);
}

/// floor(log2(x)) for x >= 1.
constexpr std::size_t floor_log2(std::size_t x) {
  std::size_t r = 0;
  while (x > 1) {
    x >>= 1;
    ++r;
  }
  return r;
}

/// ceil(log2(x)) for x >= 1 (returns 0 for x == 1).
constexpr std::size_t ceil_log2(std::size_t x) {
  if (x <= 1) return 0;
  return floor_log2(x - 1) + 1;
}

}  // namespace coca
