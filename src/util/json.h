// Strict JSON for the repository's case files and reports.
//
// Every case file -- fuzz corpus entries (coca-fuzz-v1/v2), wire-fault
// plans (coca-wirefault-v1) and wire-chaos reproducers (coca-wirechaos-v1)
// -- is read through one `Reader`, and every JSON writer escapes its
// strings through `escape`. Hand-rolled on purpose: the build ships no
// JSON library, and the schemas use a small subset (objects, arrays,
// strings, integers). The rules the schema readers build on:
//   * any deviation from the grammar throws `Error` with the reader's label
//     and the byte offset;
//   * integers are range-checked against the field they land in (`int_in`);
//   * an object may not repeat a key (`members`);
//   * schema readers reject unknown keys, match the schema string exactly,
//     and check `at_end` so trailing bytes are an error.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/common.h"

namespace coca::json {

/// `s` as the body of a JSON string literal: quote, backslash and every
/// control character escaped (\n, \t, \r by name, the rest as \u00XX).
std::string escape(std::string_view s);

/// Cursor over one JSON text. `text` must outlive the reader.
class Reader {
 public:
  /// `label` prefixes every error message, e.g. "corpus JSON".
  Reader(std::string_view text, std::string label)
      : s_(text), label_(std::move(label)) {}

  /// True when only whitespace remains.
  bool at_end();

  /// A string literal, escapes decoded (\uXXXX up to U+00FF).
  std::string string();

  /// An integer literal in [lo, hi]; throws on overflow or out of range.
  template <class T>
  T int_in(T lo = std::numeric_limits<T>::min(),
           T hi = std::numeric_limits<T>::max());

  /// Reads `{ "key": value, ... }`, calling `fn(key)` with the reader
  /// positioned at each value; `fn` must consume it. A repeated key throws.
  template <class Fn>
  void members(Fn&& fn);

  /// Reads `[ value, ... ]`, calling `fn()` once per element.
  template <class Fn>
  void elements(Fn&& fn);

  /// Throws Error("<label>: <what> at offset <pos>").
  [[noreturn]] void fail(const std::string& what) const;

 private:
  void ws();
  /// Consumes `c` (after whitespace) or throws.
  void expect(char c);
  /// Consumes `c` if it comes next (after whitespace).
  bool consume(char c);
  std::uint64_t u64();
  std::int64_t i64();

  std::string_view s_;
  std::string label_;
  std::size_t pos_ = 0;
};

template <class T>
T Reader::int_in(T lo, T hi) {
  static_assert(std::is_integral_v<T>);
  const auto v = [this] {
    if constexpr (std::is_signed_v<T>) {
      return i64();
    } else {
      return u64();
    }
  }();
  if (v < lo || v > hi) {
    fail(std::to_string(v) + " outside [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "]");
  }
  return static_cast<T>(v);
}

template <class Fn>
void Reader::members(Fn&& fn) {
  expect('{');
  if (consume('}')) return;
  std::vector<std::string> seen;
  do {
    std::string key = string();
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
      fail("duplicate key '" + key + "'");
    }
    expect(':');
    fn(key);
    seen.push_back(std::move(key));
  } while (consume(','));
  expect('}');
}

template <class Fn>
void Reader::elements(Fn&& fn) {
  expect('[');
  if (consume(']')) return;
  do {
    fn();
  } while (consume(','));
  expect(']');
}

}  // namespace coca::json
