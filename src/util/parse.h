// Whole-string, range-checked number parsing for command-line values.
//
// `std::stoi`, `std::stod` and friends read a leading prefix ("4x" is 4)
// and the unsigned ones wrap a minus sign ("-1" is 2^64 - 1), so a
// mistyped flag value ran silently. `parse_int` accepts only a complete
// decimal literal that fits the target field, like `json::Reader::int_in`
// does for case files, and `parse_double` only a complete finite literal.
// Both throw the same exception types as `std::stoi` so a tool's existing
// handlers turn every bad value into its usage message.
#pragma once

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace coca {

/// All of `s` as a decimal integer of type `T`. Digits only, with one
/// leading '-' for a signed `T`: an empty string, a sign on an unsigned
/// `T`, '+', whitespace or any trailing character throws
/// std::invalid_argument; a value outside `T`'s range throws
/// std::out_of_range. Callers check tighter bounds with their own usage
/// messages.
template <class T>
T parse_int(std::string_view s) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec == std::errc::result_out_of_range) {
    throw std::out_of_range("'" + std::string(s) + "' does not fit");
  }
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument("'" + std::string(s) +
                                "' is not a decimal integer");
  }
  return v;
}

/// All of `s` as a finite decimal floating-point number ("1", "0.5",
/// "2e-3"). An empty string, '+', whitespace, any trailing character, a
/// hexadecimal literal, "nan" or "inf" throws std::invalid_argument; a
/// value beyond `double`'s range throws std::out_of_range.
inline double parse_double(std::string_view s) {
  double v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] =
      std::from_chars(s.data(), end, v, std::chars_format::general);
  if (ec == std::errc::result_out_of_range) {
    throw std::out_of_range("'" + std::string(s) + "' does not fit");
  }
  if (ec != std::errc() || ptr != end || !std::isfinite(v)) {
    throw std::invalid_argument("'" + std::string(s) +
                                "' is not a finite decimal number");
  }
  return v;
}

}  // namespace coca
