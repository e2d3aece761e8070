// util/json: the one escaper and strict reader behind every case file;
// util/parse: the whole-string integer parse behind every CLI number.
#include <cstdint>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "util/json.h"
#include "util/parse.h"

namespace coca::json {
namespace {

std::string read_string(const std::string& text) {
  Reader r(text, "test JSON");
  std::string s = r.string();
  EXPECT_TRUE(r.at_end());
  return s;
}

TEST(Json, EscapeRoundTripsEveryByte) {
  std::string all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<char>(b));
  const std::string escaped = escape(all);
  for (const char c : escaped) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
  EXPECT_EQ(read_string("\"" + escaped + "\""), all);
  EXPECT_EQ(escape("a\tb\x01\"\\"), "a\\tb\\u0001\\\"\\\\");
  EXPECT_EQ(read_string(R"("\b\f\/\u00e9")"), "\b\f/\xe9");
  EXPECT_THROW(read_string("\"raw\ttab\""), Error);
  EXPECT_THROW(read_string(R"("\u0100")"), Error);
}

TEST(Json, ReaderRejectsRepeatedKeysAndOutOfRangeIntegers) {
  const auto read_object = [](const std::string& text) {
    Reader r(text, "test JSON");
    r.members([&](const std::string&) { (void)r.int_in<int>(-1, 5); });
  };
  EXPECT_NO_THROW(read_object(R"({"a": -1, "b": 5})"));
  EXPECT_THROW(read_object(R"({"a": 1, "a": 1})"), Error);
  EXPECT_THROW(read_object(R"({"a": 6})"), Error);
  EXPECT_THROW(read_object(R"({"a": -2})"), Error);
  EXPECT_THROW(read_object(R"({"a": 99999999999999999999})"), Error);
  try {
    read_object(R"({"a": 1,})");
    ADD_FAILURE() << "trailing comma accepted";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "test JSON: expected '\"' at offset 8");
  }
  Reader r("[255, 256]", "test JSON");
  EXPECT_THROW(r.elements([&] { (void)r.int_in<std::uint8_t>(); }), Error);
}

TEST(ParseInt, AcceptsOnlyAWholeInRangeLiteral) {
  EXPECT_EQ(parse_int<int>("4"), 4);
  EXPECT_EQ(parse_int<int>("-3"), -3);
  EXPECT_EQ(parse_int<std::uint64_t>("18446744073709551615"),
            ~std::uint64_t{0});
  // A prefix is not a value, and an unsigned field takes no sign.
  for (const char* bad : {"", "4x", "x4", " 4", "4 ", "+4", "0x10", "4.0"}) {
    EXPECT_THROW(parse_int<int>(bad), std::invalid_argument) << bad;
  }
  EXPECT_THROW(parse_int<std::size_t>("-1"), std::invalid_argument);
  EXPECT_THROW(parse_int<std::uint64_t>("-0"), std::invalid_argument);
  // A value the field cannot hold is out_of_range.
  EXPECT_THROW(parse_int<int>("99999999999"), std::out_of_range);
  EXPECT_THROW(parse_int<int>("-99999999999"), std::out_of_range);
  EXPECT_THROW(parse_int<std::uint64_t>("18446744073709551616"),
               std::out_of_range);
}

TEST(ParseInt, ParseDoubleAcceptsOnlyAWholeFiniteLiteral) {
  EXPECT_EQ(parse_double("1"), 1.0);
  EXPECT_EQ(parse_double("0.25"), 0.25);
  EXPECT_EQ(parse_double("-2.5"), -2.5);
  EXPECT_EQ(parse_double("2e-3"), 2e-3);
  // A prefix is not a value, and neither is a non-finite one.
  for (const char* bad : {"", "1x", "x1", " 1", "1 ", "+1", "0x10", "1..5",
                          "nan", "NaN", "inf", "-inf", "infinity"}) {
    EXPECT_THROW(parse_double(bad), std::invalid_argument) << bad;
  }
  EXPECT_THROW(parse_double("1e999"), std::out_of_range);
}

}  // namespace
}  // namespace coca::json
