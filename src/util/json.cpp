#include "util/json.h"

namespace coca::json {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Reader::ws() {
  while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                              s_[pos_] == '\t' || s_[pos_] == '\r')) {
    ++pos_;
  }
}

void Reader::expect(char c) {
  ws();
  if (pos_ >= s_.size()) fail("unexpected end of input");
  if (s_[pos_] != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

bool Reader::consume(char c) {
  ws();
  if (pos_ < s_.size() && s_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

bool Reader::at_end() {
  ws();
  return pos_ >= s_.size();
}

std::string Reader::string() {
  expect('"');
  std::string out;
  while (true) {
    if (pos_ >= s_.size()) fail("unterminated string");
    const char ch = s_[pos_++];
    if (ch == '"') return out;
    if (static_cast<unsigned char>(ch) < 0x20) {
      fail("raw control character in string");
    }
    if (ch != '\\') {
      out.push_back(ch);
      continue;
    }
    if (pos_ >= s_.size()) fail("unterminated escape");
    const char esc = s_[pos_++];
    switch (esc) {
      case '"':
      case '\\':
      case '/':
        out.push_back(esc);
        break;
      case 'b':
        out.push_back('\b');
        break;
      case 'f':
        out.push_back('\f');
        break;
      case 'n':
        out.push_back('\n');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 'r':
        out.push_back('\r');
        break;
      case 'u': {
        if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = s_[pos_++];
          v <<= 4;
          if (h >= '0' && h <= '9') {
            v |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            v |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            v |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            fail("bad \\u escape");
          }
        }
        if (v > 0xFF) fail("non-latin \\u escape unsupported");
        out.push_back(static_cast<char>(v));
        break;
      }
      default:
        fail("unsupported escape");
    }
  }
}

std::uint64_t Reader::u64() {
  ws();
  if (pos_ >= s_.size() || s_[pos_] < '0' || s_[pos_] > '9') {
    fail("expected unsigned integer");
  }
  std::uint64_t v = 0;
  while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
    const auto digit = static_cast<std::uint64_t>(s_[pos_] - '0');
    if (v > (~std::uint64_t{0} - digit) / 10) fail("integer overflow");
    v = v * 10 + digit;
    ++pos_;
  }
  return v;
}

std::int64_t Reader::i64() {
  ws();
  const bool neg = pos_ < s_.size() && s_[pos_] == '-';
  if (neg) ++pos_;
  const std::uint64_t v = u64();
  if (v > 0x7FFFFFFFFFFFFFFFULL) fail("integer overflow");
  return neg ? -static_cast<std::int64_t>(v) : static_cast<std::int64_t>(v);
}

void Reader::fail(const std::string& what) const {
  throw Error(label_ + ": " + what + " at offset " + std::to_string(pos_));
}

}  // namespace coca::json
