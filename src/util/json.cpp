#include "util/json.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "util/error.h"

namespace emcgm {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (ch == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

void JsonCursor::fail(const std::string& why) const {
  throw IoError(IoErrorKind::kConfig, what_ + ": " + why);
}

void JsonCursor::skip_ws() {
  while (p_ < end_ &&
         (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
    ++p_;
  }
}

bool JsonCursor::peek(char c) {
  skip_ws();
  return p_ < end_ && *p_ == c;
}

void JsonCursor::expect(char c) {
  skip_ws();
  if (p_ >= end_ || *p_ != c) fail(std::string("expected '") + c + "'");
  ++p_;
}

std::string JsonCursor::parse_string() {
  expect('"');
  std::string s;
  while (p_ < end_ && *p_ != '"') {
    char c = *p_++;
    if (c == '\\' && p_ < end_) {
      c = *p_++;
      if (c == 'n') {
        c = '\n';
      } else if (c == 'u') {
        unsigned code = 0;
        const char* digits_end = std::min(p_ + 4, end_);
        const auto [after, ec] = std::from_chars(p_, digits_end, code, 16);
        if (ec != std::errc{} || after != p_ + 4 || code >= 0x80) {
          fail("unsupported \\u escape (want \\u0000..\\u007f)");
        }
        c = static_cast<char>(code);
        p_ = after;
      } else if (c != '"' && c != '\\' && c != '/') {
        fail(std::string("unsupported escape '\\") + c + "'");
      }
    }
    s += c;
  }
  expect('"');
  return s;
}

double JsonCursor::parse_number() {
  skip_ws();
  char* after = nullptr;
  const double d = std::strtod(p_, &after);  // text is NUL-terminated
  if (after == p_) fail("expected a number");
  p_ = after;
  return d;
}

std::uint64_t JsonCursor::parse_uint(std::uint64_t max) {
  skip_ws();
  std::uint64_t v = 0;
  const auto [after, ec] = std::from_chars(p_, end_, v);
  if (ec == std::errc::result_out_of_range || (ec == std::errc{} && v > max)) {
    fail("integer out of range");
  }
  if (ec != std::errc{}) fail("expected an unsigned integer");
  if (after < end_ && (*after == '.' || *after == 'e' || *after == 'E')) {
    fail("expected an unsigned integer");
  }
  p_ = after;
  return v;
}

bool JsonCursor::parse_bool() {
  skip_ws();
  const std::string_view rest(p_, static_cast<std::size_t>(end_ - p_));
  if (rest.substr(0, 4) == "true") {
    p_ += 4;
    return true;
  }
  if (rest.substr(0, 5) == "false") {
    p_ += 5;
    return false;
  }
  fail("expected true or false");
}

std::string JsonCursor::capture_object() {
  skip_ws();
  if (p_ >= end_ || *p_ != '{') fail("expected '{'");
  const char* start = p_;
  int depth = 0;
  bool in_str = false;
  while (p_ < end_) {
    const char c = *p_++;
    if (in_str) {
      if (c == '\\' && p_ < end_) {
        ++p_;  // an escaped character never ends the string
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    if (c == '"') in_str = true;
    if (c == '{') ++depth;
    if (c == '}' && --depth == 0) return std::string(start, p_);
  }
  fail("unterminated object");
}

}  // namespace emcgm
