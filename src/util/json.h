// The one JSON reader of the tree: a cursor over exactly the small schemas
// the project reads (chaos plans, collective schedules, job files) —
// objects, arrays, strings, numbers and booleans — plus json_escape, the
// one string escape its writers share. No third-party JSON dependency
// anywhere in the tree.
//
// Integers are read exactly with std::from_chars: seeds use all 64 bits,
// which a double cannot hold, and an id field given as -1, 1.5 or a value
// past its type's range is rejected instead of being cast. Every error is a
// typed IoError(kConfig) whose message starts with the document's name.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace emcgm {

/// `s` as the body of a JSON string literal: quote and backslash escaped,
/// newline as \n, every other control character as \u00XX — the escapes
/// JsonCursor::parse_string reads back.
std::string json_escape(std::string_view s);

class JsonCursor {
 public:
  /// Read `text` (which must outlive the cursor); `what` names the
  /// document in error messages ("schedule JSON", ...).
  JsonCursor(const std::string& text, std::string what)
      : p_(text.c_str()), end_(text.c_str() + text.size()),
        what_(std::move(what)) {}
  JsonCursor(std::string&&, std::string) = delete;  // would dangle

  /// Throw IoError(kConfig) "<what>: <why>".
  [[noreturn]] void fail(const std::string& why) const;

  /// Skip whitespace; true iff the next character is `c` (not consumed).
  bool peek(char c);
  /// Skip whitespace and consume `c`, or fail.
  void expect(char c);

  /// A string; decodes \" \\ \/ \n and ASCII \u00XX, fails on any other
  /// escape.
  std::string parse_string();
  /// A real-valued field (probabilities, slack).
  double parse_number();
  /// An unsigned integer field, exactly. Fractions, exponents, signs and
  /// values above `max` fail.
  std::uint64_t parse_uint(std::uint64_t max);
  std::uint64_t parse_u64() { return parse_uint(UINT64_MAX); }
  std::uint32_t parse_u32() {
    return static_cast<std::uint32_t>(parse_uint(UINT32_MAX));
  }
  bool parse_bool();
  /// Capture a balanced {...} object verbatim (a nested document handed to
  /// another parser).
  std::string capture_object();

 private:
  void skip_ws();

  const char* p_;
  const char* end_;
  std::string what_;
};

}  // namespace emcgm
