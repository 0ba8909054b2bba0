#pragma once

// The one JSON and number-format layer: how a string and a number become
// artifact bytes, and how JSON bytes are read back. Every writer (the
// experiment report, metrics snapshots, the Chrome/HAR exporters, the
// profiler, bench rows and baselines) appends through these functions and
// every JSON reader parses through parse_json, so the byte-identity of
// artifacts rests on one definition of each rule.

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace mahimahi::util {

// ---- writing ----------------------------------------------------------------

/// Append `text` as a JSON string body (no surrounding quotes), RFC 8259
/// style: '"' and '\' are backslash-escaped, \n \r \t use their short
/// forms, every other byte below 0x20 becomes \u00XX, and all remaining
/// bytes (UTF-8 sequences included) pass through unchanged.
void json_escape(std::string& out, std::string_view text);

/// Append `value` as printf "%.*f". Fixed precision is the determinism
/// backbone of every artifact: the text is a pure function of the value,
/// so byte-identical samples serialize to byte-identical bytes.
void append_fixed(std::string& out, double value, int precision = 6);
/// append_fixed into a fresh string (table cells, CSV fields).
[[nodiscard]] std::string fmt(double value, int precision = 6);

void append_i64(std::string& out, std::int64_t value);
void append_u64(std::string& out, std::uint64_t value);

/// append() pieces: a string appended through json_escape, and a double
/// appended through append_fixed.
struct Escaped {
  std::string_view text;
};
struct Fixed {
  double value;
  int precision{6};
};

inline void append_piece(std::string& out, std::string_view text) {
  out += text;
}
inline void append_piece(std::string& out, Escaped piece) {
  json_escape(out, piece.text);
}
inline void append_piece(std::string& out, Fixed piece) {
  append_fixed(out, piece.value, piece.precision);
}
template <std::integral T>
  requires(!std::same_as<T, bool> && !std::same_as<T, char>)
void append_piece(std::string& out, T value) {
  if constexpr (std::is_signed_v<T>) {
    append_i64(out, value);
  } else {
    append_u64(out, value);
  }
}

/// Append every piece to `out` in order, building no temporaries: strings
/// verbatim, integers in decimal, Escaped and Fixed by the rules above.
template <typename... Pieces>
void append(std::string& out, const Pieces&... pieces) {
  (append_piece(out, pieces), ...);
}

// ---- reading ----------------------------------------------------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type{Type::kNull};
  bool boolean{false};
  double number{0};
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion-ordered object (duplicate keys are rejected at parse time).
  std::vector<std::pair<std::string, JsonValue>> object;

  /// The member named `key`, or nullptr (also for non-objects).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Arrays and objects nest at most this deep; deeper input is rejected
/// before the recursive parser can exhaust the stack.
inline constexpr int kJsonMaxDepth = 256;

/// Parse one JSON document. Strings decode every RFC 8259 escape (\uXXXX,
/// surrogate pairs included, to UTF-8) and may not contain raw control
/// bytes. Throws std::invalid_argument "JSON error at line N: ..." on
/// malformed input, a duplicate object key or nesting past kJsonMaxDepth.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace mahimahi::util
