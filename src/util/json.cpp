#include "util/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <system_error>

namespace mahimahi::util {

void json_escape(std::string& out, std::string_view text) {
  for (const char c : text) {
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
}

void append_fixed(std::string& out, double value, int precision) {
  // DBL_MAX prints 309 integer digits: 400 bytes hold any precision the
  // writers use (and snprintf truncates rather than overruns past it).
  char buffer[400];
  const int length =
      std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  out.append(buffer, std::min(static_cast<std::size_t>(length),
                              sizeof(buffer) - 1));
}

std::string fmt(double value, int precision) {
  std::string out;
  append_fixed(out, value, precision);
  return out;
}

void append_i64(std::string& out, std::int64_t value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

void append_u64(std::string& out, std::uint64_t value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_{text} {}

  JsonValue parse() {
    JsonValue value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after the top-level value");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
      }
    }
    throw std::invalid_argument{"JSON error at line " + std::to_string(line) +
                                ": " + message};
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string{"expected '"} + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  JsonValue parse_value(int depth) {
    const char c = peek();
    switch (c) {
      case '{':
      case '[':
        if (depth >= kJsonMaxDepth) {
          fail("nesting deeper than " + std::to_string(kJsonMaxDepth) +
               " levels");
        }
        return c == '{' ? parse_object(depth + 1) : parse_array(depth + 1);
      case '"':
        return parse_string();
      case 't':
      case 'f':
      case 'n':
        return parse_literal(c == 't' ? "true" : c == 'f' ? "false" : "null");
      default:
        return parse_number();
    }
  }

  JsonValue parse_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      fail("malformed literal (expected '" + std::string{literal} + "')");
    }
    pos_ += literal.size();
    JsonValue value;
    if (literal != "null") {
      value.type = JsonValue::Type::kBool;
      value.boolean = literal == "true";
    }
    return value;
  }

  /// The four hex digits of a \u escape (pos_ just past the 'u').
  unsigned parse_hex4() {
    const char* first = text_.data() + pos_;
    unsigned code = 0;
    const auto [end, error] = std::from_chars(
        first, first + std::min<std::size_t>(4, text_.size() - pos_), code, 16);
    if (error != std::errc{} || end != first + 4) {
      fail("malformed \\u escape");
    }
    pos_ += 4;
    return code;
  }

  /// Decode a \u escape (one code point, or a surrogate pair) as UTF-8.
  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired low surrogate in \\u escape");
    }
    if (code >= 0xD800 && code <= 0xDBFF) {
      if (text_.substr(pos_, 2) != "\\u") {
        fail("unpaired high surrogate in \\u escape");
      }
      pos_ += 2;
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) {
        fail("unpaired high surrogate in \\u escape");
      }
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    // UTF-8: a lead byte carrying the high bits, then one 10xxxxxx byte
    // per remaining 6 bits.
    const int tail = code < 0x80      ? 0
                     : code < 0x800   ? 1
                     : code < 0x10000 ? 2
                                      : 3;
    constexpr unsigned kLead[4] = {0x00, 0xC0, 0xE0, 0xF0};
    out += static_cast<char>(kLead[tail] | (code >> (6 * tail)));
    for (int shift = 6 * (tail - 1); shift >= 0; shift -= 6) {
      out += static_cast<char>(0x80 | ((code >> shift) & 0x3F));
    }
  }

  JsonValue parse_string() {
    expect('"');
    JsonValue value;
    value.type = JsonValue::Type::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("raw control byte in string (must be escaped)");
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          fail("unterminated escape");
        }
        const char escaped = text_[pos_++];
        switch (escaped) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u':
            append_unicode_escape(value.string);
            continue;
          default:
            fail(std::string{"unsupported escape '\\"} + escaped + "'");
        }
      }
      value.string += c;
    }
    if (pos_ >= text_.size()) {
      fail("unterminated string");
    }
    ++pos_;  // closing quote
    return value;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail(std::string{"unexpected character '"} + text_[start] + "'");
    }
    // from_chars, unlike strtod, never consults the process locale.
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    const char* const last = text_.data() + pos_;
    const auto [end, error] =
        std::from_chars(text_.data() + start, last, value.number);
    if (error != std::errc{} || end != last) {
      fail("malformed number '" +
           std::string{text_.substr(start, pos_ - start)} + "'");
    }
    return value;
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue value;
    value.type = JsonValue::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array.push_back(parse_value(depth));
      const char c = peek();
      ++pos_;
      if (c == ']') {
        return value;
      }
      if (c != ',') {
        fail("expected ',' or ']' in array");
      }
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue value;
    value.type = JsonValue::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      JsonValue key = parse_string();
      if (value.find(key.string) != nullptr) {
        fail("duplicate object key '" + key.string + "'");
      }
      expect(':');
      value.object.emplace_back(std::move(key.string), parse_value(depth));
      const char c = peek();
      ++pos_;
      if (c == '}') {
        return value;
      }
      if (c != ',') {
        fail("expected ',' or '}' in object");
      }
    }
  }

  std::string_view text_;
  std::size_t pos_{0};
};

}  // namespace

JsonValue parse_json(std::string_view text) { return JsonParser{text}.parse(); }

}  // namespace mahimahi::util
