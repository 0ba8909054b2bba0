// Tests for the one JSON/number-format layer: the escaper's RFC 8259
// output, the fixed-precision and integer formatters, and the reader's
// decoding, strictness and nesting cap.

#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace mahimahi::util {
namespace {

std::string escaped(std::string_view text) {
  std::string out;
  json_escape(out, text);
  return out;
}

TEST(JsonEscape, ShortFormsAndUnicodeEscapesForControlBytes) {
  EXPECT_EQ(escaped("plain/utf8 \xc3\xa9"), "plain/utf8 \xc3\xa9");
  EXPECT_EQ(escaped("q\"b\\"), "q\\\"b\\\\");
  EXPECT_EQ(escaped("\n\r\t"), "\\n\\r\\t");
  EXPECT_EQ(escaped(std::string_view{"a\x01" "b\x1f\0", 5}),
            "a\\u0001b\\u001f\\u0000");
}

TEST(JsonEscape, AppendsIntoTheCallersBuffer) {
  std::string out = "\"";
  json_escape(out, "x\"y");
  out += "\"";
  EXPECT_EQ(out, "\"x\\\"y\"");
}

TEST(JsonEscape, EveryByteRoundTripsThroughTheReader) {
  std::string all;
  for (int c = 1; c < 256; ++c) {
    all += static_cast<char>(c);
  }
  std::string doc = "\"";
  json_escape(doc, all);
  doc += "\"";
  EXPECT_EQ(parse_json(doc).string, all);
}

TEST(JsonFormat, FixedPrecisionAndIntegers) {
  EXPECT_EQ(fmt(1.0), "1.000000");
  EXPECT_EQ(fmt(2.5, 1), "2.5");
  EXPECT_EQ(fmt(1504.0, 0), "1504");
  EXPECT_EQ(fmt(-0.125, 3), "-0.125");
  // Hundreds of digits do not fit a small stack buffer; nothing truncates.
  EXPECT_EQ(fmt(1e300, 1).size(), 303u);
  std::string out;
  append_i64(out, std::numeric_limits<std::int64_t>::min());
  out += " ";
  append_u64(out, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(out, "-9223372036854775808 18446744073709551615");
}

TEST(JsonFormat, AppendConcatenatesPieces) {
  std::string out;
  append(out, "{\"n\": \"", Escaped{"a\"b"}, "\", \"i\": ", -3, ", \"u\": ",
         std::uint64_t{7}, ", \"d\": ", Fixed{0.5}, ", \"p\": ",
         Fixed{0.25, 1}, "}");
  EXPECT_EQ(out,
            R"({"n": "a\"b", "i": -3, "u": 7, "d": 0.500000, "p": 0.2})");
  EXPECT_NO_THROW((void)parse_json(out));
}

TEST(JsonReader, ParsesEveryValueType) {
  const JsonValue root = parse_json(
      R"({"s": "x", "n": -1.5e2, "t": true, "f": false, "z": null,
          "a": [1, [2], {}]})");
  ASSERT_EQ(root.type, JsonValue::Type::kObject);
  EXPECT_EQ(root.find("s")->string, "x");
  EXPECT_DOUBLE_EQ(root.find("n")->number, -150.0);
  EXPECT_TRUE(root.find("t")->boolean);
  EXPECT_FALSE(root.find("f")->boolean);
  EXPECT_EQ(root.find("z")->type, JsonValue::Type::kNull);
  EXPECT_EQ(root.find("a")->array.size(), 3u);
  EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(JsonReader, DecodesUnicodeAndShortEscapes) {
  EXPECT_EQ(parse_json(R"("a\u0001b")").string, "a\x01" "b");
  EXPECT_EQ(parse_json(R"("\b\f\n\r\t\/\"\\")").string, "\b\f\n\r\t/\"\\");
  EXPECT_EQ(parse_json(R"("\u00e9\u20AC")").string, "\xc3\xa9\xe2\x82\xac");
  // A surrogate pair decodes to one 4-byte UTF-8 sequence (U+1F600).
  EXPECT_EQ(parse_json(R"("\ud83d\ude00")").string, "\xf0\x9f\x98\x80");
  EXPECT_EQ(parse_json(R"("\u0000")").string, std::string(1, '\0'));
}

TEST(JsonReader, RejectsMalformedEscapes) {
  for (const char* bad : {R"("\x")", R"("\u12")", R"("\u12g4")",
                          R"("\ud83d")", R"("\ud83dx")", R"("\ude00")",
                          R"("\ud83d\u0041")"}) {
    EXPECT_THROW((void)parse_json(bad), std::invalid_argument) << bad;
  }
}

TEST(JsonReader, RejectsRawControlBytesInStrings) {
  EXPECT_THROW((void)parse_json("\"a\x01" "b\""), std::invalid_argument);
  EXPECT_THROW((void)parse_json("\"line\nbreak\""), std::invalid_argument);
  EXPECT_THROW((void)parse_json("\"tab\there\""), std::invalid_argument);
}

TEST(JsonReader, CapsNestingDepth) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW((void)parse_json(nested(kJsonMaxDepth)));
  EXPECT_THROW((void)parse_json(nested(kJsonMaxDepth + 1)),
               std::invalid_argument);
  // A million openers would exhaust the stack of an uncapped recursive
  // parser; the cap turns it into a typed error.
  try {
    (void)parse_json(std::string(1'000'000, '['));
    FAIL() << "expected a nesting error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("nesting deeper than"),
              std::string::npos)
        << e.what();
  }
}

TEST(JsonReader, ErrorsNameTheLineAndRejectDuplicateKeys) {
  try {
    (void)parse_json("{\n  \"a\": 1,\n  \"a\": 2\n}");
    FAIL() << "expected a duplicate-key error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("line 3"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string{e.what()}.find("duplicate object key 'a'"),
              std::string::npos)
        << e.what();
  }
  for (const char* bad : {"", "{", "[1,]", "{\"a\" 1}", "tru", "1 2",
                          "\"open", "{\"a\": 1,}", "\v1"}) {
    EXPECT_THROW((void)parse_json(bad), std::invalid_argument) << bad;
  }
}

}  // namespace
}  // namespace mahimahi::util
