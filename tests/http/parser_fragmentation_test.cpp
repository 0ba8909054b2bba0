// Fragmentation property: a pipelined byte stream parses to exactly the
// same messages however it is split across push() calls — every 1-, 2-
// and 3-way split plus seeded random splits. Splits that start a push
// mid-body exercise the path that hands body bytes straight to the
// message without staging them.
//
// Also: a declared Content-Length only reserves up to kMaxBodyReserve, so
// an absurd length neither throws nor allocates what never arrives.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "http/message.hpp"
#include "http/parser.hpp"
#include "util/random.hpp"

// Largest single heap allocation made while `g_tracking` is set on this
// thread — what the reservation test bounds.
namespace {
thread_local bool g_tracking = false;
thread_local std::size_t g_largest_allocation = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_tracking && size > g_largest_allocation) {
    g_largest_allocation = size;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc{};
}
// Out of line: inlined into a caller, GCC would pair the free() with that
// caller's `new` and warn about a mismatch.
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mahimahi::http {
namespace {

using namespace std::string_view_literals;

/// Responses in stream order, with the request method each answers.
/// Covers Content-Length bodies, a 1xx ahead of a chunked body with
/// trailers, a HEAD response that declares but carries no body, a 204,
/// and a final read-to-close body that only on_close() completes.
constexpr std::string_view kResponseStream =
    "HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\nhello world"
    "HTTP/1.1 100 Continue\r\n\r\n"
    "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
    "4\r\nwiki\r\n6;ext=1\r\npedia \r\n0\r\nX-Trailer: t\r\n\r\n"
    "HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n"
    "HTTP/1.1 204 No Content\r\n\r\n"
    "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n\x00\xff\r"
    "HTTP/1.1 200 OK\r\nServer: s\r\n\r\nuntil close"sv;
const std::vector<Method> kResponseMethods = {
    Method::kGet, Method::kPost, Method::kHead,
    Method::kGet, Method::kGet,  Method::kGet};

constexpr std::string_view kRequestStream =
    "GET /a HTTP/1.1\r\nHost: h\r\n\r\n"
    "POST /b HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nabcde"
    "PUT /c HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
    "3\r\nxyz\r\n0\r\nX-Sum: 1\r\n\r\n"
    "\r\nGET /d HTTP/1.1\r\n\r\n"
    "POST /e HTTP/1.1\r\nContent-Length: 2\r\n\r\n\r\n"sv;

std::vector<Response> parse_responses(
    const std::vector<std::string_view>& pieces) {
  ResponseParser parser;
  for (const Method method : kResponseMethods) {
    parser.notify_request(method);
  }
  for (const std::string_view piece : pieces) {
    parser.push(piece);
  }
  parser.on_close();
  EXPECT_FALSE(parser.failed()) << parser.error_message();
  std::vector<Response> out;
  while (parser.has_message()) {
    out.push_back(parser.pop());
  }
  return out;
}

std::vector<Request> parse_requests(
    const std::vector<std::string_view>& pieces) {
  RequestParser parser;
  for (const std::string_view piece : pieces) {
    parser.push(piece);
  }
  EXPECT_FALSE(parser.failed()) << parser.error_message();
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  std::vector<Request> out;
  while (parser.has_message()) {
    out.push_back(parser.pop());
  }
  return out;
}

/// `stream` cut at the given ascending offsets.
std::vector<std::string_view> split(std::string_view stream,
                                    const std::vector<std::size_t>& cuts) {
  std::vector<std::string_view> pieces;
  std::size_t from = 0;
  for (const std::size_t cut : cuts) {
    pieces.push_back(stream.substr(from, cut - from));
    from = cut;
  }
  pieces.push_back(stream.substr(from));
  return pieces;
}

template <typename Parse>
void expect_split_invariant(std::string_view stream, Parse parse,
                            std::size_t expected_messages) {
  const auto whole = parse({stream});
  ASSERT_EQ(whole.size(), expected_messages);
  const std::size_t n = stream.size();
  for (std::size_t i = 0; i <= n; ++i) {
    ASSERT_EQ(parse(split(stream, {i})), whole) << "2-way split at " << i;
    for (std::size_t j = i; j <= n; ++j) {
      ASSERT_EQ(parse(split(stream, {i, j})), whole)
          << "3-way split at " << i << ", " << j;
    }
  }
  util::Rng rng{2024};
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::size_t> cuts;
    std::size_t at = 0;
    while (true) {
      const int max_step = trial % 2 == 0 ? 3 : 40;
      at += static_cast<std::size_t>(rng.uniform_int(0, max_step));
      if (at >= n) {
        break;
      }
      cuts.push_back(at);
    }
    ASSERT_EQ(parse(split(stream, cuts)), whole) << "random trial " << trial;
  }
}

TEST(ParserFragmentation, ResponseStreamSplitsParseIdentically) {
  const auto whole = parse_responses({kResponseStream});
  ASSERT_EQ(whole.size(), 7u);
  EXPECT_EQ(whole[0].body, "hello world");
  EXPECT_EQ(whole[1].status, 100);
  EXPECT_EQ(whole[2].body, "wikipedia ");
  EXPECT_EQ(whole[2].headers.get("X-Trailer"), "t");
  EXPECT_TRUE(whole[3].body.empty());  // HEAD: declared, never sent
  EXPECT_EQ(whole[4].status, 204);
  EXPECT_EQ(whole[5].body, std::string("\x00\xff\r", 3));
  EXPECT_EQ(whole[6].body, "until close");
  expect_split_invariant(kResponseStream, parse_responses, 7);
}

TEST(ParserFragmentation, RequestStreamSplitsParseIdentically) {
  const auto whole = parse_requests({kRequestStream});
  ASSERT_EQ(whole.size(), 5u);
  EXPECT_EQ(whole[1].body, "abcde");
  EXPECT_EQ(whole[2].body, "xyz");
  EXPECT_EQ(whole[2].headers.get("X-Sum"), "1");
  EXPECT_EQ(whole[3].target, "/d");
  EXPECT_EQ(whole[4].body, "\r\n");
  expect_split_invariant(kRequestStream, parse_requests, 5);
}

TEST(ParserFragmentation, BodyLargerThanItsPiecesArrivesIntact) {
  Response original = make_ok(std::string(100'000, 'z'));
  original.body[0] = 'a';
  original.body.back() = 'b';
  const std::string wire = to_framed_bytes(original);
  ResponseParser parser;
  for (std::size_t at = 0; at < wire.size(); at += 1448) {
    parser.push(std::string_view{wire}.substr(at, 1448));
    EXPECT_LT(parser.buffered_bytes(), 1448u);
  }
  ASSERT_TRUE(parser.has_message());
  EXPECT_EQ(parser.pop(), original);
}

void expect_bounded_reservation(std::string_view declared_length) {
  ResponseParser parser;
  const std::string head = "HTTP/1.1 200 OK\r\nContent-Length: " +
                           std::string{declared_length} + "\r\n\r\n";
  g_largest_allocation = 0;
  g_tracking = true;
  EXPECT_NO_THROW(parser.push(head));
  EXPECT_NO_THROW(parser.push("partial body"));
  g_tracking = false;
  EXPECT_LE(g_largest_allocation, MessageParser::kMaxBodyReserve + 1);
  EXPECT_GE(g_largest_allocation, MessageParser::kMaxBodyReserve);
  EXPECT_FALSE(parser.failed());
  EXPECT_FALSE(parser.has_message());
  parser.on_close();
  EXPECT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_message(), "connection closed mid message");
}

TEST(BodyReservation, HugeDeclaredLengthIsCappedNotAllocated) {
  expect_bounded_reservation("18446744073709551615");
  expect_bounded_reservation("1000000000000");
}

TEST(BodyReservation, SmallDeclaredLengthReservesExactly) {
  ResponseParser parser;
  g_largest_allocation = 0;
  g_tracking = true;
  parser.push("HTTP/1.1 200 OK\r\nContent-Length: 5000\r\n\r\n");
  for (int i = 0; i < 50; ++i) {
    parser.push(std::string(100, 'q'));
  }
  g_tracking = false;
  ASSERT_TRUE(parser.has_message());
  const Response response = parser.pop();
  EXPECT_EQ(response.body, std::string(5000, 'q'));
  // One exact reservation; appends never regrow the body.
  EXPECT_LE(g_largest_allocation, 5001u);
  EXPECT_GE(response.body.capacity(), 5000u);
  EXPECT_LT(response.body.capacity(), 5100u);
}

}  // namespace
}  // namespace mahimahi::http
