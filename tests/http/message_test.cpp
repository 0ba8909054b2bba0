#include "http/message.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace mahimahi::http {
namespace {

// A plain stream serializer: the reference the exact-size writer's framed
// and unframed outputs must match byte for byte.
std::string reference_bytes(const Response& response) {
  std::ostringstream out;
  out << response.version << ' ' << response.status << ' ' << response.reason
      << "\r\n";
  for (const auto& field : response.headers) {
    out << field.name << ": " << field.value << "\r\n";
  }
  out << "\r\n" << response.body;
  return out.str();
}

std::string reference_bytes(const Request& request) {
  std::ostringstream out;
  out << method_name(request.method) << ' ' << request.target << ' '
      << request.version << "\r\n";
  for (const auto& field : request.headers) {
    out << field.name << ": " << field.value << "\r\n";
  }
  out << "\r\n" << request.body;
  return out.str();
}

/// to_bytes matches the reference as stored, to_framed_bytes matches the
/// reference after finalize_content_length, and both equal `golden`.
template <typename Message>
void expect_framed(const Message& message, std::string_view golden) {
  Message finalized = message;
  finalize_content_length(finalized);
  EXPECT_EQ(to_bytes(message), reference_bytes(message));
  EXPECT_EQ(to_framed_bytes(message), reference_bytes(finalized));
  EXPECT_EQ(to_framed_bytes(message), golden);
  EXPECT_EQ(to_bytes(finalized), golden);
}

TEST(Request, HostStripsPortAndLowercases) {
  Request r;
  r.headers.add("Host", "WWW.Example.COM:8080");
  EXPECT_EQ(r.host(), "www.example.com");
}

TEST(Request, HostEmptyWhenAbsent) {
  EXPECT_EQ(Request{}.host(), "");
}

TEST(Request, UrlFromOriginFormUsesHostHeader) {
  Request r;
  r.target = "/a/b?c=d";
  r.headers.add("Host", "site.test:8000");
  const Url url = r.url();
  EXPECT_EQ(url.host, "site.test");
  EXPECT_EQ(url.port, 8000);
  EXPECT_EQ(url.path, "/a/b");
  EXPECT_EQ(url.query, "c=d");
}

TEST(Request, UrlFromAbsoluteFormTarget) {
  Request r;
  r.target = "http://other.test/x";
  r.headers.add("Host", "ignored.test");
  const Url url = r.url();
  EXPECT_EQ(url.host, "other.test");
  EXPECT_EQ(url.path, "/x");
}

TEST(KeepAlive, Http11DefaultsOn) {
  Request r;
  EXPECT_TRUE(r.keep_alive());
  r.headers.add("Connection", "close");
  EXPECT_FALSE(r.keep_alive());
}

TEST(KeepAlive, Http10DefaultsOff) {
  Response resp;
  resp.version = "HTTP/1.0";
  EXPECT_FALSE(resp.keep_alive());
  resp.headers.add("Connection", "Keep-Alive");
  EXPECT_TRUE(resp.keep_alive());
}

TEST(ToBytes, RequestWireFormat) {
  Request r;
  r.method = Method::kGet;
  r.target = "/index.html";
  r.headers.add("Host", "example.com");
  r.headers.add("Accept", "*/*");
  EXPECT_EQ(to_bytes(r),
            "GET /index.html HTTP/1.1\r\n"
            "Host: example.com\r\n"
            "Accept: */*\r\n"
            "\r\n");
}

TEST(ToBytes, ResponseWireFormatWithBody) {
  Response resp = make_ok("hello", "text/plain");
  EXPECT_EQ(to_bytes(resp),
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/plain\r\n"
            "Content-Length: 5\r\n"
            "\r\n"
            "hello");
}

TEST(FinalizeContentLength, SkipsWhenChunked) {
  Response resp;
  resp.headers.add("Transfer-Encoding", "chunked");
  resp.body = "ignored-framing";
  finalize_content_length(resp);
  EXPECT_FALSE(resp.headers.contains("Content-Length"));
}

TEST(FinalizeContentLength, SkipsWhenBodyEmpty) {
  Request r;
  finalize_content_length(r);
  EXPECT_FALSE(r.headers.contains("Content-Length"));
}

TEST(FinalizeContentLength, OverwritesStaleValue) {
  Response resp;
  resp.headers.add("Content-Length", "999");
  resp.body = "abc";
  finalize_content_length(resp);
  EXPECT_EQ(resp.headers.get("Content-Length"), "3");
}

TEST(FramedBytes, ReplacesExistingContentLengthInPlace) {
  Response resp;
  resp.headers.add("content-length", "999");
  resp.headers.add("Server", "s");
  resp.body = "abc";
  expect_framed(resp,
                "HTTP/1.1 200 OK\r\n"
                "content-length: 3\r\n"
                "Server: s\r\n"
                "\r\n"
                "abc");
}

TEST(FramedBytes, CollapsesDuplicateContentLength) {
  Response resp;
  resp.headers.add("Content-Length", "1");
  resp.headers.add("X-A", "a");
  resp.headers.add("CONTENT-LENGTH", "2");
  resp.body = "hello";
  expect_framed(resp,
                "HTTP/1.1 200 OK\r\n"
                "Content-Length: 5\r\n"
                "X-A: a\r\n"
                "\r\n"
                "hello");
}

TEST(FramedBytes, AppendsContentLengthWhenAbsentEvenForEmptyBody) {
  Response resp;
  resp.status = 404;
  resp.reason = "Not Found";
  resp.headers.add("Content-Type", "text/plain");
  expect_framed(resp,
                "HTTP/1.1 404 Not Found\r\n"
                "Content-Type: text/plain\r\n"
                "Content-Length: 0\r\n"
                "\r\n");
}

TEST(FramedBytes, LeavesChunkedUntouched) {
  Response resp;
  resp.headers.add("Transfer-Encoding", "chunked");
  resp.headers.add("Content-Length", "7");  // stale, and kept as stored
  resp.body = "3\r\nabc\r\n0\r\n\r\n";
  expect_framed(resp,
                "HTTP/1.1 200 OK\r\n"
                "Transfer-Encoding: chunked\r\n"
                "Content-Length: 7\r\n"
                "\r\n"
                "3\r\nabc\r\n0\r\n\r\n");
}

TEST(FramedBytes, BodilessStatusesGetNoLength) {
  Response no_content;
  no_content.status = 204;
  no_content.reason = "No Content";
  expect_framed(no_content, "HTTP/1.1 204 No Content\r\n\r\n");

  Response not_modified;
  not_modified.status = 304;
  not_modified.reason = "Not Modified";
  not_modified.headers.add("ETag", "\"v1\"");
  expect_framed(not_modified,
                "HTTP/1.1 304 Not Modified\r\n"
                "ETag: \"v1\"\r\n"
                "\r\n");

  Response interim;
  interim.status = 100;
  interim.reason = "Continue";
  expect_framed(interim, "HTTP/1.1 100 Continue\r\n\r\n");
}

TEST(FramedBytes, NotFoundFactory) {
  expect_framed(make_not_found("/gone?q=1"),
                "HTTP/1.1 404 Not Found\r\n"
                "Content-Type: text/plain\r\n"
                "Content-Length: 34\r\n"
                "\r\n"
                "no recorded response for /gone?q=1");
}

TEST(FramedBytes, RequestWithBodyGetsLengthAndBodilessOneDoesNot) {
  Request post;
  post.method = Method::kPost;
  post.target = "/submit";
  post.headers.add("Host", "h.test");
  post.body = "k=v&x=1";
  expect_framed(post,
                "POST /submit HTTP/1.1\r\n"
                "Host: h.test\r\n"
                "Content-Length: 7\r\n"
                "\r\n"
                "k=v&x=1");

  const Request get = make_get("http://h.test/p");
  expect_framed(get,
                "GET /p HTTP/1.1\r\n"
                "Host: h.test\r\n"
                "\r\n");
}

TEST(MakeGet, BuildsHostHeaderWithPort) {
  const Request r = make_get("http://h.test:81/p?q=1");
  EXPECT_EQ(r.method, Method::kGet);
  EXPECT_EQ(r.target, "/p?q=1");
  EXPECT_EQ(r.headers.get("Host"), "h.test:81");
}

TEST(MakeNotFound, CarriesTargetInBody) {
  const Response resp = make_not_found("/missing");
  EXPECT_EQ(resp.status, 404);
  EXPECT_NE(resp.body.find("/missing"), std::string::npos);
  EXPECT_EQ(resp.headers.get("Content-Length"),
            std::to_string(resp.body.size()));
}

TEST(MethodTable, RoundTrips) {
  for (const Method m :
       {Method::kGet, Method::kHead, Method::kPost, Method::kPut, Method::kDelete,
        Method::kOptions, Method::kTrace, Method::kConnect, Method::kPatch}) {
    const auto parsed = parse_method(method_name(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(parse_method("get").has_value());  // case-sensitive
  EXPECT_FALSE(parse_method("BREW").has_value());
}

}  // namespace
}  // namespace mahimahi::http
