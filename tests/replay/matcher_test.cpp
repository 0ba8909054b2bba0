#include "replay/matcher.hpp"

#include <gtest/gtest.h>

#include "http/parser.hpp"

namespace mahimahi::replay {
namespace {

record::RecordedExchange make_exchange(std::string_view url, std::string body,
                                       http::Method method = http::Method::kGet) {
  record::RecordedExchange exchange;
  exchange.request = http::make_get(url);
  exchange.request.method = method;
  exchange.response = http::make_ok(std::move(body));
  exchange.server_address = net::Address{net::Ipv4{10, 0, 0, 1}, 80};
  return exchange;
}

/// The matcher's framed wire bytes, parsed back into a response.
http::Response respond(const Matcher& matcher, const http::Request& request) {
  http::ResponseParser parser;
  parser.push(matcher.respond(request));
  EXPECT_TRUE(parser.has_message());
  return parser.has_message() ? parser.pop() : http::Response{};
}

record::RecordStore site_store() {
  record::RecordStore store;
  store.add(make_exchange("http://www.site.test/", "root"));
  store.add(make_exchange("http://www.site.test/page?a=1&b=2", "ab"));
  store.add(make_exchange("http://www.site.test/page?a=1&c=3", "ac"));
  store.add(make_exchange("http://cdn.site.test/lib.js", "js"));
  store.add(make_exchange("http://www.site.test/api", "get-api"));
  store.add(make_exchange("http://www.site.test/api", "post-api",
                          http::Method::kPost));
  return store;
}

TEST(Matcher, ExactMatchWins) {
  const auto store = site_store();
  const Matcher matcher{store};
  const auto response =
      respond(matcher, http::make_get("http://www.site.test/page?a=1&c=3"));
  EXPECT_EQ(response.body, "ac");
}

TEST(Matcher, LongestQueryPrefixWhenNoExact) {
  const auto store = site_store();
  const Matcher matcher{store};
  // "a=1&b=9" shares "a=1&b=" (6 chars) with the b=2 recording but only
  // "a=1&" (4) with the c=3 one.
  const auto response =
      respond(matcher, http::make_get("http://www.site.test/page?a=1&b=9"));
  EXPECT_EQ(response.body, "ab");
}

TEST(Matcher, HostMustMatch) {
  const auto store = site_store();
  const Matcher matcher{store};
  EXPECT_EQ(matcher.find(http::make_get("http://other.test/")), nullptr);
  EXPECT_NE(matcher.find(http::make_get("http://www.site.test/")), nullptr);
}

TEST(Matcher, PathMustMatchExactly) {
  const auto store = site_store();
  const Matcher matcher{store};
  EXPECT_EQ(matcher.find(http::make_get("http://www.site.test/pag")), nullptr);
  EXPECT_EQ(matcher.find(http::make_get("http://www.site.test/page/")), nullptr);
}

TEST(Matcher, NoMatchYields404) {
  const auto store = site_store();
  const Matcher matcher{store};
  const auto response =
      respond(matcher, http::make_get("http://www.site.test/missing"));
  EXPECT_EQ(response.status, 404);
}

TEST(Matcher, MethodBreaksTies) {
  const auto store = site_store();
  const Matcher matcher{store};
  http::Request post = http::make_get("http://www.site.test/api");
  post.method = http::Method::kPost;
  EXPECT_EQ(respond(matcher, post).body, "post-api");
  EXPECT_EQ(respond(matcher, http::make_get("http://www.site.test/api")).body,
            "get-api");
}

TEST(Matcher, QuerylessRequestPrefersQuerylessRecording) {
  record::RecordStore store;
  store.add(make_exchange("http://h.test/p?long=query", "with-query"));
  store.add(make_exchange("http://h.test/p", "bare"));
  const Matcher matcher{store};
  EXPECT_EQ(respond(matcher, http::make_get("http://h.test/p")).body, "bare");
}

TEST(Matcher, DeterministicOnExactTies) {
  record::RecordStore store;
  store.add(make_exchange("http://h.test/p?x=1", "first"));
  store.add(make_exchange("http://h.test/p?x=1", "second"));  // duplicate
  const Matcher matcher{store};
  // Earliest recording wins, every time.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(respond(matcher, http::make_get("http://h.test/p?x=1")).body,
              "first");
  }
}

TEST(Matcher, EmptyStoreAlways404) {
  const record::RecordStore store;
  const Matcher matcher{store};
  EXPECT_EQ(matcher.indexed_exchanges(), 0u);
  EXPECT_EQ(respond(matcher, http::make_get("http://h.test/")).status, 404);
}

TEST(CommonQueryPrefix, Basics) {
  EXPECT_EQ(common_query_prefix("", ""), 0u);
  EXPECT_EQ(common_query_prefix("abc", "abc"), 3u);
  EXPECT_EQ(common_query_prefix("abc", "abd"), 2u);
  EXPECT_EQ(common_query_prefix("a=1&b=2", "a=1&c=3"), 4u);
  EXPECT_EQ(common_query_prefix("xyz", "abc"), 0u);
}

}  // namespace
}  // namespace mahimahi::replay
