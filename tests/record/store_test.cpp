#include "record/store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "record/serialize.hpp"

namespace mahimahi::record {
namespace {

RecordedExchange make_exchange(std::string_view url, net::Address server,
                               std::string body = "x") {
  RecordedExchange exchange;
  exchange.request = http::make_get(url);
  exchange.response = http::make_ok(std::move(body));
  exchange.server_address = server;
  return exchange;
}

const net::Address kA{net::Ipv4{10, 1, 1, 1}, 80};
const net::Address kB{net::Ipv4{10, 1, 1, 2}, 80};
const net::Address kB443{net::Ipv4{10, 1, 1, 2}, 443};

TEST(RecordStore, DistinctServersDeduplicates) {
  RecordStore store;
  store.add(make_exchange("http://a.test/1", kA));
  store.add(make_exchange("http://a.test/2", kA));
  store.add(make_exchange("http://b.test/1", kB));
  store.add(make_exchange("http://b.test/s", kB443));
  const auto servers = store.distinct_servers();
  EXPECT_EQ(servers.size(), 3u);  // (ip,port) pairs, like the paper counts
}

TEST(RecordStore, HostBindingsMapNamesToRecordedIps) {
  RecordStore store;
  store.add(make_exchange("http://a.test/1", kA));
  store.add(make_exchange("http://b.test/1", kB));
  const auto bindings = store.host_bindings();
  ASSERT_EQ(bindings.size(), 2u);
  EXPECT_EQ(bindings[0].first, "a.test");
  EXPECT_EQ(bindings[0].second, kA.ip);
  EXPECT_EQ(bindings[1].first, "b.test");
  EXPECT_EQ(bindings[1].second, kB.ip);
}

TEST(RecordStore, TotalResponseBytes) {
  RecordStore store;
  store.add(make_exchange("http://a.test/1", kA, std::string(100, 'x')));
  store.add(make_exchange("http://a.test/2", kA, std::string(250, 'y')));
  EXPECT_EQ(store.total_response_bytes(), 350u);
}

TEST(RecordStore, SaveLoadRoundTripPreservesOrderAndContent) {
  RecordStore store;
  for (int i = 0; i < 25; ++i) {
    store.add(make_exchange("http://site.test/obj" + std::to_string(i), kA,
                            "body-" + std::to_string(i)));
  }
  const auto dir =
      std::filesystem::temp_directory_path() / "mahi_store_roundtrip";
  std::filesystem::remove_all(dir);
  store.save(dir);
  const RecordStore loaded = RecordStore::load(dir);
  ASSERT_EQ(loaded.size(), store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(loaded.exchanges()[i], store.exchanges()[i]) << i;
  }
  std::filesystem::remove_all(dir);
}

TEST(RecordStore, LoadMissingDirectoryThrows) {
  EXPECT_THROW(RecordStore::load("/nonexistent/recorded_site"),
               std::runtime_error);
}

TEST(RecordStore, LoadCorruptFileThrows) {
  const auto dir = std::filesystem::temp_directory_path() / "mahi_store_corrupt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream{dir / "save_0_deadbeef"} << "this is not MahiTLV";
  EXPECT_THROW(RecordStore::load(dir), SerializeError);
  std::filesystem::remove_all(dir);
}

TEST(RecordStore, LoadIgnoresForeignFiles) {
  RecordStore store;
  store.add(make_exchange("http://a.test/1", kA));
  const auto dir = std::filesystem::temp_directory_path() / "mahi_store_foreign";
  std::filesystem::remove_all(dir);
  store.save(dir);
  std::ofstream{dir / "README"} << "not a recording";
  const RecordStore loaded = RecordStore::load(dir);
  EXPECT_EQ(loaded.size(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(RecordedExchange, PathAndQueryHelpers) {
  const auto exchange = make_exchange("http://a.test/dir/page?x=1&y=2", kA);
  EXPECT_EQ(exchange.path(), "/dir/page");
  EXPECT_EQ(exchange.query(), "x=1&y=2");
  const auto plain = make_exchange("http://a.test/plain", kA);
  EXPECT_EQ(plain.path(), "/plain");
  EXPECT_EQ(plain.query(), "");
}

}  // namespace
}  // namespace mahimahi::record
