#include "record/store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "record/serialize.hpp"
#include "util/random.hpp"
#include "util/strings.hpp"

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
  // Named with its real content hash, so the bytes reach the decoder.
  const std::string garbage = "this is not MahiTLV";
  std::ofstream{dir / ("save_0_" + util::to_hex(util::fnv1a(garbage)))}
      << garbage;
  EXPECT_THROW(RecordStore::load(dir), SerializeError);
  try {
    (void)RecordStore::load(dir);
  } catch (const SerializeError& error) {
    EXPECT_NE(std::string{error.what()}.find("bad magic"), std::string::npos)
        << error.what();
  }
  std::filesystem::remove_all(dir);
}

/// A saved two-exchange store in a fresh directory.
std::filesystem::path saved_store(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  RecordStore store;
  store.add(make_exchange("http://a.test/1", kA, "one"));
  store.add(make_exchange("http://a.test/2", kA, "two"));
  store.save(dir);
  return dir;
}

/// The saved file whose name starts with `prefix`.
std::filesystem::path saved_file(const std::filesystem::path& dir,
                                 const std::string& prefix) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      return entry.path();
    }
  }
  ADD_FAILURE() << "no " << prefix << "* in " << dir;
  return {};
}

/// load() throws SerializeError whose message names `file`.
void expect_rejected(const std::filesystem::path& dir,
                     const std::filesystem::path& file) {
  try {
    (void)RecordStore::load(dir);
    ADD_FAILURE() << "load accepted " << dir;
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string{e.what()}.find(file.filename().string()),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(RecordStore, LoadRejectsADuplicateIndex) {
  // save_01_<hash> is index 1 again: which exchange is "earliest recorded"
  // would depend on the directory listing.
  const auto dir = saved_store("mahi_store_duplicate");
  const auto second = saved_file(dir, "save_1_");
  const auto copy = dir / ("save_01_" + second.filename().string().substr(7));
  std::filesystem::copy_file(second, copy);
  expect_rejected(dir, copy);  // the message names both files
}

TEST(RecordStore, LoadRejectsAnUnparsableIndex) {
  const auto dir = saved_store("mahi_store_bad_index");
  const auto first = saved_file(dir, "save_0_");
  const auto renamed = dir / ("save_x_" + first.filename().string().substr(7));
  std::filesystem::rename(first, renamed);
  expect_rejected(dir, renamed);
}

TEST(RecordStore, LoadRejectsAContentHashMismatch) {
  // A valid exchange under another exchange's hash: it decodes fine, so
  // only the name's hash can tell that the file is not what was saved.
  const auto dir = saved_store("mahi_store_bad_hash");
  const auto first = saved_file(dir, "save_0_");
  const auto second = saved_file(dir, "save_1_");
  std::filesystem::copy_file(
      second, first, std::filesystem::copy_options::overwrite_existing);
  expect_rejected(dir, first);
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
