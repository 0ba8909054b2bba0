// The journal layer's durability contract: framed records round-trip,
// torn tails and corrupt frames are detected and cut, manifests pin a
// run's identity and name the first mismatching field.

#include "journal/journal.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace mahimahi::journal {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path{::testing::TempDir()} / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Journal, Crc32MatchesKnownVector) {
  // The IEEE check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926U);
  EXPECT_EQ(crc32(""), 0x00000000U);
}

// The definition crc32 must reproduce: the bytewise reflected IEEE loop.
std::uint32_t bytewise_crc32(std::string_view bytes) {
  std::uint32_t crc = 0xFFFFFFFFU;
  for (const char c : bytes) {
    crc ^= static_cast<unsigned char>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1U) != 0 ? 0xEDB88320U : 0U);
    }
  }
  return crc ^ 0xFFFFFFFFU;
}

std::string seeded_bytes(std::size_t size, std::uint64_t seed) {
  std::string bytes(size, '\0');
  std::uint64_t state = seed;
  for (char& c : bytes) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    c = static_cast<char>(state >> 56);
  }
  return bytes;
}

TEST(Journal, Crc32MatchesBytewiseReferenceOnEverySlice) {
  // Every alignment (offset 0-7) against every length up to 64 walks the
  // word loop's head, body and tail through all their combinations.
  const std::string buffer = seeded_bytes(72, 0x5EED);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const std::string_view slice =
          std::string_view{buffer}.substr(offset, length);
      ASSERT_EQ(crc32(slice), bytewise_crc32(slice))
          << "offset " << offset << " length " << length;
    }
  }
  const std::string large = seeded_bytes((1U << 20) + 13, 0xB16);
  EXPECT_EQ(crc32(large), bytewise_crc32(large));
}

TEST(Journal, RecordsRoundTripThroughTheFile) {
  const fs::path dir = fresh_dir("mahi_journal_roundtrip");
  {
    Writer writer{dir.string(), 0};
    EXPECT_TRUE(writer.append("alpha"));
    EXPECT_TRUE(writer.append(""));  // empty payloads are legal
    EXPECT_TRUE(writer.append(std::string(3000, 'x')));
    EXPECT_EQ(writer.records_appended(), 3u);
  }
  const ReadResult read = read_journal_file(Writer::journal_path(dir.string()));
  ASSERT_EQ(read.records.size(), 3u);
  EXPECT_EQ(read.records[0], "alpha");
  EXPECT_EQ(read.records[1], "");
  EXPECT_EQ(read.records[2], std::string(3000, 'x'));
  EXPECT_FALSE(read.torn_tail);
  EXPECT_EQ(read.valid_bytes,
            fs::file_size(Writer::journal_path(dir.string())));
}

TEST(Journal, MissingFileReadsAsEmpty) {
  const ReadResult read = read_journal_file("/nonexistent/journal.bin");
  EXPECT_TRUE(read.records.empty());
  EXPECT_EQ(read.valid_bytes, 0u);
  EXPECT_FALSE(read.torn_tail);
}

TEST(Journal, TornTailIsDetectedAndDropped) {
  const fs::path dir = fresh_dir("mahi_journal_torn");
  {
    Writer writer{dir.string(), 0};
    writer.append("first");
    writer.append("second");
  }
  const std::string path = Writer::journal_path(dir.string());
  const std::uintmax_t full = fs::file_size(path);
  // Simulate a SIGKILL mid-append: cut the file inside the last record.
  fs::resize_file(path, full - 3);
  const ReadResult read = read_journal_file(path);
  ASSERT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.records[0], "first");
  EXPECT_TRUE(read.torn_tail);
  EXPECT_LT(read.valid_bytes, full - 3);

  // Reopening for append truncates the tail away and appends cleanly.
  {
    Writer writer{dir.string(), read.valid_bytes};
    writer.append("third");
  }
  const ReadResult healed = read_journal_file(path);
  ASSERT_EQ(healed.records.size(), 2u);
  EXPECT_EQ(healed.records[0], "first");
  EXPECT_EQ(healed.records[1], "third");
  EXPECT_FALSE(healed.torn_tail);
}

TEST(Journal, CorruptPayloadStopsTheScan) {
  const fs::path dir = fresh_dir("mahi_journal_corrupt");
  {
    Writer writer{dir.string(), 0};
    writer.append("kept");
    writer.append("flipped");
  }
  const std::string path = Writer::journal_path(dir.string());
  std::string bytes = read_bytes(path);
  // Flip one payload byte of the second record: its CRC no longer
  // matches, so the scan must stop before it.
  bytes[bytes.size() - 1] ^= 0x01;
  {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << bytes;
  }
  const ReadResult read = read_journal_file(path);
  ASSERT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.records[0], "kept");
  EXPECT_TRUE(read.torn_tail);
}

TEST(Journal, ManifestRoundTripsAndNamesTheFirstMismatch) {
  Manifest a;
  a.set("name", "smoke");
  a.set("seed", "4242");
  a.set("matrix-hash", "abc123");

  const std::string text = a.serialize();
  EXPECT_EQ(text.rfind("mahimahi-journal-v1\n", 0), 0u);
  const Manifest parsed = Manifest::parse(text);
  EXPECT_EQ(parsed.get("name"), "smoke");
  EXPECT_EQ(parsed.get("seed"), "4242");
  EXPECT_EQ(a.first_mismatch(parsed), "");

  Manifest b = parsed;
  b.set("seed", "9");
  EXPECT_EQ(a.first_mismatch(b), "seed");
  // A key present on only one side is a mismatch too (schema drift).
  Manifest c = parsed;
  c.set("extra", "1");
  EXPECT_EQ(a.first_mismatch(c), "extra");
}

TEST(Journal, ManifestRejectsForeignSchema) {
  EXPECT_THROW(Manifest::parse("not-a-journal\nx y\n"), std::runtime_error);
  EXPECT_THROW(Manifest::parse(""), std::runtime_error);
}

TEST(Journal, ManifestFileRoundTripsAtomically) {
  const fs::path dir = fresh_dir("mahi_journal_manifest");
  Manifest manifest;
  manifest.set("name", "x");
  manifest.set("toolchain", toolchain_fingerprint());
  ASSERT_TRUE(write_manifest(dir.string(), manifest));
  // No temp file left behind by the atomic write.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  const Manifest read = read_manifest(dir.string());
  EXPECT_EQ(read.first_mismatch(manifest), "");
  EXPECT_THROW(read_manifest((dir / "nope").string()), std::runtime_error);
}

TEST(Journal, CodecRoundTripsEveryPrimitive) {
  std::string out;
  put_u8(out, 0xAB);
  put_u32(out, 0xDEADBEEFU);
  put_u64(out, 0x0123456789ABCDEFULL);
  put_i64(out, -42);
  put_double(out, 3.141592653589793);
  put_double(out, -0.0);
  put_string(out, "hello\0world");  // literal truncates at NUL — fine
  put_string(out, "");

  // The wire layout is little-endian whatever the host order.
  EXPECT_EQ(out.substr(0, 13),
            std::string("\xAB\xEF\xBE\xAD\xDE\xEF\xCD\xAB\x89\x67\x45\x23\x01",
                        13));

  Cursor in{out};
  EXPECT_EQ(in.get_u8(), 0xAB);
  EXPECT_EQ(in.get_u32(), 0xDEADBEEFU);
  EXPECT_EQ(in.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(in.get_i64(), -42);
  EXPECT_EQ(in.get_double(), 3.141592653589793);
  const double negative_zero = in.get_double();
  EXPECT_EQ(negative_zero, 0.0);
  EXPECT_TRUE(std::signbit(negative_zero));  // bit-exact, not value-equal
  EXPECT_EQ(in.get_string(), "hello");
  EXPECT_EQ(in.get_string(), "");
  EXPECT_TRUE(in.exhausted());
}

TEST(Journal, CursorThrowsOnUnderrun) {
  std::string out;
  put_u32(out, 7);
  Cursor in{out};
  EXPECT_EQ(in.get_u32(), 7u);
  EXPECT_THROW(in.get_u8(), std::runtime_error);
  // A length prefix pointing past the end must throw, not read garbage.
  std::string bad;
  put_u32(bad, 1000);
  Cursor cursor{bad};
  EXPECT_THROW(cursor.get_string(), std::runtime_error);
}

}  // namespace
}  // namespace mahimahi::journal
