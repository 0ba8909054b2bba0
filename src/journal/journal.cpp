#include "journal/journal.hpp"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/atomic_file.hpp"
#include "util/strings.hpp"

namespace mahimahi::journal {
namespace {

constexpr std::uint32_t kFrameMagic = 0x314A4D4DU;  // "MMJ1" little-endian
constexpr std::size_t kFrameHeader = 12;            // magic + len + crc

// Slicing-by-8 tables: table[0] is the classic bytewise table; table[k]
// advances a byte's contribution through k further zero bytes, so eight
// lookups fold one 64-bit word into the CRC.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t value = i;
    for (int bit = 0; bit < 8; ++bit) {
      value = (value >> 1) ^ ((value & 1U) != 0 ? 0xEDB88320U : 0U);
    }
    tables[0][i] = value;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < tables.size(); ++k) {
      const std::uint32_t previous = tables[k - 1][i];
      tables[k][i] = (previous >> 8) ^ tables[0][previous & 0xFFU];
    }
  }
  return tables;
}

std::uint32_t read_le_u32(const char* bytes) {
  const auto b = [&](int i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

}  // namespace

std::uint32_t crc32(std::string_view bytes) {
  static const CrcTables tables = make_crc_tables();
  const auto& table = tables[0];
  std::uint32_t crc = 0xFFFFFFFFU;
  const char* data = bytes.data();
  std::size_t size = bytes.size();
  if constexpr (std::endian::native == std::endian::little) {
    for (; size >= 8; data += 8, size -= 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, data, sizeof word);
      word ^= crc;
      crc = tables[7][word & 0xFFU] ^ tables[6][(word >> 8) & 0xFFU] ^
            tables[5][(word >> 16) & 0xFFU] ^ tables[4][(word >> 24) & 0xFFU] ^
            tables[3][(word >> 32) & 0xFFU] ^ tables[2][(word >> 40) & 0xFFU] ^
            tables[1][(word >> 48) & 0xFFU] ^ tables[0][word >> 56];
    }
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<unsigned char>(*data)) & 0xFFU];
  }
  return crc ^ 0xFFFFFFFFU;
}

std::string toolchain_fingerprint() {
#if defined(__clang__)
  const char* compiler = "clang ";
#elif defined(__GNUC__)
  const char* compiler = "gcc ";
#else
  const char* compiler = "cxx ";
#endif
  return std::string{compiler} + __VERSION__ + " ptr" +
         std::to_string(sizeof(void*) * 8);
}

// --- Manifest --------------------------------------------------------------

void Manifest::set(const std::string& key, const std::string& value) {
  for (auto& [existing_key, existing_value] : entries_) {
    if (existing_key == key) {
      existing_value = value;
      return;
    }
  }
  entries_.emplace_back(key, value);
}

std::string Manifest::get(const std::string& key) const {
  for (const auto& [existing_key, value] : entries_) {
    if (existing_key == key) {
      return value;
    }
  }
  return "";
}

std::string Manifest::first_mismatch(const Manifest& other) const {
  for (const auto& [key, value] : entries_) {
    if (other.get(key) != value) {
      return key;
    }
  }
  for (const auto& [key, value] : other.entries_) {
    if (get(key) != value) {
      return key;
    }
  }
  return "";
}

std::string Manifest::serialize() const {
  std::string out = "mahimahi-journal-v1\n";
  for (const auto& [key, value] : entries_) {
    out += key + " " + value + "\n";
  }
  return out;
}

Manifest Manifest::parse(std::string_view text) {
  Manifest manifest;
  bool first = true;
  for (const std::string_view raw : util::split(text, '\n')) {
    const std::string_view line = util::trim(raw);
    if (line.empty()) {
      continue;
    }
    if (first) {
      if (line != "mahimahi-journal-v1") {
        throw std::runtime_error{
            "journal manifest: unknown schema line '" + std::string{line} +
            "' (expected mahimahi-journal-v1)"};
      }
      first = false;
      continue;
    }
    const auto [key, value] = util::split_once(line, ' ');
    manifest.set(std::string{key}, std::string{util::trim(value)});
  }
  if (first) {
    throw std::runtime_error{"journal manifest: empty file"};
  }
  return manifest;
}

// --- reading ---------------------------------------------------------------

ReadResult read_journal_file(const std::string& path) {
  ReadResult result;
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    return result;  // no journal yet = empty journal
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();

  std::size_t offset = 0;
  while (offset + kFrameHeader <= bytes.size()) {
    const std::uint32_t magic = read_le_u32(bytes.data() + offset);
    const std::uint32_t length = read_le_u32(bytes.data() + offset + 4);
    const std::uint32_t expected_crc = read_le_u32(bytes.data() + offset + 8);
    if (magic != kFrameMagic ||
        offset + kFrameHeader + length > bytes.size()) {
      break;  // torn or foreign tail
    }
    const std::string_view payload{bytes.data() + offset + kFrameHeader,
                                   length};
    if (crc32(payload) != expected_crc) {
      break;  // the record being written when the process died
    }
    result.records.emplace_back(payload);
    offset += kFrameHeader + length;
  }
  result.valid_bytes = offset;
  result.torn_tail = offset != bytes.size();
  return result;
}

// --- Writer ----------------------------------------------------------------

std::string Writer::journal_path(const std::string& dir) {
  return dir + "/journal.bin";
}

std::string Writer::manifest_path(const std::string& dir) {
  return dir + "/MANIFEST";
}

Writer::Writer(const std::string& dir, std::uint64_t truncate_to)
    : path_{journal_path(dir)} {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd_ < 0) {
    throw std::runtime_error{"journal: cannot open " + path_ + ": " +
                             std::strerror(errno)};
  }
  // Cut off any torn tail before the first new frame: the file must be a
  // clean sequence of whole frames at all times.
  if (::ftruncate(fd_, static_cast<off_t>(truncate_to)) != 0 ||
      ::lseek(fd_, 0, SEEK_END) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error{"journal: cannot truncate " + path_ + ": " +
                             error};
  }
}

Writer::~Writer() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

bool Writer::append(std::string_view payload) {
  std::string header;  // kFrameHeader bytes: fits the small-string buffer
  put_u32(header, kFrameMagic);
  put_u32(header, static_cast<std::uint32_t>(payload.size()));
  put_u32(header, crc32(payload));

  // Header and payload go out in one gathered write, so the payload is
  // never copied into a frame buffer. A partial write advances through
  // the iovecs and retries the rest.
  std::array<iovec, 2> parts{
      iovec{header.data(), header.size()},
      iovec{const_cast<char*>(payload.data()), payload.size()}};
  iovec* part = parts.data();
  int count = static_cast<int>(parts.size());
  const std::lock_guard<std::mutex> lock{mutex_};
  while (count > 0) {
    const ssize_t wrote = ::writev(fd_, part, count);
    if (wrote < 0) {
      if (errno == EINTR) {
        continue;
      }
      std::fprintf(stderr, "[journal] append to %s failed: %s\n",
                   path_.c_str(), std::strerror(errno));
      return false;
    }
    auto left = static_cast<std::size_t>(wrote);
    while (count > 0 && left >= part->iov_len) {
      left -= part->iov_len;
      ++part;
      --count;
    }
    if (count > 0) {
      part->iov_base = static_cast<char*>(part->iov_base) + left;
      part->iov_len -= left;
    }
  }
  // One fsync per record: a SIGKILL after this point cannot lose the
  // record; one during the write above loses only this record, and the
  // framing makes that torn tail detectable.
  if (::fsync(fd_) != 0) {
    std::fprintf(stderr, "[journal] fsync of %s failed: %s\n", path_.c_str(),
                 std::strerror(errno));
    return false;
  }
  ++appended_;
  return true;
}

bool write_manifest(const std::string& dir, const Manifest& manifest) {
  return util::atomic_write_file(Writer::manifest_path(dir),
                                 manifest.serialize());
}

Manifest read_manifest(const std::string& dir) {
  const std::string path = Writer::manifest_path(dir);
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw std::runtime_error{
        "journal: cannot read manifest " + path +
        " (not a journal directory, or the first run never started?)"};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return Manifest::parse(buffer.str());
  } catch (const std::exception& e) {
    throw std::runtime_error{path + ": " + e.what()};
  }
}

// --- payload codec ---------------------------------------------------------

void put_u8(std::string& out, std::uint8_t value) {
  out.push_back(static_cast<char>(value));
}

// The little-endian bytes are built in a local word and appended in one
// call; compilers lower the shifts to a single store on little-endian hosts.
void put_u32(std::string& out, std::uint32_t value) {
  const char bytes[4] = {
      static_cast<char>(value), static_cast<char>(value >> 8),
      static_cast<char>(value >> 16), static_cast<char>(value >> 24)};
  out.append(bytes, sizeof bytes);
}

void put_u64(std::string& out, std::uint64_t value) {
  const char bytes[8] = {
      static_cast<char>(value),       static_cast<char>(value >> 8),
      static_cast<char>(value >> 16), static_cast<char>(value >> 24),
      static_cast<char>(value >> 32), static_cast<char>(value >> 40),
      static_cast<char>(value >> 48), static_cast<char>(value >> 56)};
  out.append(bytes, sizeof bytes);
}

void put_i64(std::string& out, std::int64_t value) {
  put_u64(out, static_cast<std::uint64_t>(value));
}

void put_double(std::string& out, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof value);
  std::memcpy(&bits, &value, sizeof bits);
  put_u64(out, bits);
}

void put_string(std::string& out, std::string_view value) {
  put_u32(out, static_cast<std::uint32_t>(value.size()));
  out.append(value);
}

void Cursor::need(std::size_t count) const {
  if (offset_ + count > bytes_.size()) {
    throw std::runtime_error{"journal record truncated mid-field"};
  }
}

std::uint8_t Cursor::get_u8() {
  need(1);
  return static_cast<std::uint8_t>(bytes_[offset_++]);
}

std::uint32_t Cursor::get_u32() {
  need(4);
  std::uint32_t value = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    value |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(bytes_[offset_++]))
             << shift;
  }
  return value;
}

std::uint64_t Cursor::get_u64() {
  need(8);
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes_[offset_++]))
             << shift;
  }
  return value;
}

std::int64_t Cursor::get_i64() {
  return static_cast<std::int64_t>(get_u64());
}

double Cursor::get_double() {
  const std::uint64_t bits = get_u64();
  double value = 0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

std::string Cursor::get_string() {
  const std::uint32_t length = get_u32();
  need(length);
  std::string value{bytes_.substr(offset_, length)};
  offset_ += length;
  return value;
}

}  // namespace mahimahi::journal
