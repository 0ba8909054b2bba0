#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mahimahi::journal {

/// Crash-safe run journal: an append-only log of length-and-checksum
/// framed records plus a manifest that pins what the records mean.
///
/// Layout of a journal directory:
///   MANIFEST     — line-keyval provenance (atomic temp+rename+fsync):
///                  schema, experiment identity, matrix/spec/toolchain
///                  hashes. Resume refuses a journal whose manifest does
///                  not match the run being resumed.
///   journal.bin  — the record log. Each record is fsync'd as it is
///                  appended, so a SIGKILL loses at most the record being
///                  written — and that torn tail is detected (short frame
///                  or checksum mismatch) and discarded on reopen.
///   events.csv   — runner-level observability (mahimahi-obs-trace-v1):
///                  one row per task telling whether it was journaled,
///                  replayed, cancelled, retried or watchdog-killed.
///                  Written by the experiment runner, readable with
///                  `mm_trace dump`.
///
/// Record framing (little-endian):
///   u32 magic 'MMJ1' | u32 payload_len | u32 crc32(payload) | payload
///
/// The journal layer is payload-agnostic — the experiment layer encodes
/// task results (see experiment/checkpoint.hpp); fleet cells journal
/// their per-session outcomes inside those payloads.

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the frame checksum.
[[nodiscard]] std::uint32_t crc32(std::string_view bytes);

/// Identity of the binary for manifest fingerprinting: compiler version
/// plus ABI-relevant constants. Two builds that could deserialize each
/// other's records share a fingerprint; a journal written by a different
/// toolchain is refused on resume.
[[nodiscard]] std::string toolchain_fingerprint();

/// The journal's provenance, as ordered key/value lines. Values must be
/// single-line; keys are unique.
class Manifest {
 public:
  void set(const std::string& key, const std::string& value);
  [[nodiscard]] std::string get(const std::string& key) const;  // "" absent

  /// First key (in this manifest's insertion order) whose value differs
  /// from `other`'s, or "" when every key matches both ways. The caller
  /// turns a mismatch into an actionable error naming the field.
  [[nodiscard]] std::string first_mismatch(const Manifest& other) const;

  [[nodiscard]] std::string serialize() const;
  static Manifest parse(std::string_view text);

  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Result of scanning a journal file.
struct ReadResult {
  std::vector<std::string> records;  // valid payloads, append order
  std::uint64_t valid_bytes{0};      // file offset after the last good frame
  bool torn_tail{false};             // trailing bytes discarded
};

/// Scan `path` front to back, validating each frame's magic, length and
/// CRC. Stops at the first invalid or incomplete frame: everything before
/// it is returned, everything from it on is the torn tail a crash left
/// behind. A missing file reads as an empty journal.
[[nodiscard]] ReadResult read_journal_file(const std::string& path);

/// Append-side of the journal. Thread-safe: the experiment runner's pool
/// workers append completed tasks concurrently. One process per journal
/// directory — appends from two processes would interleave frames.
class Writer {
 public:
  /// Open `dir`/journal.bin for appending. `truncate_to` is the valid
  /// prefix length from read_journal_file — any torn tail beyond it is
  /// cut off before the first new append, so the file never contains a
  /// mid-stream hole. Throws std::runtime_error on I/O failure.
  Writer(const std::string& dir, std::uint64_t truncate_to);
  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Frame, append and fsync one record. Returns false (after a warning
  /// on stderr) on I/O failure — the run continues; it just loses crash
  /// durability for this record.
  bool append(std::string_view payload);

  [[nodiscard]] std::size_t records_appended() const { return appended_; }

  static std::string journal_path(const std::string& dir);
  static std::string manifest_path(const std::string& dir);

 private:
  std::mutex mutex_;
  int fd_{-1};
  std::string path_;
  std::size_t appended_{0};
};

/// Write `manifest` atomically (temp + fsync + rename) to dir/MANIFEST.
/// Returns false after warning on failure.
bool write_manifest(const std::string& dir, const Manifest& manifest);

/// Read dir/MANIFEST; throws std::runtime_error when missing/unreadable
/// (a journal without a manifest cannot be trusted for resume).
[[nodiscard]] Manifest read_manifest(const std::string& dir);

// --- payload codec helpers -------------------------------------------------
// Little-endian, length-prefixed primitives shared by record encoders
// (experiment/checkpoint uses these). Doubles round-trip bit-exactly via
// their IEEE-754 bit pattern — the byte-identity contract depends on it.

void put_u8(std::string& out, std::uint8_t value);
void put_u32(std::string& out, std::uint32_t value);
void put_u64(std::string& out, std::uint64_t value);
void put_i64(std::string& out, std::int64_t value);
void put_double(std::string& out, double value);
void put_string(std::string& out, std::string_view value);

/// Cursor over an encoded payload. get_* throw std::runtime_error on
/// underrun — a decode failure means the record is corrupt, and the
/// caller treats it like a torn record.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_{bytes} {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64();
  double get_double();
  std::string get_string();

  [[nodiscard]] bool exhausted() const { return offset_ == bytes_.size(); }

 private:
  void need(std::size_t count) const;

  std::string_view bytes_;
  std::size_t offset_{0};
};

}  // namespace mahimahi::journal
