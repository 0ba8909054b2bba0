#pragma once

#include <filesystem>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/dns.hpp"
#include "record/exchange.hpp"

namespace mahimahi::record {

/// A recorded site: the set of request/response pairs captured in one
/// record session, equivalent to mahimahi's recorded folder (one file per
/// exchange). Provides the origin inventory ReplayShell needs: the
/// distinct (IP, port) pairs seen while recording and the hostname -> IP
/// bindings observed via DNS.
class RecordStore {
 public:
  RecordStore() = default;

  void add(RecordedExchange exchange);

  [[nodiscard]] std::size_t size() const { return exchanges_.size(); }
  [[nodiscard]] bool empty() const { return exchanges_.empty(); }
  [[nodiscard]] const std::vector<RecordedExchange>& exchanges() const {
    return exchanges_;
  }

  /// Distinct origin servers seen while recording — what the paper counts
  /// as "physical servers per website" and what ReplayShell instantiates.
  [[nodiscard]] std::vector<net::Address> distinct_servers() const;

  /// Hostname -> recorded IP bindings (for ReplayShell's DNS).
  [[nodiscard]] std::vector<std::pair<std::string, net::Ipv4>> host_bindings()
      const;

  /// Total recorded response-body bytes (site weight).
  [[nodiscard]] std::uint64_t total_response_bytes() const;

  // --- persistence: a directory with one file per exchange ---
  /// Writes `save_<index>_<hash>` files plus nothing else; the directory
  /// is created if needed and must be empty of previous recordings.
  void save(const std::filesystem::path& directory) const;

  /// Load every `save_*` file in the directory, in index order. Throws
  /// std::runtime_error when the directory is missing, and SerializeError
  /// naming the file for corrupt data: a name that is not
  /// save_<index>_<hash>, an index used twice, content whose fnv1a hash
  /// is not the one in its name, or bytes that do not decode.
  static RecordStore load(const std::filesystem::path& directory);

 private:
  std::vector<RecordedExchange> exchanges_;
};

}  // namespace mahimahi::record
