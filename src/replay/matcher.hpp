#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "http/message.hpp"
#include "record/store.hpp"

namespace mahimahi::replay {

/// The request-matching algorithm of ReplayShell's CGI script.
///
/// Every replayed server runs this against the *entire* recorded corpus
/// (each Apache in the paper can access all recorded content). Matching
/// rules, mirroring mahimahi's replayserver:
///   1. candidates = recorded exchanges with the same host and same path;
///   2. an exact query-string match wins outright;
///   3. otherwise the candidate sharing the longest common query prefix
///      wins (same HTTP method breaks ties);
///   4. no same-host-and-path candidate -> no match (the server answers
///      404, which is what the real CGI does).
class Matcher {
 public:
  explicit Matcher(const record::RecordStore& store);

  /// Best recorded exchange for this request, or nullptr.
  [[nodiscard]] const record::RecordedExchange* find(
      const http::Request& request) const;

  /// find() + the framed wire bytes of the recorded response (or a 404),
  /// serialized straight from the store — the origin servers' handler.
  [[nodiscard]] std::string respond(const http::Request& request) const;

  [[nodiscard]] std::size_t indexed_exchanges() const { return indexed_; }

 private:
  // host + '\0' + path -> candidate exchanges, in recorded order.
  std::unordered_map<std::string, std::vector<const record::RecordedExchange*>>
      by_host_path_;
  std::size_t indexed_{0};
};

/// Length of the common prefix of two query strings (exposed for tests).
std::size_t common_query_prefix(std::string_view a, std::string_view b);

}  // namespace mahimahi::replay
