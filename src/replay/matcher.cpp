#include "replay/matcher.hpp"

#include "util/strings.hpp"

namespace mahimahi::replay {
namespace {

std::string host_path_key(std::string_view host, std::string_view path) {
  std::string key{host};
  key += '\0';
  key += path;
  return key;
}

}  // namespace

std::size_t common_query_prefix(std::string_view a, std::string_view b) {
  const std::size_t limit = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < limit && a[i] == b[i]) {
    ++i;
  }
  return i;
}

Matcher::Matcher(const record::RecordStore& store) {
  for (const auto& exchange : store.exchanges()) {
    by_host_path_[host_path_key(exchange.host(), exchange.path())].push_back(
        &exchange);
    ++indexed_;
  }
}

const record::RecordedExchange* Matcher::find(const http::Request& request) const {
  const auto [path, query] = util::split_once(request.target, '?');
  const auto it = by_host_path_.find(host_path_key(request.host(), path));
  if (it == by_host_path_.end()) {
    return nullptr;
  }
  const record::RecordedExchange* best = nullptr;
  // Score: exact query beats everything; otherwise longest common query
  // prefix, with method equality as the tie-break. `>` keeps the earliest
  // recorded candidate on full ties (deterministic).
  long best_score = -1;
  for (const auto* candidate : it->second) {
    const std::string candidate_query = candidate->query();
    long score = 0;
    if (candidate_query == query) {
      score = 1'000'000'000L;
    } else {
      score = static_cast<long>(common_query_prefix(candidate_query, query)) * 2;
    }
    if (candidate->request.method == request.method) {
      score += 1;
    }
    if (score > best_score) {
      best_score = score;
      best = candidate;
    }
  }
  return best;
}

std::string Matcher::respond(const http::Request& request) const {
  if (const auto* exchange = find(request)) {
    return http::to_framed_bytes(exchange->response);
  }
  return http::to_framed_bytes(http::make_not_found(request.target));
}

}  // namespace mahimahi::replay
