#include "record/store.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "record/serialize.hpp"
#include "util/atomic_file.hpp"
#include "util/random.hpp"
#include "util/strings.hpp"

namespace mahimahi::record {

std::string RecordedExchange::path() const {
  return std::string{util::split_once(request.target, '?').first};
}

std::string RecordedExchange::query() const {
  return std::string{util::split_once(request.target, '?').second};
}

void RecordStore::add(RecordedExchange exchange) {
  exchanges_.push_back(std::move(exchange));
}

std::vector<net::Address> RecordStore::distinct_servers() const {
  std::set<net::Address> servers;
  for (const auto& exchange : exchanges_) {
    servers.insert(exchange.server_address);
  }
  return {servers.begin(), servers.end()};
}

std::vector<std::pair<std::string, net::Ipv4>> RecordStore::host_bindings()
    const {
  std::map<std::string, net::Ipv4> bindings;
  for (const auto& exchange : exchanges_) {
    const std::string host = exchange.host();
    if (!host.empty()) {
      bindings.emplace(host, exchange.server_address.ip);
    }
  }
  return {bindings.begin(), bindings.end()};
}

std::uint64_t RecordStore::total_response_bytes() const {
  std::uint64_t total = 0;
  for (const auto& exchange : exchanges_) {
    total += exchange.response.body.size();
  }
  return total;
}

void RecordStore::save(const std::filesystem::path& directory) const {
  std::filesystem::create_directories(directory);
  std::size_t index = 0;
  for (const auto& exchange : exchanges_) {
    const std::string encoded = encode_exchange(exchange);
    std::ostringstream name;
    name << "save_" << index++ << '_' << util::to_hex(util::fnv1a(encoded));
    // Atomic per file: an interrupted save never leaves a torn exchange
    // for a later load() to trip over.
    if (!util::atomic_write_file((directory / name.str()).string(),
                                 encoded)) {
      throw std::runtime_error{"cannot write record file in " +
                               directory.string()};
    }
  }
}

RecordStore RecordStore::load(const std::filesystem::path& directory) {
  if (!std::filesystem::is_directory(directory)) {
    throw std::runtime_error{"recorded folder does not exist: " +
                             directory.string()};
  }
  // Deterministic order: sort by the numeric index embedded in the name.
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(directory)) {
    if (entry.is_regular_file() &&
        util::starts_with(entry.path().filename().string(), "save_")) {
      files.push_back(entry.path());
    }
  }
  const auto index_of = [](const std::filesystem::path& p) {
    const std::string name = p.filename().string();  // keep alive for views
    const auto fields = util::split(name, '_');
    std::uint64_t index = 0;
    if (fields.size() >= 2) {
      (void)util::parse_u64(fields[1], index);
    }
    return index;
  };
  std::sort(files.begin(), files.end(),
            [&](const std::filesystem::path& a, const std::filesystem::path& b) {
              return index_of(a) < index_of(b);
            });
  RecordStore store;
  for (const auto& file : files) {
    std::ifstream in{file, std::ios::binary};
    std::ostringstream contents;
    contents << in.rdbuf();
    store.add(decode_exchange(contents.str()));
  }
  return store;
}

}  // namespace mahimahi::record
