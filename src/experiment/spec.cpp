#include "experiment/spec.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "cc/registry.hpp"
#include "experiment/matrix.hpp"
#include "util/strings.hpp"

namespace mahimahi::experiment {
namespace {

[[noreturn]] void fail(int line_number, const std::string& message) {
  throw std::invalid_argument{"spec line " + std::to_string(line_number) +
                              ": " + message};
}

/// "30ms" / "30" -> 30 ms; "2s" -> 2000 ms; "1500us" -> 1.5 ms; never
/// negative.
Microseconds parse_duration_ms(std::string_view text, int line_number) {
  std::string_view digits = text;
  Microseconds unit = 1'000;  // default: milliseconds
  if (util::ends_with(text, "us")) {
    digits = text.substr(0, text.size() - 2);
    unit = 1;
  } else if (util::ends_with(text, "ms")) {
    digits = text.substr(0, text.size() - 2);
  } else if (util::ends_with(text, "s")) {
    digits = text.substr(0, text.size() - 1);
    unit = 1'000'000;
  }
  std::uint64_t value = 0;
  if (!util::parse_u64(digits, value)) {
    fail(line_number, "expected a duration like '30ms', '2s' or '1500us', "
                      "got '" + std::string{text} + "'");
  }
  return static_cast<Microseconds>(value) * unit;
}

double parse_double(std::string_view text, int line_number) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(std::string{text}, &consumed);
    if (consumed != text.size()) {
      throw std::invalid_argument{"trailing junk"};
    }
    return value;
  } catch (const std::exception&) {
    fail(line_number,
         "expected a number, got '" + std::string{text} + "'");
  }
}

std::uint64_t parse_u64_or_fail(std::string_view text, int line_number) {
  std::uint64_t value = 0;
  if (!util::parse_u64(text, value)) {
    fail(line_number,
         "expected a non-negative integer, got '" + std::string{text} + "'");
  }
  return value;
}

/// "12x1.5" -> {12, 1.5}; "8" -> {8, 8} (symmetric).
std::pair<double, double> parse_rate_pair(std::string_view text,
                                          int line_number) {
  const auto [first, second] = util::split_once(text, 'x');
  const double up = parse_double(first, line_number);
  const double down = second.empty() ? up : parse_double(second, line_number);
  return {up, down};
}

ShellAxis parse_shell_line(const std::vector<std::string_view>& tokens,
                           int line_number) {
  if (tokens.size() < 2) {
    fail(line_number, "shell needs a label, e.g. 'shell replay' (the bare "
                      "ReplayShell) or 'shell lte delay=30ms link=lte'");
  }
  ShellAxis axis;
  axis.label = std::string{tokens[1]};
  // Canonical stack order regardless of token order: delay outermost,
  // then link, then loss — matching the bench networks' nesting.
  std::optional<ShellLayerSpec> delay;
  std::optional<ShellLayerSpec> link;
  std::optional<ShellLayerSpec> loss;
  std::set<std::string_view> seen;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const auto [key, value] = util::split_once(tokens[i], '=');
    if (!seen.insert(key).second) {
      fail(line_number, "duplicate " + std::string{key} + "= token");
    }
    if (key == "delay") {
      ShellLayerSpec layer;
      layer.kind = ShellLayerSpec::Kind::kDelay;
      layer.live_delay = value == "live";
      if (!layer.live_delay) {
        layer.delay_one_way = parse_duration_ms(value, line_number);
      }
      delay = layer;
    } else if (key == "link") {
      ShellLayerSpec layer;
      layer.kind = ShellLayerSpec::Kind::kLink;
      if (value == "lte") {
        layer.trace_name = "lte";
      } else {
        const auto [up, down] = parse_rate_pair(value, line_number);
        if (up <= 0 || down <= 0) {
          fail(line_number, "link rates must be positive Mbit/s");
        }
        layer.up_mbps = up;
        layer.down_mbps = down;
      }
      link = layer;
    } else if (key == "loss") {
      ShellLayerSpec layer;
      layer.kind = ShellLayerSpec::Kind::kLoss;
      const auto [up, down] = parse_rate_pair(value, line_number);
      layer.uplink_loss = up;
      layer.downlink_loss = down;
      loss = layer;
    } else if (key == "origins") {
      if (value == "multi") {
        axis.origins = Origins::kMulti;
      } else if (value == "single") {
        axis.origins = Origins::kSingle;
      } else if (value == "live") {
        axis.origins = Origins::kLive;
      } else {
        fail(line_number, "unknown origins '" + std::string{value} +
                              "' (known: multi, single, live)");
      }
    } else if (key == "host") {
      if (value != "machine1" && value != "machine2") {
        fail(line_number, "unknown host '" + std::string{value} +
                              "' (known: machine1, machine2)");
      }
      axis.host = std::string{value};
    } else if (key == "pool") {
      // INITIALxSPAWN: initial prefork workers x spawn interval.
      const auto [initial, spawn] = util::split_once(value, 'x');
      if (spawn.empty()) {
        fail(line_number, "pool expects INITIALxSPAWN, e.g. 'pool=3x27ms', "
                          "got '" + std::string{value} + "'");
      }
      axis.pool_initial =
          static_cast<int>(parse_u64_or_fail(initial, line_number));
      axis.pool_spawn = parse_duration_ms(spawn, line_number);
      if (axis.pool_initial < 1 || axis.pool_initial > 256) {
        fail(line_number, "pool workers must be in [1, 256]");
      }
    } else if (key == "think") {
      axis.think = parse_duration_ms(value, line_number);
    } else if (key == "requests" || key == "conns") {
      const std::uint64_t count = parse_u64_or_fail(value, line_number);
      if (count < 1 || count > 4096) {
        fail(line_number, std::string{key} + " must be in [1, 4096]");
      }
      if (key == "requests") {
        axis.requests = static_cast<std::size_t>(count);
      } else {
        axis.conns = static_cast<int>(count);
      }
    } else {
      fail(line_number,
           "unknown shell token '" + std::string{tokens[i]} +
               "' (expected delay=, link=, loss=, origins=, host=, pool=, "
               "think=, requests= or conns=)");
    }
  }
  if (delay.has_value()) {
    axis.layers.push_back(*delay);
  }
  if (link.has_value()) {
    axis.layers.push_back(*link);
  }
  if (loss.has_value()) {
    axis.layers.push_back(*loss);
  }
  return axis;
}

QueueAxis parse_queue_line(const std::vector<std::string_view>& tokens,
                           int line_number) {
  if (tokens.size() < 3) {
    fail(line_number, "queue needs a label and a discipline, e.g. "
                      "'queue dt droptail packets=100'");
  }
  QueueAxis axis;
  axis.label = std::string{tokens[1]};
  axis.queue.discipline = std::string{tokens[2]};
  // Each discipline accepts only its own parameters — 'interval=' on a
  // pie queue (or any knob on infinite) would otherwise be stored into an
  // ignored QueueSpec field and silently measure the wrong queue.
  const auto accepts = [&](std::string_view key) {
    const std::string& d = axis.queue.discipline;
    if (key == "packets") {
      return d == "droptail" || d == "drophead" || d == "codel" || d == "pie";
    }
    if (key == "bytes") {
      return d == "droptail" || d == "drophead";
    }
    if (key == "target") {
      return d == "codel" || d == "pie";
    }
    if (key == "interval") {
      return d == "codel";
    }
    if (key == "tupdate") {
      return d == "pie";
    }
    return false;
  };
  for (std::size_t i = 3; i < tokens.size(); ++i) {
    const auto [key, value] = util::split_once(tokens[i], '=');
    if (!accepts(key)) {
      fail(line_number, "queue discipline '" + axis.queue.discipline +
                            "' does not take '" + std::string{tokens[i]} +
                            "' (droptail/drophead: packets=, bytes=; codel: "
                            "target=, interval=, packets=; pie: target=, "
                            "tupdate=, packets=; infinite: none)");
    }
    if (key == "packets") {
      axis.queue.max_packets =
          static_cast<std::size_t>(parse_u64_or_fail(value, line_number));
    } else if (key == "bytes") {
      axis.queue.max_bytes =
          static_cast<std::size_t>(parse_u64_or_fail(value, line_number));
    } else if (key == "target") {
      const Microseconds t = parse_duration_ms(value, line_number);
      axis.queue.codel_target = t;
      axis.queue.pie_target = t;
    } else if (key == "interval") {
      axis.queue.codel_interval = parse_duration_ms(value, line_number);
    } else if (key == "tupdate") {
      axis.queue.pie_tupdate = parse_duration_ms(value, line_number);
    }
  }
  return axis;
}

/// "1xbbr+5xcubic" or "cubic" -> expanded fleet.
std::vector<std::string> parse_fleet(std::string_view text, int line_number) {
  constexpr std::uint64_t kMaxFlows = 64;
  std::vector<std::string> fleet;
  for (const auto part : util::split(text, '+')) {
    const auto [count_text, controller] = util::split_once(part, 'x');
    if (controller.empty()) {
      fleet.emplace_back(part);  // plain controller name, one flow
      continue;
    }
    const std::uint64_t count = parse_u64_or_fail(count_text, line_number);
    if (count == 0 || count > kMaxFlows) {
      fail(line_number, "fleet count must be in [1, 64], got '" +
                            std::string{count_text} + "'");
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      fleet.emplace_back(controller);
    }
  }
  if (fleet.empty() || fleet.size() > kMaxFlows) {
    fail(line_number, "fleet must expand to between 1 and 64 flows");
  }
  return fleet;
}

/// "fleet <label> sessions=N [stagger=Xms]" or the shorthand "fleet N"
/// (label "N", N sessions, default stagger).
FleetAxis parse_fleet_line(const std::vector<std::string_view>& tokens,
                           int line_number) {
  if (tokens.size() < 2) {
    fail(line_number, "fleet needs a label and a size, e.g. "
                      "'fleet crowd sessions=8 stagger=50ms' or 'fleet 8'");
  }
  FleetAxis axis;
  axis.label = std::string{tokens[1]};
  std::uint64_t shorthand = 0;
  if (tokens.size() == 2 && util::parse_u64(tokens[1], shorthand)) {
    axis.sessions = static_cast<int>(shorthand);
    return axis;
  }
  bool saw_sessions = false;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const auto [key, value] = util::split_once(tokens[i], '=');
    if (key == "sessions") {
      if (saw_sessions) {
        fail(line_number, "duplicate sessions= token");
      }
      saw_sessions = true;
      axis.sessions =
          static_cast<int>(parse_u64_or_fail(value, line_number));
    } else if (key == "stagger") {
      axis.stagger = parse_duration_ms(value, line_number);
    } else {
      fail(line_number, "unknown fleet token '" + std::string{tokens[i]} +
                            "' (expected sessions= or stagger=)");
    }
  }
  if (!saw_sessions) {
    fail(line_number, "fleet '" + axis.label + "' needs sessions=N");
  }
  return axis;
}

constexpr std::string_view kCorpusPrefix = "alexa:";
constexpr std::uint64_t kMinCorpus = 10;
constexpr std::uint64_t kMaxCorpus = 10'000;

constexpr std::pair<std::string_view, Claim::Stat> kStats[] = {
    {"median", Claim::Stat::kMedian},
    {"mean", Claim::Stat::kMean},
    {"p95", Claim::Stat::kP95},
    {"cv", Claim::Stat::kCv},
    {"paired-p50", Claim::Stat::kPairedP50},
    {"paired-p95", Claim::Stat::kPairedP95},
    {"queue-p95", Claim::Stat::kQueueP95},
    {"throughput", Claim::Stat::kThroughput},
    {"objects-failed", Claim::Stat::kObjectsFailed},
    {"failed-loads", Claim::Stat::kFailedLoads},
    {"retries", Claim::Stat::kRetries},
};
constexpr std::pair<std::string_view, Claim::Bound> kBounds[] = {
    {"<=", Claim::Bound::kAtMost},
    {">=", Claim::Bound::kAtLeast},
    {"<", Claim::Bound::kBelow},
    {">", Claim::Bound::kAbove},
    {"within", Claim::Bound::kWithin},
};

/// claim <name> <stat> <cell> [vs <cell>] [<= | >= | < | > | within <bound>]
Claim parse_claim_line(const std::vector<std::string_view>& tokens,
                       int line_number) {
  const auto usage = [&] {
    fail(line_number, "claim expects '<name> <stat> <cell> [vs <cell>] "
                      "[<= | >= | < | > | within <bound>]', e.g. 'claim "
                      "overhead median delay0 vs replay <= 0.5'");
  };
  if (tokens.size() < 4) {
    usage();
  }
  Claim claim;
  claim.name = std::string{tokens[1]};
  const auto stat =
      std::find_if(std::begin(kStats), std::end(kStats),
                   [&](const auto& s) { return s.first == tokens[2]; });
  if (stat == std::end(kStats)) {
    std::string known;
    for (const auto& [word, unused] : kStats) {
      known += (known.empty() ? "" : ", ") + std::string{word};
    }
    fail(line_number, "unknown claim statistic '" + std::string{tokens[2]} +
                          "' (known: " + known + ")");
  }
  claim.stat = stat->second;
  claim.cell = std::string{tokens[3]};
  std::size_t next = 4;
  if (next < tokens.size() && tokens[next] == "vs") {
    if (next + 1 >= tokens.size()) {
      usage();
    }
    claim.vs = std::string{tokens[next + 1]};
    next += 2;
  }
  if (next < tokens.size()) {
    const auto bound =
        std::find_if(std::begin(kBounds), std::end(kBounds),
                     [&](const auto& b) { return b.first == tokens[next]; });
    if (bound == std::end(kBounds) || next + 2 != tokens.size()) {
      usage();
    }
    claim.bound = bound->second;
    claim.limit = parse_double(tokens[next + 1], line_number);
  }
  if (claim.paired() && claim.vs.empty()) {
    fail(line_number, "claim '" + claim.name + "': " +
                          std::string{stat->first} +
                          " compares two cells and needs 'vs <cell>'");
  }
  if (claim.bound == Claim::Bound::kWithin && claim.limit < 0) {
    fail(line_number, "claim '" + claim.name + "': 'within' needs a "
                      "non-negative bound");
  }
  return claim;
}

}  // namespace

std::string Claim::text() const {
  std::string out;
  for (const auto& [word, value] : kStats) {
    if (value == stat) {
      out = std::string{word};
    }
  }
  out += " " + cell;
  if (!vs.empty()) {
    out += " vs " + vs;
  }
  for (const auto& [word, value] : kBounds) {
    if (value == bound) {
      char limit_text[32];
      std::snprintf(limit_text, sizeof limit_text, "%g", limit);
      out += " " + std::string{word} + " " + limit_text;
    }
  }
  return out;
}

std::vector<std::string> known_site_labels() {
  return {"cnbc", "nytimes", "wikihow"};
}

corpus::SiteSpec site_spec_for_label(const std::string& label) {
  if (label == "cnbc") {
    return corpus::cnbc_like_spec();
  }
  if (label == "nytimes") {
    return corpus::nytimes_like_spec();
  }
  if (label == "wikihow") {
    return corpus::wikihow_like_spec();
  }
  std::string known;
  for (const std::string& name : known_site_labels()) {
    known += known.empty() ? name : ", " + name;
  }
  throw std::invalid_argument{"unknown site '" + label + "' (known: " +
                              known + ", or a corpus alexa:N)"};
}

ExperimentSpec parse_spec(std::string_view text) {
  ExperimentSpec spec;
  spec.loads_per_cell = 3;
  int line_number = 0;
  // First-seen line of each scalar key: scalar keys may appear at most
  // once per spec. (Axis keys repeat — each occurrence is one more axis
  // entry — but a repeated scalar used to silently keep the last value,
  // so a spec redefining `seed` halfway down measured something other
  // than what its header said.)
  std::map<std::string, int> scalar_lines;
  std::vector<int> claim_lines;  // parallel to spec.claims
  const auto claim_scalar = [&](std::string_view key, int at_line) {
    const auto [it, inserted] =
        scalar_lines.emplace(std::string{key}, at_line);
    if (!inserted) {
      fail(at_line, "duplicate '" + std::string{key} + "' (first set on line " +
                        std::to_string(it->second) +
                        "); scalar keys may appear only once");
    }
  };
  for (const auto raw_line : util::split(text, '\n')) {
    ++line_number;
    // Strip comments and surrounding whitespace.
    const auto [content, comment] = util::split_once(raw_line, '#');
    (void)comment;
    const std::string_view line = util::trim(content);
    if (line.empty()) {
      continue;
    }
    std::vector<std::string_view> tokens;
    std::size_t pos = 0;
    while (pos < line.size()) {
      while (pos < line.size() &&
             std::isspace(static_cast<unsigned char>(line[pos])) != 0) {
        ++pos;
      }
      std::size_t end = pos;
      while (end < line.size() &&
             std::isspace(static_cast<unsigned char>(line[end])) == 0) {
        ++end;
      }
      if (end > pos) {
        tokens.push_back(line.substr(pos, end - pos));
      }
      pos = end;
    }
    if (tokens.empty()) {
      continue;
    }
    const std::string_view key = tokens[0];
    if (key == "name") {
      if (tokens.size() != 2) {
        fail(line_number, "name takes exactly one value");
      }
      claim_scalar(key, line_number);
      spec.name = std::string{tokens[1]};
    } else if (key == "seed") {
      if (tokens.size() != 2) {
        fail(line_number, "seed takes exactly one value");
      }
      claim_scalar(key, line_number);
      spec.seed = parse_u64_or_fail(tokens[1], line_number);
    } else if (key == "loads") {
      if (tokens.size() != 2) {
        fail(line_number, "loads takes exactly one value");
      }
      claim_scalar(key, line_number);
      spec.loads_per_cell =
          static_cast<int>(parse_u64_or_fail(tokens[1], line_number));
    } else if (key == "probe-seconds") {
      if (tokens.size() != 2) {
        fail(line_number, "probe-seconds takes exactly one value");
      }
      claim_scalar(key, line_number);
      spec.probe_duration = static_cast<Microseconds>(
          parse_u64_or_fail(tokens[1], line_number) * 1'000'000);
    } else if (key == "deadline") {
      if (tokens.size() != 2) {
        fail(line_number, "deadline takes exactly one duration, e.g. "
                          "'deadline 120s'");
      }
      claim_scalar(key, line_number);
      spec.cell_deadline = parse_duration_ms(tokens[1], line_number);
      if (spec.cell_deadline <= 0) {
        fail(line_number, "deadline must be positive (omit it to disable "
                          "the watchdog)");
      }
    } else if (key == "task-retries") {
      if (tokens.size() != 2) {
        fail(line_number, "task-retries takes exactly one value");
      }
      claim_scalar(key, line_number);
      spec.task_retries =
          static_cast<int>(parse_u64_or_fail(tokens[1], line_number));
    } else if (key == "site") {
      if (tokens.size() != 2) {
        fail(line_number, "site takes exactly one label");
      }
      SiteAxis axis;
      axis.label = std::string{tokens[1]};
      if (util::starts_with(axis.label, kCorpusPrefix)) {
        std::uint64_t size = 0;
        if (!util::parse_u64(tokens[1].substr(kCorpusPrefix.size()), size) ||
            size < kMinCorpus || size > kMaxCorpus) {
          fail(line_number, "corpus '" + axis.label +
                                "' needs alexa:N with N in [10, 10000] (the "
                                "Alexa calibration needs at least 10 sites)");
        }
        axis.corpus_size = static_cast<int>(size);
      } else {
        try {
          axis.site = site_spec_for_label(axis.label);
        } catch (const std::invalid_argument& e) {
          fail(line_number, e.what());
        }
      }
      spec.sites.push_back(std::move(axis));
    } else if (key == "protocol") {
      if (tokens.size() != 2) {
        fail(line_number, "protocol takes exactly one value");
      }
      if (tokens[1] == "http11") {
        spec.protocols.push_back(web::AppProtocol::kHttp11);
      } else if (tokens[1] == "mux") {
        spec.protocols.push_back(web::AppProtocol::kMultiplexed);
      } else {
        fail(line_number, "unknown protocol '" + std::string{tokens[1]} +
                              "' (known: http11, mux)");
      }
    } else if (key == "shell") {
      spec.shells.push_back(parse_shell_line(tokens, line_number));
    } else if (key == "queue") {
      spec.queues.push_back(parse_queue_line(tokens, line_number));
    } else if (key == "cc") {
      if (tokens.size() != 2 && tokens.size() != 3) {
        fail(line_number,
             "cc takes '<fleet>' or '<label> <fleet>', e.g. 'cc cubic' or "
             "'cc mixed 1xbbr+5xcubic'");
      }
      CcAxis axis;
      axis.label = std::string{tokens[1]};
      axis.fleet =
          parse_fleet(tokens.size() == 3 ? tokens[2] : tokens[1], line_number);
      spec.ccs.push_back(std::move(axis));
    } else if (key == "fleet") {
      spec.fleets.push_back(parse_fleet_line(tokens, line_number));
    } else if (key == "fault") {
      if (tokens.size() < 2) {
        fail(line_number,
             "fault needs a label, e.g. 'fault none' or "
             "'fault chaos crash:p=0.05 retry:deadline=4s,max=2,base=250ms,cap=4s'");
      }
      FaultAxis axis;
      axis.label = std::string{tokens[1]};
      if (axis.label == "none") {
        if (tokens.size() != 2) {
          fail(line_number,
               "'fault none' is the healthy control and takes no injectors");
        }
      } else {
        if (tokens.size() < 3) {
          fail(line_number, "fault '" + axis.label +
                                "' needs at least one injector token");
        }
        std::string injectors;
        for (std::size_t i = 2; i < tokens.size(); ++i) {
          if (!injectors.empty()) {
            injectors += ' ';
          }
          injectors += std::string{tokens[i]};
        }
        try {
          axis.fault = fault::parse_fault_spec(injectors);
        } catch (const std::invalid_argument& e) {
          fail(line_number, e.what());
        }
      }
      spec.faults.push_back(std::move(axis));
    } else if (key == "claim") {
      spec.claims.push_back(parse_claim_line(tokens, line_number));
      claim_lines.push_back(line_number);
    } else {
      fail(line_number,
           "unknown key '" + std::string{key} +
               "' (known: name, seed, loads, probe-seconds, deadline, "
               "task-retries, site, protocol, shell, queue, cc, fleet, "
               "fault, claim)");
    }
  }
  validate_spec(spec);
  if (!spec.claims.empty()) {
    const std::vector<Cell> cells = expand_matrix(spec);
    for (std::size_t i = 0; i < spec.claims.size(); ++i) {
      try {
        check_claim(spec.claims[i], cells);
      } catch (const std::invalid_argument& e) {
        fail(claim_lines[i], e.what());
      }
    }
  }
  return spec;
}

ExperimentSpec load_spec_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw std::invalid_argument{"cannot open spec file: " + path};
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  try {
    return parse_spec(contents.str());
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument{path + ": " + e.what()};
  }
}

void validate_spec(const ExperimentSpec& spec) {
  const auto require = [](bool ok, const std::string& message) {
    if (!ok) {
      throw std::invalid_argument{"invalid experiment spec: " + message};
    }
  };
  require(!spec.name.empty(), "name must not be empty");
  require(spec.loads_per_cell >= 1, "loads must be >= 1");
  require(spec.cell_deadline >= 0, "deadline must not be negative");
  require(spec.task_retries >= 0 && spec.task_retries <= 16,
          "task-retries must be in [0, 16]");
  require(spec.probe_duration > 0, "probe duration must be positive");

  const auto check_unique = [&require](const std::vector<std::string>& labels,
                                       const char* axis) {
    std::set<std::string> seen;
    for (const std::string& label : labels) {
      require(!label.empty(), std::string{axis} + " label must not be empty");
      require(seen.insert(label).second,
              std::string{axis} + " label '" + label +
                  "' appears twice (cells must be uniquely addressable)");
    }
  };
  std::vector<std::string> labels;
  for (const auto& site : spec.sites) {
    labels.push_back(site.label);
  }
  check_unique(labels, "site");
  labels.clear();
  for (const auto& shell : spec.shells) {
    labels.push_back(shell.label);
  }
  check_unique(labels, "shell");
  labels.clear();
  for (const auto& queue : spec.queues) {
    labels.push_back(queue.label);
  }
  check_unique(labels, "queue");
  labels.clear();
  for (const auto& cc : spec.ccs) {
    labels.push_back(cc.label);
  }
  check_unique(labels, "cc");
  labels.clear();
  for (const auto& fleet : spec.fleets) {
    labels.push_back(fleet.label);
  }
  check_unique(labels, "fleet");
  labels.clear();
  for (const auto& f : spec.faults) {
    labels.push_back(f.label);
  }
  check_unique(labels, "fault");

  for (const auto& f : spec.faults) {
    // "none" must stay a true control cell; any other label must actually
    // inject or defend something, or the axis is mislabeled.
    if (f.label == "none") {
      require(!f.fault.any(),
              "fault 'none' must carry no injectors (it is the control)");
    } else {
      require(f.fault.any(), "fault '" + f.label +
                                 "' parses to an empty plan; label it 'none' "
                                 "or add an injector");
    }
  }

  for (const auto& fleet : spec.fleets) {
    require(fleet.sessions >= 1 && fleet.sessions <= 256,
            "fleet '" + fleet.label + "': sessions must be in [1, 256]");
    require(fleet.stagger >= 0,
            "fleet '" + fleet.label + "': stagger must be >= 0");
  }

  for (const auto& shell : spec.shells) {
    if (shell.origins == Origins::kLive) {
      // The live web is a plain HTTP/1.1 Internet: no replay server farm
      // to tune, one user, no injectors, and its weather depends only on
      // (seed, site, load) — never on a host profile.
      const std::string live = "shell '" + shell.label + "' (origins=live): ";
      require(shell.host.empty() && shell.pool_initial == 0 &&
                  !shell.think.has_value(),
              live + "host=, pool= and think= apply to replay stacks only");
      require(std::find(spec.protocols.begin(), spec.protocols.end(),
                        web::AppProtocol::kMultiplexed) ==
                  spec.protocols.end(),
              live + "the live web speaks HTTP/1.1 only (drop protocol mux)");
      for (const auto& fleet : spec.fleets) {
        require(fleet.sessions == 1,
                live + "fleet '" + fleet.label + "' needs one session");
      }
      for (const auto& f : spec.faults) {
        require(f.label == "none", live + "fault '" + f.label +
                                       "' cannot be injected into the "
                                       "live web");
      }
      for (const auto& cc : spec.ccs) {
        require(cc.fleet.size() == 1, live + "cc '" + cc.label +
                                          "' is a controller fleet; the "
                                          "live web runs one controller");
      }
    }
    for (const auto& layer : shell.layers) {
      switch (layer.kind) {
        case ShellLayerSpec::Kind::kDelay:
          require(layer.delay_one_way >= 0,
                  "shell '" + shell.label + "': delay must be >= 0");
          break;
        case ShellLayerSpec::Kind::kLink:
          require(layer.trace_name == "lte" ||
                      (layer.trace_name.empty() && layer.up_mbps > 0 &&
                       layer.down_mbps > 0),
                  "shell '" + shell.label +
                      "': link needs positive rates or the 'lte' trace");
          break;
        case ShellLayerSpec::Kind::kLoss:
          require(layer.uplink_loss >= 0 && layer.uplink_loss < 1 &&
                      layer.downlink_loss >= 0 && layer.downlink_loss < 1,
                  "shell '" + shell.label + "': loss rates must be in [0, 1)");
          break;
      }
    }
  }
  for (const auto& queue : spec.queues) {
    try {
      (void)net::make_queue(queue.queue);  // dry-run the validating factory
    } catch (const std::invalid_argument& e) {
      require(false, "queue '" + queue.label + "': " + e.what());
    }
  }
  for (const auto& cc : spec.ccs) {
    require(!cc.fleet.empty(), "cc '" + cc.label + "' has an empty fleet");
    for (const std::string& controller : cc.fleet) {
      require(cc::is_registered(controller),
              "cc '" + cc.label + "': '" + controller +
                  "' is not a registered congestion controller");
    }
  }
  for (const auto& site : spec.sites) {
    if (site.corpus_size == 0) {
      require(site.site.object_count > 0 && site.site.server_count > 0,
              "site '" + site.label + "' has an empty site spec");
      continue;
    }
    require(site.corpus_size >= static_cast<int>(kMinCorpus) &&
                site.corpus_size <= static_cast<int>(kMaxCorpus),
            "corpus '" + site.label + "' must have between 10 and 10000 "
            "sites");
    require(spec.loads_per_cell <= site.corpus_size,
            "loads (" + std::to_string(spec.loads_per_cell) +
                ") exceed corpus '" + site.label + "' (" +
                std::to_string(site.corpus_size) +
                " sites; load k replays site k)");
  }
}

}  // namespace mahimahi::experiment
