#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/site_generator.hpp"
#include "fault/fault.hpp"
#include "net/queue.hpp"
#include "util/time.hpp"
#include "web/browser.hpp"

namespace mahimahi::experiment {

/// One layer of a declarative shell stack. Declarative (no live trace
/// pointers) so a spec can round-trip through text and two expansions of
/// the same spec are guaranteed to materialize identical shells.
struct ShellLayerSpec {
  enum class Kind { kDelay, kLink, kLoss };
  Kind kind{Kind::kDelay};
  // kDelay: a fixed one-way delay, or (`delay=live`) the primary-origin
  // one-way delay the same (site, load) sees on the live web.
  Microseconds delay_one_way{0};
  bool live_delay{false};
  // kLink: either a named built-in trace ("lte") or constant rates.
  std::string trace_name;
  double up_mbps{0};
  double down_mbps{0};
  // kLoss: i.i.d. per-direction rates.
  double uplink_loss{0};
  double downlink_loss{0};
};

/// Where a cell's page comes from: ReplayShell with one server per
/// recorded origin (the default), ReplayShell with every origin on one
/// server (the paper's single-server ablation), or the live web itself.
enum class Origins { kMulti, kSingle, kLive };

/// Axis entry: a named stack of shells, outermost first (mm-delay ...
/// mm-link ... mm-loss ... <app>, exactly like nesting the real tools).
/// No layers = the bare ReplayShell. The remaining fields describe the
/// stack under the shells — mm-webreplay's mode, the host machine, the
/// server farm and the browser — and, like the layers, leave the cell's
/// label unchanged. Zero / empty = the default.
struct ShellAxis {
  std::string label;
  std::vector<ShellLayerSpec> layers;
  Origins origins{Origins::kMulti};
  std::string host;  // "machine1" / "machine2" (core::HostProfile)
  int pool_initial{0};  // prefork pool: initial workers and spawn interval
  Microseconds pool_spawn{0};
  std::optional<Microseconds> think;  // per-request server delay
  std::size_t requests{0};  // browser in-flight request cap
  int conns{0};             // browser connections per origin
};

/// Axis entry: a queue discipline applied to both directions of the
/// stack's link layer (cells whose stack has no link ignore it).
struct QueueAxis {
  std::string label;
  net::QueueSpec queue{};
};

/// Axis entry: a congestion-controller fleet. One entry = homogeneous
/// (both flow ends run it); several = the mixed-CC axis — browser
/// connection k runs fleet[k % size], origin server j serves under
/// fleet[j % size], and the cell's fairness probe runs one bulk flow per
/// entry across the cell's bottleneck.
struct CcAxis {
  std::string label;
  std::vector<std::string> fleet;
};

/// Axis entry: a named site (generated + recorded once per experiment),
/// or — label "alexa:N", corpus_size N — an Alexa-calibrated corpus of N
/// sites whose cells replay site k on load k, so their PLT samples are
/// the corpus CDF.
struct SiteAxis {
  std::string label;
  corpus::SiteSpec site{};
  int corpus_size{0};
};

/// Axis entry: offered load — how many concurrent emulated users load the
/// cell's page per measurement. sessions == 1 is the classic single-user
/// cell; sessions > 1 runs a fleet::SessionMux (one shared world), so
/// the users contend for the cell's origin servers and link bandwidth and
/// the cell's PLT distribution degrades with fleet size (the PLT-vs-load
/// grid). Each load of a fleet cell is one indivisible simulation, so the
/// cell stays deterministic at any thread count.
struct FleetAxis {
  std::string label;
  int sessions{1};
  /// Arrival spacing between consecutive users within one load.
  Microseconds stagger{50'000};
};

/// Axis entry: a fault-injection plan (the robustness axis). Label "none"
/// is the healthy control — it carries an empty spec and its cells are
/// byte-identical to a spec with no fault axis at all. Any other label
/// names a deterministic injector ladder (see fault::parse_fault_spec):
/// link flaps, payload corruption, origin crash/stall/slow-start, DNS
/// faults, plus the client resilience policy the cell's browsers run.
struct FaultAxis {
  std::string label{"none"};
  fault::FaultSpec fault{};
};

/// A paper claim checked against the report: a statistic of one cell — or
/// its percentage difference against a second cell — optionally bounded.
///   claim <name> <stat> <cell> [vs <cell>] [<= | >= | < | > | within <bound>]
/// A cell is selected by '/'-separated axis labels matching exactly one
/// cell. median / mean / p95 / cv are PLT statistics; paired-p50 /
/// paired-p95 take percentiles of the per-load PLT % differences, so both
/// cells must load the same site (aligned loads). queue-p95 and
/// throughput read the cell's transport probe; objects-failed,
/// failed-loads and retries are the cell's resilience counts.
struct Claim {
  enum class Stat {
    kMedian,
    kMean,
    kP95,
    kCv,
    kPairedP50,
    kPairedP95,
    kQueueP95,
    kThroughput,
    kObjectsFailed,
    kFailedLoads,
    kRetries,
  };
  enum class Bound { kNone, kAtMost, kAtLeast, kBelow, kAbove, kWithin };
  std::string name;
  Stat stat{Stat::kMedian};
  std::string cell;
  std::string vs;  // empty = a statistic of `cell` alone
  Bound bound{Bound::kNone};
  double limit{0};

  [[nodiscard]] bool paired() const {
    return stat == Stat::kPairedP50 || stat == Stat::kPairedP95;
  }
  /// "<stat> <cell> [vs <cell>] [<op> <bound>]", as written in a spec.
  [[nodiscard]] std::string text() const;
};

/// A declarative experiment: the cartesian product of its axes. Parse one
/// from text with parse_spec(), or build it programmatically (the
/// benchmark harness does) — the two are equivalent by construction.
struct ExperimentSpec {
  std::string name{"experiment"};
  std::uint64_t seed{1};
  int loads_per_cell{3};
  /// Measurement window of the per-cell transport probe (multi-flow bulk
  /// rig reporting throughput shares, Jain's index and queue-delay p95).
  Microseconds probe_duration{12'000'000};
  /// Per-cell virtual-time watchdog (0 = off): every load task — and, for
  /// fleet cells, the whole shared-world mux — that exceeds this much
  /// *simulated* time is aborted with a typed "watchdog:" failed row
  /// instead of hanging the run. Spec key: `deadline 120s`.
  Microseconds cell_deadline{0};
  /// Bounded retry for transiently failed worker tasks (allocation
  /// pressure, I/O hiccups — NOT in-simulation fault retries, which are
  /// the browser's resilience machinery, and NOT watchdog trips, which
  /// are deterministic). A retried task reruns with identical inputs, so
  /// a success on any attempt yields the exact bytes an untroubled run
  /// produces. Spec key: `task-retries 2`. Backoff between attempts is
  /// capped-exponential with jitter seeded from (seed, cell, load,
  /// attempt) — deterministic delays, wall-clock sleeps.
  int task_retries{0};

  // Axes. An empty axis means "the single default": nytimes-like site,
  // HTTP/1.1, bare shell stack, infinite FIFO, default controller.
  std::vector<SiteAxis> sites;
  std::vector<web::AppProtocol> protocols;
  std::vector<ShellAxis> shells;
  std::vector<QueueAxis> queues;
  std::vector<CcAxis> ccs;
  std::vector<FleetAxis> fleets;
  std::vector<FaultAxis> faults;

  std::vector<Claim> claims;
};

/// Parse the line-oriented keyval format (see README "Experiments"):
///
///   # comment
///   name smoke
///   seed 42
///   loads 3
///   probe-seconds 8
///   site nytimes
///   site alexa:120                 # corpus: load k replays site k
///   protocol http11
///   shell replay                   # bare ReplayShell
///   shell lte delay=30ms link=lte
///   shell cable delay=10ms link=12x1.5 loss=0.002
///   shell single delay=15ms link=14 origins=single pool=3x27ms think=1500us
///   shell m2 delay=25ms link=6 host=machine2 requests=24 conns=6
///   shell web origins=live         # the live web, no replay
///   shell fair delay=live          # DelayShell at the live primary delay
///   queue fifo infinite
///   queue dt droptail packets=100
///   queue aqm pie target=15ms tupdate=15ms
///   cc cubic
///   cc mixed 1xbbr+5xcubic
///   fleet solo sessions=1
///   fleet crowd sessions=8 stagger=50ms
///   fleet 16                       # shorthand: label "16", 16 sessions
///   fault none                     # healthy control (the default)
///   fault chaos crash:p=0.05 stall:p=0.02 retry:deadline=4s,max=2,base=250ms,cap=4s
///   claim overhead median fair vs replay <= 2
///
/// Scalar keys (name, seed, loads, probe-seconds) may appear at most
/// once; a duplicate is an error naming both lines, never a silent
/// last-writer-wins. Throws std::invalid_argument naming the offending
/// line and what was expected. The result is validated (see
/// validate_spec).
ExperimentSpec parse_spec(std::string_view text);

/// Read and parse a spec file; errors mention the path.
ExperimentSpec load_spec_file(const std::string& path);

/// Reject a spec that could not run exactly as written: unknown
/// congestion controllers (against the cc registry), queue specs
/// make_queue would refuse, non-positive loads, duplicate axis labels
/// (cells must be uniquely addressable), malformed shell layers, fleet
/// sizes outside [1, 256], corpora under 10 sites or smaller than the
/// loads, live-web cells the live web cannot run. parse_spec calls this;
/// programmatic builders should too. (Claims are checked against the
/// expanded matrix: parse_spec names the offending line, run_experiment
/// throws.)
void validate_spec(const ExperimentSpec& spec);

/// Parse helpers shared with mm_experiment's CLI.
[[nodiscard]] std::vector<std::string> known_site_labels();
[[nodiscard]] corpus::SiteSpec site_spec_for_label(const std::string& label);

}  // namespace mahimahi::experiment
