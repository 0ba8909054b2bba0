#include "experiment/spec.hpp"

#include <gtest/gtest.h>

#include "experiment/matrix.hpp"

namespace mahimahi::experiment {
namespace {

constexpr const char* kFullSpec = R"(
# A spec exercising every key.
name demo
seed 42
loads 4
probe-seconds 8
site nytimes
site wikihow
protocol http11
protocol mux
shell lte delay=30ms link=lte
shell cable delay=10ms link=12x1.5 loss=0.002
queue fifo infinite
queue dt droptail packets=100
queue aqm pie target=15ms tupdate=15ms
cc cubic
cc mixed 1xbbr+5xcubic
fleet solo sessions=1
fleet crowd sessions=8 stagger=25ms
)";

TEST(SpecParse, FullSpecRoundTrips) {
  const ExperimentSpec spec = parse_spec(kFullSpec);
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.loads_per_cell, 4);
  EXPECT_EQ(spec.probe_duration, 8'000'000);
  ASSERT_EQ(spec.sites.size(), 2u);
  EXPECT_EQ(spec.sites[0].label, "nytimes");
  ASSERT_EQ(spec.protocols.size(), 2u);
  ASSERT_EQ(spec.shells.size(), 2u);
  EXPECT_EQ(spec.shells[0].label, "lte");
  ASSERT_EQ(spec.shells[0].layers.size(), 2u);
  EXPECT_EQ(spec.shells[0].layers[0].kind, ShellLayerSpec::Kind::kDelay);
  EXPECT_EQ(spec.shells[0].layers[0].delay_one_way, 30'000);
  EXPECT_EQ(spec.shells[0].layers[1].trace_name, "lte");
  ASSERT_EQ(spec.shells[1].layers.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.shells[1].layers[1].up_mbps, 12.0);
  EXPECT_DOUBLE_EQ(spec.shells[1].layers[1].down_mbps, 1.5);
  EXPECT_DOUBLE_EQ(spec.shells[1].layers[2].downlink_loss, 0.002);
  ASSERT_EQ(spec.queues.size(), 3u);
  EXPECT_EQ(spec.queues[1].queue.discipline, "droptail");
  EXPECT_EQ(spec.queues[1].queue.max_packets, 100u);
  EXPECT_EQ(spec.queues[2].queue.discipline, "pie");
  EXPECT_EQ(spec.queues[2].queue.pie_target, 15'000);
  ASSERT_EQ(spec.ccs.size(), 2u);
  EXPECT_EQ(spec.ccs[0].label, "cubic");
  EXPECT_EQ(spec.ccs[0].fleet, std::vector<std::string>{"cubic"});
  EXPECT_EQ(spec.ccs[1].label, "mixed");
  ASSERT_EQ(spec.ccs[1].fleet.size(), 6u);
  EXPECT_EQ(spec.ccs[1].fleet[0], "bbr");
  EXPECT_EQ(spec.ccs[1].fleet[5], "cubic");
  ASSERT_EQ(spec.fleets.size(), 2u);
  EXPECT_EQ(spec.fleets[0].label, "solo");
  EXPECT_EQ(spec.fleets[0].sessions, 1);
  EXPECT_EQ(spec.fleets[0].stagger, 50'000);  // default
  EXPECT_EQ(spec.fleets[1].label, "crowd");
  EXPECT_EQ(spec.fleets[1].sessions, 8);
  EXPECT_EQ(spec.fleets[1].stagger, 25'000);
}

TEST(SpecParse, FleetShorthandAndErrors) {
  const ExperimentSpec spec = parse_spec("fleet 16\n");
  ASSERT_EQ(spec.fleets.size(), 1u);
  EXPECT_EQ(spec.fleets[0].label, "16");
  EXPECT_EQ(spec.fleets[0].sessions, 16);
  // A labelled fleet must say how big it is.
  EXPECT_THROW(parse_spec("fleet crowd\n"), std::invalid_argument);
  EXPECT_THROW(parse_spec("fleet crowd stagger=10ms\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec("fleet crowd sessions=0\n"), std::invalid_argument);
  EXPECT_THROW(parse_spec("fleet crowd sessions=300\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec("fleet crowd sessions=4 knob=1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec("fleet a sessions=2\nfleet a sessions=4\n"),
               std::invalid_argument);
}

TEST(SpecParse, RejectsDuplicateScalarKeyNamingBothLines) {
  // Scalar keys used to silently keep the last value — a spec redefining
  // `seed` halfway down measured something other than its header said.
  try {
    parse_spec("name demo\nseed 1\nloads 3\nseed 2\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("line 4"), std::string::npos) << message;
    EXPECT_NE(message.find("duplicate 'seed'"), std::string::npos) << message;
    EXPECT_NE(message.find("first set on line 2"), std::string::npos)
        << message;
  }
  EXPECT_THROW(parse_spec("name a\nname b\n"), std::invalid_argument);
  EXPECT_THROW(parse_spec("loads 3\nloads 4\n"), std::invalid_argument);
  EXPECT_THROW(parse_spec("probe-seconds 8\nprobe-seconds 9\n"),
               std::invalid_argument);
}

TEST(SpecParse, UnknownKeyErrorListsFleet) {
  try {
    parse_spec("name demo\n\n# comment\nfleets 3\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    // Line numbers count raw lines (blank and comment lines included).
    EXPECT_NE(message.find("line 4"), std::string::npos) << message;
    EXPECT_NE(message.find("unknown key 'fleets'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("fleet"), std::string::npos) << message;
  }
}

TEST(SpecParse, ErrorsNameTheLine) {
  try {
    parse_spec("name demo\nfrobnicate 3\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
    EXPECT_NE(message.find("frobnicate"), std::string::npos) << message;
  }
}

TEST(SpecParse, RejectsUnknownController) {
  EXPECT_THROW(parse_spec("cc warp 1xwarpspeed\n"), std::invalid_argument);
}

TEST(SpecParse, RejectsUnknownQueueDiscipline) {
  try {
    parse_spec("queue q red packets=10\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("red"), std::string::npos);
  }
}

TEST(SpecParse, RejectsBoundLessDroptail) {
  EXPECT_THROW(parse_spec("queue q droptail\n"), std::invalid_argument);
}

TEST(SpecParse, RejectsParamsForeignToTheDiscipline) {
  // 'interval=' belongs to codel; storing it silently on a pie queue
  // would measure a different AQM than the spec author intended.
  EXPECT_THROW(parse_spec("queue q pie interval=20ms\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec("queue q codel tupdate=20ms\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec("queue q infinite packets=10\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec("queue q droptail packets=10 target=5ms\n"),
               std::invalid_argument);
  // ...while each discipline's own knobs parse.
  EXPECT_NO_THROW(parse_spec("queue q codel target=5ms interval=100ms\n"));
  EXPECT_NO_THROW(parse_spec("queue q pie target=15ms tupdate=15ms\n"));
}

TEST(SpecParse, RejectsUnknownSiteListingKnown) {
  try {
    parse_spec("site geocities\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("geocities"), std::string::npos) << message;
    EXPECT_NE(message.find("nytimes"), std::string::npos) << message;
  }
}

TEST(SpecParse, RejectsDuplicateAxisLabels) {
  EXPECT_THROW(parse_spec("cc cubic\ncc cubic\n"), std::invalid_argument);
  EXPECT_THROW(
      parse_spec("shell a delay=1ms\nshell a delay=2ms\n"),
      std::invalid_argument);
}

TEST(SpecParse, RejectsZeroFleetCount) {
  EXPECT_THROW(parse_spec("cc z 0xcubic\n"), std::invalid_argument);
}

/// Parse `text` expecting a typed error that names `line` and contains
/// `fragment`.
void expect_spec_error(const std::string& text, int line,
                       const std::string& fragment) {
  try {
    parse_spec(text);
    FAIL() << "expected std::invalid_argument for: " << text;
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("line " + std::to_string(line)), std::string::npos)
        << message;
    EXPECT_NE(message.find(fragment), std::string::npos) << message;
  }
}

TEST(SpecParse, CorpusSiteParses) {
  const ExperimentSpec spec = parse_spec("loads 12\nsite alexa:120\n");
  ASSERT_EQ(spec.sites.size(), 1u);
  EXPECT_EQ(spec.sites[0].label, "alexa:120");
  EXPECT_EQ(spec.sites[0].corpus_size, 120);
}

TEST(SpecParse, CorpusSiteErrorsAreTypedAndNameTheLine) {
  // The Alexa calibration needs >= 10 sites: a smaller corpus must fail
  // the spec, never abort inside alexa_server_counts.
  expect_spec_error("name c\nsite alexa:8\n", 2, "alexa:8");
  expect_spec_error("name c\nsite alexa:0\n", 2, "alexa:0");
  expect_spec_error("name c\n\nsite alexa:many\n", 3, "alexa:many");
  expect_spec_error("name c\nsite alexa:\n", 2, "N in [10, 10000]");
  // Load k replays site k: more loads than sites is a spec error too.
  EXPECT_THROW(parse_spec("loads 11\nsite alexa:10\n"), std::invalid_argument);
  EXPECT_NO_THROW(parse_spec("loads 10\nsite alexa:10\n"));
}

TEST(SpecParse, StackTokensRideOnTheShellLine) {
  const ExperimentSpec spec = parse_spec(
      "shell replay\n"
      "shell single delay=15ms link=14 origins=single pool=3x27ms "
      "think=1500us requests=64 conns=2\n"
      "shell m2 delay=25ms link=6 host=machine2\n"
      "shell web origins=live\n"
      "shell fair delay=live\n");
  ASSERT_EQ(spec.shells.size(), 5u);
  EXPECT_TRUE(spec.shells[0].layers.empty());  // the bare ReplayShell
  const ShellAxis& single = spec.shells[1];
  EXPECT_EQ(single.origins, Origins::kSingle);
  EXPECT_EQ(single.pool_initial, 3);
  EXPECT_EQ(single.pool_spawn, 27'000);
  ASSERT_TRUE(single.think.has_value());
  EXPECT_EQ(*single.think, 1'500);
  EXPECT_EQ(single.requests, 64u);
  EXPECT_EQ(single.conns, 2);
  EXPECT_EQ(single.layers.size(), 2u);
  EXPECT_EQ(spec.shells[2].host, "machine2");
  EXPECT_EQ(spec.shells[3].origins, Origins::kLive);
  ASSERT_EQ(spec.shells[4].layers.size(), 1u);
  EXPECT_TRUE(spec.shells[4].layers[0].live_delay);
  // Stack tokens leave cell labels alone.
  EXPECT_EQ(expand_matrix(spec)[1].label(),
            "nytimes/http11/single/fifo/reno/solo");
}

TEST(SpecParse, StackTokenErrorsAreTyped) {
  expect_spec_error("name s\nshell a origins=mirror\n", 2, "origins");
  expect_spec_error("name s\nshell a host=machine3\n", 2, "machine3");
  expect_spec_error("name s\nshell a pool=3\n", 2, "INITIALxSPAWN");
  expect_spec_error("name s\nshell a pool=x27ms\n", 2, "integer");
  expect_spec_error("name s\nshell a pool=0x27ms\n", 2, "pool");
  expect_spec_error("name s\nshell a requests=0\n", 2, "requests");
  expect_spec_error("name s\nshell a origins=single origins=multi\n", 2,
                    "duplicate origins=");
  expect_spec_error("name s\nshell a host=machine1 host=machine2\n", 2,
                    "duplicate host=");
  expect_spec_error("name s\nshell a think=1ms think=2ms\n", 2,
                    "duplicate think=");
  expect_spec_error("name s\nshell a warp=9\n", 2, "unknown shell token");
  // The live web has no replay farm, host profile, mux or injectors.
  EXPECT_THROW(parse_spec("shell web origins=live host=machine1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec("shell web origins=live pool=3x27ms\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec("protocol mux\nshell web origins=live\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec("fleet 4\nshell web origins=live\n"),
               std::invalid_argument);
  // A controller fleet would rotate on the browser only: the live web's
  // origins run one controller.
  try {
    parse_spec("cc mixed 1xbbr+2xcubic\nshell web origins=live\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("shell 'web' (origins=live): cc 'mixed'"),
              std::string::npos)
        << message;
  }
  EXPECT_NO_THROW(parse_spec("cc bbr\nshell web origins=live\n"));
}

TEST(SpecParse, ClaimsParse) {
  const ExperimentSpec spec = parse_spec(
      "site alexa:20\nloads 20\n"
      "shell replay\nshell delay0 delay=0ms\n"
      "claim overhead median delay0 vs replay <= 0.5\n"
      "claim spread cv replay\n"
      "claim paired paired-p95 delay0 vs replay within 2\n");
  ASSERT_EQ(spec.claims.size(), 3u);
  EXPECT_EQ(spec.claims[0].name, "overhead");
  EXPECT_EQ(spec.claims[0].stat, Claim::Stat::kMedian);
  EXPECT_EQ(spec.claims[0].cell, "delay0");
  EXPECT_EQ(spec.claims[0].vs, "replay");
  EXPECT_EQ(spec.claims[0].bound, Claim::Bound::kAtMost);
  EXPECT_DOUBLE_EQ(spec.claims[0].limit, 0.5);
  EXPECT_EQ(spec.claims[0].text(), "median delay0 vs replay <= 0.5");
  EXPECT_EQ(spec.claims[1].bound, Claim::Bound::kNone);
  EXPECT_EQ(spec.claims[1].text(), "cv replay");
  EXPECT_EQ(spec.claims[2].bound, Claim::Bound::kWithin);
  EXPECT_TRUE(spec.claims[2].paired());
}

TEST(SpecParse, ProbeAndCountClaimsAndStrictBoundsRoundTrip) {
  const std::string axes =
      "shell lte delay=30ms link=lte\ncc reno\ncc bbr\n"
      "fault none\nfault crash crash:p=0.1 noretry\n";
  const std::vector<std::pair<std::string, Claim::Stat>> stats = {
      {"queue-p95", Claim::Stat::kQueueP95},
      {"throughput", Claim::Stat::kThroughput},
      {"objects-failed", Claim::Stat::kObjectsFailed},
      {"failed-loads", Claim::Stat::kFailedLoads},
      {"retries", Claim::Stat::kRetries},
  };
  const std::vector<std::pair<std::string, Claim::Bound>> bounds = {
      {" < 0", Claim::Bound::kBelow},
      {" > 2.5", Claim::Bound::kAbove},
      {" <= -1", Claim::Bound::kAtMost},
      {"", Claim::Bound::kNone},
  };
  for (const auto& [stat_word, stat] : stats) {
    for (const auto& [bound_text, bound] : bounds) {
      for (const std::string cells : {"bbr/crash", "bbr/crash vs reno/none"}) {
        const std::string text = stat_word + " " + cells + bound_text;
        const ExperimentSpec spec = parse_spec(axes + "claim c " + text + "\n");
        ASSERT_EQ(spec.claims.size(), 1u) << text;
        EXPECT_EQ(spec.claims[0].stat, stat) << text;
        EXPECT_EQ(spec.claims[0].bound, bound) << text;
        EXPECT_FALSE(spec.claims[0].paired()) << text;
        EXPECT_EQ(spec.claims[0].text(), text);
      }
    }
  }
}

TEST(SpecParse, ClaimErrorsAreTypedAndNameTheLine) {
  const std::string axes =
      "site nytimes\nsite wikihow\nshell a delay=1ms\nshell b delay=2ms\n";
  // Selectors must match exactly one cell.
  expect_spec_error(axes + "claim x median zz\n", 5, "matches no cell");
  expect_spec_error(axes + "claim x median a\n", 5, "matches several cells");
  expect_spec_error(axes + "claim x median nytimes/a vs b\n", 5,
                    "matches several cells");
  EXPECT_NO_THROW(parse_spec(axes + "claim x median nytimes/a vs nytimes/b\n"));
  // Paired statistics need aligned loads: one site (or corpus) per claim.
  expect_spec_error(axes + "claim x paired-p50 nytimes/a vs wikihow/a\n", 5,
                    "aligned loads");
  expect_spec_error(axes + "claim x paired-p50 nytimes/a\n", 5, "vs <cell>");
  // Malformed lines.
  expect_spec_error(axes + "claim x p99 nytimes/a\n", 5, "statistic 'p99'");
  expect_spec_error(axes + "claim x median nytimes/a == 3\n", 5,
                    "claim expects");
  expect_spec_error(axes + "claim x retries nytimes/a > 0 1\n", 5,
                    "claim expects");
  expect_spec_error(axes + "claim x median nytimes/a <=\n", 5,
                    "claim expects");
  expect_spec_error(axes + "claim x median nytimes/a <= lots\n", 5,
                    "expected a number");
  expect_spec_error(axes + "claim x median\n", 5, "claim expects");
}

TEST(Matrix, ExpansionOrderAndCount) {
  const ExperimentSpec spec = parse_spec(kFullSpec);
  const std::vector<Cell> cells = expand_matrix(spec);
  // 2 sites x 2 protocols x 2 shells x 3 queues x 2 ccs x 2 fleets.
  ASSERT_EQ(cells.size(), 96u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, static_cast<int>(i));
  }
  // fleet is the innermost axis; site the outermost.
  EXPECT_EQ(cells[0].label(), "nytimes/http11/lte/fifo/cubic/solo");
  EXPECT_EQ(cells[1].label(), "nytimes/http11/lte/fifo/cubic/crowd");
  EXPECT_EQ(cells[2].label(), "nytimes/http11/lte/fifo/mixed/solo");
  EXPECT_EQ(cells[4].label(), "nytimes/http11/lte/dt/cubic/solo");
  EXPECT_EQ(cells[95].label(), "wikihow/mux/cable/aqm/mixed/crowd");
  EXPECT_EQ(cells[1].fleet.sessions, 8);
}

TEST(Matrix, EmptyAxesGetDefaults) {
  const std::vector<Cell> cells = expand_matrix(parse_spec("name minimal\n"));
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].label(), "nytimes/http11/bare/fifo/reno/solo");
  EXPECT_EQ(cells[0].fleet.sessions, 1);
}

TEST(SpecParse, FaultAxisParsesLabelsAndSpecs) {
  const ExperimentSpec spec = parse_spec(
      "fault none\n"
      "fault chaos crash:p=0.1 stall:p=0.05 "
      "retry:deadline=2s,max=2,base=100ms,cap=1s\n");
  ASSERT_EQ(spec.faults.size(), 2u);
  EXPECT_EQ(spec.faults[0].label, "none");
  EXPECT_FALSE(spec.faults[0].fault.any());
  EXPECT_EQ(spec.faults[1].label, "chaos");
  EXPECT_DOUBLE_EQ(spec.faults[1].fault.origin.crash_rate, 0.1);
  EXPECT_DOUBLE_EQ(spec.faults[1].fault.origin.stall_rate, 0.05);
  EXPECT_EQ(spec.faults[1].fault.client.max_retries, 2);
}

TEST(SpecParse, FaultAxisRejectsBadLines) {
  // 'none' is the only label allowed to carry no injectors — and it may
  // carry nothing else; labels are unique like every other axis; injector
  // parse errors surface with the offending line.
  EXPECT_THROW(parse_spec("fault none crash:p=0.1\n"), std::invalid_argument);
  EXPECT_THROW(parse_spec("fault broken\n"), std::invalid_argument);
  EXPECT_THROW(parse_spec("fault healthy none\n"), std::invalid_argument);
  EXPECT_THROW(parse_spec("fault a crash:p=0.1\nfault a crash:p=0.2\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec("fault bad crash:p=2\n"), std::invalid_argument);
  EXPECT_THROW(parse_spec("fault bad warp:speed=9\n"), std::invalid_argument);
}

TEST(Matrix, FaultIsTheInnermostAxisAndNoneStaysOffTheLabel) {
  const ExperimentSpec spec = parse_spec(
      "cc reno\ncc cubic\n"
      "fault none\n"
      "fault chaos crash:p=0.1 noretry\n");
  const std::vector<Cell> cells = expand_matrix(spec);
  ASSERT_EQ(cells.size(), 4u);  // 2 ccs x 2 faults
  // The healthy control keeps the pre-fault-axis label verbatim; only
  // faulted cells grow the extra segment.
  EXPECT_EQ(cells[0].label(), "nytimes/http11/bare/fifo/reno/solo");
  EXPECT_EQ(cells[1].label(), "nytimes/http11/bare/fifo/reno/solo/chaos");
  EXPECT_EQ(cells[2].label(), "nytimes/http11/bare/fifo/cubic/solo");
  EXPECT_EQ(cells[3].label(), "nytimes/http11/bare/fifo/cubic/solo/chaos");
  EXPECT_TRUE(cells[1].fault.fault.client.no_retry);
  // A spec with no fault lines defaults to the healthy control.
  const std::vector<Cell> defaults = expand_matrix(parse_spec("cc reno\n"));
  ASSERT_EQ(defaults.size(), 1u);
  EXPECT_EQ(defaults[0].fault.label, "none");
  EXPECT_FALSE(defaults[0].fault.fault.any());
}

TEST(Matrix, CellSeedsAreStableAndDistinct) {
  // The (seed, cell) derivation is part of the determinism contract: the
  // same spec must map cell k to the same seed forever.
  EXPECT_EQ(derive_cell_seed(42, 0), derive_cell_seed(42, 0));
  EXPECT_NE(derive_cell_seed(42, 0), derive_cell_seed(42, 1));
  EXPECT_NE(derive_cell_seed(42, 0), derive_cell_seed(43, 0));
  const ExperimentSpec spec = parse_spec(kFullSpec);
  const std::vector<Cell> a = expand_matrix(spec);
  const std::vector<Cell> b = expand_matrix(spec);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cell_seed, b[i].cell_seed);
    EXPECT_EQ(a[i].cell_seed, derive_cell_seed(spec.seed, a[i].index));
  }
}

TEST(Matrix, MaterializeInstallsQueueOnLink) {
  const ExperimentSpec spec =
      parse_spec("shell s delay=5ms link=8 loss=0.01\n"
                 "queue dt droptail packets=7\n");
  const std::vector<Cell> cells = expand_matrix(spec);
  ASSERT_EQ(cells.size(), 1u);
  const MaterializedCell materialized = materialize_cell(cells[0]);
  ASSERT_EQ(materialized.shells.size(), 3u);
  const auto* link = std::get_if<core::LinkShellSpec>(&materialized.shells[1]);
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->uplink_queue.discipline, "droptail");
  EXPECT_EQ(link->uplink_queue.max_packets, 7u);
  EXPECT_EQ(link->downlink_queue.discipline, "droptail");
  EXPECT_EQ(materialized.total_one_way_delay, 5'000);
  EXPECT_DOUBLE_EQ(materialized.loss, 0.01);
  EXPECT_NE(materialized.uplink, nullptr);
  // Two materializations of the same cell produce identical traces.
  const MaterializedCell again = materialize_cell(cells[0]);
  EXPECT_EQ(materialized.uplink->opportunities(),
            again.uplink->opportunities());
}

}  // namespace
}  // namespace mahimahi::experiment
