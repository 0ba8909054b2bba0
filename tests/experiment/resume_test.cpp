// Crash-safe experiment execution, end to end: journaled runs resume to
// byte-identical artifacts after partial completion, torn tails and
// cancellation; mismatched manifests are refused with the field named;
// the virtual-time watchdog converts runaway cells into typed rows; and
// transient worker failures heal through bounded retry without changing a
// byte.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>

#include "core/sessions.hpp"
#include "experiment/checkpoint.hpp"
#include "experiment/runner.hpp"
#include "journal/journal.hpp"
#include "obs/trace_views.hpp"

namespace mahimahi::experiment {
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

SiteAxis tiny_site() {
  SiteAxis axis;
  axis.label = "tiny";
  axis.site.name = "tiny";
  axis.site.seed = 7;
  axis.site.server_count = 3;
  axis.site.object_count = 8;
  axis.site.size_scale = 0.25;
  return axis;
}

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.name = "resume-unit";
  spec.seed = 99;
  spec.loads_per_cell = 2;
  spec.probe_duration = 2'000'000;
  spec.sites = {tiny_site()};
  spec.protocols = {web::AppProtocol::kHttp11};
  ShellAxis cable;
  cable.label = "cable";
  ShellLayerSpec delay;
  delay.kind = ShellLayerSpec::Kind::kDelay;
  delay.delay_one_way = 10'000;
  ShellLayerSpec link;
  link.kind = ShellLayerSpec::Kind::kLink;
  link.up_mbps = 8;
  link.down_mbps = 8;
  cable.layers = {delay, link};
  spec.shells = {cable};
  spec.queues = {QueueAxis{"fifo", net::QueueSpec{}}};
  spec.ccs = {CcAxis{"reno", {"reno"}}, CcAxis{"cubic", {"cubic"}}};
  return spec;
}

TEST(ExperimentResume, TaskRecordsRoundTripThroughTheCodec) {
  TaskKey key{5, 1, false};
  EXPECT_EQ(key.label(), "cell5/load1");
  EXPECT_EQ((TaskKey{3, 0, true}.label()), "cell3/probe");

  TaskResult result;
  result.plts = {120.5, 98.25};
  result.oks = {1, 0};
  result.degraded = {110.0, 90.0};
  result.failed_objects = {0, 2};
  result.retries = {1, 0};
  result.timeouts = {0, 1};
  result.error = "";
  result.probe.jain_index = 0.875;
  result.probe.bottleneck.delay_p95_ms = 42.5;
  net::MultiBulkFlowReport::Flow flow;
  flow.controller = "cubic";
  flow.bytes_delivered = 123456;
  flow.throughput_bps = 8.1e6;
  flow.share = 0.5;
  flow.retransmissions = 3;
  result.probe.flows = {flow};
  obs::TraceEvent event;
  event.at = 777;
  event.layer = obs::Layer::kTcp;
  event.kind = obs::EventKind::kTcpConnect;
  event.session = -1;
  event.label = "10.0.0.1:80";
  result.trace.events = {event};

  const std::string payload = encode_task_record(key, result);
  const auto decoded = decode_task_record(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first.cell_index, 5);
  EXPECT_EQ(decoded->first.load_index, 1);
  EXPECT_FALSE(decoded->first.probe);
  const TaskResult& back = decoded->second;
  EXPECT_EQ(back.plts, result.plts);
  EXPECT_EQ(back.oks, result.oks);
  EXPECT_EQ(back.degraded, result.degraded);
  EXPECT_EQ(back.failed_objects, result.failed_objects);
  EXPECT_EQ(back.probe.jain_index, 0.875);
  ASSERT_EQ(back.probe.flows.size(), 1u);
  EXPECT_EQ(back.probe.flows[0].controller, "cubic");
  EXPECT_EQ(back.probe.flows[0].bytes_delivered, 123456u);
  ASSERT_EQ(back.trace.events.size(), 1u);
  EXPECT_EQ(back.trace.events[0].at, 777);
  EXPECT_EQ(back.trace.events[0].label, "10.0.0.1:80");
  EXPECT_NE(back.replayed, 0);  // decode marks provenance

  // A truncated payload decodes to nullopt, never to garbage.
  EXPECT_FALSE(
      decode_task_record(std::string_view{payload}.substr(0, 20)).has_value());
  EXPECT_FALSE(decode_task_record(payload + "x").has_value());
}

/// A task result touching every field the codec writes: two sessions, two
/// probe flows, and a trace with events (one with an empty label, one with
/// a comma in it), a completed and a failed object, and a page.
TaskResult full_result() {
  TaskResult result;
  result.plts = {1534.25, 2210.5};
  result.oks = {1, 0};
  result.degraded = {1490.0, 2100.125};
  result.failed_objects = {0, 3};
  result.retries = {2, 0};
  result.timeouts = {0, 1};
  result.error = "watchdog: cell deadline 30000 ms";
  result.probe.jain_index = 0.9921875;
  result.probe.bottleneck.delay_p95_ms = 87.375;
  net::MultiBulkFlowReport::Flow flow;
  flow.controller = "bbr";
  flow.bytes_delivered = 9'876'543;
  flow.throughput_bps = 1.2e7;
  flow.share = 0.25;
  flow.final_srtt = 41'250;
  flow.final_cwnd_bytes = 65'160.5;
  flow.retransmissions = 17;
  result.probe.flows = {flow, flow};
  result.probe.flows[1].controller = "cubic";
  result.trace.events = {
      {1'000, obs::Layer::kLink, obs::EventKind::kEnqueue, -1, 4, 12,
       18'000.0, "shell0/down"},
      {2'500, obs::Layer::kTcp, obs::EventKind::kTcpCwndSample, 0, 4, 0,
       14'600.0, ""},
      {3'125, obs::Layer::kDns, obs::EventKind::kDnsQuery, 1, 0, 0, -0.5,
       "a,b.example"}};
  obs::ObjectRecord done;
  done.url = "http://10.200.0.1/index.html";
  done.kind = "html";
  done.session = 0;
  done.fetch_start = 10;
  done.dns_start = 11;
  done.dns_done = 250;
  done.connect_done = 900;
  done.request_sent = 905;
  done.first_byte = 1'700;
  done.complete = 2'400;
  done.bytes = 48'213;
  done.status = 200;
  done.attempts = 2;
  obs::ObjectRecord failed;
  failed.url = "http://10.200.0.2/app.js";
  failed.session = 1;
  failed.fetch_start = 300;
  failed.failed = true;
  failed.attempts = 3;
  failed.error = "reset, then timeout";
  result.trace.objects = {done, failed};
  result.trace.pages = {
      obs::PageRecord{0, "http://10.200.0.1/", 0, 1'534'250, 1'490'000, true}};
  return result;
}

TEST(ExperimentResume, TaskRecordBytesArePinned) {
  // The journal's on-disk format: a change to these bytes would silently
  // refuse (or misread) every journal an older build of the same toolchain
  // wrote, so the encoding is pinned by length and checksum.
  const TaskKey key{7, 3, false};
  const TaskResult result = full_result();
  const std::string payload = encode_task_record(key, result);
  EXPECT_EQ(payload.size(), 735u);
  EXPECT_EQ(journal::crc32(payload), 0xB6441F86U);

  // decode(encode(x)) == x: every encoded field survives, so re-encoding
  // the decoded record reproduces the bytes exactly.
  const auto decoded = decode_task_record(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first.cell_index, 7);
  EXPECT_EQ(decoded->first.load_index, 3);
  EXPECT_EQ(encode_task_record(decoded->first, decoded->second), payload);
  const obs::TraceBuffer& trace = decoded->second.trace;
  ASSERT_EQ(trace.events.size(), 3u);
  EXPECT_EQ(trace.events[1].label, "");
  EXPECT_EQ(trace.events[2].label, "a,b.example");
  EXPECT_EQ(trace.events[2].metric, -0.5);
  ASSERT_EQ(trace.objects.size(), 2u);
  EXPECT_EQ(trace.objects[1].error, "reset, then timeout");
  EXPECT_TRUE(trace.objects[1].failed);
  ASSERT_EQ(trace.pages.size(), 1u);
  EXPECT_EQ(trace.pages[0].degraded_plt, 1'490'000);
  EXPECT_EQ(decoded->second.probe.flows[1].controller, "cubic");
  EXPECT_EQ(decoded->second.error, result.error);
}

/// The kill-and-resume core: journal a *partial* run (shard 0/2 stands in
/// for "the process died halfway" — journal keys are global indices, so a
/// sharded journal is exactly a partial unsharded one), then resume the
/// full matrix and require byte-identical artifacts vs a journal-free
/// clean run, at 1 and 8 threads, with tracing on.
TEST(ExperimentResume, PartialJournalResumesToByteIdenticalArtifacts) {
  const ExperimentSpec spec = small_spec();
  const fs::path journal_dir = fresh_dir("mahi_resume_partial");
  const fs::path trace_clean = fresh_dir("mahi_resume_trace_clean");
  const fs::path trace_resumed = fresh_dir("mahi_resume_trace_resumed");

  // The reference: uninterrupted, journal-free, single-threaded.
  core::ParallelRunner one{1};
  RunOptions clean;
  clean.runner = &one;
  clean.trace_dir = trace_clean.string();
  const Report reference = run_experiment(spec, clean);

  // Phase 1: half the matrix, journaled (the "crashed" run).
  RunOptions phase1;
  phase1.runner = &one;
  phase1.shard_count = 2;
  phase1.shard_index = 0;
  phase1.journal_dir = journal_dir.string();
  phase1.trace_dir = trace_resumed.string();
  run_experiment(spec, phase1);
  ASSERT_TRUE(fs::exists(journal_dir / "MANIFEST"));
  ASSERT_TRUE(fs::exists(journal_dir / "journal.bin"));

  // Phase 2: resume the full matrix on 8 threads. Journaled tasks replay;
  // only the missing ones run.
  core::ParallelRunner eight{8};
  RunOptions phase2;
  phase2.runner = &eight;
  phase2.journal_dir = journal_dir.string();
  phase2.resume = true;
  phase2.trace_dir = trace_resumed.string();
  const Report resumed = run_experiment(spec, phase2);

  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.to_json(), reference.to_json());
  EXPECT_EQ(resumed.to_csv(), reference.to_csv());
  EXPECT_EQ(resumed.to_bench_json(), reference.to_bench_json());
  // Trace artifacts byte-identical too — replayed tasks carried their
  // journaled buffers.
  for (const CellResult& cell : reference.cells) {
    obs::expect_identical_views(trace_resumed, trace_clean, {cell.index});
  }
  // The runner wrote its lifecycle log: replays + appends cover every task.
  const std::string events = read_bytes(journal_dir / "events.csv");
  EXPECT_NE(events.find("journal-replay"), std::string::npos);
  EXPECT_NE(events.find("journal-append"), std::string::npos);
}

TEST(ExperimentResume, TornTailIsDiscardedAndHealedOnResume) {
  const ExperimentSpec spec = small_spec();
  const fs::path journal_dir = fresh_dir("mahi_resume_torn");
  const Report reference = run_experiment(spec);

  RunOptions journaled;
  journaled.journal_dir = journal_dir.string();
  run_experiment(spec, journaled);

  // SIGKILL mid-append: cut the journal inside its final record.
  const fs::path journal_file = journal_dir / "journal.bin";
  const std::uintmax_t size = fs::file_size(journal_file);
  fs::resize_file(journal_file, size - 7);

  RunOptions resume;
  resume.journal_dir = journal_dir.string();
  resume.resume = true;
  const Report resumed = run_experiment(spec, resume);
  EXPECT_EQ(resumed.to_json(), reference.to_json());
  EXPECT_EQ(resumed.to_csv(), reference.to_csv());
  // The healed journal is whole again: every record decodes.
  const journal::ReadResult healed =
      journal::read_journal_file(journal_file.string());
  EXPECT_FALSE(healed.torn_tail);
  for (const std::string& record : healed.records) {
    EXPECT_TRUE(decode_task_record(record).has_value());
  }
}

TEST(ExperimentResume, MismatchedManifestIsRefusedWithTheFieldNamed) {
  const ExperimentSpec spec = small_spec();
  const fs::path journal_dir = fresh_dir("mahi_resume_mismatch");
  RunOptions journaled;
  journaled.journal_dir = journal_dir.string();
  run_experiment(spec, journaled);

  // Different seed: different matrix seeds, a different experiment.
  ExperimentSpec edited = spec;
  edited.seed = 100;
  RunOptions resume;
  resume.journal_dir = journal_dir.string();
  resume.resume = true;
  try {
    run_experiment(edited, resume);
    FAIL() << "resume against a different spec must be refused";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("seed"), std::string::npos) << message;
    EXPECT_NE(message.find("--resume"), std::string::npos) << message;
  }

  // Different options (probes off) are refused too — the journal would
  // otherwise replay into a run that never scheduled those tasks.
  RunOptions no_probes = resume;
  no_probes.transport_probes = false;
  EXPECT_THROW(run_experiment(spec, no_probes), std::invalid_argument);

  // Resume without any journal directory is a usage error.
  RunOptions no_dir;
  no_dir.resume = true;
  EXPECT_THROW(run_experiment(spec, no_dir), std::invalid_argument);

  // Resume pointed at a directory that never ran: no manifest to trust.
  RunOptions empty_dir;
  empty_dir.resume = true;
  empty_dir.journal_dir = fresh_dir("mahi_resume_empty").string();
  EXPECT_THROW(run_experiment(spec, empty_dir), std::runtime_error);
}

TEST(ExperimentResume, CancellationYieldsInterruptedReportThenResumes) {
  const ExperimentSpec spec = small_spec();
  const fs::path journal_dir = fresh_dir("mahi_resume_cancel");
  const Report reference = run_experiment(spec);

  // Token already set: every task is skipped at admission — the extreme
  // (deterministic) case of "stop admitting, drain in-flight".
  std::atomic<bool> cancel{true};
  RunOptions cancelled;
  cancelled.journal_dir = journal_dir.string();
  cancelled.cancel = &cancel;
  const Report partial = run_experiment(spec, cancelled);
  EXPECT_TRUE(partial.interrupted);
  for (const CellResult& cell : partial.cells) {
    EXPECT_EQ(cell.loads_done, 0);
    EXPECT_EQ(cell.loads_expected, reference.loads_per_cell);
    EXPECT_EQ(cell.plt_ms.size(), 0u);
  }
  const std::string json = partial.to_json();
  EXPECT_NE(json.find("\"interrupted\": true"), std::string::npos);
  EXPECT_NE(json.find("\"loads_done\": 0"), std::string::npos);
  // Complete runs never carry the key — byte-stability of the clean path.
  EXPECT_EQ(reference.to_json().find("interrupted"), std::string::npos);
  // The cancelled run journaled nothing it didn't do, and its events.csv
  // records the cancellations.
  EXPECT_NE(read_bytes(journal_dir / "events.csv").find("task-cancelled"),
            std::string::npos);

  // Resume with the token clear: the journal (empty but valid) replays
  // nothing; everything runs; bytes match the uninterrupted reference.
  cancel.store(false);
  RunOptions resume;
  resume.journal_dir = journal_dir.string();
  resume.resume = true;
  resume.cancel = &cancel;
  const Report resumed = run_experiment(spec, resume);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.to_json(), reference.to_json());
}

TEST(ExperimentResume, WatchdogConvertsRunawayCellsIntoTypedRows) {
  ExperimentSpec spec = small_spec();
  spec.ccs = {CcAxis{"reno", {"reno"}}};
  RunOptions options;
  options.transport_probes = false;

  // Generous deadline: nothing trips, and the report is byte-identical to
  // a watchdog-free run (the deadline only bounds, never perturbs).
  ExperimentSpec relaxed = spec;
  relaxed.cell_deadline = 600'000'000;  // 10 virtual minutes
  const Report no_watchdog = run_experiment(spec, options);
  const Report with_watchdog = run_experiment(relaxed, options);
  EXPECT_EQ(with_watchdog.to_json(), no_watchdog.to_json());

  // 1 ms of virtual time: no page load can finish — every load becomes a
  // typed "watchdog:" failed row and the run completes instead of hanging.
  ExperimentSpec strict = spec;
  strict.cell_deadline = 1'000;
  const Report tripped = run_experiment(strict, options);
  ASSERT_EQ(tripped.cells.size(), 1u);
  const CellResult& cell = tripped.cells[0];
  EXPECT_EQ(cell.plt_ms.size(), 0u);
  EXPECT_EQ(static_cast<int>(cell.load_errors.size()),
            tripped.loads_per_cell);
  for (const std::string& error : cell.load_errors) {
    EXPECT_NE(error.find("watchdog:"), std::string::npos) << error;
  }
  // Deterministic failure: identical at another thread count.
  core::ParallelRunner four{4};
  RunOptions threaded = options;
  threaded.runner = &four;
  EXPECT_EQ(run_experiment(strict, threaded).to_json(), tripped.to_json());
}

TEST(ExperimentResume, FleetWatchdogCoversTheWholeMux) {
  ExperimentSpec spec = small_spec();
  spec.ccs = {CcAxis{"cubic", {"cubic"}}};
  spec.fleets = {FleetAxis{"crowd", 4, 10'000}};
  spec.cell_deadline = 1'000;  // 1 ms: the shared world cannot finish
  RunOptions options;
  options.transport_probes = false;
  const Report report = run_experiment(spec, options);
  ASSERT_EQ(report.cells.size(), 1u);
  for (const std::string& error : report.cells[0].load_errors) {
    EXPECT_NE(error.find("watchdog: fleet load"), std::string::npos) << error;
    EXPECT_NE(error.find("sessions complete"), std::string::npos) << error;
  }
}

TEST(ExperimentResume, TransientFailuresHealThroughBoundedRetry) {
  ExperimentSpec spec = small_spec();
  const Report reference = run_experiment(spec);

  // Every task's first attempt fails transiently; one retry heals it.
  ExperimentSpec retrying = spec;
  retrying.task_retries = 1;
  RunOptions flaky;
  flaky.transient_fault = [](int, int, bool, std::uint32_t attempt) {
    return attempt == 1;
  };
  const Report healed = run_experiment(retrying, flaky);
  EXPECT_EQ(healed.to_json(), reference.to_json());
  EXPECT_EQ(healed.to_csv(), reference.to_csv());

  // Without retry budget the same fault is a failed row, not a crash.
  RunOptions no_budget;
  no_budget.transient_fault = [](int, int, bool, std::uint32_t) {
    return true;
  };
  const Report failed = run_experiment(spec, no_budget);
  for (const CellResult& cell : failed.cells) {
    EXPECT_EQ(cell.plt_ms.size(), 0u);
    ASSERT_FALSE(cell.load_errors.empty());
    EXPECT_NE(cell.load_errors[0].find("transient:"), std::string::npos);
  }
}

TEST(ExperimentResume, FreshJournalRunStartsTheLogOver) {
  const ExperimentSpec spec = small_spec();
  const fs::path journal_dir = fresh_dir("mahi_resume_restart");
  RunOptions journaled;
  journaled.journal_dir = journal_dir.string();
  run_experiment(spec, journaled);
  const std::uintmax_t first_size = fs::file_size(journal_dir / "journal.bin");

  // A second journaled run WITHOUT --resume is a fresh start, not an
  // append: same record count, not double.
  run_experiment(spec, journaled);
  EXPECT_EQ(fs::file_size(journal_dir / "journal.bin"), first_size);
}

}  // namespace
}  // namespace mahimahi::experiment
