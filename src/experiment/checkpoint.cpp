#include "experiment/checkpoint.hpp"

#include "util/random.hpp"
#include "util/strings.hpp"

namespace mahimahi::experiment {
namespace {

// Serialize only what the runner's merge consumes from a probe (see
// run_experiment): bottleneck delay p95, Jain's index and the per-flow
// controller/bytes/throughput/share/srtt/cwnd/retransmissions. The rest of
// LinkLogSummary never reaches a report, so journaling it would only
// widen the compatibility surface the manifest has to pin.
void put_probe(std::string& out, const net::MultiBulkFlowReport& probe) {
  journal::put_double(out, probe.jain_index);
  journal::put_double(out, probe.bottleneck.delay_p95_ms);
  journal::put_u32(out, static_cast<std::uint32_t>(probe.flows.size()));
  for (const auto& flow : probe.flows) {
    journal::put_string(out, flow.controller);
    journal::put_u64(out, flow.bytes_delivered);
    journal::put_double(out, flow.throughput_bps);
    journal::put_double(out, flow.share);
    journal::put_i64(out, flow.final_srtt);
    journal::put_double(out, flow.final_cwnd_bytes);
    journal::put_u64(out, flow.retransmissions);
  }
}

net::MultiBulkFlowReport get_probe(journal::Cursor& in) {
  net::MultiBulkFlowReport probe;
  probe.jain_index = in.get_double();
  probe.bottleneck.delay_p95_ms = in.get_double();
  const std::uint32_t flows = in.get_u32();
  probe.flows.reserve(flows);
  for (std::uint32_t i = 0; i < flows; ++i) {
    net::MultiBulkFlowReport::Flow flow;
    flow.controller = in.get_string();
    flow.bytes_delivered = in.get_u64();
    flow.throughput_bps = in.get_double();
    flow.share = in.get_double();
    flow.final_srtt = in.get_i64();
    flow.final_cwnd_bytes = in.get_double();
    flow.retransmissions = in.get_u64();
    probe.flows.push_back(std::move(flow));
  }
  return probe;
}

// Encoded bytes of each record part beyond its strings' contents (every
// string costs its u32 length prefix here plus its bytes), so an encoder
// can reserve the whole record before writing it.
constexpr std::size_t kSessionBytes = 8 + 1 + 8 + 4 + 4 + 4;
constexpr std::size_t kFlowBytes = 4 + 8 + 8 + 8 + 8 + 8 + 8;
constexpr std::size_t kEventBytes = 8 + 1 + 1 + 8 + 8 + 8 + 8 + 4;
constexpr std::size_t kObjectBytes = 4 + 4 + 8 * 8 + 8 + 4 + 4 + 1 + 4;
constexpr std::size_t kPageBytes = 8 + 4 + 8 + 8 + 8 + 1;

std::size_t probe_size(const net::MultiBulkFlowReport& probe) {
  std::size_t size = 8 + 8 + 4;
  for (const auto& flow : probe.flows) {
    size += kFlowBytes + flow.controller.size();
  }
  return size;
}

std::size_t trace_size(const obs::TraceBuffer& trace) {
  std::size_t size = 4 + 4 + 4;
  for (const obs::TraceEvent& e : trace.events) {
    size += kEventBytes + e.label.size();
  }
  for (const obs::ObjectRecord& o : trace.objects) {
    size += kObjectBytes + o.url.size() + o.kind.size() + o.error.size();
  }
  for (const obs::PageRecord& p : trace.pages) {
    size += kPageBytes + p.url.size();
  }
  return size;
}

// The full TraceBuffer round-trips so a resumed --trace-dir run exports
// byte-identical artifacts without rerunning the simulation.
void put_trace(std::string& out, const obs::TraceBuffer& trace) {
  journal::put_u32(out, static_cast<std::uint32_t>(trace.events.size()));
  for (const obs::TraceEvent& e : trace.events) {
    journal::put_i64(out, e.at);
    journal::put_u8(out, static_cast<std::uint8_t>(e.layer));
    journal::put_u8(out, static_cast<std::uint8_t>(e.kind));
    journal::put_i64(out, e.session);
    journal::put_u64(out, e.flow);
    journal::put_u64(out, e.value);
    journal::put_double(out, e.metric);
    journal::put_string(out, e.label);
  }
  journal::put_u32(out, static_cast<std::uint32_t>(trace.objects.size()));
  for (const obs::ObjectRecord& o : trace.objects) {
    journal::put_string(out, o.url);
    journal::put_string(out, o.kind);
    journal::put_i64(out, o.session);
    journal::put_i64(out, o.fetch_start);
    journal::put_i64(out, o.dns_start);
    journal::put_i64(out, o.dns_done);
    journal::put_i64(out, o.connect_done);
    journal::put_i64(out, o.request_sent);
    journal::put_i64(out, o.first_byte);
    journal::put_i64(out, o.complete);
    journal::put_u64(out, o.bytes);
    journal::put_u32(out, o.status);
    journal::put_u32(out, o.attempts);
    journal::put_u8(out, o.failed ? 1 : 0);
    journal::put_string(out, o.error);
  }
  journal::put_u32(out, static_cast<std::uint32_t>(trace.pages.size()));
  for (const obs::PageRecord& p : trace.pages) {
    journal::put_i64(out, p.session);
    journal::put_string(out, p.url);
    journal::put_i64(out, p.started_at);
    journal::put_i64(out, p.plt);
    journal::put_i64(out, p.degraded_plt);
    journal::put_u8(out, p.success ? 1 : 0);
  }
}

obs::TraceBuffer get_trace(journal::Cursor& in) {
  obs::TraceBuffer trace;
  const std::uint32_t events = in.get_u32();
  trace.events.reserve(events);
  for (std::uint32_t i = 0; i < events; ++i) {
    obs::TraceEvent e;
    e.at = in.get_i64();
    e.layer = static_cast<obs::Layer>(in.get_u8());
    e.kind = static_cast<obs::EventKind>(in.get_u8());
    e.session = static_cast<std::int32_t>(in.get_i64());
    e.flow = in.get_u64();
    e.value = in.get_u64();
    e.metric = in.get_double();
    e.label = in.get_string();
    trace.events.push_back(std::move(e));
  }
  const std::uint32_t objects = in.get_u32();
  trace.objects.reserve(objects);
  for (std::uint32_t i = 0; i < objects; ++i) {
    obs::ObjectRecord o;
    o.url = in.get_string();
    o.kind = in.get_string();
    o.session = static_cast<std::int32_t>(in.get_i64());
    o.fetch_start = in.get_i64();
    o.dns_start = in.get_i64();
    o.dns_done = in.get_i64();
    o.connect_done = in.get_i64();
    o.request_sent = in.get_i64();
    o.first_byte = in.get_i64();
    o.complete = in.get_i64();
    o.bytes = in.get_u64();
    o.status = in.get_u32();
    o.attempts = in.get_u32();
    o.failed = in.get_u8() != 0;
    o.error = in.get_string();
    trace.objects.push_back(std::move(o));
  }
  const std::uint32_t pages = in.get_u32();
  trace.pages.reserve(pages);
  for (std::uint32_t i = 0; i < pages; ++i) {
    obs::PageRecord p;
    p.session = static_cast<std::int32_t>(in.get_i64());
    p.url = in.get_string();
    p.started_at = in.get_i64();
    p.plt = in.get_i64();
    p.degraded_plt = in.get_i64();
    p.success = in.get_u8() != 0;
    trace.pages.push_back(std::move(p));
  }
  return trace;
}

}  // namespace

std::string TaskKey::label() const {
  return "cell" + std::to_string(cell_index) + "/" +
         (probe ? "probe" : "load" + std::to_string(load_index));
}

std::string encode_task_record(const TaskKey& key, const TaskResult& result) {
  std::string out;
  out.reserve(8 + 8 + 1 + 4 + result.error.size() + 4 +
              kSessionBytes * result.plts.size() + probe_size(result.probe) +
              trace_size(result.trace));
  journal::put_i64(out, key.cell_index);
  journal::put_i64(out, key.load_index);
  journal::put_u8(out, key.probe ? 1 : 0);
  journal::put_string(out, result.error);
  const std::uint32_t sessions =
      static_cast<std::uint32_t>(result.plts.size());
  journal::put_u32(out, sessions);
  for (std::uint32_t s = 0; s < sessions; ++s) {
    journal::put_double(out, result.plts[s]);
    journal::put_u8(out, static_cast<std::uint8_t>(result.oks[s]));
    journal::put_double(out, result.degraded[s]);
    journal::put_u32(out, result.failed_objects[s]);
    journal::put_u32(out, result.retries[s]);
    journal::put_u32(out, result.timeouts[s]);
  }
  put_probe(out, result.probe);
  put_trace(out, result.trace);
  return out;
}

std::optional<std::pair<TaskKey, TaskResult>> decode_task_record(
    std::string_view payload) {
  try {
    journal::Cursor in{payload};
    TaskKey key;
    key.cell_index = static_cast<int>(in.get_i64());
    key.load_index = static_cast<int>(in.get_i64());
    key.probe = in.get_u8() != 0;
    TaskResult result;
    result.error = in.get_string();
    const std::uint32_t sessions = in.get_u32();
    result.plts.reserve(sessions);
    for (std::uint32_t s = 0; s < sessions; ++s) {
      result.plts.push_back(in.get_double());
      result.oks.push_back(static_cast<char>(in.get_u8()));
      result.degraded.push_back(in.get_double());
      result.failed_objects.push_back(in.get_u32());
      result.retries.push_back(in.get_u32());
      result.timeouts.push_back(in.get_u32());
    }
    result.probe = get_probe(in);
    result.trace = get_trace(in);
    result.replayed = 1;
    if (!in.exhausted()) {
      return std::nullopt;  // trailing garbage: not a record we wrote
    }
    return std::make_pair(std::move(key), std::move(result));
  } catch (const std::exception&) {
    return std::nullopt;  // underrun: corrupt payload
  }
}

journal::Manifest build_manifest(const ExperimentSpec& spec,
                                 const std::vector<Cell>& matrix,
                                 int effective_loads, bool probes, bool traced,
                                 bool metrics,
                                 const std::string& spec_fingerprint) {
  // Hash the expanded matrix — labels, seeds, fleet sizes, probe window —
  // so a journal can only replay into the exact cell grid it was written
  // for, regardless of how the spec text was arranged.
  std::string cells;
  for (const Cell& cell : matrix) {
    cells += std::to_string(cell.index) + "|" + cell.label() + "|" +
             std::to_string(cell.cell_seed) + "|" +
             std::to_string(cell.fleet.sessions) + "|" +
             std::to_string(cell.fleet.stagger) + "\n";
  }
  cells += "probe=" + std::to_string(spec.probe_duration);

  const std::string hash = util::to_hex(util::fnv1a(cells));

  journal::Manifest manifest;
  manifest.set("name", spec.name);
  manifest.set("seed", std::to_string(spec.seed));
  manifest.set("cells", std::to_string(matrix.size()));
  manifest.set("loads", std::to_string(effective_loads));
  manifest.set("probes", probes ? "1" : "0");
  manifest.set("traced", traced ? "1" : "0");
  manifest.set("metrics", metrics ? "1" : "0");
  manifest.set("deadline-us", std::to_string(spec.cell_deadline));
  manifest.set("matrix-hash", hash);
  manifest.set("spec-fingerprint", spec_fingerprint);
  manifest.set("toolchain", journal::toolchain_fingerprint());
  return manifest;
}

}  // namespace mahimahi::experiment
