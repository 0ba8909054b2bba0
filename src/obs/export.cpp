#include "obs/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <utility>

#include "util/json.hpp"

namespace mahimahi::obs {
namespace {

// Every number serializes through util/json's fixed-precision and integer
// formatters, so exported bytes are a pure function of the values, not of
// locale or shortest-round-trip quirks.
using util::append;
using util::Escaped;
using util::Fixed;

// ---- Chrome trace ---------------------------------------------------------

// Thread lane for (session, layer): shared infrastructure (session -1)
// gets lanes 0..4, session s gets lanes (s+1)*8 + layer.
std::int64_t lane(std::int32_t session, Layer layer) {
  const auto layer_index = static_cast<std::int64_t>(layer);
  return (static_cast<std::int64_t>(session) + 1) * 8 + layer_index;
}

/// Records of a JSON array, one per line: ",\n" before all but the first.
void separate(std::string& out, bool& first) {
  if (!first) {
    out += ",\n";
  }
  first = false;
}

void append_event_json(std::string& out, int pid, const TraceEvent& event) {
  const std::int64_t tid = lane(event.session, event.layer);
  switch (event.kind) {
    case EventKind::kEnqueue:
    case EventKind::kDequeue:
      // Queue depth as a counter track named after the queue.
      append(out, R"({"name":"queue )", Escaped{event.label},
             R"(","ph":"C","pid":)", pid, R"(,"tid":)", tid, R"(,"ts":)",
             event.at, R"(,"args":{"packets":)", event.value, R"(,"bytes":)",
             Fixed{event.metric, 0}, "}}");
      return;
    case EventKind::kTcpCwndSample:
      append(out, R"({"name":"cwnd flow )", event.flow,
             R"(","ph":"C","pid":)", pid, R"(,"tid":)", tid, R"(,"ts":)",
             event.at, R"(,"args":{"cwnd":)", Fixed{event.metric, 0},
             R"(,"ssthresh":)", event.value, "}}");
      return;
    case EventKind::kTcpRttSample:
      append(out, R"({"name":"srtt flow )", event.flow,
             R"(","ph":"C","pid":)", pid, R"(,"tid":)", tid, R"(,"ts":)",
             event.at, R"(,"args":{"srtt_ms":)", Fixed{event.metric, 3},
             "}}");
      return;
    default:
      break;
  }
  // Everything else is an instant with the full payload in args.
  append(out, R"({"name":")", to_string(event.kind),
         R"(","ph":"i","s":"t","pid":)", pid, R"(,"tid":)", tid, R"(,"ts":)",
         event.at, R"(,"args":{"label":")", Escaped{event.label},
         R"(","flow":)", event.flow, R"(,"value":)", event.value,
         R"(,"metric":)", Fixed{event.metric, 3}, "}}");
}

void append_object_span(std::string& out, int pid, const ObjectRecord& o) {
  const Microseconds start = o.fetch_start >= 0 ? o.fetch_start : 0;
  const Microseconds end = o.complete >= 0 ? o.complete : start;
  append(out, R"({"name":")", Escaped{o.url}, R"(","cat":"object","ph":"X")",
         R"(,"pid":)", pid, R"(,"tid":)", lane(o.session, Layer::kBrowser),
         R"(,"ts":)", start, R"(,"dur":)", end - start,
         R"(,"args":{"kind":")", Escaped{o.kind}, R"(","status":)", o.status,
         R"(,"bytes":)", o.bytes, R"(,"attempts":)", o.attempts,
         R"(,"failed":)", o.failed ? "true" : "false", R"(,"dns_start":)",
         o.dns_start, R"(,"dns_done":)", o.dns_done, R"(,"connect_done":)",
         o.connect_done, R"(,"request_sent":)", o.request_sent,
         R"(,"first_byte":)", o.first_byte, R"(,"error":")", Escaped{o.error},
         R"("}})");
}

void append_page_span(std::string& out, int pid, const PageRecord& p) {
  append(out, R"({"name":"page )", Escaped{p.url},
         R"(","cat":"page","ph":"X","pid":)", pid, R"(,"tid":)",
         lane(p.session, Layer::kBrowser), R"(,"ts":)", p.started_at,
         R"(,"dur":)", p.plt, R"(,"args":{"success":)",
         p.success ? "true" : "false", R"(,"degraded_plt_ms":)",
         Fixed{to_ms(p.degraded_plt), 3}, "}}");
}

// ---- HAR ------------------------------------------------------------------

// Deterministic fake epoch: virtual time 0 maps to this instant (the
// SIGCOMM '14 presentation week). Real wall time never enters a trace.
constexpr const char* kEpochPrefix = "2014-08-";
constexpr int kEpochDay = 17;

std::string iso_date(Microseconds at) {
  if (at < 0) {
    at = 0;
  }
  const std::int64_t total_ms = at / 1000;
  const std::int64_t ms = total_ms % 1000;
  const std::int64_t total_s = total_ms / 1000;
  const std::int64_t s = total_s % 60;
  const std::int64_t total_min = total_s / 60;
  const std::int64_t min = total_min % 60;
  const std::int64_t total_h = total_min / 60;
  const std::int64_t h = total_h % 24;
  const std::int64_t day = kEpochDay + total_h / 24;  // August has 31 days;
  // virtual loads never span two weeks, so no month rollover in practice.
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer),
                "%s%02" PRId64 "T%02" PRId64 ":%02" PRId64 ":%02" PRId64
                ".%03" PRId64 "Z",
                kEpochPrefix, day, h, min, s, ms);
  return buffer;
}

void append_har_page_id(std::string& out, int load_index,
                        std::int32_t session) {
  append(out, "load", load_index, ".s", session);
}

// Phase duration in ms, or fallback when a boundary was never reached.
double span_ms(Microseconds from, Microseconds to, double fallback) {
  if (from < 0 || to < 0 || to < from) {
    return fallback;
  }
  return to_ms(to - from);
}

}  // namespace

std::string to_chrome_trace(const TraceMeta& meta,
                            const std::vector<LoadTrace>& loads) {
  std::string out;
  out.reserve(1 << 16);
  append(out, R"({"displayTimeUnit":"ms","otherData":{"experiment":")",
         Escaped{meta.experiment}, R"(","cell":")", Escaped{meta.cell_label},
         R"(","cell_index":)", meta.cell_index, R"(,"cell_seed":)",
         meta.cell_seed, R"(},"traceEvents":[)");
  bool first = true;
  for (const LoadTrace& load : loads) {
    const int pid = load.load_index;
    separate(out, first);
    append(out, R"({"name":"process_name","ph":"M","pid":)", pid,
           R"(,"args":{"name":"load )", pid, R"("}})");
    // Name each (session, layer) lane that actually carries events. An
    // ordered map keeps metadata order deterministic.
    std::map<std::int64_t, std::pair<std::int32_t, Layer>> lanes;
    const auto use_lane = [&](std::int32_t session, Layer layer) {
      lanes.emplace(lane(session, layer), std::pair{session, layer});
    };
    for (const TraceEvent& event : load.buffer.events) {
      use_lane(event.session, event.layer);
    }
    for (const ObjectRecord& object : load.buffer.objects) {
      use_lane(object.session, Layer::kBrowser);
    }
    for (const PageRecord& page : load.buffer.pages) {
      use_lane(page.session, Layer::kBrowser);
    }
    for (const auto& [tid, owner] : lanes) {
      separate(out, first);
      append(out, R"({"name":"thread_name","ph":"M","pid":)", pid,
             R"(,"tid":)", tid, R"(,"args":{"name":")");
      // "shared:<layer>" for infrastructure, "s<session>:<layer>" otherwise.
      if (owner.first < 0) {
        out += "shared";
      } else {
        append(out, "s", owner.first);
      }
      append(out, ":", to_string(owner.second), R"("}})");
    }
    for (const TraceEvent& event : load.buffer.events) {
      separate(out, first);
      append_event_json(out, pid, event);
    }
    for (const ObjectRecord& object : load.buffer.objects) {
      separate(out, first);
      append_object_span(out, pid, object);
    }
    for (const PageRecord& page : load.buffer.pages) {
      separate(out, first);
      append_page_span(out, pid, page);
    }
  }
  out += "]}\n";
  return out;
}

std::string to_har(const TraceMeta& meta, const std::vector<LoadTrace>& loads) {
  std::string out;
  out.reserve(1 << 16);
  append(out, R"({"log":{"version":"1.2","creator":{"name":"mahimahi-obs",)",
         R"("version":"1"},"comment":"experiment=)", Escaped{meta.experiment},
         " cell=", meta.cell_index, " label=", Escaped{meta.cell_label},
         " seed=", meta.cell_seed, R"(","pages":[)");
  bool first = true;
  for (const LoadTrace& load : loads) {
    for (const PageRecord& page : load.buffer.pages) {
      separate(out, first);
      append(out, R"({"startedDateTime":")", iso_date(page.started_at),
             R"(","id":")");
      append_har_page_id(out, load.load_index, page.session);
      append(out, R"(","title":")", Escaped{page.url},
             R"(","pageTimings":{"onContentLoad":-1,"onLoad":)",
             Fixed{to_ms(page.plt), 3}, R"(},"_success":)",
             page.success ? "true" : "false", R"(,"_degraded_plt_ms":)",
             Fixed{to_ms(page.degraded_plt), 3}, "}");
    }
  }
  out += R"(],"entries":[)";
  first = true;
  for (const LoadTrace& load : loads) {
    for (const ObjectRecord& o : load.buffer.objects) {
      separate(out, first);
      const Microseconds start = o.fetch_start >= 0 ? o.fetch_start : 0;
      const Microseconds end = o.complete >= 0 ? o.complete : start;
      const double total_ms = to_ms(end - start);
      const double dns_ms = span_ms(o.dns_start, o.dns_done, -1.0);
      // Connect counts from name resolution (or fetch start) to handshake
      // completion; blocked then covers handshake→request. A multiplexed
      // request queued pre-connect timestamps "sent" at queue time, so its
      // connect_done can exceed request_sent — that inversion falls back
      // to the pre-connect accounting (connect -1, whole gap blocked).
      double connect_ms = -1.0;
      double blocked_ms = span_ms(o.dns_done, o.request_sent, -1.0);
      if (o.connect_done >= 0 && o.connect_done <= o.request_sent) {
        const Microseconds connect_from =
            o.dns_done >= 0 ? o.dns_done : o.fetch_start;
        connect_ms = span_ms(connect_from, o.connect_done, -1.0);
        blocked_ms = span_ms(o.connect_done, o.request_sent, -1.0);
      }
      // wait = request to first response byte; receive = rest of the
      // body. Without a first-byte mark (multiplexed transports) the whole
      // response interval counts as wait and receive is 0.
      double wait_ms = 0;
      double receive_ms = 0;
      if (o.request_sent >= 0) {
        if (o.first_byte >= 0) {
          wait_ms = span_ms(o.request_sent, o.first_byte, 0.0);
          receive_ms = span_ms(o.first_byte, end, 0.0);
        } else {
          wait_ms = span_ms(o.request_sent, end, 0.0);
        }
      }
      out += R"({"pageref":")";
      append_har_page_id(out, load.load_index, o.session);
      append(out, R"(","startedDateTime":")", iso_date(o.fetch_start),
             R"(","time":)", Fixed{total_ms, 3},
             R"(,"request":{"method":"GET","url":")", Escaped{o.url},
             R"(","httpVersion":"HTTP/1.1","cookies":[],"headers":[],)",
             R"("queryString":[],"headersSize":-1,"bodySize":0},)",
             R"("response":{"status":)", o.status,
             R"(,"statusText":"","httpVersion":"HTTP/1.1","cookies":[],)",
             R"("headers":[],"content":{"size":)", o.bytes,
             R"(,"mimeType":")", Escaped{o.kind},
             R"("},"redirectURL":"","headersSize":-1,"bodySize":)", o.bytes,
             R"(},"cache":{},"timings":{"blocked":)", Fixed{blocked_ms, 3},
             R"(,"dns":)", Fixed{dns_ms, 3}, R"(,"connect":)",
             Fixed{connect_ms, 3}, R"(,"ssl":-1,"send":0,"wait":)",
             Fixed{wait_ms, 3}, R"(,"receive":)", Fixed{receive_ms, 3},
             R"(},"_attempts":)", o.attempts, R"(,"_failed":)",
             o.failed ? "true" : "false", R"(,"_error":")", Escaped{o.error},
             R"("})");
    }
  }
  out += "]}}\n";
  return out;
}

std::string csv_field(std::string_view text) {
  std::string field{text};
  for (char& c : field) {
    if (c == ',' || c == '\n' || c == '\r') {
      c = ';';
    }
  }
  return field;
}

std::string to_csv(const TraceMeta& meta, const std::vector<LoadTrace>& loads) {
  std::string out;
  out.reserve(1 << 16);
  append(out, "# mahimahi-obs-trace-v1 experiment=", csv_field(meta.experiment),
         " cell=", meta.cell_index, " label=", csv_field(meta.cell_label),
         " seed=", meta.cell_seed, "\n");
  out += "load,session,t_us,layer,kind,flow,value,metric,label,detail\n";
  for (const LoadTrace& load : loads) {
    const int index = load.load_index;
    for (const TraceEvent& e : load.buffer.events) {
      append(out, index, ",", e.session, ",", e.at, ",", to_string(e.layer),
             ",", to_string(e.kind), ",", e.flow, ",", e.value, ",",
             Fixed{e.metric, 6}, ",", csv_field(e.label), ",\n");
    }
    for (const ObjectRecord& o : load.buffer.objects) {
      const Microseconds start = o.fetch_start >= 0 ? o.fetch_start : 0;
      const Microseconds end = o.complete >= 0 ? o.complete : start;
      append(out, index, ",", o.session, ",", start, ",browser,object,0,",
             o.bytes, ",", Fixed{to_ms(end - start), 6}, ",",
             csv_field(o.url), ",kind=", csv_field(o.kind), ";status=",
             o.status, ";attempts=", o.attempts,
             ";failed=", o.failed ? "1" : "0", ";dns_start_us=", o.dns_start,
             ";dns_done_us=", o.dns_done, ";connect_us=", o.connect_done,
             ";request_us=", o.request_sent, ";first_byte_us=", o.first_byte,
             ";complete_us=", o.complete, ";error=", csv_field(o.error),
             "\n");
    }
    for (const PageRecord& p : load.buffer.pages) {
      append(out, index, ",", p.session, ",", p.started_at,
             ",browser,page,0,", p.success ? "1" : "0", ",",
             Fixed{to_ms(p.plt), 6}, ",", csv_field(p.url), ",degraded_ms=",
             Fixed{to_ms(p.degraded_plt), 3}, "\n");
    }
  }
  return out;
}

}  // namespace mahimahi::obs
