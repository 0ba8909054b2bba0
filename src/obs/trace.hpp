#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace mahimahi::obs {

/// Which layer of the stack emitted an event. Layers double as filter keys
/// in `mm_trace dump` and as thread lanes in the Chrome-trace export.
enum class Layer : std::uint8_t {
  kLink,
  kTcp,
  kDns,
  kFault,
  kBrowser,
  /// Experiment-runner lifecycle: journal appends/replays, watchdog
  /// expiries, cancelled tasks, worker retries. Watchdog events land in
  /// the task's own cell trace; the rest describe work *around* the
  /// simulations and are exported to the journal's events.csv instead, so
  /// resumed cell artifacts stay byte-identical to an uninterrupted run.
  kRunner,
};

/// What happened. One flat enum across layers keeps TraceEvent a single
/// compact struct; the Layer field disambiguates homonyms.
enum class EventKind : std::uint8_t {
  // link (label = "direction/reason" for drops, "direction" otherwise;
  // value = instantaneous queue depth in packets, metric = depth in bytes)
  kEnqueue,
  kDequeue,
  kDrop,
  // tcp (flow = tracer-allocated connection id)
  kTcpConnect,      // SYN sent / accepted (label = peer address)
  kTcpEstablished,  // handshake completed
  kTcpCwndSample,   // once per RTT sample: metric = cwnd bytes,
                    // value = ssthresh bytes (0 when still infinite)
  kTcpRttSample,    // metric = srtt ms, value = raw sample us
  kTcpRetransmit,   // fast/recovery retransmit, value = sequence number
  kTcpRto,          // retransmission timeout fired, value = consecutive RTOs
  kTcpClose,        // label = typed CloseReason string
  // dns (label = hostname)
  kDnsQuery,
  kDnsRetransmit,
  kDnsAnswer,  // value = 1 resolved / 0 failed
  // fault injections (label = "injector/detail", value = injector's own
  // event index within its decision stream)
  kFaultInjected,
  // browser (label = url; object spans live in ObjectRecord instead)
  kFetchStart,
  kFetchRetry,    // value = attempt number just failed
  kFetchTimeout,  // deadline expiry, value = attempt number
  // runner (label = task label "cell<i>/load<j>" or "cell<i>/probe";
  // value = global cell index)
  kJournalAppend,    // task result durably journaled
  kJournalReplay,    // task satisfied from the journal on --resume
  kWatchdogExpired,  // virtual-time deadline tripped; metric = deadline ms
  kTaskCancelled,    // task skipped after a cancellation request
  kTaskRetry,        // transient worker failure retried; value = attempt
};

[[nodiscard]] std::string_view to_string(Layer layer);
[[nodiscard]] std::string_view to_string(EventKind kind);

/// Reverse lookups for the CSV trace format (obs::parse_trace_csv).
/// Homonym kinds ("connect" names kTcpConnect only) resolve through the
/// same to_string table, so round-trips are exact. false = unknown name.
[[nodiscard]] bool layer_from_string(std::string_view name, Layer& layer);
[[nodiscard]] bool kind_from_string(std::string_view name, EventKind& kind);

/// One virtual-time-stamped point event. Events are recorded in event-loop
/// dispatch order, which is deterministic per simulation, so a buffer's
/// byte serialization is part of the determinism contract.
struct TraceEvent {
  Microseconds at{0};
  Layer layer{Layer::kBrowser};
  EventKind kind{EventKind::kFetchStart};
  /// Session index within the trace: the load's session (0 for single
  /// -session loads, the global fleet index in a mux, -1 for shared
  /// infrastructure that belongs to no one session).
  std::int32_t session{0};
  std::uint64_t flow{0};   // connection id, 0 = n/a
  std::uint64_t value{0};  // kind-specific integer payload
  double metric{0};        // kind-specific scalar payload
  std::string label;       // kind-specific tag (direction, url, reason...)
};

/// Per-object waterfall: the browser fills phases in as they happen.
/// Unset phases stay -1 (HAR's "not applicable" convention). On a retry
/// the per-attempt phases (request_sent onward) are overwritten by the
/// attempt that finally completes; fetch_start keeps the first attempt.
struct ObjectRecord {
  std::string url;
  std::string kind;  // resource kind ("html", "css"...), known at response
  std::int32_t session{0};
  Microseconds fetch_start{-1};
  Microseconds dns_start{-1};
  Microseconds dns_done{-1};
  /// Handshake completion of a connection this object waited on; -1 when
  /// every attempt rode an already-warm connection (HAR's "connect": -1).
  /// A multiplexed request queued pre-connect keeps its queue-time
  /// request_sent, so connect_done may exceed request_sent there.
  Microseconds connect_done{-1};
  Microseconds request_sent{-1};
  Microseconds first_byte{-1};
  Microseconds complete{-1};
  std::uint64_t bytes{0};
  std::uint32_t status{0};
  std::uint32_t attempts{1};
  bool failed{false};
  std::string error;  // terminal error for failed objects
};

/// One page load, the HAR "page" unit.
struct PageRecord {
  std::int32_t session{0};
  std::string url;
  Microseconds started_at{0};
  Microseconds plt{0};
  Microseconds degraded_plt{0};
  bool success{false};
};

/// Everything one load produced. Buffers are plain values: the experiment
/// runner keeps one per (cell, load) task and, once the cell's last task
/// finishes, merges them by load index, so the merged artifact is
/// independent of thread/shard scheduling.
struct TraceBuffer {
  std::vector<TraceEvent> events;
  std::vector<ObjectRecord> objects;
  std::vector<PageRecord> pages;

  [[nodiscard]] bool empty() const {
    return events.empty() && objects.empty() && pages.empty();
  }
};

/// Collects events for ONE deterministic simulation (one load task, or one
/// whole shared-world mux — an indivisible simulation traces into a single
/// buffer). Not thread-safe; parallel tasks each own a Tracer, matching
/// the repo's one-Rng-per-task convention.
///
/// Every instrumented component takes a `Tracer*` and treats nullptr as
/// "tracing off" — the disabled path is a pointer test, pinned near-free
/// by bench_trace_overhead. Recording only appends: metrics are derived
/// from the finished buffer (obs::derive_metrics), never counted live.
class Tracer {
 public:
  void record(TraceEvent event) { buffer_.events.push_back(std::move(event)); }

  void event(Microseconds at, Layer layer, EventKind kind,
             std::int32_t session, std::uint64_t flow, std::uint64_t value,
             double metric, std::string label) {
    record(TraceEvent{at, layer, kind, session, flow, value, metric,
                      std::move(label)});
  }

  /// Connection ids, handed out in construction order — deterministic
  /// because construction order is simulation order.
  [[nodiscard]] std::uint64_t allocate_flow_id() { return ++last_flow_id_; }

  /// Find-or-create the waterfall record for (session, url). Objects are
  /// unique per session within one load (the browser dedupes URLs).
  ObjectRecord& object(std::int32_t session, const std::string& url);

  /// Lookup without creating; nullptr when the object was never fetched.
  [[nodiscard]] ObjectRecord* find_object(std::int32_t session,
                                          const std::string& url);

  void page(PageRecord record) {
    buffer_.pages.push_back(std::move(record));
  }

  [[nodiscard]] const TraceBuffer& buffer() const { return buffer_; }

  /// Move the buffer out (runner harvest); the tracer is then spent.
  [[nodiscard]] TraceBuffer take() { return std::move(buffer_); }

 private:
  TraceBuffer buffer_;
  std::map<std::pair<std::int32_t, std::string>, std::size_t> object_index_;
  std::uint64_t last_flow_id_{0};
};

}  // namespace mahimahi::obs
