// Microbenchmarks for the substrate: HTTP parsing, request matching,
// queue disciplines, the event loop, and trace-driven link forwarding.
// These are google-benchmark timings of the host code itself (wall time),
// not simulated-time results.

#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "bench/common.hpp"
#include "http/parser.hpp"
#include "net/element.hpp"
#include "net/event_loop.hpp"
#include "net/fabric.hpp"
#include "net/link.hpp"
#include "net/queue.hpp"
#include "net/tcp.hpp"
#include "record/serialize.hpp"
#include "replay/matcher.hpp"
#include "trace/synthesis.hpp"
#include "util/random.hpp"

namespace {

using namespace mahimahi;
using namespace mahimahi::literals;

std::string make_response_wire(std::size_t body_bytes) {
  http::Response response = http::make_ok(std::string(body_bytes, 'x'));
  return http::to_bytes(response);
}

void BM_ResponseParser(benchmark::State& state) {
  const std::string wire = make_response_wire(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    http::ResponseParser parser;
    parser.notify_request(http::Method::kGet);
    parser.push(wire);
    benchmark::DoNotOptimize(parser.pop());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_ResponseParser)->Arg(1 << 10)->Arg(64 << 10)->Arg(1 << 20);

void BM_RequestParserPipelined(benchmark::State& state) {
  std::string wire;
  for (int i = 0; i < state.range(0); ++i) {
    wire += http::to_bytes(
        http::make_get("http://host.test/obj" + std::to_string(i)));
  }
  for (auto _ : state) {
    http::RequestParser parser;
    parser.push(wire);
    while (parser.has_message()) {
      benchmark::DoNotOptimize(parser.pop());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RequestParserPipelined)->Arg(1)->Arg(16)->Arg(128);

record::RecordStore corpus_store(int exchanges) {
  record::RecordStore store;
  util::Rng rng{42};
  for (int i = 0; i < exchanges; ++i) {
    record::RecordedExchange exchange;
    exchange.request = http::make_get(
        "http://host" + std::to_string(i % 20) + ".test/asset" +
        std::to_string(i) + "?v=" + std::to_string(rng.uniform_int(1, 5)));
    exchange.response = http::make_ok(std::string(1000, 'b'));
    exchange.server_address =
        net::Address{net::Ipv4{10, 0, 0, static_cast<std::uint8_t>(1 + i % 20)}, 80};
    store.add(std::move(exchange));
  }
  return store;
}

void BM_MatcherLookup(benchmark::State& state) {
  const auto store = corpus_store(static_cast<int>(state.range(0)));
  const replay::Matcher matcher{store};
  const auto request = http::make_get("http://host3.test/asset43?v=9");
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.find(request));
  }
}
BENCHMARK(BM_MatcherLookup)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ExchangeSerializeRoundTrip(benchmark::State& state) {
  record::RecordedExchange exchange;
  exchange.request = http::make_get("http://host.test/page?a=1");
  exchange.response =
      http::make_ok(std::string(static_cast<std::size_t>(state.range(0)), 'x'));
  exchange.server_address = net::Address{net::Ipv4{10, 0, 0, 1}, 80};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        record::decode_exchange(record::encode_exchange(exchange)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ExchangeSerializeRoundTrip)->Arg(1 << 10)->Arg(64 << 10);

void BM_DropTailQueue(benchmark::State& state) {
  net::DropTailQueue queue{1024, 0};
  net::Packet packet;
  packet.tcp.payload = std::string(1400, 'x');
  for (auto _ : state) {
    net::Packet p = packet;
    queue.enqueue(std::move(p), 0);
    benchmark::DoNotOptimize(queue.dequeue(0));
  }
}
BENCHMARK(BM_DropTailQueue);

void BM_CoDelQueue(benchmark::State& state) {
  net::CoDelQueue queue;
  net::Packet packet;
  packet.tcp.payload = std::string(1400, 'x');
  Microseconds now = 0;
  for (auto _ : state) {
    net::Packet p = packet;
    queue.enqueue(std::move(p), now);
    benchmark::DoNotOptimize(queue.dequeue(now + 100));
    now += 100;
  }
}
BENCHMARK(BM_CoDelQueue);

void BM_EventLoopScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    net::EventLoop loop;
    int counter = 0;
    for (int i = 0; i < state.range(0); ++i) {
      loop.schedule_at(i, [&counter] { ++counter; });
    }
    loop.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EventLoopScheduleRun)->Arg(1000)->Arg(100000);

void BM_TraceLinkForwarding(benchmark::State& state) {
  // Cost of pushing packets through a 1000 Mbit/s trace-driven link.
  for (auto _ : state) {
    net::EventLoop loop;
    net::LinkQueue link{loop, trace::constant_rate(1e9, 1_s),
                        std::make_unique<net::InfiniteQueue>(),
                        [](net::Packet&&) {}};
    for (int i = 0; i < state.range(0); ++i) {
      net::Packet packet;
      packet.tcp.payload = std::string(1400, 'x');
      link.accept(std::move(packet));
    }
    loop.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TraceLinkForwarding)->Arg(1000);

void BM_EventLoopScheduleCancelRun(benchmark::State& state) {
  // The timer-heavy cycle: schedule a batch, cancel half (the fate of most
  // retransmission timers), run the survivors.
  const int n = static_cast<int>(state.range(0));
  std::vector<net::EventLoop::EventId> ids;
  ids.reserve(static_cast<std::size_t>(n));
  for (auto _ : state) {
    net::EventLoop loop;
    int counter = 0;
    ids.clear();
    for (int i = 0; i < n; ++i) {
      ids.push_back(loop.schedule_at(i, [&counter] { ++counter; }));
    }
    for (int i = 0; i < n; i += 2) {
      loop.cancel(ids[static_cast<std::size_t>(i)]);
    }
    loop.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_EventLoopScheduleCancelRun)->Arg(1000)->Arg(100000);

void BM_EventLoopTimerChurn(benchmark::State& state) {
  // TCP's arm/disarm pattern: every event re-arms a far-future RTO that is
  // almost always cancelled before it fires.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    net::EventLoop loop;
    int remaining = n;
    net::EventLoop::EventId rto = 0;
    std::function<void()> rearm = [&] {
      if (rto != 0) {
        loop.cancel(rto);
      }
      rto = loop.schedule_in(200'000, [] {});
      if (--remaining > 0) {
        loop.schedule_in(10, [&rearm] { rearm(); });
      }
    };
    loop.schedule_at(0, [&rearm] { rearm(); });
    loop.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_EventLoopTimerChurn)->Arg(10000);

void BM_EventLoopTimerRearm(benchmark::State& state) {
  // BM_EventLoopTimerChurn's pattern through EventLoop::rearm, as TCP arms
  // its RTO: the far-future timer is deferred in place, not replaced.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    net::EventLoop loop;
    int remaining = n;
    net::EventLoop::EventId rto = 0;
    std::function<void()> rearm = [&] {
      loop.rearm(rto, loop.now() + 200'000, [] {});
      if (--remaining > 0) {
        loop.schedule_in(10, [&rearm] { rearm(); });
      }
    };
    loop.schedule_at(0, [&rearm] { rearm(); });
    loop.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_EventLoopTimerRearm)->Arg(10000);

void BM_LinkForwardingFullQueue(benchmark::State& state) {
  // A saturated bottleneck: arrivals outpace a 100 Mbit/s link with a
  // bounded drop-tail queue, so most of the work is enqueue/drop/dequeue
  // against a full buffer.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    net::EventLoop loop;
    net::LinkQueue link{loop, trace::constant_rate(1e8, 1_s),
                        std::make_unique<net::DropTailQueue>(256, 0),
                        [](net::Packet&&) {}};
    net::Packet prototype;
    prototype.tcp.payload = std::string(1400, 'x');
    for (int i = 0; i < n; ++i) {
      net::Packet p = prototype;
      link.accept(std::move(p));
    }
    loop.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_LinkForwardingFullQueue)->Arg(4096);

void BM_DelayLineInFlight(benchmark::State& state) {
  // DelayShell + LinkShell's per-packet path: `range` packets kept in
  // flight through a 10 ms DelayBox (a packet channel) and a 1000 Mbit/s
  // trace link, each packet leaving the link re-entering the delay line.
  // One iteration is 10 ms of simulated time, about `range` packets
  // through each stage.
  net::EventLoop loop;
  net::DelayBox delay{loop, 10_ms};
  net::LinkQueue link{loop, trace::constant_rate(1e9, 1_s),
                      std::make_unique<net::InfiniteQueue>(),
                      [&delay](net::Packet&& p) {
                        delay.process(std::move(p), net::Direction::kUplink);
                      }};
  delay.set_forward(net::Direction::kUplink,
                    [&link](net::Packet&& p) { link.accept(std::move(p)); });
  for (int i = 0; i < state.range(0); ++i) {
    net::Packet packet;
    packet.tcp.payload = std::string(1400, 'x');
    delay.process(std::move(packet), net::Direction::kUplink);
  }
  for (auto _ : state) {
    loop.run_until(loop.now() + 10_ms);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(link.delivered_packets()));
}
BENCHMARK(BM_DelayLineInFlight)->Arg(256);

void BM_TcpBulkTransfer(benchmark::State& state) {
  // End-to-end substrate cost of a bulk TCP transfer over a 1 Gbit/s link:
  // handshake, segmentation, link forwarding, acks, teardown. Dominated by
  // per-segment payload handling, so it is the canary for copy costs.
  const std::size_t total_bytes = static_cast<std::size_t>(state.range(0));
  const net::Address server_addr{net::Ipv4{10, 0, 0, 1}, 80};
  std::uint64_t copied_payload_bytes = 0;
  for (auto _ : state) {
    net::EventLoop loop;
    net::Fabric fabric{loop};
    fabric.chain().push_back(std::make_unique<net::TraceLink>(
        loop, trace::constant_rate(1e9, 1_s), trace::constant_rate(1e9, 1_s)));
    std::size_t received = 0;
    net::TcpListener listener{
        fabric, server_addr,
        [&received](const std::shared_ptr<net::TcpConnection>& conn) {
          net::TcpConnection* raw = conn.get();
          net::TcpConnection::Callbacks cb;
          cb.on_data = [&received](std::string_view b) { received += b.size(); };
          cb.on_peer_close = [raw] { raw->close(); };
          return cb;
        }};
    net::TcpClient client{fabric, server_addr, {}};
    client.connection().send(std::string(total_bytes, 'x'));
    client.connection().close();
    loop.run();
    copied_payload_bytes += client.connection().payload_copy_bytes();
    if (received != total_bytes) {
      state.SkipWithError("short transfer");
      break;
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total_bytes));
  // Payload bytes the send path materialized (0 = every segment aliased
  // the send buffer) — the copy-elimination evidence next to bytes/s.
  state.counters["payload_copy_bytes"] = benchmark::Counter(
      static_cast<double>(copied_payload_bytes), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_TcpBulkTransfer)->Arg(1 << 20);

/// Console output as usual, plus every per-iteration result captured into
/// the PerfReport that becomes BENCH_substrate.json.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(mahimahi::bench::PerfReport& report)
      : report_{report} {}

  void ReportRuns(const std::vector<Run>& runs) override {
    // google-benchmark renamed Run::error_occurred to Run::skipped in
    // 1.8.0; probe for whichever member this library version has.
    constexpr auto run_errored = []<typename R>(const R& r) {
      if constexpr (requires { r.skipped; }) {
        return static_cast<bool>(r.skipped);
      } else {
        return static_cast<bool>(r.error_occurred);
      }
    };
    for (const Run& run : runs) {
      if (run_errored(run) || run.run_type != Run::RT_Iteration) {
        continue;
      }
      mahimahi::bench::PerfReport::Row row;
      row.name = run.benchmark_name();
      row.ns_per_op = run.GetAdjustedRealTime();
      if (const auto it = run.counters.find("items_per_second");
          it != run.counters.end()) {
        row.items_per_second = it->second;
      }
      if (const auto it = run.counters.find("bytes_per_second");
          it != run.counters.end()) {
        row.bytes_per_second = it->second;
      }
      report_.add(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  mahimahi::bench::PerfReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  mahimahi::bench::PerfReport report;
  JsonTeeReporter reporter{report};
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const char* out = std::getenv("MAHI_BENCH_JSON");
  report.write(out != nullptr ? out : "BENCH_substrate.json");
  return 0;
}
