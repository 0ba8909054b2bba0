#include "net/bulk_probe.hpp"

#include <memory>

#include "cc/registry.hpp"
#include "net/element.hpp"
#include "net/event_loop.hpp"
#include "net/fabric.hpp"
#include "net/link.hpp"
#include "net/tcp.hpp"
#include "trace/synthesis.hpp"
#include "util/random.hpp"
#include "util/statistics.hpp"

namespace mahimahi::net {

BulkFlowReport run_bulk_flow(const BulkFlowSpec& spec) {
  EventLoop loop;
  loop.set_event_limit(50'000'000);
  Fabric fabric{loop};
  fabric.chain().push_back(
      std::make_unique<DelayBox>(loop, spec.one_way_delay));
  auto link = std::make_unique<TraceLink>(
      loop, trace::constant_rate(spec.link_mbps * 1e6, spec.trace_duration),
      trace::constant_rate(spec.link_mbps * 1e6, spec.trace_duration));
  TraceLink& link_ref = *link;
  link_ref.enable_summary(Direction::kUplink);  // the client sends
  fabric.chain().push_back(std::move(link));
  if (spec.loss > 0) {
    fabric.chain().push_back(std::make_unique<LossBox>(
        util::Rng{spec.loss_seed}, spec.loss, spec.loss));
  }

  const Address server_addr{Ipv4{10, 0, 0, 1}, 80};
  std::size_t received = 0;
  std::shared_ptr<TcpConnection> server_conn;  // keeps the acceptee alive
  TcpListener listener{fabric, server_addr,
                       [&](const std::shared_ptr<TcpConnection>& conn) {
                         server_conn = conn;
                         TcpConnection::Callbacks cb;
                         cb.on_data = [&received](std::string_view b) {
                           received += b.size();
                         };
                         cb.on_peer_close = [raw = conn.get()] {
                           raw->close();
                         };
                         return cb;
                       }};
  TcpConnection::Config config;
  config.congestion_control = spec.congestion_control;
  TcpClient client{fabric, server_addr, {}, config};
  client.connection().send(std::string(spec.bytes, 'x'));
  client.connection().close();
  loop.run();

  const TcpConnection& conn = client.connection();
  BulkFlowReport report;
  report.complete = received == spec.bytes;
  report.completed_at = loop.now();
  report.segments_sent = conn.segments_sent();
  report.retransmissions = conn.retransmissions();
  report.controller = std::string{conn.congestion().name()};
  report.final_srtt = conn.smoothed_rtt();
  report.final_cwnd_bytes = conn.cwnd_bytes();
  report.final_pacing_rate = conn.congestion().pacing_rate();
  report.close_reason = conn.close_reason();
  report.uplink = link_ref.summary(Direction::kUplink);
  return report;
}

MultiBulkFlowReport run_multi_bulk_flow(const MultiBulkFlowSpec& spec) {
  // Senders keep at most kHighWater unacked bytes buffered, topping up in
  // kChunk pieces — enough to keep any bottleneck here saturated without
  // queueing unbounded payload in memory. Every top-up aliases the one
  // shared chunk (a reference-count bump, see the Payload contract).
  constexpr std::size_t kChunk = 128 * 1024;
  constexpr std::size_t kHighWater = 512 * 1024;
  const std::size_t n = spec.controllers.size();

  EventLoop loop;
  loop.set_event_limit(200'000'000);
  Fabric fabric{loop};
  fabric.chain().push_back(
      std::make_unique<DelayBox>(loop, spec.one_way_delay));
  const trace::PacketTrace up =
      spec.uplink_trace ? *spec.uplink_trace
                        : trace::constant_rate(spec.link_mbps * 1e6, 2'000'000);
  const trace::PacketTrace down =
      spec.downlink_trace
          ? *spec.downlink_trace
          : trace::constant_rate(spec.link_mbps * 1e6, 2'000'000);
  // Same discipline both ways, but distinct AQM drop coins per direction.
  QueueSpec uplink_queue = spec.queue;
  uplink_queue.pie_seed = spec.queue.pie_seed ^ 0x5EED;
  auto link =
      std::make_unique<TraceLink>(loop, up, down, uplink_queue, spec.queue);
  TraceLink& link_ref = *link;
  link_ref.enable_summary(Direction::kDownlink);  // the contested direction
  fabric.chain().push_back(std::move(link));
  if (spec.loss > 0) {
    fabric.chain().push_back(std::make_unique<LossBox>(
        util::Rng{spec.loss_seed}, spec.loss, spec.loss));
  }

  const Payload chunk{std::make_shared<const std::string>(kChunk, 'x')};
  bool measuring = true;  // senders stop topping up once the window closes
  std::vector<std::shared_ptr<TcpConnection>> senders(n);
  std::vector<std::unique_ptr<TcpListener>> listeners;
  std::vector<std::unique_ptr<TcpClient>> clients(n);
  listeners.reserve(n);

  for (std::size_t i = 0; i < n; ++i) {
    const Address server_addr{Ipv4{10, 0, 0, 1},
                              static_cast<std::uint16_t>(8000 + i)};
    TcpConnection::Config server_config;
    server_config.congestion_control = spec.controllers[i];
    listeners.push_back(std::make_unique<TcpListener>(
        fabric, server_addr,
        [&, i](const std::shared_ptr<TcpConnection>& conn) {
          senders[i] = conn;
          // Keep the pipe full: a top-up on every ack while measuring.
          const auto top_up = [&measuring, &loop, &spec, &chunk,
                               raw = conn.get()] {
            if (!measuring || loop.now() >= spec.duration) {
              return;
            }
            while (raw->established() &&
                   raw->unacked_send_bytes() < kHighWater) {
              raw->send(chunk);
            }
          };
          TcpConnection::Callbacks cb;
          cb.on_connected = top_up;
          cb.on_send_progress = top_up;
          return cb;
        },
        server_config));
  }

  // Clients (receivers) open at i * start_stagger; they never send payload.
  const auto open_client = [&](std::size_t i) {
    const Address server_addr{Ipv4{10, 0, 0, 1},
                              static_cast<std::uint16_t>(8000 + i)};
    clients[i] = std::make_unique<TcpClient>(fabric, server_addr,
                                             TcpConnection::Callbacks{},
                                             TcpConnection::Config{});
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Microseconds at =
        static_cast<Microseconds>(i) * spec.start_stagger;
    if (at <= 0) {
      open_client(i);
    } else {
      loop.schedule_at(at, [&open_client, i] { open_client(i); });
    }
  }

  // Close of the measurement window: snapshot, then tear everything down
  // so the loop drains (in-flight packets die against unbound addresses).
  MultiBulkFlowReport report;
  report.flows.resize(n);
  loop.schedule_at(spec.duration, [&] {
    measuring = false;
    for (std::size_t i = 0; i < n; ++i) {
      MultiBulkFlowReport::Flow& flow = report.flows[i];
      flow.controller = spec.controllers[i].empty() ? cc::kDefaultController
                                                    : spec.controllers[i];
      if (senders[i] != nullptr) {
        flow.controller = std::string{senders[i]->congestion().name()};
        flow.final_srtt = senders[i]->smoothed_rtt();
        flow.final_cwnd_bytes = senders[i]->cwnd_bytes();
        flow.retransmissions = senders[i]->retransmissions();
      }
      if (clients[i] != nullptr) {
        flow.bytes_delivered = clients[i]->connection().bytes_received_app();
      }
      flow.throughput_bps = spec.duration > 0
                                ? static_cast<double>(flow.bytes_delivered) *
                                      8e6 /
                                      static_cast<double>(spec.duration)
                                : 0.0;
    }
    for (auto& sender : senders) {
      if (sender != nullptr) {
        sender->abort();
      }
    }
    for (auto& client : clients) {
      if (client != nullptr) {
        client->connection().abort();
      }
    }
  });
  loop.run();

  std::uint64_t total_bytes = 0;
  std::vector<double> throughputs;
  throughputs.reserve(n);
  for (const auto& flow : report.flows) {
    total_bytes += flow.bytes_delivered;
    throughputs.push_back(flow.throughput_bps);
  }
  for (auto& flow : report.flows) {
    flow.share = total_bytes > 0 ? static_cast<double>(flow.bytes_delivered) /
                                       static_cast<double>(total_bytes)
                                 : 0.0;
  }
  report.jain_index = util::jain_fairness_index(throughputs);
  report.bottleneck = link_ref.summary(Direction::kDownlink);
  return report;
}

}  // namespace mahimahi::net
