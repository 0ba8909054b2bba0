#include "replay/origin_servers.hpp"

#include <set>
#include <stdexcept>

#include "cc/registry.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace mahimahi::replay {

OriginServerSet::OriginServerSet(net::Fabric& fabric,
                                 const record::RecordStore& store,
                                 Options options)
    : matcher_{store} {
  // Every server shares one handler: match against the whole corpus.
  const auto handler = [this](const http::Request& request) {
    return matcher_.respond(request);
  };

  const auto spawn = [&](const net::Address& address) {
    net::TcpConnection::Config tcp = options.tcp;
    if (!options.cc_fleet.empty()) {
      tcp.congestion_control =
          options.cc_fleet[server_controllers_.size() %
                           options.cc_fleet.size()];
    }
    server_controllers_.push_back(tcp.congestion_control.empty()
                                      ? std::string{cc::kDefaultController}
                                      : tcp.congestion_control);
    // Origin faults: each server decides per request via the plan, keyed
    // by its spawn index (deterministic: spawn order follows the store's
    // sorted distinct_servers()).
    net::ServerFaultHook fault_hook;
    if (options.fault.active() && options.fault.spec().origin.any()) {
      const std::size_t server_index = server_controllers_.size() - 1;
      fault_hook = [plan = options.fault,
                    server_index](std::uint64_t request_index) {
        return plan.server_fault(server_index, request_index);
      };
      if (options.tcp.tracer != nullptr) {
        // Tracing wrap: every injected origin fault becomes a fault-layer
        // event tagged with the injector ("origin/crash" or
        // "origin/stall"), the server's spawn index as the flow and the
        // request index as the decision-stream position.
        fault_hook = [inner = std::move(fault_hook),
                      tracer = options.tcp.tracer,
                      session = options.tcp.trace_session,
                      loop = &fabric.loop(),
                      server_index](std::uint64_t request_index) {
          const net::ServerFault fault = inner(request_index);
          if (fault.kind != net::ServerFault::Kind::kNone) {
            tracer->event(loop->now(), obs::Layer::kFault,
                          obs::EventKind::kFaultInjected, session,
                          server_index, request_index, 0,
                          fault.kind == net::ServerFault::Kind::kCrash
                              ? "origin/crash"
                              : "origin/stall");
          }
          return fault;
        };
      }
    }
    if (options.multiplexed) {
      servers_.push_back(std::make_unique<net::mux::MuxServer>(
          fabric, address, handler, options.processing_delay,
          net::mux::MuxServer::kDefaultChunkBytes, tcp));
    } else {
      auto server = std::make_unique<net::HttpServer>(
          fabric, address, handler, options.processing_delay, tcp);
      server->set_worker_pool(options.worker_pool);
      servers_.push_back(std::move(server));
    }
    if (fault_hook) {
      servers_.back()->set_fault_hook(std::move(fault_hook));
    }
  };

  if (options.single_server) {
    // One IP; one listener per distinct recorded port (80, 443, ...).
    std::set<std::uint16_t> ports;
    for (const auto& address : store.distinct_servers()) {
      ports.insert(address.port);
    }
    if (ports.empty()) {
      ports.insert(80);
    }
    for (const auto port : ports) {
      spawn(net::Address{options.single_server_ip, port});
    }
    for (const auto& [host, ip] : store.host_bindings()) {
      (void)ip;  // every name resolves to the single server
      dns_.add(host, options.single_server_ip);
    }
    MAHI_INFO("replay") << "single-server mode: " << server_count()
                        << " listener(s), " << dns_.size() << " DNS names";
    return;
  }

  // Multi-origin mode: mirror the recorded server topology exactly.
  for (const auto& address : store.distinct_servers()) {
    spawn(address);
  }
  for (const auto& [host, ip] : store.host_bindings()) {
    dns_.add(host, ip);
  }
  MAHI_INFO("replay") << "multi-origin mode: " << server_count()
                      << " servers, " << dns_.size() << " DNS names";
}

std::uint64_t OriginServerSet::requests_served() const {
  std::uint64_t total = 0;
  for (const auto& server : servers_) {
    total += server->requests_served();
  }
  return total;
}

std::uint64_t OriginServerSet::connections_accepted() const {
  std::uint64_t total = 0;
  for (const auto& server : servers_) {
    total += server->total_accepted();
  }
  return total;
}

}  // namespace mahimahi::replay
