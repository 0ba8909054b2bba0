// "Evaluate how techniques that aim to make the Web faster perform over
// different network conditions" — the paper's opening use case.
//
// Here the technique under study is client parallelism: HTTP/1.1 with 2,
// 6, or 12 connections per origin, swept across access-link profiles. The
// same recorded page, the same emulated networks, fully reproducible —
// which is exactly what the toolkit is for.
//
// Set base.controllers to any registered controller ({"cubic"},
// {"vegas"}, {"bbr"}, ...) to rerun the identical sweep under it.

#include <cstdio>

#include "core/sessions.hpp"
#include "corpus/site_generator.hpp"

using namespace mahimahi;
using namespace mahimahi::core;
using namespace mahimahi::literals;

int main() {
  const auto site = corpus::generate_site(corpus::nytimes_like_spec());
  SessionConfig base;
  base.seed = 21;
  RecordSession recorder{site, corpus::LiveWebConfig{}, base};
  const auto store = recorder.record();
  std::printf("page: %s (%zu objects, %zu origins)\n\n",
              site.primary_url().c_str(), site.objects.size(),
              site.hostnames.size());

  struct Network {
    const char* label;
    std::vector<ShellSpec> shells;
  };
  const Network networks[] = {
      {"DSL 4/1 Mbit/s, 40 ms",
       {DelayShellSpec{20_ms}, LinkShellSpec::constant_rate_mbps(1, 4)}},
      {"Cable 20/5 Mbit/s, 20 ms",
       {DelayShellSpec{10_ms}, LinkShellSpec::constant_rate_mbps(5, 20)}},
      {"Fiber 100/100 Mbit/s, 5 ms",
       {DelayShellSpec{2'500}, LinkShellSpec::constant_rate_mbps(100, 100)}},
  };

  std::printf("%-28s", "median PLT (5 loads)");
  for (const int conns : {2, 6, 12}) {
    std::printf("  %8d conns", conns);
  }
  std::printf("\n");

  for (const auto& network : networks) {
    std::printf("%-28s", network.label);
    for (const int conns : {2, 6, 12}) {
      SessionConfig config = base;
      config.shells = network.shells;
      config.browser.max_connections_per_origin = conns;
      ReplaySession session{store, config};
      const auto samples = session.measure(site.primary_url(), 5);
      std::printf("  %11.0f ms", samples.median());
    }
    std::printf("\n");
  }
  std::printf(
      "\nReading: extra parallelism helps most on fat, short pipes; on thin\n"
      "links the bottleneck is bandwidth and parallelism buys little.\n");
  return 0;
}
