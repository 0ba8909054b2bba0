#pragma once

// Measurement scaffolding shared by the workloads: clocks, order
// statistics, the closed loop, set-up repetition, trace counting and the
// per-layer microbenchmarks. Everything here calls only the library's
// public headers.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/parallel_runner.hpp"
#include "net/queue.hpp"
#include "obs/trace.hpp"

namespace mmbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[nodiscard]] inline double ms_since(Clock::time_point from) {
  return seconds_between(from, Clock::now()) * 1e3;
}

/// Percentile p in [0, 100] with linear interpolation between order
/// statistics; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);

[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// 64-bit FNV-1a, the benchmark's own digest (independent of the library
/// under test).
struct Digest {
  std::uint64_t state{0xcbf29ce484222325ULL};

  void bytes(std::string_view data) {
    for (const char c : data) {
      state = (state ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(std::string_view{reinterpret_cast<const char*>(&v), sizeof v});
  }
};

/// One run's command-line parameters.
struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{0};
  bool traced{false};
  std::string scratch;  // private scratch directory inside the checkout
  int threads{1};
};

/// Everything a run reports: the metric values by name, the operation
/// accounting and every correctness check that failed.
struct Outcome {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::size_t checks_failed{0};
  std::vector<std::string> check_failures;  // the first few, for stderr
  std::map<std::string, double> metrics;
  std::uint64_t sim_digest{0};
  /// Host-noise context printed beside the metrics, not a gated metric:
  /// on a homogeneous workload the tail mostly measures the host.
  std::size_t tasks{0};
  double task_ms_p90{0};

  void check(bool ok, const std::string& what) {
    if (!ok && checks_failed++ < 20) {
      check_failures.push_back(what);
    }
  }
};

inline constexpr int kSetupRepetitions = 3;

/// Build the workload's inputs kSetupRepetitions times, each from scratch
/// (the previous copy is freed first, so peak memory holds one), and
/// report the median build time as setup_s. Returns the last copy.
template <typename Build>
auto repeated_setup(Build&& build, Outcome& outcome) {
  using Inputs = decltype(build());
  std::optional<Inputs> inputs;
  std::vector<double> seconds;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    inputs.reset();
    const auto start = Clock::now();
    inputs.emplace(build());
    seconds.push_back(seconds_between(start, Clock::now()));
  }
  outcome.metrics["setup_s"] = median(seconds);
  return std::move(*inputs);
}

/// A completed closed-loop task: its index, host time and result.
template <typename R>
struct Done {
  int index{0};
  double ms{0};
  R result{};
};

/// Closed loop: `workers` clients on `runner`, each taking the next task
/// index only after its previous task finished, until `seconds` of wall
/// time have passed. Tasks [0, min_tasks) always run, so the fixed prefix
/// the exact checks use exists on any host. Returns the completed tasks
/// sorted by index; `wall_s` receives the window from the first start to
/// the last completion. `fn` must not throw (wrap failures in R).
template <typename R, typename Fn>
std::vector<Done<R>> closed_loop(mahimahi::core::ParallelRunner& runner,
                                 int workers, double seconds, int min_tasks,
                                 Fn&& fn, double& wall_s) {
  std::atomic<int> next{0};
  std::vector<std::vector<Done<R>>> per_worker(
      static_cast<std::size_t>(workers));
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  runner.run_indexed(workers, [&](int worker) {
    for (;;) {
      const int index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= min_tasks && Clock::now() >= deadline) {
        return;
      }
      const auto task_start = Clock::now();
      R result = fn(index);
      per_worker[static_cast<std::size_t>(worker)].push_back(
          Done<R>{index, ms_since(task_start), std::move(result)});
    }
  });
  wall_s = seconds_between(start, Clock::now());
  std::vector<Done<R>> done;
  for (auto& tasks : per_worker) {
    for (auto& task : tasks) {
      done.push_back(std::move(task));
    }
  }
  std::sort(done.begin(), done.end(), [](const Done<R>& a, const Done<R>& b) {
    return a.index < b.index;
  });
  return done;
}

/// Host ms of every task, for the task_ms_* percentiles.
template <typename R>
[[nodiscard]] std::vector<double> task_times(const std::vector<Done<R>>& done) {
  std::vector<double> ms;
  ms.reserve(done.size());
  for (const auto& task : done) {
    ms.push_back(task.ms);
  }
  return ms;
}

/// Record the untraced end-to-end metrics of a closed loop.
void report_loop(const std::vector<double>& task_ms, double work_units,
                 double wall_s, Outcome& outcome);

/// Work counts read off trace buffers.
struct TraceCounts {
  std::uint64_t events{0};
  std::uint64_t link_pkts{0};
  std::uint64_t link_drops{0};
  std::uint64_t queue_hw{0};
  std::uint64_t tcp_connects{0};  // both ends emit one per connection
  std::uint64_t retransmits{0};
  std::uint64_t rtos{0};
  std::uint64_t dns_queries{0};
  std::uint64_t fault_injections{0};

  void add(const mahimahi::obs::TraceBuffer& buffer);
  void merge(const TraceCounts& other);
  /// The link/tcp/dns/fault/obs count metrics, averaged over `tasks`.
  void report(double tasks, Outcome& outcome) const;
};

/// Chrome + HAR + CSV export size of one simulation's buffer.
[[nodiscard]] std::uint64_t artifact_bytes(
    const mahimahi::obs::TraceBuffer& buffer);

/// Host ms of one task on each side of the layer boundaries the benchmark
/// times itself: world construction, EventLoop run, destruction.
struct Phases {
  double build_ms{0};
  double run_ms{0};
  double teardown_ms{0};

  [[nodiscard]] double total() const { return build_ms + run_ms + teardown_ms; }
};

/// The traced run of a workload that builds its simulations itself
/// (replay, crowd): each task runs split and untraced, then split and
/// traced, plus a standalone Matcher build over the same store.
struct SplitTotals {
  Phases untraced;             // summed over every task
  double traced_ms{0};
  double matcher_ms{0};
  std::vector<double> traced;  // per-task traced ms
  TraceCounts prefix;          // tasks of the fixed prefix only
  double exported_bytes{0};    // prefix only

  void add(const Phases& phases, double traced_task_ms, double matcher_task_ms);
  /// Phase shares, tracing overhead, traced p50 and the prefix counts.
  void report(double prefix_tasks, Outcome& outcome) const;
};

/// Per-layer microbenchmarks (the traced run reports them for every
/// workload; inputs are drawn from `seed`).
[[nodiscard]] double loop_ns_per_event(std::uint64_t seed);
[[nodiscard]] double queue_ns_per_pkt(
    const std::vector<mahimahi::net::QueueSpec>& specs);
[[nodiscard]] double tracer_ns_per_event(std::uint64_t seed);
[[nodiscard]] double journal_append_us_p50(const std::string& dir);

/// getrusage max RSS so far, in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace mmbench
