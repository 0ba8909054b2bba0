#pragma once

#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>


namespace mahimahi::core {

/// Fixed thread pool that fans N independent, index-addressed measurement
/// tasks across threads and merges their results in index order.
///
/// Determinism contract (the reason this exists — Table 1 depends on it):
///   - every task receives only its load index; any randomness it needs
///     must be derived from (experiment seed, load index) *before* any
///     simulation work, never from shared generator state or from wall
///     clock / scheduling order;
///   - results are merged strictly by index, so the output is
///     bit-identical for any thread count, including 1.
///
/// Error containment: an exception inside one task never disturbs sibling
/// tasks — every task runs to completion (or its own failure), and only
/// then is the lowest-index exception rethrown to the caller.
///
/// A runner may be shared across many map() calls; map() itself may be
/// called from several threads concurrently. Tasks must not call back
/// into the same runner (no nested fan-out), or they may deadlock waiting
/// for the worker slot they themselves occupy.
class ParallelRunner {
 public:
  /// `threads` <= 0 selects default_thread_count().
  explicit ParallelRunner(int threads = 0);
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  [[nodiscard]] int thread_count() const { return thread_count_; }

  /// MAHI_THREADS from the environment if set (>0), else the hardware
  /// concurrency, else 1.
  static int default_thread_count();

  /// Lazily constructed process-wide pool of default_thread_count()
  /// threads — the shared default for sessions and bench drivers, so a
  /// process never ends up with several competing full-size pools.
  static ParallelRunner& shared();

  /// Run `fn(i)` for every i in [0, count); returns the results in index
  /// order regardless of completion order. If any task threw, waits for
  /// all tasks, then rethrows the lowest-index exception.
  template <typename Fn>
  auto map(int count, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, int>> {
    using Result = std::invoke_result_t<Fn&, int>;
    static_assert(std::is_default_constructible_v<Result>,
                  "map() slots are pre-allocated in index order");
    static_assert(!std::is_same_v<Result, bool>,
                  "std::vector<bool> packs elements into shared words, so "
                  "concurrent writes to distinct indices race — return "
                  "char/int instead");
    std::vector<Result> results(static_cast<std::size_t>(count < 0 ? 0 : count));
    run_indexed(count, [&results, &fn](int index) {
      results[static_cast<std::size_t>(index)] = fn(index);
    });
    return results;
  }

  /// Type-erased core of map(): runs task(i) for i in [0, count) on the
  /// pool, blocks until all complete, rethrows the lowest-index failure.
  void run_indexed(int count, const std::function<void(int)>& task);

 private:
  void worker_loop();

  int thread_count_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_{false};
};

}  // namespace mahimahi::core
