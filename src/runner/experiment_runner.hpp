// ExperimentRunner: fan a sweep of independent simulations out over a
// thread pool.
//
// Every figure in the paper is a grid of *independent, deterministic*
// simulations (qdisc x CCA-mix x cross-traffic), so sweeps are
// embarrassingly parallel. Each task owns its scenario outright — its own
// Scheduler, Rng, flows — so workers share nothing and per-scenario results
// are bit-identical to a serial run regardless of the job count. Results are
// returned in input order; completion order is irrelevant to callers.
//
// Job-count resolution (first match wins):
//   1. an explicit `--jobs N` / `--jobs=N` / `-jN` command-line flag
//   2. the CCC_JOBS environment variable
//   3. std::thread::hardware_concurrency()
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace ccc::runner {

/// Called (serialized, from worker threads) after each task completes.
using ProgressFn = std::function<void(std::size_t done, std::size_t total)>;

struct RunnerOptions {
  /// Worker count; 0 means "resolve from CCC_JOBS, else hardware
  /// concurrency". 1 runs tasks inline on the calling thread.
  unsigned jobs{0};
  ProgressFn on_progress{};
};

/// Resolves a requested job count per the policy above (requested == 0
/// consults CCC_JOBS, then hardware concurrency; never returns 0).
[[nodiscard]] unsigned resolve_jobs(unsigned requested);

/// Derives an independent per-task seed from a base seed and task index
/// (splitmix64 finalizer). Tasks seeded this way get decorrelated RNG
/// streams that do not depend on the job count or completion order.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t task_index);

class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunnerOptions opts = {});

  /// The resolved worker count.
  [[nodiscard]] unsigned jobs() const { return jobs_; }

  /// Runs every task, at most jobs() at a time, and returns once all have
  /// finished. Every task runs even if some throw; the exception from the
  /// lowest-indexed failing task is rethrown afterwards (deterministic
  /// regardless of completion order — and identical to jobs=1 behaviour).
  /// Rethrow preserves the dynamic type (std::exception_ptr), so a typed
  /// ccc::Error from a worker — category, path, byte offset intact —
  /// crosses the pool boundary and reaches the bench's guarded_main.
  void run_all(const std::vector<std::function<void()>>& tasks);

  /// Maps `fn` over indices [0, n), returning results in index order.
  /// R must be default-constructible and movable.
  template <typename R>
  [[nodiscard]] std::vector<R> map(std::size_t n,
                                   const std::function<R(std::size_t)>& fn) {
    std::vector<R> out(n);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      tasks.push_back([&out, &fn, i] { out[i] = fn(i); });
    }
    run_all(tasks);
    return out;
  }

 private:
  unsigned jobs_;
  ProgressFn on_progress_;
};

}  // namespace ccc::runner
