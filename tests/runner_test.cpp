// Unit tests for the parallel experiment runner (ccc::runner).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "app/bulk.hpp"
#include "core/cca_registry.hpp"
#include "core/dumbbell.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/thread_pool.hpp"
#include "util/error.hpp"

namespace ccc::runner {
namespace {

// --- thread pool ---

TEST(ThreadPool, RunsEveryJobBeforeDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool{4};
    for (int i = 0; i < 100; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor drains the queue
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool{0};
  EXPECT_EQ(pool.size(), 1u);
}

// --- job-count resolution ---

TEST(ResolveJobs, ExplicitRequestWins) {
  ASSERT_EQ(setenv("CCC_JOBS", "3", 1), 0);
  EXPECT_EQ(resolve_jobs(7), 7u);
  unsetenv("CCC_JOBS");
}

TEST(ResolveJobs, EnvOverridesAuto) {
  ASSERT_EQ(setenv("CCC_JOBS", "5", 1), 0);
  EXPECT_EQ(resolve_jobs(0), 5u);
  ASSERT_EQ(setenv("CCC_JOBS", "garbage", 1), 0);
  EXPECT_GE(resolve_jobs(0), 1u);  // malformed -> hardware fallback, never 0
  unsetenv("CCC_JOBS");
}

TEST(ResolveJobs, NeverReturnsZero) {
  unsetenv("CCC_JOBS");
  EXPECT_GE(resolve_jobs(0), 1u);
}

// --- seed isolation ---

TEST(DeriveSeed, DeterministicAndDecorrelated) {
  EXPECT_EQ(derive_seed(42, 0), derive_seed(42, 0));
  EXPECT_NE(derive_seed(42, 0), derive_seed(42, 1));
  EXPECT_NE(derive_seed(42, 0), derive_seed(43, 0));
  // Adjacent indices should differ in many bits, not just the low ones.
  const std::uint64_t x = derive_seed(42, 100) ^ derive_seed(42, 101);
  EXPECT_GT(__builtin_popcountll(x), 8);
}

// --- ExperimentRunner semantics ---

TEST(ExperimentRunner, JobsOneRunsSeriallyInOrderOnCallingThread) {
  ExperimentRunner runner{{.jobs = 1}};
  EXPECT_EQ(runner.jobs(), 1u);
  std::vector<std::size_t> order;
  const auto caller = std::this_thread::get_id();
  bool all_on_caller = true;
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < 8; ++i) {
    tasks.push_back([&, i] {
      order.push_back(i);  // unsynchronized on purpose: serial mode
      all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
    });
  }
  runner.run_all(tasks);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_TRUE(all_on_caller);
}

TEST(ExperimentRunner, MapPreservesInputOrder) {
  ExperimentRunner runner{{.jobs = 4}};
  const auto out = runner.map<int>(64, [](std::size_t i) { return static_cast<int>(i) * 3; });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i) * 3);
}

TEST(ExperimentRunner, ExceptionPropagatesWithoutDeadlock) {
  ExperimentRunner runner{{.jobs = 4}};
  std::atomic<int> completed{0};
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < 8; ++i) {
    tasks.push_back([&completed, i] {
      if (i == 3) throw std::runtime_error{"task 3 failed"};
      completed.fetch_add(1);
    });
  }
  EXPECT_THROW(runner.run_all(tasks), std::runtime_error);
  // Every other task still ran: one failure does not wedge the pool.
  EXPECT_EQ(completed.load(), 7);
  // The runner stays usable afterwards.
  const auto ok = runner.map<int>(4, [](std::size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(ok, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ExperimentRunner, TypedErrorCrossesThePoolIntact) {
  // The rethrow goes through std::exception_ptr, so a worker's ccc::Error
  // reaches the caller with its dynamic type — category, path, and byte
  // offset intact — not sliced down to std::runtime_error. The pipeline's
  // strict mode and guarded_main's exit-code mapping both depend on this.
  for (const unsigned jobs : {1u, 4u}) {
    ExperimentRunner runner{{.jobs = jobs}};
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < 4; ++i) {
      tasks.push_back([i] {
        if (i == 1) throw Error::corruption("/data/shard.ccfs", "crc mismatch", 64);
      });
    }
    try {
      runner.run_all(tasks);
      FAIL() << "expected a rethrow (jobs=" << jobs << ")";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kCorruption) << "jobs=" << jobs;
      EXPECT_EQ(e.path(), "/data/shard.ccfs");
      EXPECT_EQ(e.byte_offset(), 64u);
    }
  }
}

TEST(ExperimentRunner, LowestIndexExceptionWinsDeterministically) {
  for (const unsigned jobs : {1u, 4u}) {
    ExperimentRunner runner{{.jobs = jobs}};
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < 6; ++i) {
      tasks.push_back([i] {
        if (i == 2 || i == 5) throw std::runtime_error{"task " + std::to_string(i)};
      });
    }
    try {
      runner.run_all(tasks);
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 2") << "jobs=" << jobs;
    }
  }
}

TEST(ExperimentRunner, ProgressReportsEveryCompletionMonotonically) {
  std::vector<std::size_t> seen;
  RunnerOptions opts;
  opts.jobs = 4;
  opts.on_progress = [&seen](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, 10u);
    seen.push_back(done);  // serialized by the runner's lock
  };
  ExperimentRunner with_progress{opts};
  with_progress.run_all(std::vector<std::function<void()>>(10, [] {}));
  ASSERT_EQ(seen.size(), 10u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
}

// --- the determinism contract, end to end ---

/// A small dumbbell scenario parameterized by CCA and rate; returns exact
/// per-flow delivered byte counts (bit-identical across reruns by design).
std::vector<ByteCount> run_scenario(const std::string& cca, double mbps, std::uint64_t seed) {
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(mbps);
  cfg.one_way_delay = Time::ms(10);
  cfg.reverse_delay = Time::ms(10);
  cfg.seed = seed;
  core::DumbbellScenario net{cfg};
  net.add_flow(core::make_cca_factory(cca)(), std::make_unique<app::BulkApp>());
  net.add_flow(core::make_cca_factory("cubic")(), std::make_unique<app::BulkApp>(), 2,
               Time::sec(0.5));
  net.run_until(Time::sec(3.0));
  return net.snapshot_delivered();
}

TEST(ExperimentRunner, ParallelSweepBitIdenticalToSerial) {
  const std::vector<std::string> ccas{"reno", "cubic", "bbr", "vegas"};
  const std::vector<double> rates{6.0, 10.0, 16.0, 24.0};
  // 16 scenarios: every (cca, rate) pair, each with an isolated seed.
  auto sweep = [&](unsigned jobs) {
    ExperimentRunner runner{{.jobs = jobs}};
    return runner.map<std::vector<ByteCount>>(ccas.size() * rates.size(), [&](std::size_t i) {
      return run_scenario(ccas[i / rates.size()], rates[i % rates.size()],
                          derive_seed(0x5eed, i));
    });
  };
  const auto serial = sweep(1);
  const auto parallel = sweep(8);
  ASSERT_EQ(serial.size(), 16u);
  // Bitwise comparison: integer byte counts must match exactly, scenario by
  // scenario — the scheduler determinism contract survives threading.
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace ccc::runner
