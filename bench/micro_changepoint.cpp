// Micro-benchmarks: change-point detection throughput (M1). These bound the
// cost of running the §3.1 pipeline over M-Lab-scale datasets.
//
// Besides the google-benchmark micros, main() emits machine-readable
// headline scalars (schema ccc.report.v1) — most importantly flows/sec for
// the pipeline's per-flow detection stage over a corpus of NDT-shaped
// records, the number the fig2 at-scale wall time is made of. The committed
// baseline lives in BENCH_changepoint.json.
//
// Defines its own main() so the shared bench::Cli contract applies here too:
// --help/--out/--report are handled uniformly and google-benchmark only sees
// the arguments that are not bench::Cli flags.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/cli.hpp"
#include "changepoint/cost.hpp"
#include "changepoint/detectors.hpp"
#include "telemetry/run_report.hpp"
#include "util/rng.hpp"

namespace {

using namespace ccc;

std::vector<double> make_signal(std::size_t n, int n_steps, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<double> x;
  x.reserve(n);
  double level = 10.0;
  const std::size_t seg = n / static_cast<std::size_t>(n_steps + 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && i % seg == 0) level += rng.uniform(-5.0, 5.0);
    x.push_back(level + rng.normal(0.0, 0.5));
  }
  return x;
}

void BM_PeltL2(benchmark::State& state) {
  const auto x = make_signal(static_cast<std::size_t>(state.range(0)), 4, 42);
  for (auto _ : state) {
    changepoint::CostL2 cost;
    cost.fit(x);
    auto cps = changepoint::pelt(cost, changepoint::bic_penalty(x.size(), 0.5));
    benchmark::DoNotOptimize(cps);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PeltL2)->Arg(100)->Arg(1000)->Arg(10000);

void BM_BinSeg(benchmark::State& state) {
  const auto x = make_signal(static_cast<std::size_t>(state.range(0)), 4, 42);
  for (auto _ : state) {
    changepoint::CostL2 cost;
    cost.fit(x);
    auto cps =
        changepoint::binary_segmentation(cost, changepoint::bic_penalty(x.size(), 0.5));
    benchmark::DoNotOptimize(cps);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BinSeg)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SlidingWindow(benchmark::State& state) {
  const auto x = make_signal(static_cast<std::size_t>(state.range(0)), 4, 42);
  for (auto _ : state) {
    changepoint::CostL2 cost;
    cost.fit(x);
    auto cps = changepoint::sliding_window(cost, 20, changepoint::bic_penalty(x.size(), 0.5));
    benchmark::DoNotOptimize(cps);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SlidingWindow)->Arg(100)->Arg(1000)->Arg(10000);

void BM_Cusum(benchmark::State& state) {
  const auto x = make_signal(static_cast<std::size_t>(state.range(0)), 4, 42);
  for (auto _ : state) {
    changepoint::Cusum det{10.0, 0.5, 5.0};
    for (double v : x) benchmark::DoNotOptimize(det.add(v));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Cusum)->Arg(1000)->Arg(100000);

void BM_DetectMeanShiftsPipelineRecord(benchmark::State& state) {
  // The per-record cost inside the §3.1 pipeline: 100 samples (10 s of
  // 100 ms snapshots).
  const auto x = make_signal(100, 2, 7);
  for (auto _ : state) {
    auto cps = changepoint::detect_mean_shifts(x);
    benchmark::DoNotOptimize(cps);
  }
}
BENCHMARK(BM_DetectMeanShiftsPipelineRecord);

void BM_DetectMeanShiftsWorkspace(benchmark::State& state) {
  // Same record, but through the shard-workspace path the pipeline actually
  // runs: all scratch reused, zero per-flow allocation.
  const auto x = make_signal(100, 2, 7);
  changepoint::ChangepointWorkspace ws;
  for (auto _ : state) {
    changepoint::detect_mean_shifts_into(x, 1.0, 3, ws, ws.cps);
    benchmark::DoNotOptimize(ws.cps.data());
  }
}
BENCHMARK(BM_DetectMeanShiftsWorkspace);

/// Headline: wall-clock flows/sec of the detection stage over a corpus of
/// NDT-shaped records (100-sample series, step/noise mix — the same shape
/// the fig2 pipeline feeds it). Printed as JSON and mirrored into the
/// RunReport (--report); the committed baseline is BENCH_changepoint.json.
void report_detect_rate(std::ostream& os, ccc::telemetry::RunReport& report) {
  constexpr std::size_t kFlows = 2000;
  constexpr std::size_t kSamples = 100;
  std::vector<std::vector<double>> corpus;
  corpus.reserve(kFlows);
  for (std::size_t i = 0; i < kFlows; ++i) {
    // Half the corpus carries a genuine step, half is stationary noise, so
    // the measured cost averages over PELT's found/not-found paths.
    corpus.push_back(make_signal(kSamples, i % 2 == 0 ? 2 : 0, 1000 + i));
  }

  // Through the shard-workspace path the pipeline runs: one workspace,
  // reused across the whole corpus, zero per-flow allocation.
  changepoint::ChangepointWorkspace ws;
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t flows = 0;
  std::size_t found = 0;
  std::chrono::duration<double> wall{0.0};
  do {
    for (const auto& x : corpus) {
      changepoint::detect_mean_shifts_into(x, 1.0, 3, ws, ws.cps);
      found += ws.cps.size();
      ++flows;
    }
    wall = std::chrono::steady_clock::now() - t0;
  } while (wall.count() < 0.6);
  benchmark::DoNotOptimize(found);

  const double fps = static_cast<double>(flows) / wall.count();
  char line[256];
  std::snprintf(line, sizeof line,
                "{\"bench\": \"changepoint_detect\", \"flows\": %zu, \"wall_sec\": %.4f, "
                "\"flows_per_sec\": %.0f}\n",
                flows, wall.count(), fps);
  os << line;
  report.add_scalar("detect", "flows", static_cast<double>(flows));
  report.add_scalar("detect", "wall_sec", wall.count());
  report.add_scalar("detect", "flows_per_sec", fps);
  report.add_scalar("detect", "samples_per_sec", fps * static_cast<double>(kSamples));
}

/// Secondary headline: raw PELT samples/sec on one long (10k-sample) series,
/// the regime where search cost (not per-flow setup) dominates.
void report_pelt_rate(std::ostream& os, ccc::telemetry::RunReport& report) {
  const auto x = make_signal(10000, 4, 42);
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t runs = 0;
  std::size_t found = 0;
  std::chrono::duration<double> wall{0.0};
  do {
    changepoint::CostL2 cost;
    cost.fit(x);
    const auto cps = changepoint::pelt(cost, changepoint::bic_penalty(x.size(), 0.5));
    found += cps.size();
    ++runs;
    wall = std::chrono::steady_clock::now() - t0;
  } while (wall.count() < 0.6);
  benchmark::DoNotOptimize(found);

  const double sps = static_cast<double>(runs * x.size()) / wall.count();
  char line[256];
  std::snprintf(line, sizeof line,
                "{\"bench\": \"changepoint_pelt10k\", \"runs\": %zu, \"wall_sec\": %.4f, "
                "\"samples_per_sec\": %.0f}\n",
                runs, wall.count(), sps);
  os << line;
  report.add_scalar("pelt_10k", "runs", static_cast<double>(runs));
  report.add_scalar("pelt_10k", "wall_sec", wall.count());
  report.add_scalar("pelt_10k", "samples_per_sec", sps);
}

}  // namespace

/// The bench body; main() below routes uncaught errors through the shared
/// guarded_main error boundary (structured message + exit-code contract).
int run_bench(int argc, char** argv) {
  using S = ccc::bench::Shared;
  ccc::bench::Cli cli{"micro_changepoint", {S::kOut, S::kReport}, {},
                      ccc::bench::Leftovers::kPassOn};
  cli.parse(argc, argv);
  std::vector<char*> bench_argv{argv[0]};
  for (auto& a : cli.rest) bench_argv.push_back(a.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::ostream& os = cli.output();
  ccc::telemetry::RunReport report{"micro_changepoint", 0};
  report_detect_rate(os, report);
  report_pelt_rate(os, report);
  if (!report.emit(cli.report)) {
    std::cerr << "micro_changepoint: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return 0;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("micro_changepoint", [&] { return run_bench(argc, argv); });
}
