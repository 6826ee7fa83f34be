// Micro-benchmarks: the batch elasticity service (src/elastic) — the
// incremental Goertzel/sliding-DFT detector and the SessionTable that
// multiplexes thousands of concurrent probe sessions over it.
//
// Besides the google-benchmark micros, main() emits machine-readable
// headline scalars (schema ccc.report.v1), each best-of-`--repeat`:
//
//   elastic_incremental   verdict_updates_per_sec — one session, one verdict
//                         update (push + streaming eta + threshold) per z
//                         sample at a 1024-sample window
//   elastic_sessions      sessions_per_sec — how many concurrent real-time
//                         sessions a 1024-strong SessionTable fleet
//                         sustains (fleet updates/s divided by the z-sample
//                         rate one live session produces), plus the raw
//                         fleet updates/s
//   elastic_fullfft_1024  windows_per_sec — the offline full-FFT
//                         elasticity_metric on the same 1024-sample window,
//                         measured interleaved in this binary so the
//                         incremental-vs-full ratio compares like with like
//
// The acceptance gate (scripts/run_perf_smoke.sh) holds
// elastic_incremental.verdict_updates_per_sec to at least 10x
// elastic_fullfft_1024.windows_per_sec. The committed baseline lives in
// BENCH_fft.json next to the micro_fft rows.
//
// Defines its own main() so the shared bench::Cli contract applies here too.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <numbers>
#include <span>
#include <vector>

#include "bench/cli.hpp"
#include "elastic/detector.hpp"
#include "elastic/session_table.hpp"
#include "nimbus/elasticity.hpp"
#include "telemetry/run_report.hpp"
#include "util/rng.hpp"

namespace {

using namespace ccc;

constexpr std::size_t kWindow = 1024;
constexpr double kSampleHz = 100.0;
constexpr double kPulseHz = 5.0;

/// Same shape as micro_fft's series: pulse tone + noise, what the detector
/// sees when cross traffic chases the probe.
std::vector<double> make_pulse_series(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<double> z;
  z.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / kSampleHz;
    z.push_back(10.0 + 3.0 * std::sin(2.0 * std::numbers::pi * kPulseHz * t) +
                rng.normal(0.0, 1.0));
  }
  return z;
}

elastic::DetectorConfig bench_detector_config() {
  elastic::DetectorConfig dc;
  dc.window_len = kWindow;
  dc.sample_hz = kSampleHz;
  dc.metric.pulse_hz = kPulseHz;
  return dc;
}

void BM_IncrementalPushEval(benchmark::State& state) {
  const auto z = make_pulse_series(kWindow, 17);
  auto geom = std::make_shared<const elastic::DetectorGeometry>(bench_detector_config());
  elastic::IncrementalDetector det{geom};
  for (double x : z) det.push(x);  // fill the warmup ring
  std::size_t pos = 0;
  double acc = 0.0;
  for (auto _ : state) {
    det.push(z[pos++ % kWindow]);
    acc += det.eta();
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IncrementalPushEval);

void BM_FullFftWindow1024(benchmark::State& state) {
  const auto z = make_pulse_series(kWindow, 17);
  SpectrumWorkspace ws;
  nimbus::ElasticityConfig cfg;
  cfg.pulse_hz = kPulseHz;
  double acc = 0.0;
  for (auto _ : state) {
    acc += nimbus::elasticity_metric(z, kSampleHz, cfg, ws);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullFftWindow1024);

void BM_SessionTableFeed(benchmark::State& state) {
  const auto sessions = static_cast<std::size_t>(state.range(0));
  const auto z = make_pulse_series(kWindow, 17);
  elastic::SessionTableConfig tc;
  tc.detector = bench_detector_config();
  elastic::SessionTable table{tc};
  std::vector<elastic::SessionId> ids;
  ids.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) ids.push_back(table.add_session());
  for (auto id : ids) table.feed(id, z);  // warm every detector
  constexpr std::size_t kBatch = 64;
  std::vector<double> batch(z.begin(), z.begin() + kBatch);
  std::size_t next = 0;
  for (auto _ : state) {
    table.feed(ids[next], batch);
    next = (next + 1) % sessions;
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_SessionTableFeed)->Arg(16)->Arg(1024);

/// One best-of-N timed scope (~0.5 s loop per repetition, fastest wins) —
/// the shared --repeat contract, same idiom as micro_fft/micro_sim.
struct TimedRate {
  std::size_t runs{0};
  double wall{0.0};
  double rate{0.0};
};

template <typename Body>
TimedRate best_of(std::size_t repeat, Body&& body) {
  TimedRate best;
  for (std::size_t r = 0; r < std::max<std::size_t>(repeat, 1); ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t runs = 0;
    std::chrono::duration<double> wall{0.0};
    do {
      body();
      ++runs;
      wall = std::chrono::steady_clock::now() - t0;
    } while (wall.count() < 0.5);
    const double rate = static_cast<double>(runs) / wall.count();
    if (rate > best.rate) best = {runs, wall.count(), rate};
  }
  return best;
}

void report_elastic_rates(std::ostream& os, telemetry::RunReport& report, std::size_t repeat) {
  const auto z = make_pulse_series(kWindow, 17);

  // Scope 1: single-session streaming verdict updates (push + eta +
  // threshold per z sample). This is the numerator of the 10x gate.
  {
    auto geom = std::make_shared<const elastic::DetectorGeometry>(bench_detector_config());
    elastic::IncrementalDetector det{geom};
    for (double x : z) det.push(x);
    std::size_t pos = 0;
    double acc = 0.0;
    const TimedRate best = best_of(repeat, [&] {
      det.push(z[pos++ % kWindow]);
      acc += det.eta() >= nimbus::kElasticThreshold ? 1.0 : 0.0;
    });
    benchmark::DoNotOptimize(acc);
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"bench\": \"elastic_incremental\", \"updates\": %zu, \"wall_sec\": %.4f, "
                  "\"verdict_updates_per_sec\": %.0f}\n",
                  best.runs, best.wall, best.rate);
    os << line;
    report.add_scalar("elastic_incremental", "updates", static_cast<double>(best.runs));
    report.add_scalar("elastic_incremental", "wall_sec", best.wall);
    report.add_scalar("elastic_incremental", "verdict_updates_per_sec", best.rate);
  }

  // Scope 2: a 1024-session fleet fed in 64-sample batches round-robin.
  // sessions_per_sec = fleet verdict updates/s divided by the z-sample rate
  // a single live session emits — i.e. how many concurrent real-time probe
  // sessions this one core sustains.
  {
    constexpr std::size_t kFleet = 1024;
    constexpr std::size_t kBatch = 64;
    elastic::SessionTableConfig tc;
    tc.detector = bench_detector_config();
    elastic::SessionTable table{tc};
    std::vector<elastic::SessionId> ids;
    ids.reserve(kFleet);
    for (std::size_t s = 0; s < kFleet; ++s) ids.push_back(table.add_session());
    for (auto id : ids) table.feed(id, z);
    std::vector<double> batch(z.begin(), z.begin() + kBatch);
    std::size_t next = 0;
    const TimedRate best = best_of(repeat, [&] {
      table.feed(ids[next], batch);
      next = (next + 1) % kFleet;
    });
    const double updates_per_sec = best.rate * static_cast<double>(kBatch);
    const double sessions_per_sec = updates_per_sec / kSampleHz;
    char line[320];
    std::snprintf(line, sizeof line,
                  "{\"bench\": \"elastic_sessions\", \"batches\": %zu, \"wall_sec\": %.4f, "
                  "\"fleet_updates_per_sec\": %.0f, \"sessions_per_sec\": %.0f}\n",
                  best.runs, best.wall, updates_per_sec, sessions_per_sec);
    os << line;
    report.add_scalar("elastic_sessions", "batches", static_cast<double>(best.runs));
    report.add_scalar("elastic_sessions", "wall_sec", best.wall);
    report.add_scalar("elastic_sessions", "fleet_updates_per_sec", updates_per_sec);
    report.add_scalar("elastic_sessions", "sessions_per_sec", sessions_per_sec);
  }

  // Scope 3: the offline full-FFT classifier on the identical window — the
  // denominator of the 10x gate, measured in the same process run so the
  // ratio is machine-load-neutral.
  {
    SpectrumWorkspace ws;
    nimbus::ElasticityConfig cfg;
    cfg.pulse_hz = kPulseHz;
    double acc = 0.0;
    const TimedRate best =
        best_of(repeat, [&] { acc += nimbus::elasticity_metric(z, kSampleHz, cfg, ws); });
    benchmark::DoNotOptimize(acc);
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"bench\": \"elastic_fullfft_1024\", \"windows\": %zu, \"wall_sec\": %.4f, "
                  "\"windows_per_sec\": %.0f}\n",
                  best.runs, best.wall, best.rate);
    os << line;
    report.add_scalar("elastic_fullfft_1024", "windows", static_cast<double>(best.runs));
    report.add_scalar("elastic_fullfft_1024", "wall_sec", best.wall);
    report.add_scalar("elastic_fullfft_1024", "windows_per_sec", best.rate);
  }
}

}  // namespace

/// The bench body; main() below routes uncaught errors through the shared
/// guarded_main error boundary (structured message + exit-code contract).
int run_bench(int argc, char** argv) {
  using S = ccc::bench::Shared;
  ccc::bench::Cli cli{"micro_elastic", {S::kRepeat, S::kOut, S::kReport}, {},
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
  ccc::telemetry::RunReport report{"micro_elastic", 0};
  report_elastic_rates(os, report, cli.repeat_or(3));
  if (!report.emit(cli.report)) {
    std::cerr << "micro_elastic: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return 0;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("micro_elastic", [&] { return run_bench(argc, argv); });
}
