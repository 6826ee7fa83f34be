// Micro-benchmarks: FFT / spectrum throughput — the per-window cost behind
// the Nimbus elasticity detector (every pulse-window evaluation in fig3 and
// fig7 runs one magnitude spectrum over the cross-traffic-rate series).
//
// Besides the google-benchmark micros, main() emits machine-readable
// headline scalars (schema ccc.report.v1): transforms/sec for a 1024-point
// complex FFT and windows/sec for the full elasticity metric on a
// Nimbus-sized window. The committed baseline lives in BENCH_fft.json.
//
// Defines its own main() so the shared bench::Cli contract applies here too.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <iostream>
#include <numbers>
#include <vector>

#include "bench/cli.hpp"
#include "nimbus/elasticity.hpp"
#include "telemetry/run_report.hpp"
#include "util/fft.hpp"
#include "util/rng.hpp"

namespace {

using namespace ccc;

/// A Nimbus-shaped test series: pulse-frequency tone + noise, the signal the
/// elasticity detector sees when cross traffic chases the probe.
std::vector<double> make_pulse_series(std::size_t n, double sample_hz, double pulse_hz,
                                      std::uint64_t seed) {
  Rng rng{seed};
  std::vector<double> z;
  z.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / sample_hz;
    z.push_back(10.0 + 3.0 * std::sin(2.0 * std::numbers::pi * pulse_hz * t) +
                rng.normal(0.0, 1.0));
  }
  return z;
}

std::vector<std::complex<double>> make_complex(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::complex<double>> data(n);
  for (auto& c : data) c = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return data;
}

void BM_FftInplace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto base = make_complex(n, 7);
  auto data = base;
  for (auto _ : state) {
    data = base;
    fft_inplace(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FftInplace)->Arg(256)->Arg(1024)->Arg(4096);

void BM_MagnitudeSpectrum(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto z = make_pulse_series(n, 10.0, 0.625, 11);
  for (auto _ : state) {
    const auto spec = magnitude_spectrum(z, 10.0);
    benchmark::DoNotOptimize(spec.magnitude.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MagnitudeSpectrum)->Arg(200)->Arg(1000);

void BM_ElasticityMetric(benchmark::State& state) {
  // The Nimbus default: 5 s window of 10 ms bins = 500 samples, padded to
  // 512 by the FFT.
  const auto z = make_pulse_series(500, 100.0, 5.0, 13);
  nimbus::ElasticityConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nimbus::elasticity_metric(z, 100.0, cfg));
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_ElasticityMetric);

/// One best-of-N timed scope: `body` runs in a ~0.5 s loop `repeat` times
/// and the fastest repetition wins (the PR-9 micro_sim/micro_store idiom,
/// extended here per the shared --repeat contract).
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

/// Headline: 1024-point complex transforms/sec (the raw kernel) plus
/// elasticity windows/sec (the full detector path: mean removal, Hann
/// window, FFT, SNR scan), mirrored into the RunReport (--report). Each
/// scope is best-of-`repeat`.
void report_fft_rates(std::ostream& os, telemetry::RunReport& report, std::size_t repeat) {
  {
    const auto base = make_complex(1024, 7);
    auto data = base;
    const TimedRate best = best_of(repeat, [&] {
      data = base;
      fft_inplace(data);
      benchmark::DoNotOptimize(data.data());
    });
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"bench\": \"fft_1024\", \"transforms\": %zu, \"wall_sec\": %.4f, "
                  "\"transforms_per_sec\": %.0f}\n",
                  best.runs, best.wall, best.rate);
    os << line;
    report.add_scalar("fft_1024", "transforms", static_cast<double>(best.runs));
    report.add_scalar("fft_1024", "wall_sec", best.wall);
    report.add_scalar("fft_1024", "transforms_per_sec", best.rate);
  }
  {
    const auto z = make_pulse_series(500, 100.0, 5.0, 13);
    nimbus::ElasticityConfig cfg;
    double acc = 0.0;
    const TimedRate best =
        best_of(repeat, [&] { acc += nimbus::elasticity_metric(z, 100.0, cfg); });
    benchmark::DoNotOptimize(acc);
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"bench\": \"elasticity_window\", \"windows\": %zu, \"wall_sec\": %.4f, "
                  "\"windows_per_sec\": %.0f}\n",
                  best.runs, best.wall, best.rate);
    os << line;
    report.add_scalar("elasticity_window", "windows", static_cast<double>(best.runs));
    report.add_scalar("elasticity_window", "wall_sec", best.wall);
    report.add_scalar("elasticity_window", "windows_per_sec", best.rate);
  }
}

}  // namespace

/// The bench body; main() below routes uncaught errors through the shared
/// guarded_main error boundary (structured message + exit-code contract).
int run_bench(int argc, char** argv) {
  using S = ccc::bench::Shared;
  ccc::bench::Cli cli{"micro_fft", {S::kRepeat, S::kOut, S::kReport}, {},
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
  ccc::telemetry::RunReport report{"micro_fft", 0};
  report_fft_rates(os, report, cli.repeat_or(3));
  if (!report.emit(cli.report)) {
    std::cerr << "micro_fft: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return 0;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("micro_fft", [&] { return run_bench(argc, argv); });
}
