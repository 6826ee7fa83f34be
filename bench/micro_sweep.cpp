// Micro-benchmarks: sweep-engine cell throughput (src/sweep/).
//
// The grand matrix is ~1350 cells x up to two simulations each, so the
// number a sweep sizes against is cells/second through run_cell plus the
// engine's journal/store overhead. Besides the google-benchmark micros,
// main() emits one machine-readable JSON line per headline metric;
// cells/sec through the full engine (checkpoint + store enabled) is what
// scripts/run_perf_smoke.sh gates against BENCH_sweep.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench/cli.hpp"
#include "sweep/checkpoint.hpp"
#include "sweep/sweep.hpp"
#include "telemetry/run_report.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ccc;

/// A small wired-only grid: 2 CCAs x 2 mixes x 2 qdiscs x 2 buffers =
/// 16 cells, 2 s each — big enough to amortize engine overhead, small
/// enough for a ~1 s smoke run.
sweep::GridSpec micro_grid() {
  return sweep::GridSpec::parse(
      "cca=reno,cubic;cross=none,cbr-udp;qdisc=droptail,fq_codel;link=wired;buf=0.5,1;"
      "dur=2;rate=12");
}

void BM_RunCell(benchmark::State& state) {
  // One mid-grid cell, no engine around it: the pure simulation cost.
  const sweep::GridSpec grid = micro_grid();
  const sweep::CellSpec spec = grid.cell(5);
  for (auto _ : state) {
    const auto r = sweep::run_cell(grid, spec, 42);
    benchmark::DoNotOptimize(r.victim_goodput_mbps);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunCell);

void BM_CheckpointRoundtrip(benchmark::State& state) {
  // Journal append + load for a full micro grid's worth of records.
  const sweep::GridSpec grid = micro_grid();
  const std::string path =
      (fs::temp_directory_path() / "micro_sweep_ckpt.bin").string();
  sweep::CellResult r;
  for (auto _ : state) {
    auto j = sweep::CheckpointJournal::create(path, grid.signature());
    for (std::uint64_t id = 0; id < grid.size(); ++id) {
      r.cell_id = id;
      j.append(r);
    }
    j.close();
    const auto rec = sweep::CheckpointJournal::load(path, grid.signature());
    benchmark::DoNotOptimize(rec.cells.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(grid.size()));
  std::error_code ec;
  fs::remove(path, ec);
}
BENCHMARK(BM_CheckpointRoundtrip);

/// Headline: cells/sec through the full engine — parallel fan-out,
/// per-cell journal appends, store rebuild — on the micro grid.
void report_engine_rate(std::ostream& os, telemetry::RunReport& report, unsigned jobs) {
  const std::string dir =
      (fs::temp_directory_path() / "micro_sweep_engine").string();
  fs::create_directories(dir);
  sweep::SweepOptions opts;
  opts.jobs = jobs;
  opts.checkpoint_path = dir + "/ckpt.bin";
  opts.out_store_base = dir + "/cells.ccfs";
  const auto t0 = std::chrono::steady_clock::now();
  sweep::SweepEngine engine{micro_grid(), opts};
  const auto summary = engine.run();
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
  const double cps = static_cast<double>(summary.ran_cells) / wall.count();
  char line[256];
  std::snprintf(line, sizeof line,
                "{\"bench\": \"sweep_engine\", \"cells\": %llu, \"wall_sec\": %.4f, "
                "\"cells_per_sec\": %.1f}\n",
                static_cast<unsigned long long>(summary.ran_cells), wall.count(), cps);
  os << line;
  report.add_scalar("sweep_engine", "cells", static_cast<double>(summary.ran_cells));
  report.add_scalar("sweep_engine", "wall_sec", wall.count());
  report.add_scalar("sweep_engine", "cells_per_sec", cps);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace

int run_bench(int argc, char** argv) {
  using namespace ccc;
  using S = bench::Shared;
  bench::Cli cli{"micro_sweep", {S::kJobs, S::kOut, S::kReport}, {}, bench::Leftovers::kPassOn};
  cli.parse(argc, argv);
  std::vector<char*> bench_argv{argv[0]};
  for (auto& a : cli.rest) bench_argv.push_back(a.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::ostream& os = cli.output();
  telemetry::RunReport report{"micro_sweep", 0};
  report_engine_rate(os, report, cli.jobs);
  if (!report.emit(cli.report)) {
    std::cerr << "micro_sweep: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return 0;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("micro_sweep", [&] { return run_bench(argc, argv); });
}
