// Micro-benchmarks: streaming ingest throughput (src/ingest/).
//
// Covers the three costs a deployment sizes against: pulling views out of a
// spool of sealed shards, parsing the CSV row protocol, and the full daemon
// loop (spool -> classify -> changepoint -> tallies). Besides the
// google-benchmark micros, main() emits one machine-readable JSON line per
// headline metric; flows/sec through the full daemon loop is the number
// scripts/run_perf_smoke.sh gates against BENCH_ingest.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/cli.hpp"
#include "ingest/daemon.hpp"
#include "ingest/sources.hpp"
#include "mlab/csv_io.hpp"
#include "mlab/synthetic.hpp"
#include "pipeline/stage.hpp"
#include "store/flow_store.hpp"
#include "telemetry/run_report.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ccc;

/// One shared spool fixture per process: a synthetic corpus sealed into
/// multiple shards, so SpoolSource pays its real open/advance costs.
const std::string& spool_dir(std::size_t n_flows = 20000) {
  static std::string dir;
  if (dir.empty()) {
    dir = (fs::temp_directory_path() / ("micro_ingest_spool." + std::to_string(n_flows)))
              .string();
    fs::create_directories(dir);
    store::ShardedFlowStoreWriter writer{dir + "/spool.ccfs", 4096};
    mlab::SyntheticConfig cfg;
    cfg.n_flows = n_flows;
    Rng rng{7};
    mlab::generate_dataset_stream(
        cfg, rng, [&writer](mlab::NdtRecord&& rec) { writer.append(rec); });
    (void)writer.finish();
  }
  return dir;
}

void BM_SpoolPull(benchmark::State& state) {
  // View extraction only: shard open + advance + per-flow view assembly.
  const auto& dir = spool_dir();
  for (auto _ : state) {
    ingest::SpoolSource src{dir};
    std::vector<store::FlowView> batch;
    double acc = 0.0;
    std::size_t n = 0;
    for (;;) {
      batch.clear();
      const auto pr = src.pull(batch, 256);
      for (const auto& v : batch) acc += v.mean_throughput_mbps;
      n += pr.n;
      if (pr.state != pipeline::StreamState::kReady) break;
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  }
}
BENCHMARK(BM_SpoolPull);

void BM_CsvRowParse(benchmark::State& state) {
  // The socket/stdin hot path: one CSV row -> one NdtRecord.
  mlab::SyntheticConfig cfg;
  cfg.n_flows = 64;
  Rng rng{11};
  const auto dataset = mlab::generate_dataset(cfg, rng);
  std::vector<std::string> lines;
  for (const auto& r : dataset) {
    std::ostringstream os;
    mlab::write_csv_record(os, r);
    auto s = os.str();
    s.pop_back();  // drop the newline, as the line splitters do
    lines.push_back(std::move(s));
  }
  mlab::NdtRecord rec;
  for (auto _ : state) {
    for (const auto& line : lines) {
      benchmark::DoNotOptimize(mlab::parse_csv_row(line, rec));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lines.size()));
}
BENCHMARK(BM_CsvRowParse);

void BM_DaemonLoop(benchmark::State& state) {
  // Full service loop: spool pull -> validate -> classify -> changepoint ->
  // tallies, with epoch flushes at the default cadence.
  const auto& dir = spool_dir();
  for (auto _ : state) {
    ingest::SpoolSource src{dir};
    ingest::IngestDaemon daemon{ingest::IngestConfig{}};
    const auto res = daemon.run(src);
    benchmark::DoNotOptimize(res.flows);
    state.SetItemsProcessed(static_cast<std::int64_t>(res.flows));
  }
}
BENCHMARK(BM_DaemonLoop);

/// Wall-clock flows/sec through the full daemon loop over the spool
/// fixture — the ingest headline run_perf_smoke.sh gates.
void report_daemon_rate(std::ostream& os, telemetry::RunReport& report) {
  const auto& dir = spool_dir();
  ingest::SpoolOptions sopts;
  sopts.replay = 5;  // ~100k flows: long enough to swamp open costs
  ingest::SpoolSource src{dir, sopts};
  ingest::IngestDaemon daemon{ingest::IngestConfig{}};
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = daemon.run(src);
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
  const double fps = static_cast<double>(res.flows) / wall.count();
  char line[256];
  std::snprintf(line, sizeof line,
                "{\"bench\": \"ingest_daemon\", \"flows\": %llu, \"wall_sec\": %.4f, "
                "\"flows_per_sec\": %.0f}\n",
                static_cast<unsigned long long>(res.flows), wall.count(), fps);
  os << line;
  report.add_scalar("ingest_daemon", "flows", static_cast<double>(res.flows));
  report.add_scalar("ingest_daemon", "wall_sec", wall.count());
  report.add_scalar("ingest_daemon", "flows_per_sec", fps);
}

/// Spool view-extraction flows/sec (no analysis) — the source-side ceiling.
void report_spool_rate(std::ostream& os, telemetry::RunReport& report) {
  const auto& dir = spool_dir();
  ingest::SpoolOptions sopts;
  sopts.replay = 25;  // ~500k flow visits
  ingest::SpoolSource src{dir, sopts};
  std::vector<store::FlowView> batch;
  double acc = 0.0;
  std::uint64_t flows = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    batch.clear();
    const auto pr = src.pull(batch, 256);
    for (const auto& v : batch) acc += v.mean_throughput_mbps;
    flows += pr.n;
    if (pr.state != pipeline::StreamState::kReady) break;
  }
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
  benchmark::DoNotOptimize(acc);
  const double fps = static_cast<double>(flows) / wall.count();
  char line[256];
  std::snprintf(line, sizeof line,
                "{\"bench\": \"spool_pull\", \"flows\": %llu, \"wall_sec\": %.4f, "
                "\"flows_per_sec\": %.0f}\n",
                static_cast<unsigned long long>(flows), wall.count(), fps);
  os << line;
  report.add_scalar("spool_pull", "flows", static_cast<double>(flows));
  report.add_scalar("spool_pull", "wall_sec", wall.count());
  report.add_scalar("spool_pull", "flows_per_sec", fps);
}

}  // namespace

int run_bench(int argc, char** argv) {
  using namespace ccc;
  using S = bench::Shared;
  bench::Cli cli{"micro_ingest", {S::kOut, S::kReport}, {}, bench::Leftovers::kPassOn};
  cli.parse(argc, argv);
  std::vector<char*> bench_argv{argv[0]};
  for (auto& a : cli.rest) bench_argv.push_back(a.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::ostream& os = cli.output();
  telemetry::RunReport report{"micro_ingest", 0};
  report_daemon_rate(os, report);
  report_spool_rate(os, report);
  if (!report.emit(cli.report)) {
    std::cerr << "micro_ingest: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  std::error_code ec;
  fs::remove_all(spool_dir(), ec);
  return 0;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("micro_ingest", [&] { return run_bench(argc, argv); });
}
