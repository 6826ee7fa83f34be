// The grand-matrix sweep (DESIGN.md "Sweep engine & scenario axes"): every
// CCA x cross-traffic x qdisc x link-model x buffer-depth cell of the grid,
// fanned out over the ExperimentRunner, checkpointed per cell, streamed
// into ccfs shards. One command line, wrapped:
//
//   sweep_matrix --grid "cca=reno,cubic;qdisc=droptail,fq_codel"
//                --checkpoint sweep.ckpt --resume
//                --out-store sweep.ccfs --jobs 16
//
// A killed run restarts with --resume and skips every journaled cell; the
// final store is byte-identical to an uninterrupted run at any --jobs.
// The table aggregates the §2.1 question per (qdisc, link): how much of the
// contention outcome (share / fairness / harm) the operator's queue choice
// determines, across every CCA and cross-traffic mix at once.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/cli.hpp"
#include "sweep/sweep.hpp"
#include "telemetry/run_report.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace ccc;

/// sweep_matrix's own flags (the shared ones live in bench::Cli).
struct MatrixOptions {
  std::string out_store;
  std::uint64_t flows_per_shard{512};
};

}  // namespace

int run_bench(int argc, char** argv) {
  using namespace ccc;
  MatrixOptions mopt;
  using S = bench::Shared;
  bench::Cli cli{
      "sweep_matrix",
      {S::kJobs, S::kSeed, S::kDuration, S::kGrid, S::kCheckpoint, S::kResume, S::kOut,
       S::kReport},
      {bench::flag_string("--out-store", "BASE", "write per-cell results as rotated ccfs shards",
                          mopt.out_store),
       bench::flag_count("--flows-per-shard", "cells per output shard (default 512)", 1,
                         ~std::uint64_t{0}, mopt.flows_per_shard)}};
  cli.parse(argc, argv);

  sweep::GridSpec grid = sweep::GridSpec::parse(cli.grid);
  grid.duration = cli.duration_or(grid.duration);

  sweep::SweepOptions sopt;
  sopt.jobs = cli.jobs;
  sopt.base_seed = cli.seed_or(sopt.base_seed);
  sopt.checkpoint_path = cli.checkpoint;
  sopt.resume = cli.resume;
  sopt.out_store_base = mopt.out_store;
  sopt.flows_per_shard = mopt.flows_per_shard;
  sopt.on_progress = [](std::size_t done, std::size_t total) {
    if (done % 50 == 0 || done == total) {
      std::fprintf(stderr, "\rsweep_matrix: %zu/%zu cells", done, total);
      if (done == total) std::fputc('\n', stderr);
    }
  };

  sweep::SweepEngine engine{std::move(grid), sopt};
  const sweep::SweepSummary summary = engine.run();

  std::ostream& os = cli.output();
  print_banner(os, "Grand matrix: " + std::to_string(summary.total_cells) + " cells (" +
                       std::to_string(summary.resumed_cells) + " resumed, " +
                       std::to_string(summary.ran_cells) + " simulated), grid " +
                       engine.grid().signature());

  // Aggregate the §2.1 answer per (qdisc, link): the operator-controlled
  // coordinates. Contended cells only — solo cells have share 1 and harm 0
  // by construction and would dilute every mean.
  struct Agg {
    RunningStats share, jain, harm;
    double max_harm{0.0};
    std::uint64_t drops{0}, marks{0};
  };
  std::map<std::pair<std::string, std::string>, Agg> by_cell;
  for (const auto& r : summary.results) {
    const sweep::CellSpec spec = engine.grid().cell(r.cell_id);
    if (spec.cross == sweep::CrossTraffic::kNone) continue;
    Agg& a = by_cell[{std::string{to_string(spec.qdisc)}, std::string{to_string(spec.link)}}];
    a.share.add(r.share);
    a.jain.add(r.jain);
    a.harm.add(r.harm_frac);
    a.max_harm = std::max(a.max_harm, r.harm_frac);
    a.drops += r.drops;
    a.marks += r.ecn_marks;
  }

  telemetry::RunReport report{"sweep_matrix", sopt.base_seed};
  TextTable t{
      {"qdisc", "link", "mean share", "mean jain", "mean harm", "max harm", "drops", "marks"}};
  for (const auto& [key, a] : by_cell) {
    t.add_row({key.first, key.second, TextTable::num(a.share.mean(), 3),
               TextTable::num(a.jain.mean(), 3), TextTable::num(a.harm.mean(), 3),
               TextTable::num(a.max_harm, 3), std::to_string(a.drops),
               std::to_string(a.marks)});
    const std::string scope = key.first + "." + key.second;
    report.add_scalar(scope, "mean_share", a.share.mean());
    report.add_scalar(scope, "mean_jain", a.jain.mean());
    report.add_scalar(scope, "mean_harm", a.harm.mean());
    report.add_scalar(scope, "max_harm", a.max_harm);
    report.add_scalar(scope, "drops", static_cast<double>(a.drops));
    report.add_scalar(scope, "ecn_marks", static_cast<double>(a.marks));
  }
  t.print(os);
  os << "\nshape check: the flow-isolating qdiscs (fq, fq_codel) should lift mean\n"
        "share and Jain toward the fair split and trim the worst-case harm tail,\n"
        "while the FIFO family spreads with the CCA pairing — the operator's\n"
        "queue, not the CCA, decides who gets what (paper §2.1). Mean harm stays\n"
        "well above zero even under FQ: harm is measured against a solo run, so\n"
        "a perfectly fair split with one elastic competitor already costs ~0.5.\n";
  if (!summary.shard_paths.empty()) {
    os << "\nwrote " << summary.results.size() << " cells to " << summary.shard_paths.size()
       << " shard(s): " << summary.shard_paths.front();
    if (summary.shard_paths.size() > 1) os << " ... " << summary.shard_paths.back();
    os << "\n";
  }
  if (!report.emit(cli.report)) {
    std::cerr << "sweep_matrix: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return 0;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("sweep_matrix", [&] { return run_bench(argc, argv); });
}
