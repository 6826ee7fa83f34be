// Reproduces the §3.1 M-Lab passive analysis (Figure 2).
//
// Paper setup: one month of NDT data (June 2023, 9,984 flows); categorize
// flows as application-limited (AppLimited > 0), receiver-limited
// (RWndLimited > 0), or cellular, and search the remainder's throughput
// series for level changes indicating possible contention.
//
// Substitution: the M-Lab BigQuery archive is replaced by the synthetic
// generator (see DESIGN.md), which follows the cited measurement literature
// and adds ground-truth labels — so this bench additionally reports the
// pipeline's precision/recall, quantifying the paper's claim that passive
// measurement "cannot conclusively determine" contention.
//
// Beyond the paper-scale default, two extra flags exercise the sharded
// store + pipeline path (src/store/, src/pipeline/):
//
//   --scale N        analyze N x 9,984 synthetic flows, streamed through a
//                    temporary ccfs store (constant memory) and the sharded
//                    pipeline at --jobs parallelism
//   --input PATH     analyze an existing dataset: *.ccfs (zero-copy mmap)
//                    or *.csv (converted to a temporary ccfs store first)
//   --strict         fail fast on the first corrupt shard/record instead of
//                    the default skip-count-and-continue degradation
//
// The default invocation (neither flag) runs the pipeline serially over the
// in-memory dataset; its output is byte-identical to the pre-store version
// of this bench.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/cli.hpp"
#include "bench/progress.hpp"
#include "ingest/report.hpp"
#include "mlab/synthetic.hpp"
#include "pipeline/forked.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/shard_set.hpp"
#include "store/convert.hpp"
#include "store/flow_store.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_report.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ccc;

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(),
                                                suffix.size(), suffix) == 0;
}

/// fig2's semantic checks on top of the flag values: dataset suffix,
/// readability, --input/--scale exclusivity. A typo'd or missing dataset is
/// a usage error before any work starts, not a mid-run exception.
void validate_flags(const bench::Cli& cli) {
  if (!cli.input.empty()) {
    if (!ends_with(cli.input, ".csv") && !ends_with(cli.input, ".ccfs")) {
      throw Error::config("--input", "path '" + cli.input + "' must end in .csv or .ccfs");
    }
    if (std::ifstream probe{cli.input}; !probe) {
      throw Error::config("--input", "cannot open '" + cli.input + "'");
    }
    if (cli.scale != 0) {
      throw Error::config("--input", "--input and --scale are mutually exclusive");
    }
  }
}

/// Temporary ccfs shards for the streamed paths; removed on destruction.
struct ScratchStore {
  std::vector<std::string> paths;
  ~ScratchStore() {
    std::error_code ec;
    for (const auto& p : paths) fs::remove(p, ec);
  }
};

// ---------- the paper-scale (in-memory) path ----------

int run_paper_scale(bench::Cli& cli, std::uint64_t seed) {
  std::ostream& os = cli.output();
  mlab::SyntheticConfig scfg;  // n_flows = 9,984, the paper's query size
  Rng rng{seed};
  const auto dataset = mlab::generate_dataset(scfg, rng);

  print_banner(os, "Figure 2 / §3.1: passive NDT analysis (" +
                              std::to_string(dataset.size()) + " flows)");

  const auto report = pipeline::run_pipeline(
      pipeline::MemorySource{dataset},
      {.jobs = 1, .keep_findings = true, .enable_telemetry = false});
  const auto verdict_counts = report.verdict_map();
  const auto total = static_cast<double>(report.flows);

  TextTable verdicts{{"pipeline verdict", "flows", "fraction"}};
  for (const auto& [v, c] : verdict_counts) {
    verdicts.add_row({std::string{pipeline::to_string(v)}, std::to_string(c),
                      TextTable::num(static_cast<double>(c) / total, 3)});
  }
  verdicts.print(os);

  os << "\nfiltered before change-point stage: "
            << TextTable::num(report.filtered_fraction() * 100, 1) << "%\n";

  // Per-archetype confusion: how each ground-truth class was classified.
  print_banner(os, "Ground-truth breakdown (synthetic labels)");
  std::map<mlab::FlowArchetype, std::map<pipeline::Verdict, int>> confusion;
  std::map<mlab::FlowArchetype, int> totals;
  for (const auto& f : report.findings) {
    ++confusion[f.truth][f.verdict];
    ++totals[f.truth];
  }
  TextTable conf{{"truth", "flows", "filtered", "no-shift", "contention-suspect"}};
  for (const auto& [truth, row] : confusion) {
    int filtered = 0;
    int noshift = 0;
    int suspect = 0;
    for (const auto& [v, c] : row) {
      if (v == pipeline::Verdict::kNoLevelShift) {
        noshift += c;
      } else if (v == pipeline::Verdict::kContentionSuspect) {
        suspect += c;
      } else {
        filtered += c;
      }
    }
    conf.add_row({std::string{mlab::to_string(truth)}, std::to_string(totals[truth]),
                  std::to_string(filtered), std::to_string(noshift), std::to_string(suspect)});
  }
  conf.print(os);

  print_banner(os, "Pipeline scoring (impossible with real M-Lab data)");
  os << "precision of 'contention-suspect': " << TextTable::num(report.precision(), 3)
            << "\nrecall of true contention:          " << TextTable::num(report.recall(), 3)
            << "\nfalse positives (mostly policing/ABR aliasing): " << report.false_positives
            << "\n";

  // CDF of detected shift magnitudes among suspects (the figure's curve).
  std::vector<double> magnitudes;
  for (const auto& f : report.findings) {
    for (double m : f.shift_magnitudes) magnitudes.push_back(m);
  }
  if (!magnitudes.empty()) {
    print_banner(os, "CDF of detected level-shift magnitudes");
    TextTable cdf{{"shift fraction", "cumulative fraction"}};
    const Cdf c{magnitudes};
    for (const auto& [x, q] : c.curve(11)) {
      cdf.add_row({TextTable::num(x, 2), TextTable::num(q, 2)});
    }
    cdf.print(os);
  }

  // Shape check for EXPERIMENTS.md: most flows filtered; suspects a small
  // minority — consistent with "contention is not the dominant factor".
  const auto suspect_it = verdict_counts.find(pipeline::Verdict::kContentionSuspect);
  const double suspects =
      suspect_it == verdict_counts.end()
          ? 0.0
          : static_cast<double>(suspect_it->second) / total;
  os << "\nshape check: filtered=" << TextTable::num(report.filtered_fraction(), 2)
            << " suspect=" << TextTable::num(suspects, 3) << " -> "
            << (report.filtered_fraction() > 0.5 && suspects < 0.2 ? "REPRODUCED"
                                                                   : "NOT reproduced")
            << "\n";
  telemetry::RunReport run_report{"fig2_mlab_passive", seed};
  for (const auto& [v, c] : verdict_counts) {
    run_report.add_scalar("verdicts", std::string{pipeline::to_string(v)},
                          static_cast<double>(c));
  }
  run_report.add_scalar("pipeline", "filtered_fraction", report.filtered_fraction());
  run_report.add_scalar("pipeline", "precision", report.precision());
  run_report.add_scalar("pipeline", "recall", report.recall());
  run_report.add_scalar("pipeline", "false_positives",
                        static_cast<double>(report.false_positives));
  run_report.add_scalar("pipeline", "suspect_fraction", suspects);
  if (!run_report.emit(cli.report)) {
    std::cerr << "fig2_mlab_passive: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return report.filtered_fraction() > 0.5 && suspects < 0.2 ? 0 : 1;
}

// ---------- the at-scale (store + sharded pipeline) path ----------

int run_at_scale(bench::Cli& cli, std::uint64_t seed) {
  std::ostream& os = cli.output();

  // Stage 0: materialize the dataset as ccfs shards (unless given one).
  ScratchStore scratch;
  std::vector<std::string> store_paths;
  std::string dataset_desc;
  if (!cli.input.empty() && ends_with(cli.input, ".ccfs")) {
    store_paths.push_back(cli.input);
    dataset_desc = cli.input;
  } else {
    const auto scratch_base =
        (fs::temp_directory_path() /
         ("fig2_scale." + std::to_string(static_cast<std::uint64_t>(seed)) + "." +
          std::to_string(cli.scale) + ".ccfs"))
            .string();
    // 64k flows/shard keeps shard files ~55 MB and lets very large runs
    // be inspected / resumed file by file.
    store::ShardedFlowStoreWriter writer{scratch_base, 65536};
    if (!cli.input.empty()) {
      std::ifstream csv{cli.input};
      if (!csv) {
        std::cerr << "fig2_mlab_passive: cannot open --input file '" << cli.input << "'\n";
        return 2;
      }
      mlab::CsvParseStats stats;
      mlab::for_each_csv_record(
          csv, [&writer](mlab::NdtRecord&& rec) { writer.append(rec); }, &stats);
      if (stats.rows_skipped > 0) {
        std::cerr << "fig2_mlab_passive: skipped " << stats.rows_skipped
                  << " malformed CSV rows (parsed " << stats.rows_parsed << ")\n";
      }
      dataset_desc = cli.input;
    } else {
      mlab::SyntheticConfig scfg;
      scfg.n_flows *= cli.scale;
      Rng rng{seed};
      mlab::generate_dataset_stream(
          scfg, rng, [&writer](mlab::NdtRecord&& rec) { writer.append(rec); });
      dataset_desc = "synthetic x" + std::to_string(cli.scale);
    }
    store_paths = writer.finish();
    scratch.paths = store_paths;
  }

  // --procs N: the fork-per-shard runner. The parent opens NOTHING — each
  // child opens only its own shard (windowed pread when --readahead is
  // set), so peak RSS is bounded by procs * one shard instead of the whole
  // dataset, and the merged aggregates are byte-identical for any N (see
  // pipeline/forked.hpp). Deliberately not the default: the threaded path
  // is faster when the dataset fits in RAM.
  if (cli.procs > 0) {
    pipeline::ShardOpenOptions fsopts;
    fsopts.strict = cli.strict;
    fsopts.sequential = cli.readahead > 0;
    fsopts.readahead_flows = cli.readahead;
    pipeline::PipelineConfig fcfg;
    fcfg.strict = cli.strict;
    fcfg.readahead_flows = cli.readahead;
    const auto forked =
        pipeline::run_pipeline_forked(store_paths, fcfg, fsopts, cli.procs);
    for (const auto& f : forked.failures) {
      std::cerr << "fig2_mlab_passive: skipping unreadable shard: " << f.detail << "\n";
    }
    if (forked.shards_opened == 0) {
      std::cerr << "fig2_mlab_passive: no readable shards in " << dataset_desc << "\n";
      return 1;
    }
    if (forked.result.flows == 0) {
      std::cerr << "fig2_mlab_passive: dataset " << dataset_desc << " has no flows\n";
      return 1;
    }
    print_banner(os, "Figure 2 / §3.1 at scale: " + std::to_string(forked.result.flows) +
                         " flows (" + dataset_desc + ", " +
                         std::to_string(forked.shards_opened) + " ccfs shards)");
    const auto summary = ingest::print_passive_aggregates(os, forked.result);
    telemetry::RunReport run_report{"fig2_mlab_passive", seed};
    ingest::add_passive_scalars(run_report, forked.result, summary.suspect_fraction);
    run_report.add_registry("pipeline", forked.result.metrics, Time::zero());
    if (!run_report.emit(cli.report)) {
      std::cerr << "fig2_mlab_passive: cannot write --report file '" << cli.report << "'\n";
      return 2;
    }
    return summary.reproduced ? 0 : 1;
  }

  // Stage 0.5: open the shards under the run's degradation policy. In the
  // default degrade mode a torn/corrupt/unreadable shard is skipped and
  // counted; --strict rethrows the first ccc::Error (guarded_main turns it
  // into a diagnostic + exit 1).
  telemetry::MetricRegistry io_metrics;
  pipeline::ShardOpenOptions sopts;
  sopts.strict = cli.strict;
  sopts.sequential = cli.readahead > 0;
  const auto shards = pipeline::ShardSet::open(store_paths, sopts, &io_metrics);
  for (const auto& f : shards.failures()) {
    std::cerr << "fig2_mlab_passive: skipping unreadable shard: " << f.detail << "\n";
  }
  if (shards.shards_opened() == 0) {
    std::cerr << "fig2_mlab_passive: no readable shards in " << dataset_desc << "\n";
    return 1;
  }
  if (shards.flows() == 0) {
    std::cerr << "fig2_mlab_passive: dataset " << dataset_desc << " has no flows\n";
    return 1;
  }

  print_banner(os, "Figure 2 / §3.1 at scale: " + std::to_string(shards.flows()) +
                       " flows (" + dataset_desc + ", " +
                       std::to_string(shards.shards_opened()) + " ccfs shards)");

  pipeline::PipelineConfig pcfg;
  pcfg.jobs = cli.jobs;
  pcfg.strict = cli.strict;
  pcfg.readahead_flows = cli.readahead;
  pcfg.on_progress = bench::stderr_progress("fig2_mlab_passive: shards");
  auto res = pipeline::run_pipeline(shards.source(), pcfg);
  res.metrics.merge_from(io_metrics);  // shards_failed / shards_opened

  // The whole aggregate block — verdict table through shape check — is the
  // shared ingest printer, so the daemon replaying this corpus produces a
  // byte-identical table by construction.
  const auto summary = ingest::print_passive_aggregates(os, res);

  telemetry::RunReport run_report{"fig2_mlab_passive", seed};
  ingest::add_passive_scalars(run_report, res, summary.suspect_fraction);
  run_report.add_registry("pipeline", res.metrics, Time::zero());
  if (!run_report.emit(cli.report)) {
    std::cerr << "fig2_mlab_passive: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return summary.reproduced ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main("fig2_mlab_passive", [&] {
    using S = bench::Shared;
    bench::Cli cli{"fig2_mlab_passive", {S::kJobs, S::kSeed, S::kInput, S::kScale, S::kReadahead,
                                         S::kStrict, S::kProcs, S::kOut, S::kReport}};
    cli.parse(argc, argv);
    validate_flags(cli);
    const std::uint64_t seed = cli.seed_or(20230601);  // June 2023, in spirit
    if (cli.input.empty() && cli.scale == 0) return run_paper_scale(cli, seed);
    return run_at_scale(cli, seed);
  });
}
