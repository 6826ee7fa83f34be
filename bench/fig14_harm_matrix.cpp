// E14 (§1/§4, ref [68]): the pairwise harm matrix behind the paper's framing.
//
// Ware et al. propose judging a CCA by the *harm* it inflicts on incumbent
// flows relative to their solo performance. The paper's §1 recounts this
// literature to motivate asking whether contention matters at all. This
// bench computes the full pairwise matrix for the library's CCAs under
// DropTail — the worst case the §2 operator mechanisms are said to remove —
// and then the same matrix under per-flow FQ, where every entry should
// collapse toward the fair-share harm floor.
//
// Every cell is an independent simulation, so the whole grid (4 solo runs +
// 2 qdiscs x 4x4 pairings = 36 scenarios) fans out over an ExperimentRunner;
// pass `--jobs N` or set CCC_JOBS to pick the worker count. Results are
// bit-identical for any job count.
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/fairness.hpp"
#include "app/bulk.hpp"
#include "bench/cli.hpp"
#include "core/cca_registry.hpp"
#include "core/dumbbell.hpp"
#include "queue/drr_fair_queue.hpp"
#include "runner/experiment_runner.hpp"
#include "telemetry/run_report.hpp"
#include "util/table.hpp"

namespace {

using namespace ccc;

core::DumbbellConfig net40() {
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(40);
  cfg.one_way_delay = Time::ms(20);
  cfg.reverse_delay = Time::ms(20);
  cfg.buffer_bdp_multiple = 1.0;
  return cfg;
}

double solo_goodput(const std::string& cca) {
  core::DumbbellScenario net{net40()};
  net.add_flow(core::make_cca_factory(cca)(), std::make_unique<app::BulkApp>());
  net.run_until(Time::sec(8.0));
  const auto snap = net.snapshot_delivered();
  net.run_until(Time::sec(28.0));
  return net.goodput_mbps_since(0, snap, Time::sec(20.0));
}

/// Goodput of an incumbent `victim` once an `attacker` flow joins.
double contended_goodput(const std::string& victim, const std::string& attacker, bool fq) {
  std::unique_ptr<sim::Qdisc> qdisc;
  if (fq) {
    qdisc = std::make_unique<queue::DrrFairQueue>(core::dumbbell_buffer_bytes(net40()),
                                                  queue::FairnessKey::kPerFlow);
  }
  core::DumbbellScenario net{net40(), std::move(qdisc)};
  net.add_flow(core::make_cca_factory(victim)(), std::make_unique<app::BulkApp>());
  net.add_flow(core::make_cca_factory(attacker)(), std::make_unique<app::BulkApp>(), 2,
               Time::sec(2.0));
  net.run_until(Time::sec(10.0));
  const auto snap = net.snapshot_delivered();
  net.run_until(Time::sec(40.0));
  return net.goodput_mbps_since(0, snap, Time::sec(30.0));
}

/// One cell of the sweep: either a solo baseline or a victim/attacker pair.
struct Scenario {
  std::string victim;
  std::string attacker;  // empty = solo baseline
  bool fq{false};
};

}  // namespace

/// The bench body; main() below routes uncaught errors through the shared
/// guarded_main error boundary (structured message + exit-code contract).
int run_bench(int argc, char** argv) {
  using namespace ccc;
  using S = bench::Shared;
  bench::Cli cli{"fig14_harm_matrix", {S::kJobs, S::kOut, S::kReport}};
  cli.parse(argc, argv);
  std::ostream& os = cli.output();
  const std::vector<std::string> ccas{"reno", "cubic", "bbr", "vegas"};

  // Build the full scenario grid in display order, then fan it out.
  std::vector<Scenario> grid;
  for (const auto& c : ccas) grid.push_back({c, "", false});
  for (const bool fq : {false, true}) {
    for (const auto& victim : ccas) {
      for (const auto& attacker : ccas) grid.push_back({victim, attacker, fq});
    }
  }

  // Progress to stderr: the completion counter is the same text for any job
  // count, so redirected output stays comparable across runs.
  runner::RunnerOptions opts;
  opts.jobs = cli.jobs;
  opts.on_progress = [](std::size_t done, std::size_t total) {
    std::cerr << "\rscenario " << done << "/" << total << std::flush;
    if (done == total) std::cerr << "\n";
  };
  runner::ExperimentRunner pool{opts};
  const auto goodputs = pool.map<double>(grid.size(), [&](std::size_t i) {
    const Scenario& s = grid[i];
    return s.attacker.empty() ? solo_goodput(s.victim)
                              : contended_goodput(s.victim, s.attacker, s.fq);
  });

  std::map<std::string, double> solo;
  telemetry::RunReport report{"fig14_harm_matrix", net40().seed};
  for (std::size_t i = 0; i < ccas.size(); ++i) {
    solo[ccas[i]] = goodputs[i];
    report.add_scalar("solo", ccas[i] + "_mbps", goodputs[i]);
  }

  std::size_t next = ccas.size();
  for (const bool fq : {false, true}) {
    print_banner(os,
                 std::string{"E14: pairwise harm (rows = victim, cols = attacker) — "} +
                     (fq ? "per-flow FQ" : "DropTail FIFO"));
    std::vector<std::string> header{"victim \\ attacker"};
    for (const auto& c : ccas) header.push_back(c);
    TextTable t{header};
    const std::string scope = fq ? "fq-flow" : "droptail";
    for (const auto& victim : ccas) {
      std::vector<std::string> row{victim};
      for (std::size_t a = 0; a < ccas.size(); ++a) {
        const double h = harm(solo[victim], goodputs[next++]);
        row.push_back(TextTable::num(h, 2));
        report.add_scalar(scope, victim + "_vs_" + ccas[a] + "_harm", h);
      }
      t.add_row(std::move(row));
    }
    t.print(os);
  }

  os << "\nshape check: the fair-share harm floor is 0.5 (an equal split halves "
        "the incumbent). Under DropTail, BBR and cubic columns inflict well above "
        "it on delay-based victims; under FQ every column sits near 0.5 — the "
        "qdisc, not the CCA pairing, decides (the paper's §2.1 claim).\n";
  if (!report.emit(cli.report)) {
    std::cerr << "fig14_harm_matrix: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return 0;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("fig14_harm_matrix", [&] { return run_bench(argc, argv); });
}
