// Reproduces Figure 3 (§3.2): the elasticity measurement proof of concept.
//
// Paper setup: a 48 Mbit/s, 100 ms-RTT emulated Mahimahi link; a Nimbus
// probe with mode switching disabled; five cross-traffic types for 45 s
// each: backlogged Reno, backlogged BBR, an ABR video stream, Poisson short
// flows, and 12 Mbit/s CBR UDP.
//
// Expected shape (the paper's headline): "clearly higher values for the
// elasticity metric for the flows that contend for bandwidth" — Reno and BBR
// phases above the elastic threshold (2.0), video / short / CBR below it.
//
// The five phases run as independent single-phase simulations fanned out
// over an ExperimentRunner (`--jobs N` / CCC_JOBS); pass `--serial` to run
// the original continuous single-simulation timeline instead.
//
// `--service` switches to the streaming-service sweep: the same five
// cross-traffic archetypes replayed across three path cells (wired/DropTail
// plus the PR-8 wireless/AQM corners) with every probe z sample mirrored
// into a src/elastic SessionTable session, scoring the incremental
// streaming verdict against the offline full-FFT classifier tick by tick.
#include <iostream>

#include "bench/cli.hpp"
#include "core/elasticity_study.hpp"
#include "elastic/study.hpp"
#include "util/table.hpp"

namespace {

/// The --service sweep body: agreement table + shape check. Success means
/// every (phase, cell) scenario's streaming verdict agrees with the offline
/// classifier on >= 97% of warm ticks.
int run_service_sweep(ccc::bench::Cli& cli, const ccc::core::ElasticityPocConfig& cfg,
                      std::ostream& os) {
  using namespace ccc;
  constexpr double kMinAgreement = 0.97;

  const auto sweep = elastic::run_service_sweep(cfg, cli.serial ? 1 : cli.jobs);

  TextTable table{{"phase", "cell", "ticks", "agreement", "offline frac>thresh",
                   "service frac>thresh", "verdict", "confidence"}};
  for (const auto& s : sweep.scenarios) {
    table.add_row({s.phase, s.cell, std::to_string(s.ticks), TextTable::num(s.agreement, 3),
                   TextTable::num(s.offline_frac_elastic, 2),
                   TextTable::num(s.service_frac_elastic, 2),
                   std::string{elastic::verdict_name(s.final_verdict)},
                   TextTable::num(s.final_confidence, 2)});
  }
  table.print(os);

  os << "\nshape check: min agreement=" << TextTable::num(sweep.min_agreement, 3)
     << " (mean " << TextTable::num(sweep.mean_agreement, 3) << ") vs floor "
     << TextTable::num(kMinAgreement, 2) << " -> "
     << (sweep.min_agreement >= kMinAgreement ? "REPRODUCED" : "NOT reproduced") << "\n";

  if (!sweep.report.emit(cli.report)) {
    std::cerr << "fig3_elasticity_poc: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return sweep.min_agreement >= kMinAgreement ? 0 : 1;
}

}  // namespace

/// The bench body; main() below routes uncaught errors through the shared
/// guarded_main error boundary (structured message + exit-code contract).
int run_bench(int argc, char** argv) {
  using namespace ccc;

  using S = bench::Shared;
  bench::Cli cli{"fig3_elasticity_poc",
                 {S::kJobs, S::kSeed, S::kDuration, S::kSerial, S::kService, S::kOut, S::kReport}};
  cli.parse(argc, argv);
  std::ostream& os = cli.output();

  core::ElasticityPocConfig cfg;  // paper defaults: 48 Mbit/s, 100 ms, 45 s
  cfg.seed = cli.seed_or(cfg.seed);
  cfg.phase_duration = cli.duration_or(cfg.phase_duration);

  if (cli.service) {
    print_banner(os, "Figure 3 (service): streaming elasticity verdicts vs offline FFT");
    os << "link " << cfg.link_rate.to_mbps() << " Mbit/s, RTT "
       << (2 * cfg.one_way_delay).to_ms() << " ms, phases of "
       << cfg.phase_duration.to_sec() << " s, 3 path cells\n";
    return run_service_sweep(cli, cfg, os);
  }
  print_banner(os, "Figure 3: actively measuring elasticity (Nimbus probe)");
  os << "link " << cfg.link_rate.to_mbps() << " Mbit/s, RTT "
     << (2 * cfg.one_way_delay).to_ms() << " ms, phases of "
     << cfg.phase_duration.to_sec() << " s\n";

  const auto result = cli.serial ? core::run_elasticity_poc(cfg)
                                 : core::run_elasticity_poc_parallel(cfg, cli.jobs);

  TextTable phases{{"phase", "window(s)", "median elasticity", "p90", "frac>thresh",
                    "probe goodput (Mbit/s)", "verdict"}};
  for (const auto& p : result.phases) {
    phases.add_row({p.name,
                    TextTable::num(p.t_begin_sec, 0) + "-" + TextTable::num(p.t_end_sec, 0),
                    TextTable::num(p.median_elasticity, 2), TextTable::num(p.p90_elasticity, 2),
                    TextTable::num(p.frac_elastic, 2),
                    TextTable::num(p.probe_goodput_mbps, 1),
                    p.median_elasticity >= nimbus::kElasticThreshold ? "ELASTIC (contends)"
                                                                     : "inelastic"});
  }
  phases.print(os);

  os << "\nElasticity time series (1 s bins, for plotting):\n";
  TextTable series{{"t(s)", "elasticity"}};
  // Downsample the 250 ms samples to 1 s means to keep output readable.
  const double t_end = result.phases.back().t_end_sec;
  for (double t = 0.0; t < t_end; t += 1.0) {
    const double eta = result.elasticity.mean_in(t, t + 1.0);
    series.add_row({TextTable::num(t, 0), TextTable::num(eta, 2)});
  }
  series.print_csv(os);

  // Reproduction check, printed for EXPERIMENTS.md.
  const double min_elastic =
      std::min(result.phases[0].median_elasticity, result.phases[1].median_elasticity);
  const double max_inelastic =
      std::max({result.phases[2].median_elasticity, result.phases[3].median_elasticity,
                result.phases[4].median_elasticity});
  os << "\nshape check: min(elastic phases)=" << TextTable::num(min_elastic, 2)
     << " vs max(inelastic phases)=" << TextTable::num(max_inelastic, 2) << " -> "
     << (min_elastic > max_inelastic ? "REPRODUCED" : "NOT reproduced") << "\n";

  if (!result.report.emit(cli.report)) {
    std::cerr << "fig3_elasticity_poc: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return min_elastic > max_inelastic ? 0 : 1;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("fig3_elasticity_poc", [&] { return run_bench(argc, argv); });
}
