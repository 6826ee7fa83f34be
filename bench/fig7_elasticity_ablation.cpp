// E7: sensitivity of the elasticity measurement tool (not in the paper; an
// ablation of the proposed §3.2 methodology, as DESIGN.md calls out).
//
// Sweeps (a) pulse amplitude and (b) mixed cross traffic (elastic Reno plus
// inelastic CBR at varying ratios), reporting the measured elasticity. This
// probes the measurement study's design choices: how strong must pulses be,
// and does partial elasticity still register?
//
// Each (amplitude, cross-traffic) point is an independent simulation; the
// whole sweep fans out over an ExperimentRunner (`--jobs N` / CCC_JOBS) with
// bit-identical results for any job count.
#include <iostream>
#include <memory>
#include <vector>

#include "app/bulk.hpp"
#include "app/stop_at.hpp"
#include "bench/cli.hpp"
#include "cca/new_reno.hpp"
#include "core/dumbbell.hpp"
#include "nimbus/nimbus.hpp"
#include "runner/experiment_runner.hpp"
#include "telemetry/run_report.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace ccc;

struct ProbeRun {
  double median_eta{0.0};
  double probe_mbps{0.0};
};

ProbeRun run_probe(double amplitude, double cbr_mbps, bool reno_on) {
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(48);
  cfg.one_way_delay = Time::ms(50);
  cfg.reverse_delay = Time::ms(50);
  core::DumbbellScenario net{cfg};

  nimbus::NimbusConfig ncfg;
  ncfg.pulse_amplitude = amplitude;
  auto nim = std::make_unique<nimbus::NimbusCca>(net.scheduler(), ncfg);
  auto* probe = nim.get();
  net.add_flow(std::move(nim), std::make_unique<app::BulkApp>());

  const Time end = Time::sec(40.0);
  if (reno_on) {
    net.add_flow(std::make_unique<cca::NewReno>(),
                 std::make_unique<app::StopAtApp>(std::make_unique<app::BulkApp>(), end), 2,
                 Time::sec(2.0));
  }
  if (cbr_mbps > 0.0) net.add_cbr(Rate::mbps(cbr_mbps), Time::sec(2.0), end, 2);

  std::vector<double> etas;
  net.run_until(Time::sec(12.0));
  for (int i = 0; i < 56; ++i) {
    net.run_until(Time::sec(12.0) + Time::ms(500 * (i + 1)));
    etas.push_back(probe->elasticity());
  }
  const auto snap = net.snapshot_delivered();
  const Time t0 = net.scheduler().now();
  net.run_until(end);
  ProbeRun out;
  out.median_eta = median(etas);
  out.probe_mbps = net.goodput_mbps_since(0, snap, end - t0);
  return out;
}

/// One sweep point, tagged with which table (E7a or E7b) it belongs to.
struct Point {
  bool table_b{false};
  double amplitude{0.25};
  double cbr_mbps{0.0};
  bool reno{false};
};

}  // namespace

/// The bench body; main() below routes uncaught errors through the shared
/// guarded_main error boundary (structured message + exit-code contract).
int run_bench(int argc, char** argv) {
  using namespace ccc;
  using S = bench::Shared;
  bench::Cli cli{"fig7_elasticity_ablation", {S::kJobs, S::kOut, S::kReport}};
  cli.parse(argc, argv);
  std::ostream& os = cli.output();

  std::vector<Point> sweep;
  for (const double amp : {0.0625, 0.125, 0.25, 0.4}) {
    for (const bool reno : {true, false}) {
      sweep.push_back({false, amp, reno ? 0.0 : 12.0, reno});
    }
  }
  for (const double cbr : {0.0, 8.0, 16.0, 24.0}) {
    for (const bool reno : {false, true}) {
      if (!reno && cbr == 0.0) continue;  // empty link: nothing to measure
      sweep.push_back({true, 0.25, cbr, reno});
    }
  }

  runner::ExperimentRunner pool{{.jobs = cli.jobs}};
  const auto results = pool.map<ProbeRun>(sweep.size(), [&](std::size_t i) {
    return run_probe(sweep[i].amplitude, sweep[i].cbr_mbps, sweep[i].reno);
  });

  telemetry::RunReport report{"fig7_elasticity_ablation", core::DumbbellConfig{}.seed};
  TextTable ta{{"amplitude (xmu)", "cross traffic", "median elasticity", "detected?"}};
  TextTable tb{{"reno flows", "cbr (Mbit/s)", "median elasticity", "verdict"}};
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const Point& pt = sweep[i];
    const ProbeRun& r = results[i];
    const std::string scope = std::string{pt.table_b ? "mix" : "amplitude"} + "." +
                              TextTable::num(pt.amplitude, 3) + (pt.reno ? ".reno" : "") +
                              ".cbr" + TextTable::num(pt.cbr_mbps, 0);
    report.add_scalar(scope, "median_elasticity", r.median_eta);
    report.add_scalar(scope, "probe_mbps", r.probe_mbps);
    if (!pt.table_b) {
      const bool detected = r.median_eta >= nimbus::kElasticThreshold;
      ta.add_row({TextTable::num(pt.amplitude, 3), pt.reno ? "reno-bulk" : "cbr-12M",
                  TextTable::num(r.median_eta, 2),
                  detected ? (pt.reno ? "yes (correct)" : "FALSE POSITIVE")
                           : (pt.reno ? "MISSED" : "no (correct)")});
    } else {
      tb.add_row({pt.reno ? "1" : "0", TextTable::num(pt.cbr_mbps, 0),
                  TextTable::num(r.median_eta, 2),
                  r.median_eta >= nimbus::kElasticThreshold ? "elastic" : "inelastic"});
    }
  }
  print_banner(os, "E7a: elasticity vs pulse amplitude");
  ta.print(os);
  print_banner(os, "E7b: elasticity vs elastic/inelastic traffic mix");
  tb.print(os);

  os << "\nshape check: elastic verdicts should require a Reno flow; amplitude "
               ">= 0.125 should suffice for detection, with weaker pulses degrading "
               "the margin.\n";
  if (!report.emit(cli.report)) {
    std::cerr << "fig7_elasticity_ablation: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return 0;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("fig7_elasticity_ablation", [&] { return run_bench(argc, argv); });
}
