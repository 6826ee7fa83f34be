// E10 (§4): why passive latency probing cannot settle the paper's question.
//
// Dhamdhere et al.'s TSLP flags a link "congested" when its queueing delay
// stays elevated. The paper notes the technique "cannot discriminate between
// cases where individual flows contend for bandwidth and cases where
// aggregates consisting of shorter and application-limited flows overwhelm a
// given link."
//
// Setup: the same 48 Mbit/s access link under two very different regimes —
//   (a) CONTENTION: two persistently backlogged cubic flows;
//   (b) AGGREGATE OVERLOAD: a swarm of short flows at high offered load
//       (no flow lives long enough for CCA dynamics to matter).
// A TSLP prober watches both; a Nimbus elasticity probe watches both.
// Expected: TSLP reports both links congested (same signature); only the
// elasticity probe separates them.
#include <iostream>
#include <memory>

#include "analysis/tslp.hpp"
#include "app/bulk.hpp"
#include "bench/cli.hpp"
#include "cca/cubic.hpp"
#include "core/cca_registry.hpp"
#include "core/dumbbell.hpp"
#include "nimbus/nimbus.hpp"
#include "telemetry/run_report.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace ccc;

struct Verdicts {
  double tslp_congested_frac{0.0};
  double tslp_mean_delay_ms{0.0};
  double elasticity{0.0};
};

Verdicts run_case(bool contention) {
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(48);
  cfg.one_way_delay = Time::ms(50);
  cfg.reverse_delay = Time::ms(50);
  cfg.buffer_bdp_multiple = 1.5;
  core::DumbbellScenario net{cfg};

  // The active elasticity probe (as in fig3).
  nimbus::NimbusConfig ncfg;
  ncfg.capacity_hint = cfg.bottleneck_rate;
  auto nim = std::make_unique<nimbus::NimbusCca>(net.scheduler(), ncfg);
  auto* probe = nim.get();
  net.add_flow(std::move(nim), std::make_unique<app::BulkApp>(), 1);

  // The passive TSLP prober.
  sim::LinkSink link_sink{net.bottleneck()};
  analysis::TslpConfig tcfg;
  tcfg.stop = Time::sec(40.0);
  analysis::TslpProber tslp{net.scheduler(), tcfg, link_sink, net.demux()};

  if (contention) {
    net.add_flow(std::make_unique<cca::Cubic>(), std::make_unique<app::BulkApp>(), 2,
                 Time::sec(3.0));
    net.add_flow(std::make_unique<cca::Cubic>(), std::make_unique<app::BulkApp>(), 3,
                 Time::sec(3.0));
  } else {
    flow::ShortFlowConfig sf;
    sf.user = 2;
    sf.start_at = Time::sec(3.0);
    sf.stop_at = Time::sec(40.0);
    // Offered load ~= mean size / interarrival ~= 23 KB / 5 ms ~= 37 Mbit/s
    // of nothing but short transfers: heavy aggregate congestion with no
    // flow long enough for CCA dynamics to engage.
    sf.mean_interarrival = Time::ms(5);
    sf.size_max = 400 * 1024;
    net.add_short_flows(sf, core::make_cca_factory("cubic"));
  }

  std::vector<double> etas;
  for (int t = 15; t <= 40; ++t) {
    net.run_until(Time::sec(t));
    etas.push_back(probe->elasticity());
  }

  Verdicts v;
  v.tslp_congested_frac = tslp.congested_fraction(Time::ms(5));
  const auto delays = tslp.queueing_delay_ms();
  double sum = 0.0;
  for (double d : delays.value) sum += d;
  v.tslp_mean_delay_ms = delays.value.empty() ? 0.0 : sum / delays.value.size();
  v.elasticity = median(etas);
  return v;
}

}  // namespace

/// The bench body; main() below routes uncaught errors through the shared
/// guarded_main error boundary (structured message + exit-code contract).
int run_bench(int argc, char** argv) {
  using namespace ccc;
  using S = bench::Shared;
  bench::Cli cli{"fig10_tslp", {S::kOut, S::kReport}};
  cli.parse(argc, argv);
  std::ostream& os = cli.output();
  print_banner(os, "E10 (§4): TSLP vs the elasticity probe on two congested links");

  const auto contention = run_case(true);
  const auto aggregate = run_case(false);

  TextTable t{{"scenario", "TSLP congested frac", "TSLP mean qdelay (ms)",
               "TSLP verdict", "elasticity", "elasticity verdict"}};
  auto row = [&](const std::string& name, const Verdicts& v) {
    t.add_row({name, TextTable::num(v.tslp_congested_frac, 2),
               TextTable::num(v.tslp_mean_delay_ms, 1),
               v.tslp_congested_frac > 0.25 ? "congested" : "clear",
               TextTable::num(v.elasticity, 2),
               v.elasticity >= nimbus::kElasticThreshold ? "CONTENTION" : "no contention"});
  };
  row("2 backlogged cubic (true contention)", contention);
  row("short-flow aggregate (no contention)", aggregate);
  telemetry::RunReport report{"fig10_tslp", core::DumbbellConfig{}.seed};
  auto report_case = [&](const std::string& scope, const Verdicts& v) {
    report.add_scalar(scope, "tslp_congested_frac", v.tslp_congested_frac);
    report.add_scalar(scope, "tslp_mean_delay_ms", v.tslp_mean_delay_ms);
    report.add_scalar(scope, "elasticity", v.elasticity);
  };
  report_case("contention", contention);
  report_case("aggregate", aggregate);
  t.print(os);

  const bool reproduced = contention.tslp_congested_frac > 0.25 &&
                          aggregate.tslp_congested_frac > 0.25 &&
                          contention.elasticity >= nimbus::kElasticThreshold &&
                          aggregate.elasticity < nimbus::kElasticThreshold;
  os << "\nshape check: TSLP flags BOTH as congested (it measures queues, not "
               "contention); only the elasticity probe separates them -> "
            << (reproduced ? "REPRODUCED" : "NOT reproduced") << "\n";
  if (!report.emit(cli.report)) {
    std::cerr << "fig10_tslp: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return reproduced ? 0 : 1;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("fig10_tslp", [&] { return run_bench(argc, argv); });
}
