// Supporting experiment E6 (§2.3, Chen et al. [36]): in sub-packet-BDP
// regimes, timeout dynamics starve arbitrary flows over ~20 s timescales.
//
// Setup: N Reno flows share a link whose BDP is {0.5, 1, 2, 8, 32} packets
// (low rate x moderate RTT). For each 20 s window we record each flow's
// share and report the worst min-share and starvation counts.
#include <iostream>
#include <memory>

#include "analysis/fairness.hpp"
#include "app/bulk.hpp"
#include "bench/cli.hpp"
#include "cca/new_reno.hpp"
#include "core/dumbbell.hpp"
#include "telemetry/run_report.hpp"
#include "util/table.hpp"

namespace {

using namespace ccc;

struct WindowStats {
  double worst_min_fair_ratio{1e9};  ///< min over windows of (min share / fair)
  std::size_t starved_windows{0};
  double jain_overall{0.0};
};

WindowStats run_case(double bdp_packets, int n_flows) {
  // Fix RTT at 100 ms and set the rate from the target BDP.
  const Time rtt = Time::ms(100);
  const double bytes = bdp_packets * static_cast<double>(sim::kFullPacket);
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::bytes_per(static_cast<ByteCount>(bytes), rtt);
  cfg.one_way_delay = Time::ms(50);
  cfg.reverse_delay = Time::ms(50);
  cfg.buffer_bdp_multiple = 4.0;  // a few packets of buffer regardless
  core::DumbbellScenario net{cfg};
  for (int i = 0; i < n_flows; ++i) {
    net.add_flow(std::make_unique<cca::NewReno>(), std::make_unique<app::BulkApp>());
  }

  WindowStats out;
  net.run_until(Time::sec(20.0));  // warmup
  std::vector<double> totals(static_cast<std::size_t>(n_flows), 0.0);
  const int windows = 6;
  for (int w = 0; w < windows; ++w) {
    const auto snap = net.snapshot_delivered();
    const Time t0 = net.scheduler().now();
    net.run_until(t0 + Time::sec(20.0));
    const auto g = net.goodputs_mbps_since(snap, Time::sec(20.0));
    double total = 0.0;
    for (double x : g) total += x;
    if (total <= 0.0) continue;
    const double fair = total / n_flows;
    double min_share = 1e18;
    for (std::size_t i = 0; i < g.size(); ++i) {
      totals[i] += g[i];
      min_share = std::min(min_share, g[i]);
    }
    out.worst_min_fair_ratio = std::min(out.worst_min_fair_ratio, min_share / fair);
    out.starved_windows += analysis::count_starved(g, 0.1) > 0 ? 1 : 0;
  }
  out.jain_overall = jain_fairness_index(totals);
  return out;
}

}  // namespace

/// The bench body; main() below routes uncaught errors through the shared
/// guarded_main error boundary (structured message + exit-code contract).
int run_bench(int argc, char** argv) {
  using namespace ccc;
  using S = bench::Shared;
  bench::Cli cli{"fig6_subpacket_bdp", {S::kOut, S::kReport}};
  cli.parse(argc, argv);
  std::ostream& os = cli.output();
  telemetry::RunReport report{"fig6_subpacket_bdp", core::DumbbellConfig{}.seed};
  print_banner(os, "E6: sub-packet BDP regimes starve flows on short timescales");
  os << "N Reno flows, 100 ms RTT, link rate set so BDP = K packets;\n"
               "per-20s-window shares over 6 windows\n\n";

  TextTable t{{"BDP (pkts)", "flows", "worst min/fair", "starved windows (of 6)",
               "long-run Jain"}};
  for (const double bdp : {0.5, 1.0, 2.0, 8.0, 32.0}) {
    for (const int n : {2, 4, 8}) {
      const auto s = run_case(bdp, n);
      t.add_row({TextTable::num(bdp, 1), std::to_string(n),
                 TextTable::num(s.worst_min_fair_ratio, 3), std::to_string(s.starved_windows),
                 TextTable::num(s.jain_overall, 3)});
      const std::string scope = "bdp" + TextTable::num(bdp, 1) + ".n" + std::to_string(n);
      report.add_scalar(scope, "worst_min_fair_ratio", s.worst_min_fair_ratio);
      report.add_scalar(scope, "starved_windows", static_cast<double>(s.starved_windows));
      report.add_scalar(scope, "jain_overall", s.jain_overall);
    }
  }
  t.print(os);
  os << "\nshape check: at BDP <= 1 packet the worst min/fair ratio collapses "
               "toward 0 and starved windows appear; at BDP >= 8 packets windows are "
               "near-fair. (Chen et al.'s sub-packet unfairness.)\n";
  if (!report.emit(cli.report)) {
    std::cerr << "fig6_subpacket_bdp: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return 0;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("fig6_subpacket_bdp", [&] { return run_bench(argc, argv); });
}
