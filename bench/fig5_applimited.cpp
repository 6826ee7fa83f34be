// Supporting experiment E5 (§2.2): application-limited and short flows
// cannot contend — each application simply receives its offered load until
// the sum of demands exceeds the access capacity.
//
// Setup: a 50 Mbit/s access link carrying an ABR video stream, a 20-30
// Mbit/s game-stream-like CBR-ish app (rate-limited TCP), and a short-flow
// web workload. We sweep the number of extra rate-limited apps to push
// aggregate demand through the link capacity and report each app's
// goodput-vs-demand.
#include <iostream>
#include <memory>

#include "app/abr_video.hpp"
#include "app/bulk.hpp"
#include "app/rate_limited.hpp"
#include "bench/cli.hpp"
#include "core/cca_registry.hpp"
#include "core/dumbbell.hpp"
#include "telemetry/run_report.hpp"
#include "util/table.hpp"

namespace {

using namespace ccc;

core::DumbbellConfig access_link() {
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(50);
  cfg.one_way_delay = Time::ms(10);
  cfg.reverse_delay = Time::ms(10);
  cfg.buffer_bdp_multiple = 2.0;
  return cfg;
}

}  // namespace

/// The bench body; main() below routes uncaught errors through the shared
/// guarded_main error boundary (structured message + exit-code contract).
int run_bench(int argc, char** argv) {
  using namespace ccc;
  using S = bench::Shared;
  bench::Cli cli{"fig5_applimited", {S::kOut, S::kReport}};
  cli.parse(argc, argv);
  std::ostream& os = cli.output();
  telemetry::RunReport report{"fig5_applimited", access_link().seed};
  print_banner(os, "E5: app-limited flows get their offered load (until capacity)");
  os << "50 Mbit/s access link; demands are per rate-limited app\n\n";

  TextTable t{{"rate-limited apps", "demand each (Mbit/s)", "total demand", "goodput each",
               "demand met?", "video bitrate (Mbit/s)", "video rebuffer (s)"}};

  for (const int n_apps : {1, 2, 3, 5, 8}) {
    const double demand = 10.0;
    core::DumbbellScenario net{access_link()};

    // One ABR video stream (the dominant byte source of §2.2).
    auto video = std::make_unique<app::AbrVideoApp>(net.scheduler());
    auto* video_raw = video.get();
    net.add_flow(core::make_cca_factory("cubic")(), std::move(video), 1);

    // N rate-limited apps at `demand` Mbit/s each.
    for (int i = 0; i < n_apps; ++i) {
      net.add_flow(core::make_cca_factory("cubic")(),
                   std::make_unique<app::RateLimitedApp>(net.scheduler(), Rate::mbps(demand)),
                   1);
    }

    net.run_until(Time::sec(10.0));
    const auto snap = net.snapshot_delivered();
    net.run_until(Time::sec(40.0));
    const auto g = net.goodputs_mbps_since(snap, Time::sec(30.0));

    double app_goodput = 0.0;
    for (std::size_t i = 1; i < g.size(); ++i) app_goodput += g[i];
    app_goodput /= static_cast<double>(n_apps);

    const double total_demand = demand * n_apps + video_raw->current_bitrate().to_mbps();
    t.add_row({std::to_string(n_apps), TextTable::num(demand, 0),
               TextTable::num(total_demand, 1), TextTable::num(app_goodput, 2),
               app_goodput > 0.9 * demand ? "yes" : "NO (capacity exceeded)",
               TextTable::num(video_raw->current_bitrate().to_mbps(), 2),
               TextTable::num(video_raw->rebuffer_seconds(), 1)});
    const std::string scope = "apps" + std::to_string(n_apps);
    report.add_scalar(scope, "total_demand_mbps", total_demand);
    report.add_scalar(scope, "goodput_each_mbps", app_goodput);
    report.add_scalar(scope, "video_bitrate_mbps", video_raw->current_bitrate().to_mbps());
    report.add_scalar(scope, "video_rebuffer_sec", video_raw->rebuffer_seconds());
  }

  t.print(os);
  os << "\nshape check: 'demand met' should flip to NO only once total demand "
               "crosses ~50 Mbit/s, and the ABR stream should absorb pressure by "
               "lowering its bitrate rather than contending.\n";
  if (!report.emit(cli.report)) {
    std::cerr << "fig5_applimited: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return 0;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("fig5_applimited", [&] { return run_bench(argc, argv); });
}
