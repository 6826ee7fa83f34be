// Supporting experiment E4: BBR vs loss-based CCAs (the §1 citation of Ware
// et al. [2] — "BBR takes more than its long-term fair share").
//
// Setup: 1 BBR flow vs N in {1,2,4,8} Cubic flows on a 40 Mbit/s, 40 ms
// dumbbell, buffer in {1, 4} BDP, DropTail. Ware et al.'s observed shape:
// BBR's aggregate share is roughly FIXED (insensitive to N), so each Cubic
// flow's share shrinks as N grows; under per-flow FQ everyone gets 1/(N+1).
#include <iostream>
#include <memory>

#include "app/bulk.hpp"
#include "bench/cli.hpp"
#include "cca/bbr.hpp"
#include "cca/cubic.hpp"
#include "core/dumbbell.hpp"
#include "queue/drr_fair_queue.hpp"
#include "telemetry/run_report.hpp"
#include "util/table.hpp"

namespace {

using namespace ccc;

double bbr_share(int n_cubic, double buffer_bdp, bool fq) {
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(40);
  cfg.one_way_delay = Time::ms(20);
  cfg.reverse_delay = Time::ms(20);
  cfg.buffer_bdp_multiple = buffer_bdp;
  std::unique_ptr<sim::Qdisc> qdisc;
  if (fq) {
    qdisc = std::make_unique<queue::DrrFairQueue>(core::dumbbell_buffer_bytes(cfg),
                                                  queue::FairnessKey::kPerFlow);
  }
  core::DumbbellScenario net{cfg, std::move(qdisc)};
  net.add_flow(std::make_unique<cca::Bbr>(), std::make_unique<app::BulkApp>());
  for (int i = 0; i < n_cubic; ++i) {
    net.add_flow(std::make_unique<cca::Cubic>(), std::make_unique<app::BulkApp>());
  }
  net.run_until(Time::sec(10.0));
  const auto snap = net.snapshot_delivered();
  net.run_until(Time::sec(50.0));
  const auto g = net.goodputs_mbps_since(snap, Time::sec(40.0));
  double total = 0.0;
  for (double x : g) total += x;
  return g[0] / total;
}

}  // namespace

/// The bench body; main() below routes uncaught errors through the shared
/// guarded_main error boundary (structured message + exit-code contract).
int run_bench(int argc, char** argv) {
  using namespace ccc;
  using S = bench::Shared;
  bench::Cli cli{"fig4_bbr_vs_loss", {S::kOut, S::kReport}};
  cli.parse(argc, argv);
  std::ostream& os = cli.output();
  telemetry::RunReport report{"fig4_bbr_vs_loss", core::DumbbellConfig{}.seed};
  print_banner(os, "E4: one BBR flow vs N Cubic flows (Ware et al. shape)");
  os << "40 Mbit/s, 40 ms base RTT dumbbell; share = BBR fraction of total\n\n";

  TextTable t{{"qdisc", "buffer (xBDP)", "N cubic", "fair share", "BBR share", "BBR/fair"}};
  for (const bool fq : {false, true}) {
    for (const double buf : {1.0, 4.0}) {
      if (fq && buf > 1.0) continue;  // FQ row once is enough
      for (const int n : {1, 2, 4, 8}) {
        const double share = bbr_share(n, buf, fq);
        const double fair = 1.0 / (n + 1);
        t.add_row({fq ? "fq-flow" : "droptail", TextTable::num(buf, 0), std::to_string(n),
                   TextTable::num(fair, 3), TextTable::num(share, 3),
                   TextTable::num(share / fair, 2)});
        const std::string scope = std::string{fq ? "fq-flow" : "droptail"} + ".buf" +
                                  TextTable::num(buf, 0) + ".n" + std::to_string(n);
        report.add_scalar(scope, "fair_share", fair);
        report.add_scalar(scope, "bbr_share", share);
      }
    }
  }
  t.print(os);
  os << "\nshape check: under droptail/1xBDP, the BBR share column should be "
               "roughly constant in N (well above fair share for large N); under "
               "fq-flow it should track the fair-share column.\n";
  if (!report.emit(cli.report)) {
    std::cerr << "fig4_bbr_vs_loss: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return 0;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("fig4_bbr_vs_loss", [&] { return run_bench(argc, argv); });
}
