// E8 (§5.1): "future CCAs should ... focus on coping with bandwidth
// variability while navigating the trade-off between self-inflicted delay
// and link underutilization."
//
// Setup: each CCA runs SOLO (no contention — the paper's post-contention
// world) on links whose capacity varies like a cellular channel: a square
// wave (12<->48 Mbit/s, 2 s half-period) and a bounded multiplicative random
// walk. We report utilization and self-inflicted queueing delay — exactly
// the §5.1 trade-off — plus loss, for each CCA.
//
// Each (trace, CCA) cell is an independent simulation; the grid fans out
// over an ExperimentRunner (`--jobs N` / CCC_JOBS) with bit-identical
// results for any job count.
#include <iostream>
#include <memory>
#include <vector>

#include "app/bulk.hpp"
#include "bench/cli.hpp"
#include "core/cca_registry.hpp"
#include "core/dumbbell.hpp"
#include "nimbus/nimbus.hpp"
#include "runner/experiment_runner.hpp"
#include "sim/variable_rate_link.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/sampler.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace ccc;

struct Outcome {
  double utilization{0.0};
  double mean_queue_ms{0.0};
  double p95_queue_ms{0.0};
  double loss_per_sec{0.0};
};

Outcome run_cca(const std::string& name, bool random_walk) {
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(48);
  cfg.one_way_delay = Time::ms(30);
  cfg.reverse_delay = Time::ms(30);
  cfg.buffer_bdp_multiple = 2.0;
  core::DumbbellScenario net{cfg};

  // Capacity variation through the shared VariableRateLink presets (the
  // same generators + schedule the ad-hoc apply_rate_trace calls produced,
  // so the figure output is pinned byte-identical).
  const Time end = Time::sec(60.0);
  if (random_walk) {
    Rng rng{77};
    sim::VariableRateLink::random_walk(net.scheduler(), net.bottleneck(), rng, Rate::mbps(30),
                                       Rate::mbps(8), Rate::mbps(48), 0.25, Time::ms(500), end);
  } else {
    sim::VariableRateLink::square_wave(net.scheduler(), net.bottleneck(), Rate::mbps(12),
                                       Rate::mbps(48), Time::sec(2.0), end);
  }

  std::unique_ptr<cca::CongestionControl> cc;
  if (name == "nimbus") {
    cc = std::make_unique<nimbus::NimbusCca>(net.scheduler());
  } else {
    cc = core::make_cca_factory(name)();
  }
  net.add_flow(std::move(cc), std::make_unique<app::BulkApp>());

  // Track queueing delay via the flow's RTT inflation and capacity actually
  // offered via the trace.
  std::vector<double> queue_ms;
  double offered_bits = 0.0;
  Time last = Time::sec(5.0);
  telemetry::PeriodicSampler sampler{
      net.scheduler(), Time::ms(100), Time::sec(5.0), end, [&](Time now) {
        const auto& s = net.flow(0).sender();
        if (s.min_rtt() != Time::never() && s.srtt() > Time::zero()) {
          queue_ms.push_back((s.srtt() - s.min_rtt()).to_ms());
        }
        offered_bits += net.bottleneck().rate().to_bps() * (now - last).to_sec();
        last = now;
      }};

  net.run_until(Time::sec(5.0));
  const auto snap = net.snapshot_delivered();
  net.run_until(end);

  Outcome out;
  const double delivered_bits =
      static_cast<double>(net.flow(0).delivered_bytes() - snap[0]) * 8.0;
  out.utilization = offered_bits > 0 ? delivered_bits / offered_bits : 0.0;
  if (!queue_ms.empty()) {
    RunningStats st;
    for (double q : queue_ms) st.add(q);
    out.mean_queue_ms = st.mean();
    out.p95_queue_ms = quantile(queue_ms, 0.95);
  }
  out.loss_per_sec =
      static_cast<double>(net.bottleneck().qdisc().stats().dropped_packets) / 55.0;
  return out;
}

}  // namespace

/// The bench body; main() below routes uncaught errors through the shared
/// guarded_main error boundary (structured message + exit-code contract).
int run_bench(int argc, char** argv) {
  using namespace ccc;
  using S = bench::Shared;
  bench::Cli cli{"fig8_variability", {S::kJobs, S::kOut, S::kReport}};
  cli.parse(argc, argv);
  std::ostream& os = cli.output();
  const std::vector<std::string> ccas{"reno", "cubic", "bbr", "vegas", "copa", "nimbus"};

  // Grid in display order: both traces x all CCAs.
  struct Cell {
    std::string cca;
    bool walk;
  };
  std::vector<Cell> grid;
  for (const bool walk : {false, true}) {
    for (const auto& name : ccas) grid.push_back({name, walk});
  }

  runner::ExperimentRunner pool{{.jobs = cli.jobs}};
  const auto outcomes = pool.map<Outcome>(
      grid.size(), [&](std::size_t i) { return run_cca(grid[i].cca, grid[i].walk); });

  telemetry::RunReport report{"fig8_variability", core::DumbbellConfig{}.seed};
  std::size_t next = 0;
  for (const bool walk : {false, true}) {
    print_banner(os, std::string{"E8 (§5.1): solo CCAs on a variable-capacity link — "} +
                                (walk ? "random-walk trace" : "square wave 12<->48 Mbit/s"));
    TextTable t{{"cca", "utilization", "mean queue (ms)", "p95 queue (ms)", "drops/s"}};
    for (const auto& name : ccas) {
      const Outcome& o = outcomes[next++];
      t.add_row({name, TextTable::num(o.utilization, 3), TextTable::num(o.mean_queue_ms, 1),
                 TextTable::num(o.p95_queue_ms, 1), TextTable::num(o.loss_per_sec, 1)});
      const std::string scope = std::string{walk ? "walk" : "square"} + "." + name;
      report.add_scalar(scope, "utilization", o.utilization);
      report.add_scalar(scope, "mean_queue_ms", o.mean_queue_ms);
      report.add_scalar(scope, "p95_queue_ms", o.p95_queue_ms);
      report.add_scalar(scope, "loss_per_sec", o.loss_per_sec);
    }
    t.print(os);
  }
  os << "\nshape check: loss-based CCAs buy utilization with standing queues; "
               "delay-based ones (vegas/copa/nimbus) hold queues low and give up some "
               "utilization at capacity drops — the §5.1 trade-off.\n";
  if (!report.emit(cli.report)) {
    std::cerr << "fig8_variability: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return 0;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("fig8_variability", [&] { return run_bench(argc, argv); });
}
