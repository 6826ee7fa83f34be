// Quantifies Figure 1 (§2.1): operator throttling + isolation remove
// inter-flow contention from the allocation outcome.
//
// Setup: four users behind a 100 Mbit/s aggregation link, each running two
// backlogged flows with deliberately mismatched CCAs (BBR vs Reno vs Cubic
// vs Vegas — the worst case for contention-based allocation). We sweep the
// operator's queueing discipline:
//   droptail        — no intervention: CCA identity decides who wins
//   codel           — AQM only: still no isolation
//   fq-flow         — ideal per-flow fair queueing
//   fq-user         — per-user fair queueing (deployable operator policy)
//   shaping (TBF)   — per-user 25 Mbit/s contracts
//   policing        — per-user 25 Mbit/s hard policers
// Expected shape: Jain index ~= 1 and spread ~= 1 the moment any isolation
// mechanism is enabled, regardless of the CCA mix; droptail/codel remain
// skewed by CCA aggression.
//
// Each qdisc row is an independent simulation, fanned out over an
// ExperimentRunner (`--jobs N` / CCC_JOBS); results are bit-identical for
// any job count.
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include "analysis/fairness.hpp"
#include "app/bulk.hpp"
#include "bench/cli.hpp"
#include "core/cca_registry.hpp"
#include "core/dumbbell.hpp"
#include "queue/codel.hpp"
#include "queue/drop_tail.hpp"
#include "queue/drr_fair_queue.hpp"
#include "queue/per_user_isolation.hpp"
#include "queue/token_bucket.hpp"
#include "runner/experiment_runner.hpp"
#include "telemetry/run_report.hpp"
#include "util/table.hpp"

namespace {

using namespace ccc;

core::DumbbellConfig agg_link() {
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(100);
  cfg.one_way_delay = Time::ms(15);
  cfg.reverse_delay = Time::ms(15);
  cfg.buffer_bdp_multiple = 2.0;
  return cfg;
}

struct Outcome {
  analysis::AllocationSummary flows;
  std::vector<double> per_user_mbps;
  double user_jain{0.0};
};

/// Tasks construct their qdisc inside the worker, so each scenario in the
/// sweep owns its state outright.
using QdiscFactory = std::function<std::unique_ptr<sim::Qdisc>()>;

Outcome run_with(const QdiscFactory& make_qdisc) {
  core::DumbbellScenario net{agg_link(), make_qdisc()};
  const char* ccas[] = {"bbr", "reno", "cubic", "vegas"};
  for (sim::UserId user = 1; user <= 4; ++user) {
    for (int k = 0; k < 2; ++k) {
      net.add_flow(core::make_cca_factory(ccas[user - 1])(), std::make_unique<app::BulkApp>(),
                   user);
    }
  }
  net.run_until(Time::sec(10.0));
  const auto snap = net.snapshot_delivered();
  net.run_until(Time::sec(50.0));
  const auto g = net.goodputs_mbps_since(snap, Time::sec(40.0));

  Outcome out;
  out.flows = analysis::summarize_allocation(g);
  out.per_user_mbps.assign(4, 0.0);
  for (std::size_t i = 0; i < g.size(); ++i) out.per_user_mbps[i / 2] += g[i];
  out.user_jain = jain_fairness_index(out.per_user_mbps);
  return out;
}

}  // namespace

/// The bench body; main() below routes uncaught errors through the shared
/// guarded_main error boundary (structured message + exit-code contract).
int run_bench(int argc, char** argv) {
  using namespace ccc;
  using S = bench::Shared;
  bench::Cli cli{"fig1_isolation_ablation", {S::kJobs, S::kOut, S::kReport}};
  cli.parse(argc, argv);
  std::ostream& os = cli.output();
  const auto buf = core::dumbbell_buffer_bytes(agg_link());

  print_banner(os, "Figure 1 (quantified): operator isolation removes CCA contention");
  os << "4 users x 2 flows (BBR/Reno/Cubic/Vegas), 100 Mbit/s aggregation link\n";

  struct Row {
    std::string name;
    QdiscFactory make;
  };
  const std::vector<Row> sweep{
      {"droptail", [buf] { return std::make_unique<queue::DropTailQueue>(buf); }},
      {"codel", [buf] { return std::make_unique<queue::CoDelQueue>(buf); }},
      {"fq-flow",
       [buf] { return std::make_unique<queue::DrrFairQueue>(buf, queue::FairnessKey::kPerFlow); }},
      {"fq-user",
       [buf] { return std::make_unique<queue::DrrFairQueue>(buf, queue::FairnessKey::kPerUser); }},
      // Shaping: per-user buffers of ~100 ms at the contracted rate.
      {"shaping-25M",
       [] {
         return std::make_unique<queue::PerUserIsolation>(
             Rate::mbps(25), 40'000, bdp_bytes(Rate::mbps(25), Time::ms(100)));
       }},
      // Policing each user to 25 Mbit/s: same token buckets but almost no
      // queue — non-conforming packets are dropped nearly immediately.
      {"policing-25M", [] {
         return std::make_unique<queue::PerUserIsolation>(
             Rate::mbps(25), 15'000, bdp_bytes(Rate::mbps(25), Time::ms(10)));
       }}};

  runner::ExperimentRunner pool{{.jobs = cli.jobs}};
  const auto outcomes =
      pool.map<Outcome>(sweep.size(), [&](std::size_t i) { return run_with(sweep[i].make); });

  telemetry::RunReport report{"fig1_isolation_ablation", agg_link().seed};
  TextTable t{{"qdisc", "flow Jain", "flow max/min", "user Jain", "per-user Mbit/s",
               "CCA identity matters?"}};
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const Outcome& o = outcomes[i];
    std::string users;
    for (double u : o.per_user_mbps) users += TextTable::num(u, 1) + " ";
    t.add_row({sweep[i].name, TextTable::num(o.flows.jain, 3),
               TextTable::num(o.flows.spread_ratio, 2), TextTable::num(o.user_jain, 3), users,
               o.user_jain > 0.98 ? "no" : "YES"});
    report.add_scalar(sweep[i].name, "flow_jain", o.flows.jain);
    report.add_scalar(sweep[i].name, "flow_spread_ratio", o.flows.spread_ratio);
    report.add_scalar(sweep[i].name, "user_jain", o.user_jain);
    for (std::size_t u = 0; u < o.per_user_mbps.size(); ++u) {
      report.add_scalar(sweep[i].name, "user" + std::to_string(u + 1) + "_mbps",
                        o.per_user_mbps[u]);
    }
  }

  t.print(os);
  os << "\nshape check: isolation rows (fq-*, shaping, policing) should show user "
        "Jain ~= 1.0 while droptail/codel do not.\n";
  if (!report.emit(cli.report)) {
    std::cerr << "fig1_isolation_ablation: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return 0;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("fig1_isolation_ablation", [&] { return run_bench(argc, argv); });
}
