// E13 (§2.1): BwE-style host-based allocation on a private WAN.
//
// "Google uses BwE to allocate bandwidth in its private WAN. BwE integrates
// with applications that report their bandwidth demand to centrally
// determine bandwidth allocations ... This isolates applications from each
// other and eliminates inter-flow contention."
//
// Setup: a 100 Mbit/s WAN link carries three services — prod (weight 4),
// analytics (weight 2), backup (weight 1) — over plain DropTail (no
// in-network help). Phase A: CCAs contend freely. Phase B: the same flows
// under the BwE enforcer with demand reporting. Phase C: analytics goes
// idle mid-run and its grant must flow to the others.
#include <iostream>
#include <memory>

#include "app/bulk.hpp"
#include "app/rate_limited.hpp"
#include "bench/cli.hpp"
#include "bwe/allocator.hpp"
#include "bwe/capped_cca.hpp"
#include "bwe/enforcer.hpp"
#include "core/cca_registry.hpp"
#include "core/dumbbell.hpp"
#include "telemetry/run_report.hpp"
#include "util/table.hpp"

namespace {

using namespace ccc;

core::DumbbellConfig wan() {
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(100);
  cfg.one_way_delay = Time::ms(25);
  cfg.reverse_delay = Time::ms(25);
  cfg.buffer_bdp_multiple = 1.0;
  return cfg;
}

const char* kCcas[3] = {"bbr", "cubic", "reno"};  // deliberately mismatched
const char* kNames[3] = {"prod(w=4,bbr)", "analytics(w=2,cubic)", "backup(w=1,reno)"};
const double kWeights[3] = {4.0, 2.0, 1.0};

}  // namespace

/// The bench body; main() below routes uncaught errors through the shared
/// guarded_main error boundary (structured message + exit-code contract).
int run_bench(int argc, char** argv) {
  using namespace ccc;
  using S = bench::Shared;
  bench::Cli cli{"fig13_bwe", {S::kOut, S::kReport}};
  cli.parse(argc, argv);
  std::ostream& os = cli.output();
  telemetry::RunReport report{"fig13_bwe", wan().seed};
  auto report_regime = [&report](const std::string& scope, const std::vector<double>& g) {
    report.add_scalar(scope, "prod_mbps", g[0]);
    report.add_scalar(scope, "analytics_mbps", g[1]);
    report.add_scalar(scope, "backup_mbps", g[2]);
  };
  print_banner(os, "E13 (§2.1): BwE host-based allocation vs free CCA contention");

  TextTable t{{"regime", "prod Mbit/s", "analytics Mbit/s", "backup Mbit/s",
               "matches policy (4:2:1)?"}};

  auto policy_ok = [](const std::vector<double>& g) {
    const double total = g[0] + g[1] + g[2];
    return std::abs(g[0] / total - 4.0 / 7.0) < 0.06 &&
           std::abs(g[1] / total - 2.0 / 7.0) < 0.06 &&
           std::abs(g[2] / total - 1.0 / 7.0) < 0.06;
  };

  // --- Phase A: raw contention ---
  std::vector<double> raw;
  {
    core::DumbbellScenario net{wan()};
    for (int i = 0; i < 3; ++i) {
      net.add_flow(core::make_cca_factory(kCcas[i])(), std::make_unique<app::BulkApp>(),
                   static_cast<sim::UserId>(i + 1));
    }
    net.run_until(Time::sec(10.0));
    const auto snap = net.snapshot_delivered();
    net.run_until(Time::sec(40.0));
    raw = net.goodputs_mbps_since(snap, Time::sec(30.0));
    t.add_row({"free contention", TextTable::num(raw[0], 1), TextTable::num(raw[1], 1),
               TextTable::num(raw[2], 1), policy_ok(raw) ? "yes" : "NO (CCA-decided)"});
    report_regime("free-contention", raw);
  }

  // --- Phase B: BwE enforcement ---
  {
    core::DumbbellScenario net{wan()};
    bwe::Allocator alloc;
    bwe::CappedCca* caps[3];
    bwe::EntityId leaves[3];
    for (int i = 0; i < 3; ++i) {
      leaves[i] = alloc.add_entity(bwe::kRootEntity, kWeights[i], kNames[i]);
      auto cc = std::make_unique<bwe::CappedCca>(core::make_cca_factory(kCcas[i])());
      caps[i] = cc.get();
      net.add_flow(std::move(cc), std::make_unique<app::BulkApp>(),
                   static_cast<sim::UserId>(i + 1));
    }
    bwe::Enforcer enforcer{net.scheduler(), alloc, wan().bottleneck_rate};
    for (int i = 0; i < 3; ++i) {
      enforcer.bind(leaves[i], *caps[i], [] { return Rate::mbps(1000); });
    }
    enforcer.start(Time::zero());
    net.run_until(Time::sec(10.0));
    const auto snap = net.snapshot_delivered();
    net.run_until(Time::sec(40.0));
    const auto g = net.goodputs_mbps_since(snap, Time::sec(30.0));
    t.add_row({"BwE (all hungry)", TextTable::num(g[0], 1), TextTable::num(g[1], 1),
               TextTable::num(g[2], 1), policy_ok(g) ? "yes" : "NO"});
    report_regime("bwe-all-hungry", g);
  }

  // --- Phase C: BwE with a demand drop mid-run ---
  {
    core::DumbbellScenario net{wan()};
    bwe::Allocator alloc;
    bwe::CappedCca* caps[3];
    bwe::EntityId leaves[3];
    for (int i = 0; i < 3; ++i) {
      leaves[i] = alloc.add_entity(bwe::kRootEntity, kWeights[i], kNames[i]);
      auto cc = std::make_unique<bwe::CappedCca>(core::make_cca_factory(kCcas[i])());
      caps[i] = cc.get();
      net.add_flow(std::move(cc), std::make_unique<app::BulkApp>(),
                   static_cast<sim::UserId>(i + 1));
    }
    bwe::Enforcer enforcer{net.scheduler(), alloc, wan().bottleneck_rate};
    auto* sched = &net.scheduler();
    enforcer.bind(leaves[0], *caps[0], [] { return Rate::mbps(1000); });
    enforcer.bind(leaves[1], *caps[1], [sched] {
      // Analytics finishes its job at t=20 and reports (nearly) no demand.
      return sched->now() < Time::sec(20.0) ? Rate::mbps(1000) : Rate::mbps(1);
    });
    enforcer.bind(leaves[2], *caps[2], [] { return Rate::mbps(1000); });
    enforcer.start(Time::zero());
    net.run_until(Time::sec(25.0));  // allow the demand drop to take effect
    const auto snap = net.snapshot_delivered();
    net.run_until(Time::sec(45.0));
    const auto g = net.goodputs_mbps_since(snap, Time::sec(20.0));
    const double total = g[0] + g[1] + g[2];
    const bool redistributed = g[1] < 3.0 && std::abs(g[0] / total - 4.0 / 5.0) < 0.06 &&
                               std::abs(g[2] / total - 1.0 / 5.0) < 0.06;
    t.add_row({"BwE (analytics idle)", TextTable::num(g[0], 1), TextTable::num(g[1], 1),
               TextTable::num(g[2], 1),
               redistributed ? "yes (4:1 among the hungry)" : "NO"});
    report_regime("bwe-analytics-idle", g);
  }

  t.print(os);
  os << "\nshape check: free contention ignores the 4:2:1 policy (BBR grabs what "
               "its dynamics give it); BwE pins it, and reassigns an idle service's "
               "grant within a control period.\n";
  if (!report.emit(cli.report)) {
    std::cerr << "fig13_bwe: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return 0;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("fig13_bwe", [&] { return run_bench(argc, argv); });
}
