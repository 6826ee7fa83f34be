// E12 (§5.3): Recursive Congestion Shares — the model the paper proposes the
// community develop, made executable.
//
// "the unit of bandwidth contention would no longer be an individual flow
// but rather an economic arrangement that determines a network's
// bandwidth-shaping policy. A recent HotNets paper proposed one potential
// model, 'Recursive Congestion Shares' [77] ..."
//
// Setup: a 90 Mbit/s ISP link divided by a weight tree:
//   ISP -> { gold customer (w=3), silver (w=2), bronze (w=1) }
//   gold -> { video (w=3), cloud-backup (w=1) }, others single-service.
// Each service runs a DIFFERENT number of flows with DIFFERENT CCAs — the
// factors that decide allocations under FIFO. Under the RCS qdisc the split
// must follow the weights at every level regardless of either.
#include <iostream>
#include <map>
#include <memory>

#include "app/bulk.hpp"
#include "bench/cli.hpp"
#include "core/cca_registry.hpp"
#include "core/dumbbell.hpp"
#include "queue/hierarchical_fq.hpp"
#include "telemetry/run_report.hpp"
#include "util/table.hpp"

namespace {

using namespace ccc;

struct Service {
  std::string name;
  queue::ClassId cls{0};
  std::string cca;
  int flows{0};
  double expected_fraction{0.0};
  std::vector<std::size_t> flow_idx;
};

}  // namespace

/// The bench body; main() below routes uncaught errors through the shared
/// guarded_main error boundary (structured message + exit-code contract).
int run_bench(int argc, char** argv) {
  using namespace ccc;
  using S = bench::Shared;
  bench::Cli cli{"fig12_rcs", {S::kOut, S::kReport}};
  cli.parse(argc, argv);
  std::ostream& os = cli.output();
  print_banner(os, "E12 (§5.3): Recursive Congestion Shares on a 90 Mbit/s ISP link");

  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(90);
  cfg.one_way_delay = Time::ms(15);
  cfg.reverse_delay = Time::ms(15);

  // flow id -> leaf class, filled as flows are added.
  auto flow_to_class = std::make_shared<std::map<sim::FlowId, queue::ClassId>>();
  auto qdisc = std::make_unique<queue::HierarchicalFairQueue>(
      core::dumbbell_buffer_bytes(cfg) * 2,
      [flow_to_class](const sim::Packet& p) -> queue::ClassId {
        const auto it = flow_to_class->find(p.flow);
        return it == flow_to_class->end() ? queue::kRootClass : it->second;
      });
  auto* hfq = qdisc.get();

  const auto gold = hfq->add_class(queue::kRootClass, 3.0, "gold");
  const auto silver = hfq->add_class(queue::kRootClass, 2.0, "silver");
  const auto bronze = hfq->add_class(queue::kRootClass, 1.0, "bronze");
  const auto gold_video = hfq->add_class(gold, 3.0, "gold.video");
  const auto gold_backup = hfq->add_class(gold, 1.0, "gold.backup");

  std::vector<Service> services{
      // Weights say: gold=1/2 (video 3/8, backup 1/8), silver=1/3, bronze=1/6
      // — regardless of these deliberately skewed flow counts and CCAs.
      {"gold.video", gold_video, "cubic", 1, 3.0 / 8.0, {}},
      {"gold.backup", gold_backup, "bbr", 4, 1.0 / 8.0, {}},
      {"silver", silver, "reno", 2, 1.0 / 3.0, {}},
      {"bronze", bronze, "bbr", 6, 1.0 / 6.0, {}},
  };

  core::DumbbellScenario net{cfg, std::move(qdisc)};
  sim::UserId user = 1;
  for (auto& svc : services) {
    for (int i = 0; i < svc.flows; ++i) {
      const std::size_t idx = net.add_flow(core::make_cca_factory(svc.cca)(),
                                           std::make_unique<app::BulkApp>(), user);
      svc.flow_idx.push_back(idx);
      (*flow_to_class)[static_cast<sim::FlowId>(idx + core::DumbbellScenario::kFirstFlowId)] =
          svc.cls;
    }
    ++user;
  }

  net.run_until(Time::sec(10.0));
  const auto snap = net.snapshot_delivered();
  net.run_until(Time::sec(50.0));
  const auto g = net.goodputs_mbps_since(snap, Time::sec(40.0));
  double total = 0.0;
  for (double x : g) total += x;

  TextTable t{{"service", "flows", "cca", "share (weights say)", "share (measured)",
               "Mbit/s"}};
  bool ok = true;
  telemetry::RunReport report{"fig12_rcs", cfg.seed};
  for (const auto& svc : services) {
    double mbps = 0.0;
    for (auto idx : svc.flow_idx) mbps += g[idx];
    const double share = mbps / total;
    ok = ok && std::abs(share - svc.expected_fraction) < 0.05;
    t.add_row({svc.name, std::to_string(svc.flows), svc.cca,
               TextTable::num(svc.expected_fraction, 3), TextTable::num(share, 3),
               TextTable::num(mbps, 1)});
    report.add_scalar(svc.name, "expected_share", svc.expected_fraction);
    report.add_scalar(svc.name, "measured_share", share);
    report.add_scalar(svc.name, "goodput_mbps", mbps);
  }
  t.print(os);
  os << "\nshape check: measured shares track the recursive weights at every level"
               " — 6 BBR flows cannot out-take 1 cubic flow with a bigger share -> "
            << (ok ? "REPRODUCED" : "NOT reproduced") << "\n";
  if (!report.emit(cli.report)) {
    std::cerr << "fig12_rcs: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("fig12_rcs", [&] { return run_bench(argc, argv); });
}
