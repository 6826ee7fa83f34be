// E11 (§2.3): "What about datacenters? ... since a single entity — a cloud
// provider — manages a datacenter, it can choose the bandwidth allocation
// mechanism that works best for its needs."
//
// Setup: an 800 Mbit/s, 200 us-RTT datacenter-style dumbbell with 8
// backlogged flows. Three operator choices:
//   (a) loss-based CCAs on a deep DropTail FIFO (the "Internet default"),
//   (b) DCTCP with step ECN marking (the in-network signal the provider
//       controls end to end),
//   (c) per-flow fair queueing (pure in-network isolation).
// We report queue depth, fairness, and utilization: the provider-chosen
// mechanisms deliver the same bandwidth split with queues an order of
// magnitude shorter — no CCA contention involved.
#include <iostream>
#include <memory>

#include "analysis/fairness.hpp"
#include "app/bulk.hpp"
#include "bench/cli.hpp"
#include "core/cca_registry.hpp"
#include "core/dumbbell.hpp"
#include "queue/drop_tail.hpp"
#include "queue/drr_fair_queue.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/sampler.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace ccc;

struct DcOutcome {
  double jain{0.0};
  double utilization{0.0};
  double mean_queue_pkts{0.0};
  double p99_queue_pkts{0.0};
  std::uint64_t drops{0};
  std::uint64_t marks{0};
};

DcOutcome run_case(const std::string& cca, bool fq, ByteCount ecn_threshold) {
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(800);
  cfg.one_way_delay = Time::us(50);
  cfg.reverse_delay = Time::us(50);
  core::DumbbellScenario* net;
  const ByteCount buf = 200 * sim::kFullPacket;  // a deep switch buffer
  std::unique_ptr<sim::Qdisc> qdisc;
  if (fq) {
    qdisc = std::make_unique<queue::DrrFairQueue>(buf, queue::FairnessKey::kPerFlow);
  } else {
    qdisc = std::make_unique<queue::DropTailQueue>(buf, ecn_threshold);
  }
  core::DumbbellScenario scenario{cfg, std::move(qdisc)};
  net = &scenario;

  for (int i = 0; i < 8; ++i) {
    net->add_flow(core::make_cca_factory(cca)(), std::make_unique<app::BulkApp>(),
                  static_cast<sim::UserId>(i + 1));
  }

  std::vector<double> queue_pkts;
  telemetry::PeriodicSampler sampler{net->scheduler(), Time::ms(1), Time::ms(500),
                                     Time::sec(3.0), [&](Time) {
                                       queue_pkts.push_back(static_cast<double>(
                                           net->bottleneck().qdisc().backlog_packets()));
                                     }};

  net->run_until(Time::ms(500));
  const auto snap = net->snapshot_delivered();
  net->run_until(Time::sec(3.0));
  const auto g = net->goodputs_mbps_since(snap, Time::sec(2.5));

  DcOutcome out;
  out.jain = jain_fairness_index(g);
  double total = 0.0;
  for (double x : g) total += x;
  out.utilization = total / 800.0;
  if (!queue_pkts.empty()) {
    RunningStats st;
    for (double q : queue_pkts) st.add(q);
    out.mean_queue_pkts = st.mean();
    out.p99_queue_pkts = quantile(queue_pkts, 0.99);
  }
  out.drops = net->bottleneck().qdisc().stats().dropped_packets;
  out.marks = net->bottleneck().qdisc().stats().ecn_marked_packets;
  return out;
}

}  // namespace

/// The bench body; main() below routes uncaught errors through the shared
/// guarded_main error boundary (structured message + exit-code contract).
int run_bench(int argc, char** argv) {
  using namespace ccc;
  using S = bench::Shared;
  bench::Cli cli{"fig11_datacenter", {S::kOut, S::kReport}};
  cli.parse(argc, argv);
  std::ostream& os = cli.output();
  telemetry::RunReport report{"fig11_datacenter", core::DumbbellConfig{}.seed};
  print_banner(os,
               "E11 (§2.3): datacenter operators pick the mechanism — 8 flows, "
               "800 Mbit/s, 200 us RTT");

  TextTable t{{"mechanism", "Jain", "utilization", "mean queue (pkts)", "p99 queue",
               "drops", "ECN marks"}};
  auto add = [&](const std::string& name, DcOutcome o) {
    t.add_row({name, TextTable::num(o.jain, 3), TextTable::num(o.utilization, 3),
               TextTable::num(o.mean_queue_pkts, 1), TextTable::num(o.p99_queue_pkts, 0),
               std::to_string(o.drops), std::to_string(o.marks)});
    report.add_scalar(name, "jain", o.jain);
    report.add_scalar(name, "utilization", o.utilization);
    report.add_scalar(name, "mean_queue_pkts", o.mean_queue_pkts);
    report.add_scalar(name, "p99_queue_pkts", o.p99_queue_pkts);
    report.add_scalar(name, "drops", static_cast<double>(o.drops));
    report.add_scalar(name, "ecn_marks", static_cast<double>(o.marks));
  };

  add("cubic + droptail", run_case("cubic", false, 0));
  add("reno  + droptail", run_case("reno", false, 0));
  // DCTCP's step marking at K ~= 20 packets for this BDP.
  add("dctcp + ECN(K=20pkt)", run_case("dctcp", false, 20 * sim::kFullPacket));
  add("cubic + fq-flow", run_case("cubic", true, 0));

  t.print(os);
  os << "\nshape check: DCTCP and FQ match the loss-based rows' fairness and "
               "utilization with far shallower queues (and zero or near-zero drops for "
               "DCTCP) — allocation by operator mechanism, not CCA contention.\n";
  if (!report.emit(cli.report)) {
    std::cerr << "fig11_datacenter: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return 0;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("fig11_datacenter", [&] { return run_bench(argc, argv); });
}
