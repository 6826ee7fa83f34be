// E9 (§5.2): contention on alternate metrics — jitter under token-bucket
// shaping.
//
// The paper: "bursty traffic can vary the instantaneous bandwidth and delay
// other flows on the same link observe, even if the link uses fair queueing
// ... one popular method of bandwidth shaping is the token-bucket filter ...
// the resulting bursty transmission can cause jitter."
//
// Setup: a latency-sensitive 4 Mbit/s CBR stream (a live call) shares a
// 20 Mbit/s link with a bursty on/off cubic flow. We sweep the operator's
// queueing: plain FIFO, per-flow FQ, and token-bucket shaping with
// increasing burst allowances, and report the CBR stream's one-way-delay
// jitter. Throughput isolation (FQ) does NOT deliver jitter isolation, and
// larger token-bucket bursts make it worse.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>

#include "app/bulk.hpp"
#include "app/stop_at.hpp"
#include "bench/cli.hpp"
#include "cca/cubic.hpp"
#include "core/dumbbell.hpp"
#include "queue/drop_tail.hpp"
#include "queue/drr_fair_queue.hpp"
#include "queue/token_bucket.hpp"
#include "telemetry/run_report.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace ccc;

struct JitterOutcome {
  double mean_owd_ms{0.0};
  double jitter_ms{0.0};  ///< RFC 3550-style mean |delta OWD|
  double p99_owd_ms{0.0};
};

/// Far-end sink recording one-way delays of the CBR flow.
class OwdSink : public sim::PacketSink {
 public:
  explicit OwdSink(sim::Scheduler& sched) : sched_{sched} {}
  void deliver(const sim::Packet& pkt) override {
    owd_ms_.push_back((sched_.now() - pkt.sent_at).to_ms());
  }
  [[nodiscard]] const std::vector<double>& owd_ms() const { return owd_ms_; }

 private:
  sim::Scheduler& sched_;
  std::vector<double> owd_ms_;
};

JitterOutcome run_case(std::unique_ptr<sim::Qdisc> qdisc) {
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(20);
  cfg.one_way_delay = Time::ms(10);
  cfg.reverse_delay = Time::ms(10);
  core::DumbbellScenario net{cfg, std::move(qdisc)};

  // The latency-sensitive stream: 4 Mbit/s CBR, small packets.
  OwdSink owd{net.scheduler()};
  const sim::FlowId kCbrFlow = 7777;
  net.demux().register_flow(kCbrFlow, owd);
  sim::LinkSink link_sink{net.bottleneck()};
  flow::UdpCbrSource call{net.scheduler(), kCbrFlow,        1, Rate::mbps(4),
                          Time::zero(),    Time::sec(30.0), link_sink};

  // Bursty cross traffic: a cubic bulk flow (ack-clocked bursts + sawtooth).
  net.add_flow(std::make_unique<cca::Cubic>(), std::make_unique<app::BulkApp>(), 2);

  net.run_until(Time::sec(30.0));

  JitterOutcome out;
  const auto& v = owd.owd_ms();
  if (v.size() < 2) return out;
  // Skip startup transient.
  std::vector<double> steady{v.begin() + static_cast<std::ptrdiff_t>(v.size() / 5), v.end()};
  RunningStats st;
  double jitter = 0.0;
  for (std::size_t i = 0; i < steady.size(); ++i) {
    st.add(steady[i]);
    if (i > 0) jitter += std::abs(steady[i] - steady[i - 1]);
  }
  out.mean_owd_ms = st.mean();
  out.jitter_ms = jitter / static_cast<double>(steady.size() - 1);
  out.p99_owd_ms = quantile(steady, 0.99);
  return out;
}

}  // namespace

/// The bench body; main() below routes uncaught errors through the shared
/// guarded_main error boundary (structured message + exit-code contract).
int run_bench(int argc, char** argv) {
  using namespace ccc;
  using S = bench::Shared;
  bench::Cli cli{"fig9_jitter", {S::kOut, S::kReport}};
  cli.parse(argc, argv);
  std::ostream& os = cli.output();
  telemetry::RunReport report{"fig9_jitter", core::DumbbellConfig{}.seed};
  print_banner(os,
               "E9 (§5.2): jitter contention — a 4 Mbit/s live stream vs a bursty "
               "cubic flow, 20 Mbit/s link");

  const ByteCount buf = bdp_bytes(Rate::mbps(20), Time::ms(100));
  TextTable t{{"qdisc", "mean OWD (ms)", "jitter (ms)", "p99 OWD (ms)"}};

  auto add = [&](const std::string& name, JitterOutcome o) {
    t.add_row({name, TextTable::num(o.mean_owd_ms, 2), TextTable::num(o.jitter_ms, 3),
               TextTable::num(o.p99_owd_ms, 2)});
    report.add_scalar(name, "mean_owd_ms", o.mean_owd_ms);
    report.add_scalar(name, "jitter_ms", o.jitter_ms);
    report.add_scalar(name, "p99_owd_ms", o.p99_owd_ms);
  };

  add("fifo", run_case(std::make_unique<queue::DropTailQueue>(buf)));
  add("fq-flow", run_case(std::make_unique<queue::DrrFairQueue>(
                     buf, queue::FairnessKey::kPerFlow)));
  for (const ByteCount burst : {15'000, 60'000, 250'000}) {
    // The user's traffic is shaped to a 10 Mbit/s plan (half the wire rate)
    // with growing burst allowances — the §5.2 token-bucket configuration:
    // granted tokens may be consumed arbitrarily fast, so a larger bucket
    // means longer wire-rate bursts followed by token-drain stalls.
    add("tbf-10M-burst-" + std::to_string(burst / 1000) + "KB",
        run_case(std::make_unique<queue::TokenBucketShaper>(Rate::mbps(10), burst, buf)));
  }

  t.print(os);
  os << "\nshape check: fq-flow cuts the live stream's mean delay vs fifo, but "
               "jitter survives FQ (the paper's point); token-bucket jitter grows with "
               "the burst allowance.\n";
  if (!report.emit(cli.report)) {
    std::cerr << "fig9_jitter: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return 0;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("fig9_jitter", [&] { return run_bench(argc, argv); });
}
