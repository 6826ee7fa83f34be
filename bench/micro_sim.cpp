// Micro-benchmarks: simulator event throughput and qdisc operations (M2).
//
// Besides the google-benchmark micros, main() emits one machine-readable
// JSON line per headline metric (events/sec on the scheduler hot path) so
// the perf trajectory can be tracked across PRs:
//   {"bench": "scheduler_chain", "events": ..., "wall_sec": ..., "events_per_sec": ...}
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "app/bulk.hpp"
#include "bench/cli.hpp"
#include "cca/new_reno.hpp"
#include "core/dumbbell.hpp"
#include "queue/drop_tail.hpp"
#include "queue/drr_fair_queue.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/run_report.hpp"

namespace {

using namespace ccc;

void BM_SchedulerChain(benchmark::State& state) {
  // Measures raw event dispatch: a single self-rescheduling event.
  for (auto _ : state) {
    sim::Scheduler sched;
    int count = 0;
    std::function<void()> tick = [&] {
      if (++count < 10000) sched.schedule_after(Time::us(1), tick);
    };
    sched.schedule_at(Time::zero(), tick);
    sched.run_until(Time::sec(1.0));
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SchedulerChain);

void BM_QdiscEnqueueDequeue_DropTail(benchmark::State& state) {
  queue::DropTailQueue q{1 << 30};
  sim::Packet p;
  p.flow = 1;
  p.size_bytes = 1500;
  for (auto _ : state) {
    q.enqueue(p, Time::zero());
    benchmark::DoNotOptimize(q.dequeue(Time::zero()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QdiscEnqueueDequeue_DropTail);

void BM_QdiscEnqueueDequeue_Drr(benchmark::State& state) {
  queue::DrrFairQueue q{1 << 30, queue::FairnessKey::kPerFlow};
  sim::Packet p;
  p.size_bytes = 1500;
  sim::FlowId f = 0;
  for (auto _ : state) {
    p.flow = (f++ % 64) + 1;  // 64 concurrent flows
    q.enqueue(p, Time::zero());
    benchmark::DoNotOptimize(q.dequeue(Time::zero()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QdiscEnqueueDequeue_Drr);

void BM_EndToEndFlowSecond(benchmark::State& state) {
  // Cost of simulating one second of a saturated 10 Mbit/s TCP flow —
  // calibrates how long the figure benches take.
  for (auto _ : state) {
    core::DumbbellConfig cfg;
    cfg.bottleneck_rate = Rate::mbps(10);
    cfg.one_way_delay = Time::ms(10);
    cfg.reverse_delay = Time::ms(10);
    core::DumbbellScenario net{cfg};
    net.add_flow(std::make_unique<cca::NewReno>(), std::make_unique<app::BulkApp>());
    net.run_until(Time::sec(1.0));
    benchmark::DoNotOptimize(net.flow(0).delivered_bytes());
  }
}
BENCHMARK(BM_EndToEndFlowSecond);

void BM_SchedulerTimerChurn(benchmark::State& state) {
  // The retransmission-timer pattern: every event re-arms a far-future
  // timer and cancels the previous one, so cancelled entries pile up in the
  // heap. Exercises slab reuse + compaction.
  for (auto _ : state) {
    sim::Scheduler sched;
    int count = 0;
    sim::EventId rto = 0;
    std::function<void()> tick = [&] {
      sched.cancel(rto);  // "ACK arrived": disarm the previous timer
      rto = sched.schedule_after(Time::ms(200), [] {});
      if (++count < 10000) sched.schedule_after(Time::us(1), tick);
    };
    sched.schedule_at(Time::zero(), tick);
    sched.run_until(Time::sec(1.0));
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SchedulerTimerChurn);

// ----------------------------------------------------------------------
// Typed-event per-shape scopes. Three canonical hot-path shapes, expressed
// through the typed API (schedule_member_fire / schedule_call / the delivery
// batches of event engine v3) exactly as the simulator's own components use
// it, so these numbers move when the engine moves:
//   sim_delivery     packet delivery chain through a SoA delivery batch —
//                    the production Link propagation path
//   sim_timer_churn  RTO pattern: every tick cancels + re-arms a far timer
//   sim_mixed_chain  both at once plus a 10 ms in-flight delivery window
//                    (the shape that punishes a heap-only scheduler)

constexpr int kShapeEvents = 2'000'000;

struct ShapeCountSink : sim::PacketSink {
  std::uint64_t n{0};
  void deliver(const sim::Packet&) override { ++n; }
  void deliver_batch(const sim::Packet* const*, std::size_t k) override { n += k; }
};

/// Delivery-only: a relay sink behind a delivery batch (the path Link's
/// propagation pipe takes since event engine v3) that re-schedules each
/// packet +1us. The whole chain drains inside bulk batch dispatches — one
/// pop_next for the lot — instead of one heap round-trip per packet.
struct ShapeRelay : sim::PacketSink {
  sim::Scheduler& sched;
  sim::Scheduler::BatchId batch;
  int count{0};
  explicit ShapeRelay(sim::Scheduler& s) : sched{s}, batch{s.register_delivery_batch(*this)} {}
  void deliver(const sim::Packet& p) override {
    if (++count < kShapeEvents) sched.schedule_deliver_batch_after(Time::us(1), batch, p);
  }
};

double run_sim_delivery(std::uint64_t& events) {
  sim::Scheduler sched;
  ShapeRelay relay{sched};
  sim::Packet proto;
  proto.size_bytes = 1500;
  proto.payload_bytes = 1460;
  const auto t0 = std::chrono::steady_clock::now();
  sched.schedule_deliver_batch_at(Time::zero(), relay.batch, proto);
  sched.run_until(Time::sec(10.0));
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
  events = sched.events_executed();
  return wall.count();
}

struct ShapeChurnDriver {
  sim::Scheduler& sched;
  int count{0};
  sim::EventId rto{0};
  void tick() {
    sched.cancel(rto);  // "ACK arrived": disarm the previous timer
    rto = sched.schedule_call_after(Time::ms(200), [](void*, std::uint64_t) {}, nullptr);
    if (++count < kShapeEvents) {
      sched.schedule_member_fire_after<&ShapeChurnDriver::tick>(Time::us(1), this);
    }
  }
};

double run_sim_timer_churn(std::uint64_t& events) {
  sim::Scheduler sched;
  ShapeChurnDriver d{sched};
  const auto t0 = std::chrono::steady_clock::now();
  sched.schedule_member_fire_at<&ShapeChurnDriver::tick>(Time::zero(), &d);
  sched.run_until(Time::sec(10.0));
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
  events = sched.events_executed();
  return wall.count();
}

struct ShapeMixedDriver {
  sim::Scheduler& sched;
  ShapeCountSink sink;
  sim::Scheduler::BatchId batch;
  sim::Packet proto;
  int count{0};
  sim::EventId rto{0};
  explicit ShapeMixedDriver(sim::Scheduler& s)
      : sched{s}, batch{s.register_delivery_batch(sink)} {}
  void tick() {
    sched.cancel(rto);
    rto = sched.schedule_call_after(Time::ms(200), [](void*, std::uint64_t) {}, nullptr);
    // A 10 ms flight time at one departure/us keeps ~10,000 deliveries in
    // the air — parked in the SoA batch (the production Link path), not in
    // the timer wheel, so the per-packet wheel bookkeeping disappears.
    sched.schedule_deliver_batch_after(Time::ms(10), batch, proto);
    if (++count < kShapeEvents) {
      sched.schedule_member_fire_after<&ShapeMixedDriver::tick>(Time::us(1), this);
    }
  }
};

double run_sim_mixed_chain(std::uint64_t& events) {
  sim::Scheduler sched;
  ShapeMixedDriver d{sched};
  d.proto.size_bytes = 1500;
  d.proto.payload_bytes = 1460;
  const auto t0 = std::chrono::steady_clock::now();
  sched.schedule_member_fire_at<&ShapeMixedDriver::tick>(Time::zero(), &d);
  sched.run_until(Time::sec(30.0));
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
  events = sched.events_executed();
  return wall.count();
}

/// Best-of-N: the minimum wall time over `repeat` runs. Each run is
/// deterministic (same events, same order), so the spread is pure machine
/// noise and the fastest run is the closest estimate of the true cost.
void report_shape(const char* name, double (*run)(std::uint64_t&), std::size_t repeat,
                  std::ostream& os, telemetry::RunReport& report) {
  std::uint64_t events = 0;
  double wall = run(events);
  for (std::size_t r = 1; r < repeat; ++r) {
    std::uint64_t ev = 0;
    wall = std::min(wall, run(ev));
  }
  const double eps = static_cast<double>(events) / wall;
  char line[256];
  std::snprintf(line, sizeof line,
                "{\"bench\": \"%s\", \"events\": %llu, \"wall_sec\": %.4f, "
                "\"events_per_sec\": %.0f}\n",
                name, static_cast<unsigned long long>(events), wall, eps);
  os << line;
  report.add_scalar(name, "events", static_cast<double>(events));
  report.add_scalar(name, "wall_sec", wall);
  report.add_scalar(name, "events_per_sec", eps);
}

/// Wall-clock events/sec on the raw dispatch path, printed as JSON and
/// mirrored into the machine-readable RunReport (--report).
void report_events_per_sec(const char* name, bool churn, std::size_t repeat, std::ostream& os,
                           telemetry::RunReport& report) {
  constexpr int kEvents = 2'000'000;
  std::uint64_t events = 0;
  auto one_run = [&] {
    sim::Scheduler sched;
    int count = 0;
    sim::EventId rto = 0;
    std::function<void()> tick = [&] {
      if (churn) {
        sched.cancel(rto);
        rto = sched.schedule_after(Time::ms(200), [] {});
      }
      if (++count < kEvents) sched.schedule_after(Time::us(1), tick);
    };
    sched.schedule_at(Time::zero(), tick);
    const auto t0 = std::chrono::steady_clock::now();
    sched.run_until(Time::sec(10.0));
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
    events = sched.events_executed();
    return wall.count();
  };
  double wall = one_run();
  for (std::size_t r = 1; r < repeat; ++r) wall = std::min(wall, one_run());
  const double eps = static_cast<double>(events) / wall;
  char line[256];
  std::snprintf(line, sizeof line,
                "{\"bench\": \"%s\", \"events\": %llu, \"wall_sec\": %.4f, "
                "\"events_per_sec\": %.0f}\n",
                name, static_cast<unsigned long long>(events), wall, eps);
  os << line;
  report.add_scalar(name, "events", static_cast<double>(events));
  report.add_scalar(name, "wall_sec", wall);
  report.add_scalar(name, "events_per_sec", eps);
}

}  // namespace

/// The bench body; main() below routes uncaught errors through the shared
/// guarded_main error boundary (structured message + exit-code contract).
int run_bench(int argc, char** argv) {
  using namespace ccc;
  // Declared bench flags first; anything else (google-benchmark's
  // --benchmark_* family) passes through via cli.rest.
  using S = bench::Shared;
  bench::Cli cli{"micro_sim", {S::kRepeat, S::kOut, S::kReport}, {}, bench::Leftovers::kPassOn};
  cli.parse(argc, argv);
  std::vector<char*> bench_argv{argv[0]};
  for (auto& a : cli.rest) bench_argv.push_back(a.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::ostream& os = cli.output();
  // Best-of-N (default 3) folds the repeat loop the perf-smoke script used
  // to run from the shell into the bench itself: one process, one report.
  const std::size_t repeat = cli.repeat_or(3);
  telemetry::RunReport report{"micro_sim", 0};
  report_events_per_sec("scheduler_chain", /*churn=*/false, repeat, os, report);
  report_events_per_sec("scheduler_timer_churn", /*churn=*/true, repeat, os, report);
  report_shape("sim_delivery", run_sim_delivery, repeat, os, report);
  report_shape("sim_timer_churn", run_sim_timer_churn, repeat, os, report);
  report_shape("sim_mixed_chain", run_sim_mixed_chain, repeat, os, report);
  if (!report.emit(cli.report)) {
    std::cerr << "micro_sim: cannot write --report file '" << cli.report << "'\n";
    return 2;
  }
  return 0;
}

int main(int argc, char** argv) {
  return ccc::bench::guarded_main("micro_sim", [&] { return run_bench(argc, argv); });
}
