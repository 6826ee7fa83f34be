// Tests of the benchmark's own instrumentation: the decorators forward every
// call unchanged, the qdisc decorator mirrors the inner qdisc's stats, the
// tracer's self-time arithmetic, and the traced (hand-wired) run reproducing
// the untraced run's digest.
#include <gtest/gtest.h>


#include "decorators.hpp"
#include "mlab/synthetic.hpp"
#include "queue/drop_tail.hpp"
#include "telemetry/metrics.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ccc::ByteCount;
using ccc::Rate;
using ccc::Time;

/// Records every call with its argument and returns distinctive values.
class RecordingCca final : public ccc::cca::CongestionControl {
 public:
  void on_ack(const ccc::cca::AckEvent& ev) override { acked += ev.newly_acked_bytes; }
  void on_loss(const ccc::cca::LossEvent& ev) override { lost += ev.lost_bytes; }
  void on_rto(Time now) override { rto_at = now; }
  void on_idle_restart(Time now) override { idle_at = now; }
  [[nodiscard]] ByteCount cwnd_bytes() const override { return 123'456; }
  [[nodiscard]] Rate pacing_rate() const override { return Rate::mbps(7); }
  [[nodiscard]] std::string_view name() const override { return "recording"; }
  [[nodiscard]] bool wants_ecn() const override { return true; }
  void bind_metrics(ccc::telemetry::MetricRegistry& reg, const std::string& prefix) override {
    bound_registry = &reg;
    bound_prefix = prefix;
  }

  ByteCount acked{0};
  ByteCount lost{0};
  Time rto_at{Time::zero()};
  Time idle_at{Time::zero()};
  ccc::telemetry::MetricRegistry* bound_registry{nullptr};
  std::string bound_prefix;
};

TEST(TracedCca, ForwardsEveryVirtualMethod) {
  Tracer tracer;
  auto inner = std::make_unique<RecordingCca>();
  RecordingCca& rec = *inner;
  TracedCca cca{std::move(inner), tracer};

  ccc::cca::AckEvent ack;
  ack.newly_acked_bytes = 1448;
  cca.on_ack(ack);
  ccc::cca::LossEvent loss;
  loss.lost_bytes = 2896;
  cca.on_loss(loss);
  cca.on_rto(Time::ms(7));
  cca.on_idle_restart(Time::ms(9));
  ccc::telemetry::MetricRegistry reg;
  cca.bind_metrics(reg, "flow1.cca");

  EXPECT_EQ(rec.acked, 1448);
  EXPECT_EQ(rec.lost, 2896);
  EXPECT_EQ(rec.rto_at, Time::ms(7));
  EXPECT_EQ(rec.idle_at, Time::ms(9));
  EXPECT_EQ(rec.bound_registry, &reg);
  EXPECT_EQ(rec.bound_prefix, "flow1.cca");
  EXPECT_EQ(cca.cwnd_bytes(), 123'456);
  EXPECT_EQ(cca.pacing_rate(), Rate::mbps(7));
  EXPECT_EQ(cca.name(), "recording");
  EXPECT_TRUE(cca.wants_ecn());
  // The seven per-ACK-path methods are timed; name and bind_metrics are not.
  EXPECT_EQ(tracer.totals(Layer::kCcaOther).calls, 7u);
  EXPECT_TRUE(tracer.idle());
}

TEST(TracedCca, ChargesKnownCcasToTheirLayer) {
  EXPECT_EQ(cca_layer("bbr"), Layer::kCcaBbr);
  EXPECT_EQ(cca_layer("cubic"), Layer::kCcaCubic);
  EXPECT_EQ(cca_layer("nimbus"), Layer::kCcaNimbus);
  EXPECT_EQ(cca_layer("newreno"), Layer::kCcaOther);
}

ccc::sim::Packet data_packet(std::int64_t seq, bool ect) {
  ccc::sim::Packet p;
  p.flow = 1;
  p.size_bytes = ccc::sim::kFullPacket;
  p.seq = seq;
  p.payload_bytes = ccc::sim::kMss;
  p.ecn_capable = ect;
  return p;
}

void expect_same_stats(const ccc::sim::QdiscStats& a, const ccc::sim::QdiscStats& b) {
  EXPECT_EQ(a.enqueued_packets, b.enqueued_packets);
  EXPECT_EQ(a.dequeued_packets, b.dequeued_packets);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
  EXPECT_EQ(a.ecn_marked_packets, b.ecn_marked_packets);
  EXPECT_EQ(a.dropped_bytes, b.dropped_bytes);
}

TEST(TracedQdisc, MirrorsInnerStatsAfterEveryCall) {
  Tracer tracer;
  // Room for 4 packets, CE-marking ECT packets once 2 are queued.
  auto inner = std::make_unique<ccc::queue::DropTailQueue>(4 * ccc::sim::kFullPacket,
                                                           2 * ccc::sim::kFullPacket);
  const ccc::sim::Qdisc& raw = *inner;
  TracedQdisc q{std::move(inner), tracer};

  int admitted = 0;
  for (int i = 0; i < 6; ++i) {
    admitted += q.enqueue(data_packet(i * ccc::sim::kMss, /*ect=*/true), Time::zero()) ? 1 : 0;
    expect_same_stats(q.stats(), raw.stats());
  }
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(q.stats().dropped_packets, 2u);
  EXPECT_GT(q.stats().ecn_marked_packets, 0u);
  EXPECT_EQ(q.backlog_packets(), raw.backlog_packets());
  EXPECT_EQ(q.backlog_bytes(), raw.backlog_bytes());
  EXPECT_EQ(q.next_ready(Time::ms(1)), raw.next_ready(Time::ms(1)));

  const auto first = q.dequeue(Time::ms(1));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->seq, 0);
  expect_same_stats(q.stats(), raw.stats());
  EXPECT_EQ(q.stats().enqueued_packets,
            q.stats().dequeued_packets + q.stats().dropped_packets + q.backlog_packets());
  EXPECT_GT(tracer.totals(Layer::kQueue).calls, 6u);
}

/// Counts how the packets arrived.
class CountingSink final : public ccc::sim::PacketSink {
 public:
  void deliver(const ccc::sim::Packet& pkt) override {
    ++singles;
    last_seq = pkt.seq;
  }
  void deliver_batch(const ccc::sim::Packet* const* pkts, std::size_t n) override {
    ++batches;
    batched += n;
    last_seq = pkts[n - 1]->seq;
  }
  int singles{0};
  int batches{0};
  std::size_t batched{0};
  std::int64_t last_seq{-1};
};

TEST(TimingSink, ForwardsSinglesAndBatchesUnchanged) {
  Tracer tracer;
  CountingSink inner;
  TimingSink sink{inner, tracer, Layer::kReceiver};

  sink.deliver(data_packet(10, false));
  EXPECT_EQ(inner.singles, 1);
  EXPECT_EQ(inner.last_seq, 10);

  const ccc::sim::Packet a = data_packet(20, false);
  const ccc::sim::Packet b = data_packet(30, false);
  const ccc::sim::Packet* run[] = {&a, &b};
  sink.deliver_batch(run, 2);
  EXPECT_EQ(inner.batches, 1);
  EXPECT_EQ(inner.batched, 2u);
  EXPECT_EQ(inner.last_seq, 30);

  EXPECT_EQ(tracer.totals(Layer::kReceiver).calls, 2u);
  EXPECT_EQ(tracer.totals(Layer::kReceiver).units, 3u);
}

TEST(CountingSource, CountsAndForwards) {
  ccc::mlab::SyntheticConfig cfg;
  cfg.n_flows = 5;
  ccc::Rng rng{7};
  const auto dataset = ccc::mlab::generate_dataset(cfg, rng);
  const ccc::pipeline::MemorySource mem{dataset};
  const CountingSource src{mem};
  ASSERT_EQ(src.size(), 5u);
  EXPECT_EQ(src.flow(3).id, mem.flow(3).id);
  EXPECT_EQ(src.flow(4).id, mem.flow(4).id);
  EXPECT_EQ(src.calls(), 2u);
}

void spin(std::int64_t ns) {
  const std::int64_t until = clock_ns() + ns;
  while (clock_ns() < until) {
  }
}

TEST(Tracer, SelfTimeExcludesNestedSpans) {
  Tracer t;
  {
    Span outer{&t, Layer::kSim, 1, /*keep=*/true};
    spin(200'000);
    {
      Span inner{&t, Layer::kQueue};
      spin(300'000);
    }
    Span kept{&t, Layer::kNimbusElasticity, 1, /*keep=*/true};
  }
  const auto& outer = t.totals(Layer::kSim);
  const auto& inner = t.totals(Layer::kQueue);
  const auto& kept = t.totals(Layer::kNimbusElasticity);
  EXPECT_EQ(outer.self_ns + inner.total_ns + kept.total_ns, outer.total_ns);
  EXPECT_GE(inner.self_ns, 300'000);
  EXPECT_GE(outer.self_ns, 200'000);
  ASSERT_EQ(t.kept().size(), 2u);
  EXPECT_EQ(t.kept()[0].parent, -1);
  EXPECT_EQ(t.kept()[1].parent, 0);
  EXPECT_LE(t.kept()[0].start_ns, t.kept()[1].start_ns);
  EXPECT_LE(t.kept()[1].end_ns, t.kept()[0].end_ns);
  EXPECT_TRUE(t.idle());
}

TEST(TracedRun, ReproducesTheUntracedDigest) {
  const BatchOutcome u = run_batch(Workload::kBbrProbe, BatchContext{1, nullptr, ""});
  Tracer tracer;
  const BatchOutcome t = run_batch(Workload::kBbrProbe, BatchContext{1, &tracer, ""});
  EXPECT_EQ(u.failed, 0u) << (u.failures.empty() ? "" : u.failures.front());
  EXPECT_EQ(t.failed, 0u) << (t.failures.empty() ? "" : t.failures.front());
  EXPECT_EQ(u.digest, t.digest);
  EXPECT_EQ(u.counts, t.counts);
  // Every layer on the probe's path saw its calls, and nothing ran Cubic.
  for (const Layer l : {Layer::kSim, Layer::kSimLink, Layer::kQueue, Layer::kSender,
                        Layer::kReceiver, Layer::kCcaBbr, Layer::kCcaNimbus,
                        Layer::kNimbusElasticity}) {
    EXPECT_GT(tracer.totals(l).calls, 0u) << layer_name(l);
  }
  EXPECT_EQ(tracer.totals(Layer::kCcaCubic).calls, 0u);
  EXPECT_TRUE(tracer.idle());

  // The seed sets the inputs.
  const BatchOutcome other = run_batch(Workload::kBbrProbe, BatchContext{2, nullptr, ""});
  EXPECT_NE(other.digest, u.digest);
}

}  // namespace
}  // namespace perfbench
