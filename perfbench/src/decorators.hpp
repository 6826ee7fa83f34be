// Timing decorators for the traced run. Each forwards every call to the
// wrapped object unchanged and times it from outside; attaching one must not
// change the simulation (checked by the traced-equals-untraced digest).
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "cca/cca.hpp"
#include "pipeline/source.hpp"
#include "sim/packet.hpp"
#include "sim/qdisc.hpp"
#include "trace.hpp"

namespace perfbench {

/// The cca.* layer a CCA's spans are charged to, by its name().
[[nodiscard]] inline Layer cca_layer(std::string_view name) {
  if (name == "bbr") return Layer::kCcaBbr;
  if (name == "cubic") return Layer::kCcaCubic;
  if (name == "nimbus") return Layer::kCcaNimbus;
  return Layer::kCcaOther;
}

class TracedCca final : public ccc::cca::CongestionControl {
 public:
  TracedCca(std::unique_ptr<ccc::cca::CongestionControl> inner, Tracer& tracer)
      : inner_{std::move(inner)}, tracer_{tracer}, layer_{cca_layer(inner_->name())} {}

  void on_ack(const ccc::cca::AckEvent& ev) override {
    Span s{&tracer_, layer_};
    inner_->on_ack(ev);
  }
  void on_loss(const ccc::cca::LossEvent& ev) override {
    Span s{&tracer_, layer_};
    inner_->on_loss(ev);
  }
  void on_rto(ccc::Time now) override {
    Span s{&tracer_, layer_};
    inner_->on_rto(now);
  }
  void on_idle_restart(ccc::Time now) override {
    Span s{&tracer_, layer_};
    inner_->on_idle_restart(now);
  }
  [[nodiscard]] ccc::ByteCount cwnd_bytes() const override {
    Span s{&tracer_, layer_};
    return inner_->cwnd_bytes();
  }
  [[nodiscard]] ccc::Rate pacing_rate() const override {
    Span s{&tracer_, layer_};
    return inner_->pacing_rate();
  }
  [[nodiscard]] bool wants_ecn() const override {
    Span s{&tracer_, layer_};
    return inner_->wants_ecn();
  }
  // Set-up only; forwarded untimed.
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  void bind_metrics(ccc::telemetry::MetricRegistry& reg, const std::string& prefix) override {
    inner_->bind_metrics(reg, prefix);
  }

 private:
  std::unique_ptr<ccc::cca::CongestionControl> inner_;
  Tracer& tracer_;
  Layer layer_;
};

/// Qdisc::stats() is non-virtual and reads the base class's stats_, so the
/// decorator copies the inner qdisc's counters after every mutating call;
/// without that the link, the conservation check and the digest read zeros.
class TracedQdisc final : public ccc::sim::Qdisc {
 public:
  TracedQdisc(std::unique_ptr<ccc::sim::Qdisc> inner, Tracer& tracer)
      : inner_{std::move(inner)}, tracer_{tracer} {
    stats_ = inner_->stats();
  }

  bool enqueue(const ccc::sim::Packet& pkt, ccc::Time now) override {
    bool admitted = false;
    {
      Span s{&tracer_, Layer::kQueue};
      admitted = inner_->enqueue(pkt, now);
    }
    stats_ = inner_->stats();
    return admitted;
  }
  std::optional<ccc::sim::Packet> dequeue(ccc::Time now) override {
    std::optional<ccc::sim::Packet> out;
    {
      Span s{&tracer_, Layer::kQueue};
      out = inner_->dequeue(now);
    }
    stats_ = inner_->stats();
    return out;
  }
  [[nodiscard]] ccc::Time next_ready(ccc::Time now) const override {
    Span s{&tracer_, Layer::kQueue};
    return inner_->next_ready(now);
  }
  [[nodiscard]] ccc::ByteCount backlog_bytes() const override {
    Span s{&tracer_, Layer::kQueue};
    return inner_->backlog_bytes();
  }
  [[nodiscard]] std::size_t backlog_packets() const override {
    Span s{&tracer_, Layer::kQueue};
    return inner_->backlog_packets();
  }

 private:
  std::unique_ptr<ccc::sim::Qdisc> inner_;
  Tracer& tracer_;
};

/// Times every packet handed to `inner`, counting packets as units. A
/// same-time batch is one span, forwarded as a batch so the inner sink sees
/// exactly the calls it would see undecorated.
class TimingSink final : public ccc::sim::PacketSink {
 public:
  TimingSink(ccc::sim::PacketSink& inner, Tracer& tracer, Layer layer)
      : inner_{inner}, tracer_{tracer}, layer_{layer} {}

  void deliver(const ccc::sim::Packet& pkt) override {
    Span s{&tracer_, layer_};
    inner_.deliver(pkt);
  }
  void deliver_batch(const ccc::sim::Packet* const* pkts, std::size_t n) override {
    Span s{&tracer_, layer_, n};
    inner_.deliver_batch(pkts, n);
  }

 private:
  ccc::sim::PacketSink& inner_;
  Tracer& tracer_;
  Layer layer_;
};

/// Counts FlowSource::flow() calls (pipeline.source_calls). Thread-safe like
/// the source it wraps.
class CountingSource final : public ccc::pipeline::FlowSource {
 public:
  explicit CountingSource(const ccc::pipeline::FlowSource& inner) : inner_{inner} {}

  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] ccc::store::FlowView flow(std::size_t i) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.flow(i);
  }
  void prefetch(std::size_t begin, std::size_t end) const override {
    inner_.prefetch(begin, end);
  }

  [[nodiscard]] std::uint64_t calls() const { return calls_.load(); }

 private:
  const ccc::pipeline::FlowSource& inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

}  // namespace perfbench
