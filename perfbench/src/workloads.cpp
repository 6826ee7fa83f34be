#include "workloads.hpp"

#include <bit>
#include <filesystem>
#include <memory>
#include <optional>
#include <utility>

#include "app/abr_video.hpp"
#include "app/bulk.hpp"
#include "app/rate_limited.hpp"
#include "cca/bbr.hpp"
#include "core/cca_registry.hpp"
#include "core/dumbbell.hpp"
#include "core/elasticity_study.hpp"
#include "decorators.hpp"
#include "flow/tcp_receiver.hpp"
#include "flow/tcp_sender.hpp"
#include "mlab/synthetic.hpp"
#include "nimbus/nimbus.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/shard_set.hpp"
#include "queue/drop_tail.hpp"
#include "runner/experiment_runner.hpp"
#include "store/flow_store.hpp"
#include "telemetry/sampler.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using ccc::ByteCount;
using ccc::Rate;
using ccc::Time;

double host_s() { return static_cast<double>(clock_ns()) * 1e-9; }

/// Start offset in [0, max) for flow `index`, a pure function of the seed.
Time start_jitter(std::uint64_t seed, std::uint64_t index, Time max) {
  const auto span = static_cast<std::uint64_t>(max.count_ns());
  return Time::ns(static_cast<std::int64_t>(ccc::runner::derive_seed(seed, index) % span));
}

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

void fail(BatchOutcome& out, std::string what) { out.failures.push_back(std::move(what)); }

// ---- simulated workloads ----

/// One TCP flow wired by hand from the public DelayLine, TcpSender,
/// TcpReceiver and a timing sink on each endpoint's ingress. Construction
/// order is TcpFlow's (reverse line, sender, receiver, demux registration,
/// start): the reverse line registers a scheduler delivery batch and start()
/// schedules the first send, so any other order could reorder same-time
/// events.
class WiredFlow {
 public:
  WiredFlow(ccc::sim::Scheduler& sched, const ccc::flow::TcpFlowConfig& cfg,
            std::unique_ptr<ccc::cca::CongestionControl> cc, std::unique_ptr<ccc::app::App> app,
            ccc::sim::PacketSink& forward, ccc::sim::FlowDemux& demux, Tracer& tracer)
      : app_{std::move(app)},
        reverse_{sched, cfg.reverse_delay, demux},
        sender_{sched, sender_config(cfg), std::move(cc), *app_, forward},
        receiver_{sched,
                  ccc::flow::ReceiverConfig{cfg.flow_id, cfg.user, cfg.receiver_window,
                                            cfg.delayed_ack},
                  reverse_},
        ack_ingress_{sender_, tracer, Layer::kSender},
        data_ingress_{receiver_, tracer, Layer::kReceiver} {
    reverse_.set_dst(ack_ingress_);
    demux.register_flow(cfg.flow_id, data_ingress_);
    sender_.start(cfg.start_at);
  }
  WiredFlow(const WiredFlow&) = delete;
  WiredFlow& operator=(const WiredFlow&) = delete;

  [[nodiscard]] ccc::flow::TcpSender& sender() { return sender_; }
  [[nodiscard]] const ccc::flow::TcpReceiver& receiver() const { return receiver_; }

 private:
  static ccc::flow::SenderConfig sender_config(const ccc::flow::TcpFlowConfig& cfg) {
    ccc::flow::SenderConfig s = cfg.sender;
    s.flow_id = cfg.flow_id;
    s.user = cfg.user;
    return s;
  }

  std::unique_ptr<ccc::app::App> app_;
  ccc::sim::DelayLine reverse_;
  ccc::flow::TcpSender sender_;
  ccc::flow::TcpReceiver receiver_;
  TimingSink ack_ingress_;
  TimingSink data_ingress_;
};

/// A DumbbellScenario whose flows are added through add_flow() untraced, or
/// hand-wired behind timing decorators when a tracer is given.
class Net {
 public:
  Net(ccc::core::DumbbellConfig cfg, Tracer* tracer)
      : tracer_{tracer}, scenario_{cfg, wrap_qdisc(cfg, tracer)} {
    if (tracer_ != nullptr) {
      link_sink_.emplace(scenario_.bottleneck());
      link_ingress_.emplace(*link_sink_, *tracer_, Layer::kSimLink);
    }
  }
  Net(const Net&) = delete;
  Net& operator=(const Net&) = delete;

  void add_flow(std::unique_ptr<ccc::cca::CongestionControl> cc,
                std::unique_ptr<ccc::app::App> app, ccc::sim::UserId user, Time start) {
    if (tracer_ == nullptr) {
      scenario_.add_flow(std::move(cc), std::move(app), user, start);
      return;
    }
    // Mirrors DumbbellScenario::add_flow's TcpFlowConfig and telemetry.
    ccc::flow::TcpFlowConfig fc;
    fc.flow_id = next_flow_id_++;
    fc.user = user;
    fc.start_at = start;
    fc.reverse_delay = scenario_.config().reverse_delay;
    wired_.push_back(std::make_unique<WiredFlow>(
        scenario_.scheduler(), fc, std::make_unique<TracedCca>(std::move(cc), *tracer_),
        std::move(app), *link_ingress_, scenario_.demux(), *tracer_));
    if (scenario_.config().enable_telemetry) {
      wired_.back()->sender().bind_metrics(scenario_.metrics(),
                                           "flow" + std::to_string(fc.flow_id));
    }
  }

  [[nodiscard]] std::size_t flow_count() const {
    return tracer_ == nullptr ? scenario_.flow_count() : wired_.size();
  }
  [[nodiscard]] const ccc::flow::TcpSender& sender(std::size_t i) const {
    return tracer_ == nullptr ? scenario_.flow(i).sender() : wired_.at(i)->sender();
  }
  [[nodiscard]] const ccc::flow::TcpReceiver& receiver(std::size_t i) const {
    return tracer_ == nullptr ? scenario_.flow(i).receiver() : wired_.at(i)->receiver();
  }
  [[nodiscard]] ccc::sim::Scheduler& scheduler() { return scenario_.scheduler(); }

  void run_until(Time t) {
    Span s{tracer_, Layer::kSim, 1, /*keep=*/true};
    scenario_.run_until(t);
  }

  /// The checks every simulated scenario must pass, plus its digest and
  /// layer counts.
  void check(BatchOutcome& out, Digest& d, const std::string& label) {
    ++out.attempted;
    const std::size_t failures_before = out.failures.size();
    const ccc::sim::Qdisc& q = scenario_.bottleneck().qdisc();
    const auto& qs = q.stats();
    const std::uint64_t backlog = q.backlog_packets();
    if (qs.enqueued_packets != qs.dequeued_packets + qs.dropped_packets + backlog) {
      fail(out, label + ": qdisc conservation violated (enqueued " +
                    std::to_string(qs.enqueued_packets) + " != dequeued " +
                    std::to_string(qs.dequeued_packets) + " + dropped " +
                    std::to_string(qs.dropped_packets) + " + backlog " + std::to_string(backlog) +
                    ")");
    }
    // Link books a packet's whole serialization time when it starts, so a
    // saturated link reads up to one packet above 1 at the end of a run.
    const Time now = scenario_.scheduler().now();
    const double util = scenario_.bottleneck().utilization(now);
    const double one_packet =
        scenario_.bottleneck().rate().transmit_time(ccc::sim::kFullPacket) / now;
    if (!(util <= 1.0 + one_packet)) {
      fail(out, label + ": link utilization " + std::to_string(util) + " exceeds 1");
    }
    for (std::size_t i = 0; i < flow_count(); ++i) {
      if (receiver(i).delivered_bytes() <= 0) {
        fail(out, label + ": flow " + std::to_string(i) + " delivered no bytes");
      }
    }
    if (out.failures.size() != failures_before) ++out.failed;

    for (std::size_t i = 0; i < flow_count(); ++i) {
      d.add(static_cast<std::uint64_t>(receiver(i).delivered_bytes()));
      d.add(static_cast<std::uint64_t>(sender(i).stats().bytes_sent));
      d.add(sender(i).stats().retransmissions);
    }
    d.add(qs.enqueued_packets);
    d.add(qs.dequeued_packets);
    d.add(qs.dropped_packets);
    d.add(qs.ecn_marked_packets);
    d.add(static_cast<std::uint64_t>(qs.dropped_bytes));
    const auto& ls = scenario_.bottleneck().stats();
    d.add(ls.packets_sent);
    d.add(static_cast<std::uint64_t>(ls.bytes_sent));
    d.add(static_cast<std::uint64_t>(ls.busy_time.count_ns()));

    auto& c = out.counts;
    c["sim.events"] += static_cast<double>(scenario_.scheduler().events_executed());
    c["queue.enqueued"] += static_cast<double>(qs.enqueued_packets);
    c["queue.dropped"] += static_cast<double>(qs.dropped_packets);
    for (std::size_t i = 0; i < flow_count(); ++i) {
      c["flow.packets_sent"] += static_cast<double>(sender(i).stats().packets_sent);
      c["flow.retransmissions"] += static_cast<double>(sender(i).stats().retransmissions);
    }
  }

 private:
  /// nullptr (the scenario's own DropTail) untraced; the same DropTail
  /// behind a TracedQdisc when traced.
  static std::unique_ptr<ccc::sim::Qdisc> wrap_qdisc(const ccc::core::DumbbellConfig& cfg,
                                                     Tracer* tracer) {
    if (tracer == nullptr) return nullptr;
    return std::make_unique<TracedQdisc>(
        std::make_unique<ccc::queue::DropTailQueue>(ccc::core::dumbbell_buffer_bytes(cfg)),
        *tracer);
  }

  Tracer* tracer_;
  ccc::core::DumbbellScenario scenario_;
  std::optional<ccc::sim::LinkSink> link_sink_;
  std::optional<TimingSink> link_ingress_;
  std::vector<std::unique_ptr<WiredFlow>> wired_;
  ccc::sim::FlowId next_flow_id_{ccc::core::DumbbellScenario::kFirstFlowId};
};

/// Start jitter bound for the WAN-scale scenarios (a few RTTs' worth).
constexpr Time kWanJitter = Time::ms(50);

/// Figure 3's bbr-bulk phase: a Nimbus probe (mode switching off, capacity
/// hint = link rate) and one backlogged BBR flow on 48 Mbit/s, 50+50 ms,
/// 1.5xBDP DropTail, with elasticity() sampled every 250 ms.
class BbrProbe {
 public:
  static constexpr Time kEnd = Time::ms(15'000);

  BbrProbe(std::uint64_t seed, Tracer* tracer)
      : tracer_{tracer},
        bbr_start_{study_.warmup + start_jitter(seed, 1, kWanJitter)},
        net_{ccc::core::elasticity_dumbbell(study_, seed), tracer} {
    ccc::nimbus::NimbusConfig ncfg = study_.nimbus;
    ncfg.capacity_hint = study_.link_rate;
    fft_window_ = ncfg.fft_window;
    auto probe = std::make_unique<ccc::nimbus::NimbusCca>(net_.scheduler(), ncfg);
    probe_ = probe.get();
    net_.add_flow(std::move(probe), std::make_unique<ccc::app::BulkApp>(), 1,
                  start_jitter(seed, 0, kWanJitter));
    net_.add_flow(std::make_unique<ccc::cca::Bbr>(), std::make_unique<ccc::app::BulkApp>(), 2,
                  bbr_start_);
    sampler_.emplace(net_.scheduler(), study_.sample_interval, Time::sec(1.0), kEnd,
                     [this](Time now) {
                       double eta = 0.0;
                       {
                         Span s{tracer_, Layer::kNimbusElasticity, 1, /*keep=*/true};
                         eta = probe_->elasticity();
                       }
                       samples_.emplace_back(now, eta);
                     });
  }

  void run() { net_.run_until(kEnd); }

  void check(BatchOutcome& out, Digest& d) {
    const std::size_t failed_before = out.failed;
    net_.check(out, d, "bbr_probe");
    // Samples whose FFT window lies wholly after the BBR flow started.
    std::size_t n = 0;
    std::size_t elastic = 0;
    for (const auto& [t, eta] : samples_) {
      d.add(eta);
      if (t < bbr_start_ + fft_window_) continue;
      ++n;
      if (eta >= ccc::nimbus::kElasticThreshold) ++elastic;
    }
    const double frac = n == 0 ? 0.0 : static_cast<double>(elastic) / static_cast<double>(n);
    out.facts["elastic_frac"] = frac;
    if (!(frac > 0.5)) {
      fail(out, "bbr_probe: probe called BBR elastic in only " + std::to_string(elastic) +
                    " of " + std::to_string(n) + " samples after warm-up");
      if (out.failed == failed_before) ++out.failed;
    }
  }

  [[nodiscard]] static double work() { return kEnd.to_sec(); }

 private:
  const ccc::core::ElasticityPocConfig study_{};
  Tracer* tracer_;
  Time bbr_start_;
  Time fft_window_{Time::zero()};
  Net net_;
  ccc::nimbus::NimbusCca* probe_{nullptr};
  std::vector<std::pair<Time, double>> samples_;
  std::optional<ccc::telemetry::PeriodicSampler> sampler_;
};

/// The section 2.2 / fig5 access link: one ABR-video Cubic flow and one
/// 10 Mbit/s rate-limited Cubic app on 50 Mbit/s, 10+10 ms, 2xBDP DropTail,
/// run long enough to include the large-window loss-recovery episode (the
/// rate-limited flow's, at about 10.5-11.3 s).
///
/// Both flows start at one seed-chosen offset. Independent per-flow jitter
/// decides whether the episode happens at all (in a 16 s run it occurred for
/// 3 of 6 seeds, and host time ranged 1.6-19.5 s); a common offset shifts
/// the whole run in time, so every seed contains it.
class AppLimitedAccess {
 public:
  static constexpr Time kEnd = Time::ms(12'000);
  /// Scoreboards are sampled after the start-up transient.
  static constexpr Time kEpisodeAfter = Time::ms(5'000);

  AppLimitedAccess(std::uint64_t seed, Tracer* tracer) : net_{config(seed), tracer} {
    const auto cfg = config(seed);
    path_bytes_ = ccc::core::dumbbell_buffer_bytes(cfg) +
                  ccc::bdp_bytes(cfg.bottleneck_rate, cfg.one_way_delay + cfg.reverse_delay);
    const Time offset = start_jitter(seed, 0, kWanJitter);
    net_.add_flow(ccc::core::make_cca_factory("cubic")(),
                  std::make_unique<ccc::app::AbrVideoApp>(net_.scheduler()), 1, offset);
    net_.add_flow(ccc::core::make_cca_factory("cubic")(),
                  std::make_unique<ccc::app::RateLimitedApp>(net_.scheduler(), Rate::mbps(10)),
                  1, offset);
    // Observation only: reads the senders' public counters.
    sampler_.emplace(net_.scheduler(), Time::ms(10), kEpisodeAfter, kEnd, [this](Time) {
      for (std::size_t i = 0; i < net_.flow_count(); ++i) {
        const auto& s = net_.sender(i);
        scoreboard_max_ = std::max(scoreboard_max_, s.inflight_bytes() - s.pipe_bytes());
      }
    });
  }

  void run() { net_.run_until(kEnd); }

  /// The episode: some flow's scoreboard holds more SACKed or marked-lost
  /// data than the path (BDP + buffer) can carry, which only a window far
  /// beyond the path's capacity produces. Runs without it peak at about half
  /// the path.
  void check(BatchOutcome& out, Digest& d) {
    const std::size_t failed_before = out.failed;
    net_.check(out, d, "applimited_access");
    out.facts["episode_scoreboard_kb"] = static_cast<double>(scoreboard_max_) / 1024.0;
    out.facts["path_kb"] = static_cast<double>(path_bytes_) / 1024.0;
    if (scoreboard_max_ <= path_bytes_) {
      fail(out, "applimited_access: no large-window loss-recovery episode (peak scoreboard " +
                    std::to_string(scoreboard_max_) + " bytes, path " +
                    std::to_string(path_bytes_) + " bytes)");
      if (out.failed == failed_before) ++out.failed;
    }
  }

  [[nodiscard]] static double work() { return kEnd.to_sec(); }

 private:
  static ccc::core::DumbbellConfig config(std::uint64_t seed) {
    ccc::core::DumbbellConfig cfg;
    cfg.bottleneck_rate = Rate::mbps(50);
    cfg.one_way_delay = Time::ms(10);
    cfg.reverse_delay = Time::ms(10);
    cfg.buffer_bdp_multiple = 2.0;
    cfg.seed = seed;
    return cfg;
  }

  Net net_;
  ByteCount path_bytes_{0};
  ByteCount scoreboard_max_{0};
  std::optional<ccc::telemetry::PeriodicSampler> sampler_;
};

template <class Scenario>
BatchOutcome run_simulated(const BatchContext& ctx) {
  BatchOutcome out;
  const double t0 = host_s();
  Scenario sc{ctx.seed, ctx.tracer};
  out.setup_s = host_s() - t0;
  const double t1 = host_s();
  sc.run();
  out.wall_s = host_s() - t1;
  out.work = Scenario::work();
  Digest d;
  sc.check(out, d);
  out.digest = d.value();
  return out;
}

template <class Scenario>
double time_setup(std::uint64_t seed) {
  const double t0 = host_s();
  Scenario sc{seed, nullptr};
  return host_s() - t0;
}

// ---- passive_archive ----

/// Section 3.1 / Figure 2 at 10x the paper's 9,984 flows.
constexpr std::size_t kArchiveFlows = 10 * 9984;
constexpr std::uint64_t kArchiveShardFlows = 8192;

BatchOutcome passive_archive(const BatchContext& ctx) {
  BatchOutcome out;
  Tracer* tracer = ctx.tracer;
  fs::create_directories(ctx.scratch_dir);
  const std::string base = (fs::path{ctx.scratch_dir} / "archive.ccfs").string();

  const double t0 = host_s();
  std::vector<std::string> paths;
  {
    ccc::store::ShardedFlowStoreWriter writer{base, kArchiveShardFlows};
    ccc::mlab::SyntheticConfig scfg;
    scfg.n_flows = kArchiveFlows;
    ccc::Rng rng{ctx.seed};
    {
      Span g{tracer, Layer::kMlabGenerate, 1, /*keep=*/true};
      ccc::mlab::generate_dataset_stream(scfg, rng, [&](ccc::mlab::NdtRecord&& rec) {
        Span s{tracer, Layer::kStoreWrite};
        writer.append(rec);
      });
    }
    Span s{tracer, Layer::kStoreWrite, 1, /*keep=*/true};
    paths = writer.finish();
  }
  out.setup_s = host_s() - t0;

  const double t1 = host_s();
  std::optional<ccc::pipeline::ShardSet> shards;
  {
    Span s{tracer, Layer::kStoreOpen, 1, /*keep=*/true};
    shards.emplace(ccc::pipeline::ShardSet::open(paths));
  }
  ccc::pipeline::PipelineConfig pcfg;
  pcfg.jobs = 1;  // early exit stays off (the default): the paper's full search
  std::optional<CountingSource> counted;
  if (tracer != nullptr) counted.emplace(shards->source());
  ccc::pipeline::PipelineResult res;
  {
    Span s{tracer, Layer::kPipeline, 1, /*keep=*/true};
    res = ccc::pipeline::run_pipeline(
        counted ? static_cast<const ccc::pipeline::FlowSource&>(*counted) : shards->source(),
        pcfg);
  }
  out.wall_s = host_s() - t1;

  const std::size_t opened = shards->shards_opened();
  for (const auto& f : shards->failures()) {
    fail(out, "passive_archive: unreadable shard " + f.path + ": " + f.detail);
  }
  double bytes = 0.0;
  for (const auto& p : paths) {
    std::error_code ec;
    const auto size = fs::file_size(p, ec);
    if (!ec) bytes += static_cast<double>(size);
  }
  shards.reset();
  for (const auto& p : paths) {
    std::error_code ec;
    fs::remove(p, ec);
  }

  out.work = static_cast<double>(kArchiveFlows);
  out.attempted = kArchiveFlows;
  std::uint64_t accounted = res.records_corrupt;
  for (const auto v : res.verdicts) accounted += v;
  if (opened != paths.size()) {
    out.failed = kArchiveFlows;
  } else if (accounted != kArchiveFlows || res.flows != kArchiveFlows) {
    fail(out, "passive_archive: verdicts + records_corrupt = " + std::to_string(accounted) +
                  ", pipeline flows = " + std::to_string(res.flows) + ", expected " +
                  std::to_string(kArchiveFlows));
    out.failed = accounted > kArchiveFlows ? accounted - kArchiveFlows : kArchiveFlows - accounted;
    if (out.failed == 0) out.failed = 1;
  }

  Digest d;
  for (const auto v : res.verdicts) d.add(v);
  for (const auto& row : res.confusion) {
    for (const auto v : row) d.add(v);
  }
  d.add(res.changepoints_total);
  d.add(res.samples_scanned);
  d.add(res.records_corrupt);
  out.digest = d.value();

  auto& c = out.counts;
  c["store.bytes"] = bytes;
  c["pipeline.flows"] = static_cast<double>(res.flows);
  if (counted) c["pipeline.source_calls"] = static_cast<double>(counted->calls());
  c["pipeline.filtered_frac"] = res.filtered_fraction();
  c["changepoint.samples"] = static_cast<double>(res.samples_scanned);
  c["changepoint.changepoints"] = static_cast<double>(res.changepoints_total);
  return out;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const auto w : {Workload::kBbrProbe, Workload::kAppLimitedAccess, Workload::kPassiveArchive}) {
    if (workload_name(w) == name) return w;
  }
  return std::nullopt;
}

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::kBbrProbe: return "bbr_probe";
    case Workload::kAppLimitedAccess: return "applimited_access";
    case Workload::kPassiveArchive: return "passive_archive";
  }
  return "?";
}

BatchOutcome run_batch(Workload w, const BatchContext& ctx) {
  switch (w) {
    case Workload::kBbrProbe: return run_simulated<BbrProbe>(ctx);
    case Workload::kAppLimitedAccess: return run_simulated<AppLimitedAccess>(ctx);
    case Workload::kPassiveArchive: return passive_archive(ctx);
  }
  return {};
}

double setup_only(Workload w, std::uint64_t seed) {
  switch (w) {
    case Workload::kBbrProbe: return time_setup<BbrProbe>(seed);
    case Workload::kAppLimitedAccess: return time_setup<AppLimitedAccess>(seed);
    case Workload::kPassiveArchive: break;
  }
  return 0.0;
}

}  // namespace perfbench
