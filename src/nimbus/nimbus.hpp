// Nimbus: the mode-switching, elasticity-detecting CCA the paper proposes to
// repurpose as an Internet-wide contention measurement probe (§3.2).
//
// Components, as in Goyal et al.:
//   1. A delay-based base controller that keeps the bottleneck just busy
//      (small standing queue) — necessary for the cross-traffic estimator to
//      be valid.
//   2. Sinusoidal rate pulses at fp (mean-neutral) overlaid on the base rate.
//   3. A cross-traffic rate estimator  z = mu * rin/rout - rin  sampled on a
//      fixed grid, fed to the FFT elasticity metric.
//   4. A mode switcher (delay mode <-> TCP-competitive mode). The paper's
//      measurement methodology runs with mode switching DISABLED (the
//      default here), keeping the pulses and reporting elasticity.
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "cca/cca.hpp"
#include "nimbus/elasticity.hpp"
#include "sim/scheduler.hpp"

namespace ccc::telemetry {
class Counter;
class Trace;
}  // namespace ccc::telemetry

namespace ccc::nimbus {

struct NimbusConfig {
  double pulse_hz{5.0};
  /// Pulse amplitude as a fraction of the estimated capacity.
  double pulse_amplitude{0.25};
  /// Width of one z(t) sample bin. Deliberately NOT a divisor of the pulse
  /// period: with commensurate sampling (e.g. 10 ms bins, 200 ms period) the
  /// per-bin packet-count rounding repeats exactly once per pulse and forges
  /// a spurious tone at fp; an incommensurate width spreads that rounding
  /// error across the spectrum where it belongs.
  Time sample_bin{Time::us(9700)};
  /// FFT window over which elasticity is computed.
  Time fft_window{Time::sec(5.0)};
  /// Target standing queueing delay for the delay-mode controller.
  Time target_queue_delay{Time::ms(15)};
  /// Proportional gain of the delay controller (per RTT).
  double delay_gain{0.1};
  /// Time constant of the queue-delay estimate. Must average over at least a
  /// couple of pulse periods, or the controller chases (and re-injects) the
  /// pulses themselves.
  Time queue_delay_tau{Time::ms(250)};
  /// If set (> 0), use this as the capacity estimate instead of the
  /// windowed-max receive rate (the emulated-link case where mu is known).
  Rate capacity_hint{Rate::zero()};
  /// Paper §3.2: "use Nimbus but disable mode-switching". Enable only to
  /// study the full CCA.
  bool enable_mode_switching{false};
  ByteCount mss{sim::kMss};
  /// Floor on the probe's base rate. A measurement probe must keep enough
  /// packets flowing to feed its estimator even when elastic cross traffic
  /// squeezes it (delay-mode control yields readily).
  Rate min_rate{Rate::mbps(2.0)};
  Rate initial_rate{Rate::mbps(4.0)};
};

class NimbusCca : public cca::CongestionControl {
 public:
  NimbusCca(const sim::Scheduler& sched, NimbusConfig cfg = {});

  void on_ack(const cca::AckEvent& ev) override;
  void on_loss(const cca::LossEvent& ev) override;
  void on_rto(Time now) override;
  [[nodiscard]] ByteCount cwnd_bytes() const override;
  [[nodiscard]] Rate pacing_rate() const override;
  [[nodiscard]] std::string_view name() const override { return "nimbus"; }

  /// Elasticity over the most recent FFT window; the probe's measurement.
  [[nodiscard]] double elasticity() const;
  /// True if the latest elasticity crosses the Nimbus threshold.
  [[nodiscard]] bool cross_traffic_elastic() const { return elasticity() >= kElasticThreshold; }

  [[nodiscard]] Rate capacity_estimate() const;
  [[nodiscard]] Rate base_rate() const { return base_rate_; }
  [[nodiscard]] Time min_rtt() const { return min_rtt_; }
  /// Smoothed cross-traffic rate estimate (the controller's view of z).
  [[nodiscard]] Rate cross_traffic_estimate() const { return Rate::bps(z_ewma_bps_); }
  /// Smoothed standing queueing delay estimate.
  [[nodiscard]] Time queue_delay_estimate() const { return Time::sec(queue_delay_ewma_sec_); }
  enum class Mode { kDelay, kTcpCompetitive };
  [[nodiscard]] Mode mode() const { return mode_; }

  /// The rate the pulse generator commands at absolute time `now` — exposed
  /// for tests of pulse shape and mean-neutrality.
  [[nodiscard]] Rate pulsed_rate(Time now) const;

  /// Length of the z(t) window elasticity() evaluates, in sample bins — the
  /// window_len a streaming estimator must be built with to agree with the
  /// full-FFT path.
  [[nodiscard]] std::size_t z_window_bins() const { return max_bins_; }

  /// Observation tap: called with every z sample as it enters the series
  /// (after any hold-fill for skipped bins). Pure observation — attaching a
  /// tap never changes the CCA's behavior. Pass nullptr to detach.
  void set_z_tap(std::function<void(double)> tap) { z_tap_ = std::move(tap); }

  /// Registers `<prefix>.mode_transitions` (counter) and `<prefix>.mode`
  /// (timeline, values = Mode enum) in `reg`.
  void bind_metrics(telemetry::MetricRegistry& reg, const std::string& prefix) override;

 private:
  void account_delivery(const cca::AckEvent& ev);
  void finalize_bin(std::int64_t next_bin);
  void push_z(double z_bps, double z_control_bps);
  void run_delay_controller(Time now);
  void update_mode(Time now);

  const sim::Scheduler& sched_;
  NimbusConfig cfg_;

  // Path model.
  Time min_rtt_{Time::never()};
  Time srtt_{Time::zero()};
  double queue_delay_ewma_sec_{0.0};  ///< slow (multi-pulse-period) queue estimate
  Time last_delay_update_{Time::zero()};
  double z_ewma_bps_{0.0};            ///< smoothed cross-traffic estimate
  std::deque<std::pair<Time, Rate>> rout_window_;  ///< (when, rate) for mu estimate

  // Rate control.
  Rate base_rate_;
  Time last_control_{Time::zero()};
  Mode mode_{Mode::kDelay};
  Time last_mode_eval_{Time::zero()};

  // TCP-competitive mode state (AIMD on rate).
  double competitive_rate_bps_{0.0};

  // Telemetry (null unless bind_metrics was called; hot paths gate on that).
  telemetry::Counter* mode_transitions_{nullptr};
  telemetry::Trace* mode_trace_{nullptr};

  // z(t) sampling: deliveries are binned by the *send* time of the acked
  // packets, so rin (bytes/bin-width in send time) and rout (bytes over the
  // matching span of ACK arrivals) describe the SAME packets. This
  // send/receive dilation is what makes the estimator phase-correct: pairing
  // the currently-commanded rate with the currently-delivered rate would lag
  // by a queueing delay and imprint the probe's own pulses onto z.
  std::int64_t cur_bin_{-1};       ///< send-time bin index being accumulated
  ByteCount cur_bin_bytes_{0};
  Time cur_bin_min_rtt_{Time::never()};  ///< drained-bin detector input
  Time cur_bin_last_ack_{Time::zero()};
  Time prev_bin_last_ack_{Time::zero()};
  double last_z_bps_{0.0};         ///< zero-order hold for empty bins
  std::deque<double> z_series_;    ///< one entry per sample bin
  std::size_t max_bins_{0};
  std::function<void(double)> z_tap_;  ///< observation-only z stream
  /// Spectrum scratch reused across elasticity windows (elasticity() is
  /// const; the scratch is not observable state).
  mutable SpectrumWorkspace fft_ws_;
};

}  // namespace ccc::nimbus
