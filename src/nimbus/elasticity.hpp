// The elasticity metric (Nimbus, SIGCOMM '22 — paper §3.2).
//
// A probe flow modulates its sending rate with sinusoidal pulses at a known
// frequency fp. If cross traffic on the bottleneck is *elastic* (its CCAs
// react to short-term changes in available bandwidth — i.e. it CONTENDS),
// the estimated cross-traffic rate z(t) picks up energy at fp. If the cross
// traffic is inelastic (CBR, chunked video, short flows), z(t) has no
// preferential energy at fp. The metric is therefore a frequency-domain
// signal-to-noise ratio at the pulse frequency.
#pragma once

#include <span>

#include "util/fft.hpp"

namespace ccc::nimbus {

struct ElasticityConfig {
  double pulse_hz{5.0};
  /// Bins on each side of fp (and its 2nd harmonic) treated as signal —
  /// accounts for Hann-window leakage.
  int signal_halfwidth_bins{2};
  /// Noise band lower edge: ignore slow drift below this frequency.
  double noise_floor_hz{1.0};
  /// Optional absolute significance floor. When > 0, the peak at fp must
  /// amount to at least min_signal_fraction of the response a fully-elastic
  /// cross flow would produce (a tone of this amplitude, in z's units);
  /// weaker peaks — e.g. residual estimator quantization on an otherwise
  /// silent path — attenuate the reported elasticity proportionally.
  double reference_amplitude{0.0};
  double min_signal_fraction{0.1};
};

/// Computes the elasticity of a cross-traffic-rate series `z` sampled at
/// `sample_hz`. Returns a dimensionless SNR: ~0-1.5 for inelastic cross
/// traffic, >> 2 when the cross traffic chases the pulses.
/// Returns 0 for degenerate inputs (too short, or an all-constant series).
[[nodiscard]] double elasticity_metric(std::span<const double> z, double sample_hz,
                                       const ElasticityConfig& cfg = {});

/// Workspace variant: identical value, but the spectrum scratch (windowed
/// copy, FFT buffer, Hann table) comes from `ws` — zero heap allocation per
/// window once warmed up. The elasticity study and NimbusCca call this once
/// per FFT window for an entire run.
[[nodiscard]] double elasticity_metric(std::span<const double> z, double sample_hz,
                                       const ElasticityConfig& cfg, SpectrumWorkspace& ws);

/// Classification threshold used by Nimbus's mode switcher; we expose it so
/// benches and the detector agree on one constant.
inline constexpr double kElasticThreshold = 2.0;

}  // namespace ccc::nimbus
