// Incremental elasticity detection: the full-FFT `elasticity_metric`
// recomputed as O(#tracked bins) work per new z sample.
//
// The offline metric (nimbus/elasticity.cpp) reads remarkably little of the
// spectrum it pays N log N for: the fp +- halfwidth signal window, the 2*fp
// harmonic exclusion window, and an RMS over the remaining noise band. This
// detector maintains exactly those quantities with sliding recurrences:
//
//   - Per tracked spectrum bin k (omega_k = 2*pi*k/N), the Hann-windowed,
//     mean-removed DFT coefficient is a fixed linear combination of three
//     *unwindowed* generalized sliding DFTs. Writing the symmetric Hann as
//     h[i] = 0.5 - 0.25 e^{j theta i} - 0.25 e^{-j theta i}, with
//     theta = 2*pi/(n-1):
//       X_k = 0.5 S(omega_k) - 0.25 S(omega_k - theta)
//                            - 0.25 S(omega_k + theta) - m W_k
//     where S(nu) = sum_{i=0}^{n-1} x[t+i] e^{-j nu i}, m is the window
//     mean, and W_k = sum h[i] e^{-j omega_k i} is a per-geometry constant.
//     Each S slides in O(1): S' = e^{j nu} (S - x_old + x_new e^{-j nu n}).
//   - The noise band is NOT tracked bin-by-bin. Parseval gives the total
//     one-sided spectral energy from the windowed time-domain energy
//     E = sum ((x_i - m) h_i)^2, itself maintained by sliding DFTs of x and
//     x^2 at {0, theta, 2*theta} (because h^2 is a three-term cosine
//     polynomial); the noise sum is then E's total minus the explicitly
//     tracked below-floor and excluded bins.
//
// Per push that is ~3 complex recurrences per tracked bin plus six shared
// ones — roughly 70 fused multiply-adds for the default geometry — versus a
// 1024-point FFT plus an O(N) scan per window for the offline path.
//
// Floating-point drift from the endless rotations is bounded by rebasing:
// every rebase_interval pushes all states are recomputed exactly from the
// ring buffer. Equivalence contract (pinned in tests/elastic_test.cpp):
// while the window is still filling, eta() falls back to the offline metric
// and is bit-exact; once sliding, eta matches within 1e-9 relative for any
// window whose noise band carries real energy. (Bit-exactness is impossible
// there: the FFT sums the same products in a different order.) Degenerate
// all-constant windows — where the offline path sees exact zeros and takes
// its noise_rms <= 1e-12 branch — agree on the verdict but not on the last
// bits of eta, since Parseval round-off leaves ~1e-13 residues.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "nimbus/elasticity.hpp"
#include "util/fft.hpp"

namespace ccc::elastic {

struct DetectorConfig {
  /// z samples per elasticity window. Must be >= 16 (the offline metric's
  /// own floor). Defaults mirror NimbusConfig: 5 s / 9.7 ms bins.
  std::size_t window_len{515};
  /// Sample rate of the z series (1 / sample_bin).
  double sample_hz{1.0 / 0.0097};
  /// Frequency-domain geometry: pulse_hz, halfwidth, noise floor,
  /// reference amplitude (overridable per eval), significance fraction.
  nimbus::ElasticityConfig metric{};
  /// Pushes between exact state rebuilds (drift control). 0 = 4*window_len.
  std::size_t rebase_interval{0};
};

/// Everything about a detector that depends only on (window_len, sample_hz,
/// metric geometry): tracked-bin set, per-bin rotation constants, Hann DC
/// responses, the h^2 cosine-expansion constants, and the noise-band
/// bookkeeping. Immutable after construction and shared by every session
/// with the same shape — the SessionTable builds ONE of these for thousands
/// of detectors (the W_k table alone costs an O(n * #bins) trig pass).
/// Throws Error (kConfig) on an unusable configuration.
class DetectorGeometry {
 public:
  explicit DetectorGeometry(const DetectorConfig& cfg);

  /// One generalized sliding-DFT frequency nu, precomputed.
  struct Freq {
    std::complex<double> rot;   ///< e^{+j nu}: advances the window one sample
    std::complex<double> tail;  ///< e^{-j nu n}: phase of the entering sample
  };

  /// One tracked spectrum bin.
  struct Bin {
    std::uint32_t k;                ///< one-sided spectrum index, 0..N/2
    Freq f0;                        ///< omega_k
    Freq fm;                        ///< omega_k - theta
    Freq fp;                        ///< omega_k + theta
    std::complex<double> hann_dc;   ///< W_k = sum h[i] e^{-j omega_k i}
    bool in_signal_window;          ///< contributes to the fp peak search
    bool subtract_from_noise;       ///< below floor or inside an exclusion
  };

  [[nodiscard]] const DetectorConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t window_len() const { return cfg_.window_len; }
  [[nodiscard]] std::size_t padded_n() const { return padded_n_; }
  [[nodiscard]] double bin_hz() const { return bin_hz_; }
  [[nodiscard]] const std::vector<Bin>& bins() const { return bins_; }
  [[nodiscard]] std::size_t noise_bin_count() const { return noise_count_; }
  [[nodiscard]] bool h2_in_range() const { return h2_in_range_; }
  [[nodiscard]] std::size_t rebase_interval() const { return rebase_interval_; }
  [[nodiscard]] const Freq& theta() const { return theta_; }
  [[nodiscard]] const Freq& two_theta() const { return two_theta_; }
  /// sum h[i]^2 — the m^2 term of the windowed-energy expansion.
  [[nodiscard]] double hann_energy() const { return hann_energy_; }
  /// Positions of k == 0 and k == N/2 within bins() (both always tracked).
  [[nodiscard]] std::size_t dc_pos() const { return dc_pos_; }
  [[nodiscard]] std::size_t nyquist_pos() const { return nyq_pos_; }

 private:
  DetectorConfig cfg_;
  std::size_t padded_n_{0};
  double bin_hz_{0.0};
  std::vector<Bin> bins_;
  Freq theta_{};
  Freq two_theta_{};
  double hann_energy_{0.0};
  std::size_t noise_count_{0};
  bool h2_in_range_{true};
  std::size_t rebase_interval_{0};
  std::size_t dc_pos_{0};
  std::size_t nyq_pos_{0};
};

/// The streaming engine: one per probe session. Holds the sample ring plus
/// ~3 complex states per tracked bin; all geometry is shared through the
/// DetectorGeometry.
class IncrementalDetector {
 public:
  explicit IncrementalDetector(std::shared_ptr<const DetectorGeometry> geom);

  /// Absorb one z sample: O(1) while filling, O(#tracked bins) after.
  void push(double z);
  /// True once window_len samples have been absorbed (sliding regime).
  [[nodiscard]] bool ready() const { return filled_; }
  /// The elasticity metric over the current window. Before the window fills
  /// this calls the offline metric on the partial window (bit-exact with
  /// it); afterwards it evaluates the sliding states.
  [[nodiscard]] double eta(double reference_amplitude) const;
  /// eta with the geometry's configured reference amplitude.
  [[nodiscard]] double eta() const { return eta(geom_->config().metric.reference_amplitude); }

  /// Back to empty (keeps geometry and capacity); a fresh session in place.
  void reset();

  [[nodiscard]] std::uint64_t pushes() const { return pushes_; }
  [[nodiscard]] std::uint64_t rebases() const { return rebases_; }
  [[nodiscard]] const DetectorGeometry& geometry() const { return *geom_; }
  /// The current window, oldest sample first (exactly what the offline
  /// metric would be handed). Mainly for equivalence tests and rebasing.
  void copy_window(std::vector<double>& out) const;

 private:
  struct BinState {
    std::complex<double> s0;  ///< S(omega_k)
    std::complex<double> sm;  ///< S(omega_k - theta)
    std::complex<double> sp;  ///< S(omega_k + theta)
  };

  /// Exact rebuild of every sliding state from the ring (fill + rebase).
  void rebuild_states();

  std::shared_ptr<const DetectorGeometry> geom_;
  std::vector<double> ring_;    ///< window samples; logical start at head_
  std::size_t head_{0};         ///< index of the oldest sample (once filled)
  std::size_t count_{0};        ///< samples absorbed while filling
  bool filled_{false};
  std::uint64_t pushes_{0};
  std::uint64_t rebases_{0};
  std::size_t since_rebase_{0};

  std::vector<BinState> states_;       ///< parallel to geometry().bins()
  double p0_{0.0};                     ///< sum x (window)
  double q0_{0.0};                     ///< sum x^2 (window)
  std::complex<double> p_theta_;       ///< S_x(theta)
  std::complex<double> p_2theta_;      ///< S_x(2 theta)
  std::complex<double> q_theta_;       ///< S_{x^2}(theta)
  std::complex<double> q_2theta_;      ///< S_{x^2}(2 theta)

  /// Scratch for the exact-metric fallback while filling (eta() is const;
  /// the scratch is not observable state).
  mutable SpectrumWorkspace warmup_ws_;
};

}  // namespace ccc::elastic
