// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in ccascope (workload generators, the synthetic
// NDT dataset, jitter models) draws from an Rng seeded explicitly by the
// scenario. Two runs with the same seed produce byte-identical output; the
// simulator never reads wall-clock entropy.
//
// Which draws are fixed by this file and which by the standard library:
//
//   in-tree, library-independent   the engine (Mt19937_64: the standard's
//                                  mt19937_64 algorithm, same seeding, twist
//                                  and tempering), uniform() and every draw
//                                  built on it (chance, bounded_pareto,
//                                  weighted_index), normal()
//   libstdc++-defined              exponential, lognormal, poisson,
//                                  uniform_int: std:: distributions driven by
//                                  the in-tree engine
//
// The standard fixes mt19937_64's output but leaves its distributions
// implementation-defined. uniform() and normal() reproduce libstdc++'s
// algorithms operation for operation (generate_canonical<double, 53> and the
// Marsaglia polar method), so their bits match a libstdc++ build whichever
// C++ library compiles them; normal() still takes log from the C math
// library. The other four are called a few times per record at most, so
// they stay std:: and follow the library they are built with.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "util/units.hpp"

namespace ccc {

/// The 64-bit Mersenne Twister (MT19937-64) with the standard's mt19937_64
/// parameters: the same seed gives the same outputs. The twist is branch-free
/// (the matrix term is masked in, not selected on the low bit). Tempering
/// happens a block at a time: twist() tempers all kN new words into out_, so
/// a draw is one array load, off the tempering's dependent chain. Models
/// UniformRandomBitGenerator, so std:: distributions draw from it directly.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ >= kN) twist();
    return out_[pos_++];
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;

  /// Regenerates all kN state words and tempers them into out_.
  void twist();

  std::array<result_type, kN> state_;
  std::array<result_type, kN> out_;  // tempered state_; first filled by twist()
  std::size_t pos_{kN};
};

/// Maps 64 random bits to [0, 1) exactly as generate_canonical<double, 53>
/// does for a 64-bit engine: round the integer to the nearest double, scale
/// by 2^-64, clamp a result of 1.0 to the largest double below it.
[[nodiscard]] inline double canonical_double(std::uint64_t bits) {
  // Both halves convert exactly; their sum is the one rounding.
  const double hi = static_cast<double>(static_cast<std::uint32_t>(bits >> 32)) * 0x1p32;
  const double lo = static_cast<double>(static_cast<std::uint32_t>(bits));
  return std::min((hi + lo) * 0x1p-64, 0x1.fffffffffffffp-1);
}

/// A seeded pseudo-random source with the distributions our workloads need.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_{seed} {}

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() { return canonical_double(engine_()); }
  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }
  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool chance(double p) { return uniform() < p; }

  /// Exponential with the given mean (mean = 1/lambda). Used for poisson
  /// inter-arrival times of short flows (§3.2's "poisson arrivals" traffic).
  [[nodiscard]] double exponential(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
  }

  /// Normal (Gaussian) with mean mu and standard deviation sigma, by the
  /// Marsaglia polar method. The pair's second value is discarded, so each
  /// call consumes the same draws as a fresh libstdc++ normal_distribution.
  [[nodiscard]] double normal(double mu, double sigma) {
    double x = 0.0;
    double y = 0.0;
    double r2 = 0.0;
    do {
      x = 2.0 * uniform() - 1.0;
      y = 2.0 * uniform() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2 * std::log(r2) / r2);
    return y * mult * sigma + mu;
  }

  /// Log-normal parameterized by the *underlying* normal's mu/sigma.
  [[nodiscard]] double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>{mu, sigma}(engine_);
  }

  /// Bounded Pareto on [lo, hi] with shape alpha. Models heavy-tailed flow
  /// sizes ("most flows are short, most bytes are in long flows", §2.2).
  [[nodiscard]] double bounded_pareto(double alpha, double lo, double hi);

  /// Poisson-distributed count with the given mean.
  [[nodiscard]] std::int64_t poisson(double mean) {
    return std::poisson_distribution<std::int64_t>{mean}(engine_);
  }

  /// Pick an index in [0, weights.size()) with probability proportional to
  /// its weight. Precondition: at least one strictly positive weight.
  [[nodiscard]] std::size_t weighted_index(const std::vector<double>& weights);

  /// Derive an independent child generator (for per-flow streams) so that
  /// adding draws in one component does not perturb another.
  [[nodiscard]] Rng fork() { return Rng{engine_()}; }

  /// Access the raw engine for std distributions not wrapped above.
  [[nodiscard]] Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace ccc
