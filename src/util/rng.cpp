#include "util/rng.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace ccc {

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    const result_type prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::twist() {
  constexpr result_type kMatrixA = 0xb5026f5aa96619e9ULL;
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kLower = ~kUpper;
  // Word k mixes its own upper bits with word k+1's lower bits, then folds in
  // word k+kM (mod kN); the matrix term is masked in by the low bit of y.
  const auto mix = [](result_type cur, result_type next, result_type far) {
    const result_type y = (cur & kUpper) | (next & kLower);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
  };
  for (std::size_t k = 0; k < kN - kM; ++k) {
    state_[k] = mix(state_[k], state_[k + 1], state_[k + kM]);
  }
  for (std::size_t k = kN - kM; k < kN - 1; ++k) {
    state_[k] = mix(state_[k], state_[k + 1], state_[k + kM - kN]);
  }
  state_[kN - 1] = mix(state_[kN - 1], state_[0], state_[kM - 1]);
  for (std::size_t k = 0; k < kN; ++k) {
    result_type z = state_[k];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    out_[k] = z;
  }
  pos_ = 0;
}

double Rng::bounded_pareto(double alpha, double lo, double hi) {
  assert(alpha > 0.0 && lo > 0.0 && hi > lo);
  // Inverse-CDF sampling of the bounded Pareto distribution.
  const double u = uniform();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  const double x = -(u * ha - u * la - ha) / (ha * la);
  return std::pow(x, -1.0 / alpha);
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) throw std::invalid_argument{"weighted_index: no positive weight"};
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: target landed exactly on total
}

}  // namespace ccc
