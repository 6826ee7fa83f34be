// Property tests for the FFT and the derived magnitude spectrum — pinned
// BEFORE the cached-plan rewrite so the plan path cannot silently change
// values. The plan computes bit-reversal tables and twiddle factors with
// exactly the seed kernel's recurrences, so everything here must hold
// bit-for-bit across that rewrite (tolerances below are about FFT
// round-off, not implementation slack).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <numbers>
#include <vector>

#include "util/error.hpp"
#include "util/fft.hpp"
#include "util/rng.hpp"

namespace ccc {
namespace {

std::vector<std::complex<double>> random_complex(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::complex<double>> data(n);
  for (auto& c : data) c = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return data;
}

// ---------- transform identities ----------

TEST(FftProperty, ParsevalEnergyConserved) {
  // sum |x|^2 == (1/N) sum |X|^2 for every power-of-two size in the range
  // the Nimbus windows use.
  for (std::size_t n : {8u, 64u, 512u, 2048u}) {
    const auto x = random_complex(n, 17 + n);
    auto spec = x;
    fft_inplace(spec);
    double time_energy = 0.0;
    double freq_energy = 0.0;
    for (const auto& c : x) time_energy += std::norm(c);
    for (const auto& c : spec) freq_energy += std::norm(c);
    EXPECT_NEAR(time_energy, freq_energy / static_cast<double>(n), 1e-9 * time_energy)
        << "n = " << n;
  }
}

TEST(FftProperty, ImpulseHasFlatSpectrum) {
  std::vector<std::complex<double>> data(64, {0.0, 0.0});
  data[0] = {1.0, 0.0};
  fft_inplace(data);
  for (const auto& c : data) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(FftProperty, DcConcentratesInBinZero) {
  std::vector<std::complex<double>> data(64, {3.0, 0.0});
  fft_inplace(data);
  EXPECT_NEAR(data[0].real(), 3.0 * 64.0, 1e-9);
  EXPECT_NEAR(data[0].imag(), 0.0, 1e-9);
  for (std::size_t i = 1; i < data.size(); ++i) {
    EXPECT_NEAR(std::abs(data[i]), 0.0, 1e-9) << "bin " << i;
  }
}

TEST(FftProperty, Linearity) {
  const std::size_t n = 256;
  const auto x = random_complex(n, 5);
  const auto y = random_complex(n, 6);
  const std::complex<double> a{2.5, -0.5};
  const std::complex<double> b{-1.25, 3.0};

  std::vector<std::complex<double>> combo(n);
  for (std::size_t i = 0; i < n; ++i) combo[i] = a * x[i] + b * y[i];
  auto fx = x;
  auto fy = y;
  fft_inplace(combo);
  fft_inplace(fx);
  fft_inplace(fy);
  for (std::size_t i = 0; i < n; ++i) {
    const auto expect = a * fx[i] + b * fy[i];
    EXPECT_NEAR(combo[i].real(), expect.real(), 1e-10) << "bin " << i;
    EXPECT_NEAR(combo[i].imag(), expect.imag(), 1e-10) << "bin " << i;
  }
}

TEST(FftProperty, ForwardInverseRoundTripTight) {
  // forward -> unscaled inverse -> /N must reproduce the input to 1e-12.
  for (std::size_t n : {16u, 128u, 1024u}) {
    const auto x = random_complex(n, 23 + n);
    auto data = x;
    fft_inplace(data);
    fft_inplace(data, /*inverse=*/true);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(data[i].real() / static_cast<double>(n), x[i].real(), 1e-12)
          << "n = " << n << " i = " << i;
      EXPECT_NEAR(data[i].imag() / static_cast<double>(n), x[i].imag(), 1e-12)
          << "n = " << n << " i = " << i;
    }
  }
}

TEST(FftProperty, RealSignalSpectrumIsConjugateSymmetric) {
  Rng rng{31};
  std::vector<double> sig;
  for (int i = 0; i < 128; ++i) sig.push_back(rng.uniform(-2.0, 2.0));
  const auto spec = fft_real(sig);
  const std::size_t n = spec.size();
  for (std::size_t k = 1; k < n / 2; ++k) {
    EXPECT_NEAR(spec[k].real(), spec[n - k].real(), 1e-10);
    EXPECT_NEAR(spec[k].imag(), -spec[n - k].imag(), 1e-10);
  }
}

// ---------- Spectrum::bin_for edge cases ----------

TEST(SpectrumBinFor, DcMapsToBinZero) {
  std::vector<double> sig(64, 0.0);
  sig[1] = 1.0;
  const auto spec = magnitude_spectrum(sig, 10.0);
  EXPECT_EQ(spec.bin_for(0.0), 0u);
}

TEST(SpectrumBinFor, NyquistMapsToLastBin) {
  std::vector<double> sig(64, 0.0);
  sig[1] = 1.0;
  const auto spec = magnitude_spectrum(sig, 10.0);
  // fs/2 is exactly the last one-sided bin (index N/2 of N).
  EXPECT_EQ(spec.bin_for(5.0), spec.magnitude.size() - 1);
}

TEST(SpectrumBinFor, OutOfRangeClampsToNyquist) {
  std::vector<double> sig(64, 0.0);
  sig[1] = 1.0;
  const auto spec = magnitude_spectrum(sig, 10.0);
  EXPECT_EQ(spec.bin_for(5.0001), spec.magnitude.size() - 1);
  EXPECT_EQ(spec.bin_for(1e9), spec.magnitude.size() - 1);
}

TEST(SpectrumBinFor, RoundsToNearestBin) {
  std::vector<double> sig(64, 0.0);
  sig[1] = 1.0;
  const auto spec = magnitude_spectrum(sig, 10.0);
  const double bin = spec.bin_hz;
  EXPECT_EQ(spec.bin_for(1.4 * bin), 1u);
  EXPECT_EQ(spec.bin_for(1.6 * bin), 2u);
}

// ---------- plan / workspace equivalence (exact, bit-for-bit) ----------

/// The pre-plan transform, verbatim: bit-reversal by the Gold-Rader carry
/// walk and twiddles stepped per butterfly block. FftPlan must reproduce
/// this exactly — same swaps, same twiddle recurrence — so the comparison
/// below is EXPECT_EQ on doubles, not EXPECT_NEAR.
void fft_reference(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        2.0 * std::numbers::pi / static_cast<double>(len) * (inverse ? 1.0 : -1.0);
    const std::complex<double> wlen{std::cos(angle), std::sin(angle)};
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

TEST(FftPlanEquivalence, MatchesOnTheFlyTransformBitForBit) {
  for (std::size_t n : {2u, 8u, 64u, 512u, 4096u}) {
    for (const bool inverse : {false, true}) {
      auto expect = random_complex(n, 23 + n + (inverse ? 1 : 0));
      auto got = expect;
      fft_reference(expect, inverse);
      FftPlan plan{n};
      plan.run(got, inverse);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(expect[i].real(), got[i].real()) << "n=" << n << " i=" << i;
        EXPECT_EQ(expect[i].imag(), got[i].imag()) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(FftPlanEquivalence, CacheReturnsSamePlanAndSurvivesMixedSizes) {
  FftPlanCache cache;
  const FftPlan& p1 = cache.plan(256);
  const FftPlan& p2 = cache.plan(1024);
  EXPECT_EQ(p1.n(), 256u);
  EXPECT_EQ(p2.n(), 1024u);
  EXPECT_EQ(&p1, &cache.plan(256));  // cached, not rebuilt

  // Interleaved sizes through the fft_inplace thread-local cache agree with
  // fresh plans.
  for (std::size_t n : {1024u, 256u, 1024u}) {
    auto a = random_complex(n, 91 + n);
    auto b = a;
    fft_inplace(a);
    FftPlan{n}.run(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(a[i], b[i]);
  }
}

// ---------- Hann-table cache + next_pow2 bounds (PR 10 bugfixes) ----------

TEST(HannCache, AlternatingSizesBuildEachTableOnce) {
  // A workspace multiplexed across sessions with two window lengths must
  // build exactly two tables, ever — the old cache was keyed on "the current
  // size" and rebuilt the cos table on every alternation.
  SpectrumWorkspace ws;
  Rng rng{11};
  std::vector<double> sig512;
  std::vector<double> sig1024;
  for (int i = 0; i < 512; ++i) sig512.push_back(rng.uniform(-1.0, 1.0));
  for (int i = 0; i < 1024; ++i) sig1024.push_back(rng.uniform(-1.0, 1.0));

  for (int round = 0; round < 8; ++round) {
    magnitude_spectrum(sig512, 100.0, ws);
    magnitude_spectrum(sig1024, 100.0, ws);
  }
  EXPECT_EQ(ws.hann_builds, 2u);

  // And the cached tables are the classic symmetric Hann values.
  const auto& table = hann_table(ws, 512);
  EXPECT_EQ(ws.hann_builds, 2u);  // lookup, not a rebuild
  EXPECT_EQ(table.size(), 512u);
  EXPECT_DOUBLE_EQ(table[0], 0.0);
  EXPECT_DOUBLE_EQ(table[511], 0.0);
  EXPECT_NEAR(table[255], 1.0, 1e-4);  // peak near the center
}

TEST(HannCache, SingleSampleWindowIsFiniteIdentityTaper) {
  // n == 1 used to evaluate cos(0/0) before discarding it; the table must be
  // the identity taper with no NaN ever computed.
  SpectrumWorkspace ws;
  const auto& table = hann_table(ws, 1);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0], 1.0);
  EXPECT_TRUE(std::isfinite(table[0]));
}

TEST(Fft, NextPow2ThrowsAboveLargestPowerOfTwo) {
  constexpr std::size_t kMax = std::size_t{1} << (sizeof(std::size_t) * 8 - 1);
  EXPECT_EQ(next_pow2(kMax), kMax);
  EXPECT_EQ(next_pow2(kMax - 1), kMax);
  // One past the largest power of two used to spin forever (p <<= 1 wraps
  // to zero); now it must throw a config error.
  EXPECT_THROW((void)next_pow2(kMax + 1), Error);
  EXPECT_THROW((void)next_pow2(std::numeric_limits<std::size_t>::max()), Error);
}

TEST(FftPlanEquivalence, WorkspaceSpectrumIdenticalEvenWhenDirty) {
  // A workspace carried across windows of DIFFERENT lengths (so every
  // buffer, including the cached Hann table, is resized and overwritten)
  // must produce the same bits as a fresh computation.
  SpectrumWorkspace ws;
  Rng rng{7};
  for (const std::size_t len : {200u, 500u, 33u, 500u, 1024u}) {
    std::vector<double> sig;
    sig.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      sig.push_back(10.0 + std::sin(0.3 * static_cast<double>(i)) + rng.normal(0.0, 0.5));
    }
    const Spectrum fresh = magnitude_spectrum(sig, 100.0);
    const Spectrum& reused = magnitude_spectrum(sig, 100.0, ws);
    ASSERT_EQ(fresh.magnitude.size(), reused.magnitude.size()) << "len=" << len;
    EXPECT_EQ(fresh.bin_hz, reused.bin_hz);
    for (std::size_t i = 0; i < fresh.magnitude.size(); ++i) {
      EXPECT_EQ(fresh.magnitude[i], reused.magnitude[i]) << "len=" << len << " bin=" << i;
    }
  }
}

}  // namespace
}  // namespace ccc
