// Tests for the cg_dsp substrate: FFT correctness against analytic answers
// and the direct O(N^2) transform, correlation equivalence, spectra,
// windows, statistics and the deterministic RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <future>

#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"
#include "dsp/rng.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/stats.hpp"
#include "dsp/window.hpp"
#include "rm/thread_pool.hpp"

namespace cg::dsp {
namespace {

std::vector<double> sine(std::size_t n, double freq, double rate,
                         double amp = 1.0) {
  std::vector<double> s(n);
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = amp * std::sin(2.0 * M_PI * freq * static_cast<double>(i) / rate);
  }
  return s;
}

TEST(Fft, PowerOfTwoHelpers) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
}

TEST(Fft, NonPowerOfTwoThrows) {
  std::vector<Complex> a(12);
  EXPECT_THROW(fft(a), std::invalid_argument);
}

TEST(Fft, DeltaFunctionIsFlat) {
  std::vector<Complex> a(16, Complex(0, 0));
  a[0] = Complex(1, 0);
  fft(a);
  for (const auto& x : a) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 256;
  std::vector<Complex> a(n);
  const std::size_t k = 7;
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = std::polar(1.0, 2.0 * M_PI * static_cast<double>(k * i) /
                               static_cast<double>(n));
  }
  fft(a);
  for (std::size_t i = 0; i < n; ++i) {
    const double expected = (i == k) ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(a[i]), expected, 1e-9) << "bin " << i;
  }
}

TEST(Fft, InverseRecoversInput) {
  Rng rng(7);
  std::vector<Complex> a(512);
  for (auto& x : a) x = Complex(rng.gaussian(), rng.gaussian());
  auto orig = a;
  fft(a);
  ifft(a);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(a[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft, MatchesDirectDft) {
  Rng rng(99);
  const std::size_t n = 64;
  std::vector<Complex> a(n);
  for (auto& x : a) x = Complex(rng.gaussian(), rng.gaussian());
  auto fast = a;
  fft(fast);
  for (std::size_t k = 0; k < n; ++k) {
    Complex sum(0, 0);
    for (std::size_t t = 0; t < n; ++t) {
      sum += a[t] * std::polar(1.0, -2.0 * M_PI * static_cast<double>(k * t) /
                                        static_cast<double>(n));
    }
    EXPECT_NEAR(std::abs(fast[k] - sum), 0.0, 1e-8) << "bin " << k;
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(3);
  std::vector<Complex> a(1024);
  for (auto& x : a) x = Complex(rng.gaussian(), 0.0);
  double time_energy = 0.0;
  for (const auto& x : a) time_energy += std::norm(x);
  fft(a);
  double freq_energy = 0.0;
  for (const auto& x : a) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / static_cast<double>(a.size()), time_energy, 1e-6);
}

TEST(Rfft, HermitianHalfSpectrumRoundTrip) {
  Rng rng(11);
  std::vector<double> s(300);
  for (auto& x : s) x = rng.gaussian();
  auto half = rfft(s);
  const std::size_t padded = next_pow2(s.size());
  EXPECT_EQ(half.size(), padded / 2 + 1);
  auto back = irfft(half, padded);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(back[i], s[i], 1e-10);
  }
  for (std::size_t i = s.size(); i < padded; ++i) {
    EXPECT_NEAR(back[i], 0.0, 1e-10);  // the zero padding
  }
}

TEST(Rfft, IrfftSizeMismatchThrows) {
  std::vector<Complex> half(9);
  EXPECT_THROW(irfft(half, 32), std::invalid_argument);
}

/// Direct DFT of `x` zero-padded to n, bins 0..n/2.
std::vector<Complex> direct_half_dft(const std::vector<double>& x,
                                     std::size_t n) {
  std::vector<Complex> out(n / 2 + 1);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    for (std::size_t t = 0; t < x.size(); ++t) {
      out[k] += x[t] * std::polar(1.0, -2.0 * M_PI *
                                           static_cast<double>((k * t) % n) /
                                           static_cast<double>(n));
    }
  }
  return out;
}

void expect_spectra_near(const std::vector<Complex>& got,
                         const std::vector<Complex>& want, double tol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_NEAR(std::abs(got[k] - want[k]), 0.0, tol) << "bin " << k;
  }
}

TEST(Rfft, MatchesDirectDftForEveryPowerOfTwo) {
  Rng rng(21);
  for (std::size_t n = 1; n <= 1024; n <<= 1) {
    SCOPED_TRACE(n);
    std::vector<double> x(n);
    for (auto& v : x) v = rng.gaussian();
    expect_spectra_near(rfft(x), direct_half_dft(x, n), 1e-10);
  }
}

TEST(Rfft, OddLengthsPadToThePowerOfTwoAsked) {
  Rng rng(22);
  for (std::size_t len : {1u, 3u, 5u, 7u, 33u, 301u, 1023u}) {
    SCOPED_TRACE(len);
    std::vector<double> x(len);
    for (auto& v : x) v = rng.gaussian();
    const std::size_t n = next_pow2(len);
    expect_spectra_near(rfft(x), direct_half_dft(x, n), 1e-10);
    // An explicit, larger padded size is the same signal with more zeros.
    expect_spectra_near(rfft(x, 4 * n), direct_half_dft(x, 4 * n), 1e-10);
  }
}

TEST(Rfft, ExplicitSizeMustBeAPowerOfTwoThatFits) {
  const std::vector<double> x(10, 1.0);
  EXPECT_THROW(rfft(x, 8), std::invalid_argument);   // too short
  EXPECT_THROW(rfft(x, 12), std::invalid_argument);  // not a power of two
  EXPECT_EQ(rfft({}, 1).size(), 1u);
}

TEST(Rfft, IrfftMatchesDirectInverseForEveryPowerOfTwo) {
  Rng rng(23);
  for (std::size_t n = 1; n <= 1024; n <<= 1) {
    SCOPED_TRACE(n);
    // A real signal's half spectrum: DC and Nyquist bins are real.
    std::vector<Complex> half(n / 2 + 1);
    for (auto& v : half) v = Complex(rng.gaussian(), rng.gaussian());
    half.front() = half.front().real();
    half.back() = half.back().real();
    const auto x = irfft(half, n);
    ASSERT_EQ(x.size(), n);
    for (std::size_t t = 0; t < n; ++t) {
      double sum = half[0].real();
      if (n > 1) sum += half[n / 2].real() * (t % 2 ? -1.0 : 1.0);
      for (std::size_t k = 1; k < n / 2; ++k) {
        sum += 2.0 * (half[k] * std::polar(1.0, 2.0 * M_PI *
                                                    static_cast<double>(
                                                        (k * t) % n) /
                                                    static_cast<double>(n)))
                         .real();
      }
      EXPECT_NEAR(x[t], sum / static_cast<double>(n), 1e-12) << "t " << t;
    }
  }
}

TEST(Fft, ConcurrentTransformsFromPoolThreadsMatchSerial) {
  // Each size's twiddle table is built on first use; sixteen pool tasks
  // over eight sizes race to build and read them. Serial recomputation
  // afterwards must agree bit for bit.
  const std::vector<std::size_t> sizes = {1u << 5,  1u << 9,  1u << 11,
                                          1u << 12, 1u << 13, 1u << 14,
                                          1u << 15, 1u << 16};
  auto signal = [](std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> x(n);
    for (auto& v : x) v = rng.gaussian();
    return x;
  };
  auto run = [&](std::size_t task) {
    const std::size_t n = sizes[task % sizes.size()];
    const auto x = signal(n, task);
    std::vector<Complex> c(x.begin(), x.end());
    fft(c);
    return std::make_pair(c, irfft(rfft(x), n));
  };
  std::vector<decltype(run(0))> results;
  {
    rm::ThreadPool pool(4);
    std::vector<std::future<decltype(run(0))>> futures;
    for (std::size_t t = 0; t < 2 * sizes.size(); ++t) {
      futures.push_back(pool.submit([&run, t] { return run(t); }));
    }
    for (auto& f : futures) results.push_back(f.get());
  }
  for (std::size_t t = 0; t < results.size(); ++t) {
    EXPECT_EQ(results[t], run(t)) << "task " << t;
  }
}

class WindowCase : public ::testing::TestWithParam<WindowKind> {};

TEST_P(WindowCase, CoefficientsBoundedAndSymmetric) {
  auto w = make_window(GetParam(), 129);
  for (double c : w) {
    EXPECT_GE(c, -1e-12);
    EXPECT_LE(c, 1.0 + 1e-12);
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12) << i;
  }
}

TEST_P(WindowCase, NameRoundTrips) {
  EXPECT_EQ(window_from_name(window_name(GetParam())), GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, WindowCase,
                         ::testing::Values(WindowKind::kRectangular,
                                           WindowKind::kHann,
                                           WindowKind::kHamming,
                                           WindowKind::kBlackman));

TEST(Window, UnknownNameThrows) {
  EXPECT_THROW(window_from_name("kaiser"), std::invalid_argument);
}

TEST(Window, HannEndsAtZero) {
  auto w = make_window(WindowKind::kHann, 64);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
}

TEST(Spectrum, PeakAtToneFrequency) {
  const double rate = 1024.0;
  auto s = sine(1024, 50.0, rate);
  auto spec = power_spectrum(s, rate, WindowKind::kHann);
  EXPECT_NEAR(peak_frequency(spec), 50.0, spec.bin_width);
}

TEST(Spectrum, WindowNormalisationKeepsPeakComparable) {
  const double rate = 1024.0;
  auto s = sine(1024, 100.0, rate);
  auto rect = power_spectrum(s, rate, WindowKind::kRectangular);
  auto hann = power_spectrum(s, rate, WindowKind::kHann);
  const double pr = rect.power[peak_bin(rect)];
  const double ph = hann.power[peak_bin(hann)];
  // Same tone, same normalisation convention: peaks within a factor ~2
  // (scalloping/leakage differences only).
  EXPECT_GT(ph / pr, 0.3);
  EXPECT_LT(ph / pr, 3.0);
}

TEST(Spectrum, PeakToMedianGrowsWithSnr) {
  Rng rng(5);
  const double rate = 2048.0;
  auto clean = sine(2048, 64.0, rate, 0.2);
  std::vector<double> noisy = clean;
  for (auto& x : noisy) x += rng.gaussian(0.0, 1.0);
  auto sp_noisy = power_spectrum(noisy, rate);
  auto sp_clean = power_spectrum(clean, rate);
  EXPECT_GT(peak_to_median_ratio(sp_clean), peak_to_median_ratio(sp_noisy));
}

TEST(Spectrum, EmptySignalThrows) {
  EXPECT_THROW(power_spectrum({}, 1.0), std::invalid_argument);
}

TEST(Correlate, FastMatchesDirect) {
  Rng rng(21);
  std::vector<double> data(400), tmpl(64);
  for (auto& x : data) x = rng.gaussian();
  for (auto& x : tmpl) x = rng.gaussian();
  auto fast = fast_correlate(data, tmpl);
  auto direct = direct_correlate(data, tmpl);
  ASSERT_EQ(fast.size(), direct.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], direct[i], 1e-8) << "lag " << i;
  }
}

TEST(Correlate, MatchedFilterFindsEmbeddedTemplate) {
  Rng rng(42);
  std::vector<double> tmpl(128);
  for (std::size_t i = 0; i < tmpl.size(); ++i) {
    tmpl[i] = std::sin(0.3 * static_cast<double>(i) +
                       0.002 * static_cast<double>(i * i));
  }
  std::vector<double> data(4096);
  for (auto& x : data) x = rng.gaussian(0.0, 0.3);
  const std::size_t where = 1234;
  for (std::size_t i = 0; i < tmpl.size(); ++i) data[where + i] += tmpl[i];

  auto r = matched_filter(data, tmpl);
  EXPECT_EQ(r.offset, where);
}

TEST(Correlate, ZeroEnergyTemplateThrows) {
  std::vector<double> data(64, 1.0), tmpl(8, 0.0);
  EXPECT_THROW(matched_filter(data, tmpl), std::invalid_argument);
}

TEST(Correlate, EmptyInputThrows) {
  EXPECT_THROW(fast_correlate({}, {1.0}), std::invalid_argument);
  EXPECT_THROW(fast_correlate({1.0}, {}), std::invalid_argument);
}

TEST(Stats, BasicAggregates) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(v), 3.0);
  EXPECT_DOUBLE_EQ(variance(v), 2.0);
  EXPECT_DOUBLE_EQ(stddev(v), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(rms(v), std::sqrt(11.0));
  EXPECT_DOUBLE_EQ(max_abs({-7, 3}), 7.0);
  EXPECT_EQ(argmax(v), 4u);
}

TEST(Stats, Percentile) {
  std::vector<double> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 25.0);
}

TEST(Stats, EmptyThrows) {
  EXPECT_THROW(mean({}), std::invalid_argument);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

TEST(RunningStats, MatchesBatchComputation) {
  Rng rng(77);
  std::vector<double> v(10000);
  RunningStats rs;
  for (auto& x : v) {
    x = rng.gaussian(5.0, 2.0);
    rs.add(x);
  }
  EXPECT_EQ(rs.count(), v.size());
  EXPECT_NEAR(rs.mean(), mean(v), 1e-9);
  EXPECT_NEAR(rs.variance(), variance(v), 1e-6);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(13);
  RunningStats all, a, b;
  for (int i = 0; i < 5000; ++i) {
    double x = rng.exponential(3.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  RunningStats a_copy = a;
  a.merge(b);  // empty rhs: no change
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a_copy);  // empty lhs: adopt rhs
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(31);
  RunningStats rs;
  for (int i = 0; i < 200000; ++i) rs.add(rng.gaussian());
  EXPECT_NEAR(rs.mean(), 0.0, 0.02);
  EXPECT_NEAR(rs.stddev(), 1.0, 0.02);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(55);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(1000);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent() == child());
  EXPECT_LT(same, 2);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(404);
  RunningStats rs;
  for (int i = 0; i < 100000; ++i) rs.add(rng.exponential(4.0));
  EXPECT_NEAR(rs.mean(), 4.0, 0.1);
  EXPECT_GE(rs.min(), 0.0);
}

}  // namespace
}  // namespace cg::dsp
