#include "dsp/fft.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

namespace cg::dsp {
namespace {

/// Everything a size-n transform reads besides its data. Twiddles: stage
/// `len` (2, 4, ..., n) owns entries [len/2 - 1, len - 1), entry k being
/// exp(-2*pi*i*k/len); a real transform of n samples runs on the n/2 plan
/// and reads its split-step twiddles from the last stage of the n plan.
/// Swaps: the bit-reversal permutation as (i, j) pairs with i < j, so the
/// reorder pass carries no data-dependent branches.
struct Plan {
  std::vector<Complex> twiddles;
  std::vector<std::uint32_t> swaps;
};

/// The plan for a power-of-two n, built on first use and never modified
/// after it is published, so pool threads may share it without locking.
const Plan& plan(std::size_t n) {
  static std::mutex build;
  static std::array<std::unique_ptr<const Plan>, 64> owned;
  static std::array<std::atomic<const Plan*>, 64> plans{};
  const auto log = static_cast<std::size_t>(std::countr_zero(n));
  if (const Plan* p = plans[log].load(std::memory_order_acquire)) return *p;
  std::lock_guard<std::mutex> lock(build);
  if (const Plan* p = plans[log].load(std::memory_order_relaxed)) return *p;
  if (n > (std::size_t{1} << 32)) {
    throw std::invalid_argument("fft size " + std::to_string(n) +
                                " exceeds 2^32");
  }
  auto p = std::make_unique<Plan>();
  p->twiddles.resize(n);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    for (std::size_t k = 0; k < len / 2; ++k) {
      p->twiddles[len / 2 - 1 + k] =
          std::polar(1.0, -2.0 * M_PI * static_cast<double>(k) /
                              static_cast<double>(len));
    }
  }
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      p->swaps.push_back(static_cast<std::uint32_t>(i));
      p->swaps.push_back(static_cast<std::uint32_t>(j));
    }
  }
  plans[log].store(p.get(), std::memory_order_release);
  owned[log] = std::move(p);
  return *plans[log].load(std::memory_order_relaxed);
}

/// a * b written out. std::complex's operator* tests the product for NaN
/// and calls __muldc3 to recover infinite operands; written out, the
/// butterfly compiles to straight packed arithmetic.
inline Complex mul(Complex a, Complex b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

void require_pow2(std::size_t n) {
  if (!is_pow2(n)) {
    throw std::invalid_argument("fft size must be a power of two, got " +
                                std::to_string(n));
  }
}

/// Unnormalised in-place forward transform of a[0..n), n a power of two.
void transform(Complex* a, std::size_t n) {
  const Plan& p = plan(n);
  for (std::size_t s = 0; s < p.swaps.size(); s += 2) {
    std::swap(a[p.swaps[s]], a[p.swaps[s + 1]]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const Complex* w = p.twiddles.data() + half - 1;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const Complex u = a[i + k];
        const Complex v = mul(a[i + k + half], w[k]);
        a[i + k] = u + v;
        a[i + k + half] = u - v;
      }
    }
  }
}

}  // namespace

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

void fft(std::vector<Complex>& data) {
  require_pow2(data.size());
  transform(data.data(), data.size());
}

void ifft(std::vector<Complex>& data) {
  // ifft(x) = conj(fft(conj(x))) / n.
  const std::size_t n = data.size();
  require_pow2(n);
  for (auto& x : data) x = std::conj(x);
  transform(data.data(), n);
  const double inv = 1.0 / static_cast<double>(n);
  for (auto& x : data) x = Complex(x.real() * inv, -x.imag() * inv);
}

std::vector<Complex> rfft(const std::vector<double>& signal) {
  return rfft(signal, next_pow2(signal.size()));
}

std::vector<Complex> rfft(const std::vector<double>& signal, std::size_t n) {
  require_pow2(n);
  if (n < signal.size()) {
    throw std::invalid_argument("rfft: padded size " + std::to_string(n) +
                                " is shorter than the signal");
  }
  if (n == 1) return {Complex(signal.empty() ? 0.0 : signal[0], 0.0)};

  // Pack z[k] = x[2k] + i*x[2k+1] and take its n/2-point FFT Z.
  const std::size_t h = n / 2;
  std::vector<Complex> z(h + 1);
  const std::size_t m = signal.size();
  for (std::size_t k = 0; k < h && 2 * k < m; ++k) {
    z[k] = Complex(signal[2 * k], 2 * k + 1 < m ? signal[2 * k + 1] : 0.0);
  }
  transform(z.data(), h);

  // Split: the even- and odd-sample spectra are E = (Z[k] + conj Z[h-k])/2
  // and O = -i (Z[k] - conj Z[h-k])/2, and X[k] = E + W^k O with
  // W = exp(-2*pi*i/n). Bins k and h-k share E and O up to conjugation,
  // so each pair is computed from one (E, O) and written in place.
  const Complex z0 = z[0];
  z[0] = Complex(z0.real() + z0.imag(), 0.0);
  z[h] = Complex(z0.real() - z0.imag(), 0.0);
  const Complex* w = plan(n).twiddles.data() + h - 1;
  for (std::size_t k = 1, j = h - 1; k <= j; ++k, --j) {
    const Complex a = z[k];
    const Complex b = std::conj(z[j]);
    const Complex e = 0.5 * (a + b);
    const Complex d = a - b;
    const Complex wo = mul(w[k], Complex(0.5 * d.imag(), -0.5 * d.real()));
    z[j] = std::conj(e - wo);
    z[k] = e + wo;
  }
  return z;
}

std::vector<double> irfft(const std::vector<Complex>& half, std::size_t n) {
  std::vector<Complex> work = half;
  std::vector<double> out;
  irfft_inplace(work, n, out);
  return out;
}

void irfft_inplace(std::vector<Complex>& half, std::size_t n,
                   std::vector<double>& out) {
  if (!is_pow2(n) || half.size() != n / 2 + 1) {
    throw std::invalid_argument("irfft: half spectrum size mismatch");
  }
  out.resize(n);
  if (n == 1) {
    out[0] = half[0].real();
    return;
  }

  // Undo the split: Z[k] = E[k] + i O[k] with E = (X[k] + conj X[h-k])/2
  // and O = (X[k] - conj X[h-k]) conj(W^k)/2; then z = ifft(Z) holds the
  // even samples in its real parts and the odd ones in its imaginary parts.
  // Z is built conjugated, in place over pairs (k, h-k) as in rfft, so one
  // forward transform performs the inverse.
  const std::size_t h = n / 2;
  Complex* z = half.data();
  const double dc = z[0].real();
  const double nyquist = z[h].real();
  z[0] = std::conj(Complex(0.5 * (dc + nyquist), 0.5 * (dc - nyquist)));
  const Complex* w = plan(n).twiddles.data() + h - 1;
  for (std::size_t k = 1, j = h - 1; k <= j; ++k, --j) {
    const Complex a = z[k];
    const Complex b = std::conj(z[j]);
    const Complex e = 0.5 * (a + b);
    const Complex o = mul(0.5 * (a - b), std::conj(w[k]));
    const Complex io(-o.imag(), o.real());
    z[j] = e - io;  // conj(Z[h-k]) = conj(conj(E) + i conj(O))
    z[k] = std::conj(e + io);
  }
  transform(z, h);

  const double inv = 1.0 / static_cast<double>(h);
  for (std::size_t k = 0; k < h; ++k) {
    out[2 * k] = z[k].real() * inv;
    out[2 * k + 1] = -z[k].imag() * inv;
  }
}

}  // namespace cg::dsp
