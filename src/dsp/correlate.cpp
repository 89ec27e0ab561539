#include "dsp/correlate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cg::dsp {

std::vector<double> fast_correlate(const std::vector<double>& data,
                                   const std::vector<double>& tmpl) {
  if (data.empty() || tmpl.empty()) {
    throw std::invalid_argument("fast_correlate: empty input");
  }
  const std::size_t n = next_pow2(data.size() + tmpl.size() - 1);
  std::vector<Complex> work;
  std::vector<double> out;
  correlate_spectra(rfft(data, n), rfft(tmpl, n), n, work, out);
  out.resize(data.size());
  return out;
}

void correlate_spectra(const std::vector<Complex>& data,
                       const std::vector<Complex>& tmpl, std::size_t n,
                       std::vector<Complex>& work, std::vector<double>& out) {
  if (data.size() != n / 2 + 1 || tmpl.size() != n / 2 + 1) {
    throw std::invalid_argument("correlate_spectra: spectrum size mismatch");
  }
  // Correlation theorem: corr = ifft(fft(data) * conj(fft(tmpl))). The
  // product is written over the (re, im) doubles: through std::complex
  // temporaries GCC assembles each operand on the stack, which costs more
  // than the inverse transform itself.
  work.resize(data.size());
  const double* a = reinterpret_cast<const double*>(data.data());
  const double* b = reinterpret_cast<const double*>(tmpl.data());
  double* p = reinterpret_cast<double*>(work.data());
  for (std::size_t i = 0; i < 2 * data.size(); i += 2) {
    p[i] = a[i] * b[i] + a[i + 1] * b[i + 1];
    p[i + 1] = a[i + 1] * b[i] - a[i] * b[i + 1];
  }
  irfft_inplace(work, n, out);
}

std::vector<double> direct_correlate(const std::vector<double>& data,
                                     const std::vector<double>& tmpl) {
  if (data.empty() || tmpl.empty()) {
    throw std::invalid_argument("direct_correlate: empty input");
  }
  std::vector<double> out(data.size(), 0.0);
  for (std::size_t lag = 0; lag < data.size(); ++lag) {
    double acc = 0.0;
    const std::size_t m = std::min(tmpl.size(), data.size() - lag);
    for (std::size_t j = 0; j < m; ++j) acc += data[lag + j] * tmpl[j];
    out[lag] = acc;
  }
  return out;
}

double template_energy(const std::vector<double>& tmpl) {
  double energy = 0.0;
  for (double t : tmpl) energy += t * t;
  if (energy <= 0.0) {
    throw std::invalid_argument("matched_filter: zero-energy template");
  }
  return energy;
}

MatchResult peak_match(std::span<const double> corr, double energy) {
  const double norm = 1.0 / std::sqrt(energy);
  MatchResult r;
  for (std::size_t i = 0; i < corr.size(); ++i) {
    const double v = std::abs(corr[i]) * norm;
    if (v > r.peak) {
      r.peak = v;
      r.offset = i;
    }
  }
  return r;
}

MatchResult matched_filter(const std::vector<double>& data,
                           const std::vector<double>& tmpl) {
  const double energy = template_energy(tmpl);
  return peak_match(fast_correlate(data, tmpl), energy);
}

}  // namespace cg::dsp
