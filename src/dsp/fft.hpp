// ConGrid -- fast Fourier transform.
//
// The inspiral search (paper section 3.6.2) performs "fast correlation on
// the data set with each template", i.e. FFT-based matched filtering, and
// the reference Triana network of Figure 1 takes a power spectrum. This is
// the shared FFT those paths use: an iterative radix-2 Cooley-Tukey
// transform reading a twiddle table built once per size, and a real-input
// transform that packs even and odd samples into one half-size complex FFT
// and separates them with a split step.
//
// Every function here is safe to call from several threads at once: each
// size's twiddle and bit-reversal tables are built under a lock on first
// use and immutable once published.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace cg::dsp {

using Complex = std::complex<double>;

/// Smallest power of two >= n (n == 0 maps to 1).
std::size_t next_pow2(std::size_t n);

/// True when n is a power of two (and nonzero).
bool is_pow2(std::size_t n);

/// In-place forward FFT. `data.size()` must be a power of two; throws
/// std::invalid_argument otherwise. No normalisation is applied.
void fft(std::vector<Complex>& data);

/// In-place inverse FFT, normalised by 1/N so ifft(fft(x)) == x.
void ifft(std::vector<Complex>& data);

/// Forward FFT of a real signal. The input is zero-padded to the next power
/// of two; the returned spectrum has padded_size/2 + 1 bins (DC .. Nyquist).
std::vector<Complex> rfft(const std::vector<double>& signal);

/// Forward FFT of a real signal zero-padded to `n` samples, returning n/2+1
/// bins. `n` must be a power of two no smaller than signal.size(); throws
/// std::invalid_argument otherwise.
std::vector<Complex> rfft(const std::vector<double>& signal, std::size_t n);

/// Inverse of rfft for a half-spectrum of n/2+1 bins, returning n real
/// samples (n must be the power-of-two padded length). The imaginary parts
/// of the DC and Nyquist bins are ignored, as they are zero for any real
/// signal's spectrum.
std::vector<double> irfft(const std::vector<Complex>& half, std::size_t n);

/// irfft without allocating: `half` is overwritten as workspace and the n
/// samples land in `out`, which is resized only when its size differs. For
/// loops that invert many spectra of one length.
void irfft_inplace(std::vector<Complex>& half, std::size_t n,
                   std::vector<double>& out);

}  // namespace cg::dsp
