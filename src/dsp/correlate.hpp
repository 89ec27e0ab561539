// ConGrid -- FFT-based correlation / matched filtering.
//
// Implements the "fast correlation on the data set with each template"
// operation at the heart of the inspiral-search scenario (paper 3.6.2):
// real-input transforms of data and template, the correlation theorem on
// their half spectra, one inverse real transform. correlate_spectra is the
// shared seam, so a caller that keeps template spectra (the inspiral bank's
// overlap-save scan) multiplies exactly as fast_correlate does. The direct
// O(N*M) correlation is also provided as a cross-check and for the M1
// micro-benchmark comparing the two.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/fft.hpp"

namespace cg::dsp {

/// Result of scanning a data stretch with one template.
struct MatchResult {
  double peak = 0.0;        ///< maximum normalised correlation value
  std::size_t offset = 0;   ///< sample offset of the maximum
};

/// Circular cross-correlation of `data` with `tmpl` computed via FFT.
/// Both inputs are zero-padded to the next power of two that fits
/// data.size() + tmpl.size() - 1, so the result is effectively linear
/// correlation; the returned series has data.size() valid lags.
std::vector<double> fast_correlate(const std::vector<double>& data,
                                   const std::vector<double>& tmpl);

/// Correlation theorem on half spectra of one padded length n (both from
/// rfft(..., n)): writes the n-point circular cross-correlation
/// irfft(data * conj(tmpl), n) into `out`, forming the product in `work`.
/// Both buffers keep their storage across calls, so a loop over many
/// template spectra allocates nothing.
void correlate_spectra(const std::vector<Complex>& data,
                       const std::vector<Complex>& tmpl, std::size_t n,
                       std::vector<Complex>& work, std::vector<double>& out);

/// Direct (time-domain) linear correlation -- O(N*M) reference.
std::vector<double> direct_correlate(const std::vector<double>& data,
                                     const std::vector<double>& tmpl);

/// Sum of squares of `tmpl`; throws std::invalid_argument when it is zero
/// (such a template cannot be normalised).
double template_energy(const std::vector<double>& tmpl);

/// Best normalised match in a correlation series against a template of
/// the given energy: the largest |corr[i]| / sqrt(energy) and its index
/// (the first one on ties).
MatchResult peak_match(std::span<const double> corr, double energy);

/// Normalised matched filter: correlate `data` against a unit-energy copy
/// of `tmpl` and report the best match. The normalisation divides by
/// sqrt(template energy) so peaks are comparable across templates.
MatchResult matched_filter(const std::vector<double>& data,
                           const std::vector<double>& tmpl);

}  // namespace cg::dsp
