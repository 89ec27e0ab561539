#include "apps/gw/search.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "dsp/stats.hpp"

namespace cg::gw {

SearchResult scan_chunk(const std::vector<double>& data,
                        const TemplateBank& bank, std::size_t first,
                        std::size_t count) {
  if (first >= bank.size()) {
    throw std::out_of_range("scan_chunk: template range outside bank");
  }
  const std::size_t last = std::min(bank.size(), first + count);

  // Noise sigma estimate from the data itself (robust enough for white
  // synthetic noise); rms rejects an empty chunk.
  const double sigma = std::max(1e-12, dsp::rms(data));

  // Overlap-save: a block of L samples correlated circularly against a
  // template of at most m taps is exact linear correlation at its first
  // L - m + 1 lags, so blocks start `step` apart and each contributes
  // those lags. Past the end of the chunk the block is zero-padded, which
  // is what linear correlation over lags 0..N-1 sees too.
  const std::size_t block = bank.block_length();
  const std::size_t step = block - bank.longest() + 1;
  std::vector<dsp::MatchResult> best(last - first);
  std::vector<double> samples(block), corr;
  std::vector<dsp::Complex> work;
  for (std::size_t start = 0; start < data.size(); start += step) {
    const std::size_t take = std::min(block, data.size() - start);
    std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(start), take,
                samples.begin());
    std::fill(samples.begin() + static_cast<std::ptrdiff_t>(take),
              samples.end(), 0.0);
    const auto spectrum = dsp::rfft(samples, block);
    const std::size_t valid = std::min(step, data.size() - start);
    for (std::size_t i = first; i < last; ++i) {
      dsp::correlate_spectra(spectrum, bank.spectrum(i), block, work, corr);
      const auto match = dsp::peak_match(
          std::span<const double>(corr.data(), valid), bank.energy(i));
      dsp::MatchResult& b = best[i - first];
      if (match.peak > b.peak) {
        b.peak = match.peak;
        b.offset = start + match.offset;
      }
    }
  }

  SearchResult result;
  for (std::size_t i = first; i < last; ++i) {
    // The peak is normalised by sqrt(template energy); dividing by sigma
    // yields the familiar SNR-like statistic whose noise-only expectation
    // is O(1).
    const double snr = best[i - first].peak / sigma;
    if (snr > result.best_snr) {
      result.best_snr = snr;
      result.best_template = i;
      result.best_offset = best[i - first].offset;
    }
    ++result.templates_scanned;
  }
  return result;
}

}  // namespace cg::gw
