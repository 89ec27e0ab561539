// ConGrid -- the inspiral matched-filter search.
//
// One work item of the Case 2 scenario: take a detector chunk, correlate
// it against a slice of the template bank, report the best match. The farm
// distributes template-slices (or whole chunks) over consumer peers; the
// cost model below converts a (chunk, bank) size into 2003-PC seconds so
// sim-time experiments can reproduce the paper's "about 5 hours on a 2 GHz
// PC" arithmetic without grinding real FLOPs at full scale.
#pragma once

#include <cstddef>

#include "apps/gw/template_bank.hpp"
#include "dsp/correlate.hpp"

namespace cg::gw {

/// Best match over a template range.
struct SearchResult {
  double best_snr = 0.0;
  std::size_t best_template = 0;   ///< bank index
  std::size_t best_offset = 0;     ///< sample offset of the peak
  std::size_t templates_scanned = 0;
};

/// Scan `data` with bank templates [first, first+count) using FFT fast
/// correlation; the SNR statistic is the normalised matched-filter peak
/// divided by the noise sigma estimate. This is linear correlation over
/// lags 0..data.size()-1, computed by overlap-save at the bank's block
/// length L (FINDCHIRP, Allen et al. gr-qc/0509116): each block of the
/// chunk is transformed once and reused for every template, against the
/// bank's kept template spectra, with one inverse transform per template
/// per block. Throws std::out_of_range when `first` is outside the bank and
/// std::invalid_argument for an empty chunk.
SearchResult scan_chunk(const std::vector<double>& data,
                        const TemplateBank& bank, std::size_t first,
                        std::size_t count);

/// Detection decision at a given threshold (in sigma).
inline bool detected(const SearchResult& r, double threshold_sigma = 8.0) {
  return r.best_snr >= threshold_sigma;
}

/// Cost model (calibrated to the paper): filtering one 900 s chunk against
/// a 5,000..10,000-template bank takes ~5 hours on a 2 GHz PC, i.e.
/// ~18,000 s / 7,500 templates = 2.4 s per template per chunk at 2 GHz.
/// Scales linearly in templates and chunk samples, inversely in cpu_mhz.
struct CostModel {
  double seconds_per_template_ref = 2.4;   ///< at the reference chunk/CPU
  double ref_cpu_mhz = 2000.0;
  double ref_chunk_samples = 1.8e6;        ///< 900 s * 2000 S/s

  double chunk_seconds(std::size_t n_templates, std::size_t chunk_samples,
                       double cpu_mhz) const {
    return seconds_per_template_ref * static_cast<double>(n_templates) *
           (static_cast<double>(chunk_samples) / ref_chunk_samples) *
           (ref_cpu_mhz / cpu_mhz);
  }

  /// Dedicated PCs needed to keep up with real-time data: processing time
  /// per chunk divided by chunk duration (the paper's "20 PCs" figure).
  double pcs_for_realtime(std::size_t n_templates, double chunk_duration_s,
                          std::size_t chunk_samples, double cpu_mhz) const {
    return chunk_seconds(n_templates, chunk_samples, cpu_mhz) /
           chunk_duration_s;
  }
};

}  // namespace cg::gw
