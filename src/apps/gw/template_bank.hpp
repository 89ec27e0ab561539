// ConGrid -- inspiral template bank.
//
// "it performs fast correlation on the data set with each template in a
// library of between 5,000 and 10,000 templates" (paper 3.6.2). The bank
// spans a chirp-mass range with geometric spacing -- adjacent templates
// then overlap roughly evenly in match, the standard bank-construction
// heuristic.
//
// The bank also keeps what the matched filter reuses on every chunk: each
// template's energy and its half-spectrum at the bank's overlap-save block
// length (see scan_chunk in search.hpp). Spectra are built on first use,
// per template, so a filter scanning one slice of a large bank pays for
// that slice only.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "apps/gw/chirp.hpp"
#include "dsp/fft.hpp"

namespace cg::gw {

struct BankSpec {
  std::size_t n_templates = 5000;
  double min_chirp_mass_msun = 0.8;
  double max_chirp_mass_msun = 3.0;
  double f_low_hz = 50.0;
  double f_high_hz = 900.0;
  double sample_rate_hz = 2000.0;
};

class TemplateBank {
 public:
  /// Generate the full bank's waveforms (eager; can be large).
  explicit TemplateBank(const BankSpec& spec);

  std::size_t size() const { return templates_.size(); }
  const std::vector<double>& waveform(std::size_t i) const {
    return templates_.at(i);
  }
  const ChirpParams& params(std::size_t i) const { return params_.at(i); }
  const BankSpec& spec() const { return spec_; }

  /// Sum of squares of waveform i (its matched-filter normaliser).
  double energy(std::size_t i) const { return energies_.at(i); }
  /// Length of the bank's longest waveform, in samples.
  std::size_t longest() const { return longest_; }
  /// Overlap-save block length: next_pow2(2 * longest()).
  std::size_t block_length() const { return block_; }
  /// rfft(waveform(i), block_length()): block_length()/2 + 1 bins, built
  /// on first use and kept. Safe to call from several threads at once.
  const std::vector<dsp::Complex>& spectrum(std::size_t i) const;

  /// Chirp-mass for template index i under the geometric spacing (usable
  /// without generating waveforms).
  static double chirp_mass_for(const BankSpec& spec, std::size_t i);

  /// Total bytes of waveform storage (capacity planning).
  std::size_t total_bytes() const;

 private:
  BankSpec spec_;
  std::vector<std::vector<double>> templates_;
  std::vector<ChirpParams> params_;
  std::vector<double> energies_;
  std::size_t longest_ = 0;
  std::size_t block_ = 1;
  mutable std::mutex spectra_mu_;
  /// One per template; an empty entry is not built yet.
  mutable std::vector<std::vector<dsp::Complex>> spectra_;
};

}  // namespace cg::gw
