#include "apps/gw/template_bank.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/correlate.hpp"

namespace cg::gw {

double TemplateBank::chirp_mass_for(const BankSpec& spec, std::size_t i) {
  if (spec.n_templates == 0) {
    throw std::invalid_argument("empty bank spec");
  }
  if (spec.n_templates == 1) return spec.min_chirp_mass_msun;
  const double ratio = spec.max_chirp_mass_msun / spec.min_chirp_mass_msun;
  const double t = static_cast<double>(i) /
                   static_cast<double>(spec.n_templates - 1);
  return spec.min_chirp_mass_msun * std::pow(ratio, t);
}

TemplateBank::TemplateBank(const BankSpec& spec) : spec_(spec) {
  templates_.reserve(spec.n_templates);
  params_.reserve(spec.n_templates);
  for (std::size_t i = 0; i < spec.n_templates; ++i) {
    ChirpParams p;
    p.chirp_mass_msun = chirp_mass_for(spec, i);
    p.f_low_hz = spec.f_low_hz;
    p.f_high_hz = spec.f_high_hz;
    p.sample_rate_hz = spec.sample_rate_hz;
    params_.push_back(p);
    templates_.push_back(make_chirp(p));
    energies_.push_back(dsp::template_energy(templates_.back()));
    longest_ = std::max(longest_, templates_.back().size());
  }
  block_ = dsp::next_pow2(2 * longest_);
  spectra_.resize(templates_.size());
}

const std::vector<dsp::Complex>& TemplateBank::spectrum(std::size_t i) const {
  const auto& wave = templates_.at(i);
  // Entries are filled under the lock and never written again; the outer
  // vector never reallocates, so a reference handed out stays valid while
  // other threads fill other entries.
  std::lock_guard<std::mutex> lock(spectra_mu_);
  if (spectra_[i].empty()) spectra_[i] = dsp::rfft(wave, block_);
  return spectra_[i];
}

std::size_t TemplateBank::total_bytes() const {
  std::size_t n = 0;
  for (const auto& t : templates_) n += t.size() * sizeof(double);
  return n;
}

}  // namespace cg::gw
