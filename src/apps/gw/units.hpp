// ConGrid -- Triana units wrapping the inspiral search.
//
// These make Case 2 runnable as a ConGrid workflow: a strain source
// emitting detector chunks, and a matched-filter unit scanning each chunk
// against a slice of the template bank (the natural unit of farm
// distribution: different peers take different slices or different
// chunks). Register with register_gw_units().
#pragma once

#include <memory>

#include "apps/gw/search.hpp"
#include "core/unit/registry.hpp"

namespace cg::gw {

/// Emits one synthetic strain chunk per iteration.
/// Params: rate (2000), samples (8192, in [1, kMaxSourceSamples]),
/// inject_every (0 = never, >= 0), inject_amp (0.5), chirp_mass (1.2),
/// inject_offset (1000, in [0, kMaxSourceSamples]).
class StrainSourceUnit final : public core::Unit {
 public:
  static core::UnitInfo make_info();
  const core::UnitInfo& info() const override;
  void configure(const core::ParamSet& p) override;
  void process(core::ProcessContext& ctx) override;

 private:
  DetectorSpec spec_;
  std::size_t samples_ = 8192;
  std::size_t inject_every_ = 0;
  double inject_amp_ = 0.5;
  std::size_t inject_offset_ = 1000;
  ChirpParams injection_;
  std::uint64_t emitted_ = 0;
};

/// Scans each incoming chunk against templates [first, first+count) of a
/// bank built at configure time; emits best SNR (port 0) and a detection
/// flag (port 1). Charges the Case 2 cost model against the sandbox.
/// Params: n_templates (64, in [1, kMaxTemplates]), min_mass (0.8),
/// max_mass (3.0), f_low (50), f_high (900), rate (2000), first (0, below
/// n_templates), count (0 = the rest of the bank; first + count <=
/// n_templates), threshold (8).
class InspiralFilterUnit final : public core::Unit {
 public:
  /// The paper's largest Case-2 bank (5,000-10,000 templates).
  static constexpr long long kMaxTemplates = 10'000;

  static core::UnitInfo make_info();
  const core::UnitInfo& info() const override;
  void configure(const core::ParamSet& p) override;
  void process(core::ProcessContext& ctx) override;

  const TemplateBank* bank() const { return bank_.get(); }

 private:
  std::unique_ptr<TemplateBank> bank_;
  std::size_t first_ = 0;
  std::size_t count_ = 0;  ///< 0 = the rest of the bank from first_
  double threshold_ = 8.0;
  double cpu_mhz_ = 2000.0;
  CostModel cost_;
};

void register_gw_units(core::UnitRegistry& r);

}  // namespace cg::gw
