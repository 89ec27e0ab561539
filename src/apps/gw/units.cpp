#include "apps/gw/units.hpp"

namespace cg::gw {

using core::DataItem;
using core::DataType;
using core::PortSpec;
using core::type_bit;
using core::UnitInfo;

core::UnitInfo StrainSourceUnit::make_info() {
  UnitInfo i;
  i.type_name = "StrainSource";
  i.package = "gw";
  i.description = "Synthetic GEO600-style detector chunks";
  i.outputs = {PortSpec{"strain", type_bit(DataType::kSampleSet)}};
  i.is_source = true;
  return i;
}

const core::UnitInfo& StrainSourceUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void StrainSourceUnit::configure(const core::ParamSet& p) {
  constexpr std::string_view kName = "StrainSource";
  spec_.sample_rate_hz = p.get_double("rate", 2000.0);
  samples_ = static_cast<std::size_t>(
      p.get_int_in(kName, "samples", 8192, 1, core::kMaxSourceSamples));
  inject_every_ =
      static_cast<std::size_t>(p.get_int_in(kName, "inject_every", 0, 0));
  inject_amp_ = p.get_double("inject_amp", 0.5);
  inject_offset_ = static_cast<std::size_t>(p.get_int_in(
      kName, "inject_offset", 1000, 0, core::kMaxSourceSamples));
  injection_.chirp_mass_msun = p.get_double("chirp_mass", 1.2);
  injection_.sample_rate_hz = spec_.sample_rate_hz;
  injection_.f_low_hz = p.get_double("f_low", 50.0);
  injection_.f_high_hz = p.get_double("f_high", 900.0);
}

void StrainSourceUnit::process(core::ProcessContext& ctx) {
  ++emitted_;
  const bool inject =
      inject_every_ > 0 && (emitted_ % inject_every_ == 0);
  core::SampleSet out;
  out.sample_rate = spec_.sample_rate_hz;
  out.samples = make_strain_chunk(spec_, ctx.rng(),
                                  inject ? &injection_ : nullptr,
                                  inject_offset_, inject_amp_, samples_);
  ctx.emit(0, std::move(out));
}

core::UnitInfo InspiralFilterUnit::make_info() {
  UnitInfo i;
  i.type_name = "InspiralFilter";
  i.concurrency = core::Concurrency::kPure;
  i.package = "gw";
  i.description = "Matched-filter scan against a template-bank slice";
  i.inputs = {PortSpec{"strain", type_bit(DataType::kSampleSet)}};
  i.outputs = {PortSpec{"snr", type_bit(DataType::kScalar)},
               PortSpec{"detected", type_bit(DataType::kInteger)}};
  return i;
}

const core::UnitInfo& InspiralFilterUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void InspiralFilterUnit::configure(const core::ParamSet& p) {
  // Checked before the bank is built from them: every template is a chirp
  // held in memory, and [first, first + count) must lie inside the bank.
  constexpr std::string_view kName = "InspiralFilter";
  const long long n = p.get_int_in(kName, "n_templates", 64, 1, kMaxTemplates);
  const long long first = p.get_int_in(kName, "first", 0, 0, n - 1);
  const long long count = p.get_int_in(kName, "count", 0, 0, n - first);
  BankSpec spec;
  spec.n_templates = static_cast<std::size_t>(n);
  spec.min_chirp_mass_msun = p.get_double("min_mass", 0.8);
  spec.max_chirp_mass_msun = p.get_double("max_mass", 3.0);
  spec.f_low_hz = p.get_double("f_low", 50.0);
  spec.f_high_hz = p.get_double("f_high", 900.0);
  spec.sample_rate_hz = p.get_double("rate", 2000.0);
  bank_ = std::make_unique<TemplateBank>(spec);

  first_ = static_cast<std::size_t>(first);
  count_ = static_cast<std::size_t>(count);
  threshold_ = p.get_double("threshold", 8.0);
  cpu_mhz_ = p.get_double("cpu_mhz", 2000.0);
}

void InspiralFilterUnit::process(core::ProcessContext& ctx) {
  if (ctx.input(0).type() != DataType::kSampleSet) {
    throw std::invalid_argument("InspiralFilter: expected a sample-set");
  }
  const auto& strain = ctx.input(0).samples();
  const std::size_t count = count_ ? count_ : bank_->size();

  // Bill the Case 2 cost model (scaled to the actual slice/chunk): this is
  // modelled 2003-PC seconds, so hosts running inspiral jobs should grant
  // a correspondingly large sandbox CPU budget.
  ctx.charge_cpu(cost_.chunk_seconds(count, strain.samples.size(), cpu_mhz_));

  const SearchResult r = scan_chunk(strain.samples, *bank_, first_, count);
  ctx.emit(0, r.best_snr);
  ctx.emit(1, static_cast<std::int64_t>(detected(r, threshold_) ? 1 : 0));
}

void register_gw_units(core::UnitRegistry& r) {
  r.add<StrainSourceUnit>();
  r.add<InspiralFilterUnit>();
}

}  // namespace cg::gw
