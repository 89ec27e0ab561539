#include <cmath>

#include "core/unit/builtin.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace cg::core {

// ---------------------------------------------------------------- WaveUnit

UnitInfo WaveUnit::make_info() {
  UnitInfo i;
  i.type_name = "Wave";
  i.package = "signalproc";
  i.description = "Periodic waveform source with phase continuity";
  i.outputs = {PortSpec{"signal", type_bit(DataType::kSampleSet)}};
  i.is_source = true;
  return i;
}

const UnitInfo& WaveUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void WaveUnit::configure(const ParamSet& p) {
  freq_ = p.get_double("freq", 50.0);
  amplitude_ = p.get_double("amplitude", 1.0);
  rate_ = p.get_double("rate", 512.0);
  samples_ = static_cast<std::size_t>(
      p.get_int_in("Wave", "samples", 512, 1, kMaxSourceSamples));
  shape_ = p.get("shape", "sine");
  if (shape_ != "sine" && shape_ != "square" && shape_ != "saw") {
    throw std::invalid_argument("Wave: unknown shape " + shape_);
  }
}

void WaveUnit::process(ProcessContext& ctx) {
  SampleSet out;
  out.sample_rate = rate_;
  out.samples.resize(samples_);
  const double dphase = 2.0 * M_PI * freq_ / rate_;
  for (std::size_t i = 0; i < samples_; ++i) {
    double v;
    if (shape_ == "sine") {
      v = std::sin(phase_);
    } else if (shape_ == "square") {
      v = std::sin(phase_) >= 0.0 ? 1.0 : -1.0;
    } else {  // saw
      v = std::fmod(phase_, 2.0 * M_PI) / M_PI - 1.0;
    }
    out.samples[i] = amplitude_ * v;
    phase_ += dphase;
  }
  // Keep the phase bounded for numerical stability over long runs.
  phase_ = std::fmod(phase_, 2.0 * M_PI);
  ctx.emit(0, std::move(out));
}

serial::Bytes WaveUnit::save_state() const {
  serial::Writer w;
  w.f64(phase_);
  return w.take();
}

void WaveUnit::restore_state(const serial::Bytes& state) {
  serial::Reader r(state);
  phase_ = r.f64();
}

// --------------------------------------------------------- NoiseSourceUnit

UnitInfo NoiseSourceUnit::make_info() {
  UnitInfo i;
  i.type_name = "NoiseSource";
  i.concurrency = Concurrency::kPure;
  i.package = "signalproc";
  i.description = "Gaussian white-noise source";
  i.outputs = {PortSpec{"noise", type_bit(DataType::kSampleSet)}};
  i.is_source = true;
  return i;
}

const UnitInfo& NoiseSourceUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void NoiseSourceUnit::configure(const ParamSet& p) {
  stddev_ = p.get_double("stddev", 1.0);
  rate_ = p.get_double("rate", 512.0);
  samples_ = static_cast<std::size_t>(
      p.get_int_in("NoiseSource", "samples", 512, 1, kMaxSourceSamples));
}

void NoiseSourceUnit::process(ProcessContext& ctx) {
  SampleSet out;
  out.sample_rate = rate_;
  out.samples.resize(samples_);
  for (auto& s : out.samples) s = ctx.rng().gaussian(0.0, stddev_);
  ctx.emit(0, std::move(out));
}

// ------------------------------------------------------------ ConstantUnit

UnitInfo ConstantUnit::make_info() {
  UnitInfo i;
  i.type_name = "Constant";
  i.concurrency = Concurrency::kPure;
  i.package = "common";
  i.description = "Constant scalar source";
  i.outputs = {PortSpec{"value", type_bit(DataType::kScalar)}};
  i.is_source = true;
  return i;
}

const UnitInfo& ConstantUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void ConstantUnit::configure(const ParamSet& p) {
  value_ = p.get_double("value", 0.0);
}

void ConstantUnit::process(ProcessContext& ctx) { ctx.emit(0, value_); }

// ------------------------------------------------------------- CounterUnit

UnitInfo CounterUnit::make_info() {
  UnitInfo i;
  i.type_name = "Counter";
  i.package = "common";
  i.description = "Monotonic integer source";
  i.outputs = {PortSpec{"count", type_bit(DataType::kInteger)}};
  i.is_source = true;
  return i;
}

const UnitInfo& CounterUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void CounterUnit::configure(const ParamSet& p) {
  start_ = p.get_int("start", 0);
  step_ = p.get_int("step", 1);
}

void CounterUnit::process(ProcessContext& ctx) {
  if (!initialised_) {
    next_ = start_;
    initialised_ = true;
  }
  ctx.emit(0, next_);
  next_ += step_;
}

serial::Bytes CounterUnit::save_state() const {
  serial::Writer w;
  w.i64(next_);
  w.boolean(initialised_);
  return w.take();
}

void CounterUnit::restore_state(const serial::Bytes& state) {
  serial::Reader r(state);
  next_ = r.i64();
  initialised_ = r.boolean();
}

void CounterUnit::reset() {
  next_ = start_;
  initialised_ = false;
}

// ---------------------------------------------------------- TextSourceUnit

UnitInfo TextSourceUnit::make_info() {
  UnitInfo i;
  i.type_name = "TextSource";
  i.concurrency = Concurrency::kPure;
  i.package = "common";
  i.description = "Fixed text source";
  i.outputs = {PortSpec{"text", type_bit(DataType::kText)}};
  i.is_source = true;
  return i;
}

const UnitInfo& TextSourceUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void TextSourceUnit::configure(const ParamSet& p) { text_ = p.get("text", ""); }

void TextSourceUnit::process(ProcessContext& ctx) { ctx.emit(0, text_); }

void register_builtin_sources(UnitRegistry& r) {
  r.add<WaveUnit>();
  r.add<NoiseSourceUnit>();
  r.add<ConstantUnit>();
  r.add<CounterUnit>();
  r.add<TextSourceUnit>();
}

}  // namespace cg::core
