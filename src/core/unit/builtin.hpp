// ConGrid -- built-in unit library (declarations).
//
// A representative subset of Triana's "several hundred units": signal
// sources, transforms and sinks sufficient to express the paper's Figure 1
// network (Wave -> Gaussian -> FFT -> AccumStat -> Grapher) and the three
// application scenarios. Classes are exposed here (not hidden behind the
// registry) so hosts and tests can downcast sink units to read results.
#pragma once

#include <deque>

#include "core/unit/registry.hpp"
#include "dsp/stats.hpp"
#include "dsp/window.hpp"

namespace cg::core {

// --------------------------------------------------------------- sources

/// Periodic waveform source (sine/square/saw). Phase is carried across
/// iterations (stateful), so consecutive emissions are contiguous signal.
/// Params: freq (Hz, 50), amplitude (1), rate (Hz, 512), samples (512, in
/// [1, kMaxSourceSamples]), shape ("sine"|"square"|"saw").
class WaveUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void configure(const ParamSet& p) override;
  void process(ProcessContext& ctx) override;
  serial::Bytes save_state() const override;
  void restore_state(const serial::Bytes& state) override;
  void reset() override { phase_ = 0.0; }

 private:
  double freq_ = 50.0, amplitude_ = 1.0, rate_ = 512.0;
  std::size_t samples_ = 512;
  std::string shape_ = "sine";
  double phase_ = 0.0;
};

/// Gaussian white-noise source. Params: stddev (1), rate (512),
/// samples (512, in [1, kMaxSourceSamples]).
class NoiseSourceUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void configure(const ParamSet& p) override;
  void process(ProcessContext& ctx) override;

 private:
  double stddev_ = 1.0, rate_ = 512.0;
  std::size_t samples_ = 512;
};

/// Emits a constant scalar each iteration. Params: value (0).
class ConstantUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void configure(const ParamSet& p) override;
  void process(ProcessContext& ctx) override;

 private:
  double value_ = 0.0;
};

/// Emits 0, 1, 2, ... (stateful). Params: start (0), step (1).
class CounterUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void configure(const ParamSet& p) override;
  void process(ProcessContext& ctx) override;
  serial::Bytes save_state() const override;
  void restore_state(const serial::Bytes& state) override;
  void reset() override;

 private:
  std::int64_t start_ = 0, step_ = 1, next_ = 0;
  bool initialised_ = false;
};

/// Emits a fixed text item each iteration. Params: text ("").
class TextSourceUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void configure(const ParamSet& p) override;
  void process(ProcessContext& ctx) override;

 private:
  std::string text_;
};

// ------------------------------------------------------------- transforms

/// Adds Gaussian noise to a SampleSet -- the "Gaussian" unit of Figure 1.
/// Params: stddev (1).
class GaussianUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void configure(const ParamSet& p) override;
  void process(ProcessContext& ctx) override;

 private:
  double stddev_ = 1.0;
};

/// Power spectrum of a SampleSet (the Figure 1 "FFT" stage). Params:
/// window ("rect"|"hann"|"hamming"|"blackman").
class FftUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void configure(const ParamSet& p) override;
  void process(ProcessContext& ctx) override;

 private:
  dsp::WindowKind window_ = dsp::WindowKind::kRectangular;
};

/// Running element-wise mean over successive spectra or sample sets --
/// the paper's AccumStat ("average the spectra over successive iterations
/// to remove the noise"). Stateful; checkpointable.
class AccumStatUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void process(ProcessContext& ctx) override;
  serial::Bytes save_state() const override;
  void restore_state(const serial::Bytes& state) override;
  void reset() override;

  std::uint64_t count() const { return count_; }

 private:
  std::uint64_t count_ = 0;
  double meta_ = 0.0;  ///< bin_width or sample_rate of accumulated items
  bool is_spectrum_ = true;
  std::vector<double> sums_;
};

/// Multiplies samples by a factor. Params: factor (1).
class ScalerUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void configure(const ParamSet& p) override;
  void process(ProcessContext& ctx) override;

 private:
  double factor_ = 1.0;
};

/// Adds an offset to samples or a scalar. Params: offset (0).
class OffsetUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void configure(const ParamSet& p) override;
  void process(ProcessContext& ctx) override;

 private:
  double offset_ = 0.0;
};

/// Absolute value of every sample.
class RectifierUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void process(ProcessContext& ctx) override;
};

/// Clamp samples to [lo, hi]. Params: lo (-1), hi (1).
class ClipperUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void configure(const ParamSet& p) override;
  void process(ProcessContext& ctx) override;

 private:
  double lo_ = -1.0, hi_ = 1.0;
};

/// Centred moving average over a SampleSet. Params: window (5).
class MovingAverageUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void configure(const ParamSet& p) override;
  void process(ProcessContext& ctx) override;

 private:
  std::size_t window_ = 5;
};

/// Keep every k-th sample. Params: stride (2).
class SubsampleUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void configure(const ParamSet& p) override;
  void process(ProcessContext& ctx) override;

 private:
  std::size_t stride_ = 2;
};

/// Apply a window function in place. Params: window ("hann").
class WindowUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void configure(const ParamSet& p) override;
  void process(ProcessContext& ctx) override;

 private:
  dsp::WindowKind window_ = dsp::WindowKind::kHann;
};

/// log10 of samples/power (floored at 1e-30) -- dB-style display prep.
class LogScaleUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void process(ProcessContext& ctx) override;
};

/// Element-wise sum of two SampleSets (or two scalars).
class AdderUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void process(ProcessContext& ctx) override;
};

/// Element-wise product of two SampleSets (or two scalars).
class MultiplierUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void process(ProcessContext& ctx) override;
};

/// Fast correlation of input 0 (data) against input 1 (template); emits
/// the correlation series on port 0 and the normalised peak on port 1.
class CorrelatorUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void process(ProcessContext& ctx) override;
};

/// Emits the peak frequency (port 0) and peak-to-median ratio (port 1)
/// of a spectrum.
class SpectrumPeakUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void process(ProcessContext& ctx) override;
};

/// One-item delay line: emits the item received on the *previous* firing
/// (nothing on the first). Stateful/checkpointable -- the simplest unit
/// whose correctness depends on migration preserving state.
class DelayUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void process(ProcessContext& ctx) override;
  serial::Bytes save_state() const override;
  void restore_state(const serial::Bytes& state) override;
  void reset() override { held_ = DataItem(); }

 private:
  DataItem held_;
};

/// Running sum: scalars accumulate to a scalar, sample-sets element-wise
/// (lengths must stay constant). Stateful/checkpointable.
class IntegratorUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void process(ProcessContext& ctx) override;
  serial::Bytes save_state() const override;
  void restore_state(const serial::Bytes& state) override;
  void reset() override;

 private:
  double scalar_sum_ = 0.0;
  bool scalar_mode_ = true;
  double rate_ = 1.0;
  std::vector<double> sums_;
};

/// Emits integer 1 when the max |sample| (or scalar) exceeds the
/// threshold, else 0. Params: threshold (1).
class ThresholdUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void configure(const ParamSet& p) override;
  void process(ProcessContext& ctx) override;

 private:
  double threshold_ = 1.0;
};

// ------------------------------------------------------------------ sinks

/// Records every item it receives -- the test/GUI observation point
/// (Figure 2's graph display).
class GrapherUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void process(ProcessContext& ctx) override;
  void reset() override { items_.clear(); }

  const std::vector<DataItem>& items() const { return items_; }

 private:
  std::vector<DataItem> items_;
};

/// Welford statistics over scalar inputs.
class StatSinkUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void process(ProcessContext& ctx) override;
  void reset() override { stats_ = {}; }

  const dsp::RunningStats& stats() const { return stats_; }

 private:
  dsp::RunningStats stats_;
};

/// Discards everything (load sink).
class NullSinkUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void process(ProcessContext& ctx) override;

  std::uint64_t received() const { return received_; }

 private:
  std::uint64_t received_ = 0;
};

}  // namespace cg::core
