#include "apps/galaxy/units.hpp"

#include <cmath>
#include <stdexcept>
#include <string_view>

#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace cg::galaxy {

using core::DataItem;
using core::DataType;
using core::PortSpec;
using core::type_bit;
using core::UnitInfo;

UnitInfo FrameSourceUnit::make_info() {
  UnitInfo i;
  i.type_name = "FrameSource";
  i.package = "galaxy";
  i.description = "Emits animation frame indices";
  i.outputs = {PortSpec{"index", type_bit(DataType::kInteger)}};
  i.is_source = true;
  return i;
}

const UnitInfo& FrameSourceUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void FrameSourceUnit::configure(const core::ParamSet& p) {
  frames_ = static_cast<std::size_t>(p.get_int("frames", 50));
}

void FrameSourceUnit::process(core::ProcessContext& ctx) {
  if (next_ >= frames_) return;  // animation fully dispatched
  ctx.emit(0, static_cast<std::int64_t>(next_++));
}

serial::Bytes FrameSourceUnit::save_state() const {
  serial::Writer w;
  w.varint(next_);
  return w.take();
}

void FrameSourceUnit::restore_state(const serial::Bytes& state) {
  serial::Reader r(state);
  next_ = r.varint();
}

UnitInfo RenderFrameUnit::make_info() {
  UnitInfo i;
  i.type_name = "RenderFrame";
  i.concurrency = core::Concurrency::kPure;
  i.package = "galaxy";
  i.description = "SPH column-density render of one snapshot frame";
  i.inputs = {PortSpec{"index", type_bit(DataType::kInteger)}};
  i.outputs = {PortSpec{"index", type_bit(DataType::kInteger)},
               PortSpec{"frame", type_bit(DataType::kImage)}};
  return i;
}

const UnitInfo& RenderFrameUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void RenderFrameUnit::configure(const core::ParamSet& p) {
  // Checked before anything is sized from them: the cloud is built here
  // and every firing allocates a grid x grid image.
  constexpr std::string_view kName = "RenderFrame";
  const long long particles =
      p.get_int_in(kName, "particles", 2000, 1, kMaxParticles);
  const long long frames = p.get_int_in(kName, "frames", 50, 1);
  const long long grid = p.get_int_in(kName, "grid", 128, 1, kMaxGrid);
  const double extent = p.get_double("extent", 1.5);
  if (!std::isfinite(extent) || extent <= 0.0) {
    throw std::invalid_argument("RenderFrame: extent must be finite and > 0");
  }
  spec_.n_particles = static_cast<std::size_t>(particles);
  spec_.n_frames = static_cast<std::size_t>(frames);
  spec_.seed = static_cast<std::uint64_t>(p.get_int("seed", 42));
  view_.grid = static_cast<std::uint32_t>(grid);
  view_.azimuth_rad = p.get_double("azimuth", 0.0);
  view_.elevation_rad = p.get_double("elevation", 0.0);
  view_.half_extent = extent;
  cloud_ = initial_snapshot(spec_);
}

void RenderFrameUnit::process(core::ProcessContext& ctx) {
  if (ctx.input(0).type() != DataType::kInteger) {
    throw std::invalid_argument("RenderFrame: expected a frame index");
  }
  const auto index = static_cast<std::size_t>(ctx.input(0).integer());
  // Rough cost model: one kernel splat per particle per covered pixel.
  ctx.charge_cpu(1e-8 * static_cast<double>(spec_.n_particles) *
                 static_cast<double>(view_.grid));
  ctx.emit(0, static_cast<std::int64_t>(index));
  ctx.emit(1, project_column_density(evolve_snapshot(cloud_, spec_, index),
                                     view_));
}

UnitInfo AnimationSinkUnit::make_info() {
  UnitInfo i;
  i.type_name = "AnimationSink";
  i.package = "galaxy";
  i.description = "Orders rendered frames into an animation";
  i.inputs = {PortSpec{"index", type_bit(DataType::kInteger)},
              PortSpec{"frame", type_bit(DataType::kImage)}};
  return i;
}

const UnitInfo& AnimationSinkUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void AnimationSinkUnit::process(core::ProcessContext& ctx) {
  if (ctx.input(0).type() != DataType::kInteger ||
      ctx.input(1).type() != DataType::kImage) {
    throw std::invalid_argument("AnimationSink: expected (index, image)");
  }
  frames_[static_cast<std::size_t>(ctx.input(0).integer())] =
      ctx.input(1).image();
}

bool AnimationSinkUnit::complete(std::size_t n) const {
  if (frames_.size() < n) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (!frames_.contains(i)) return false;
  }
  return true;
}

void register_galaxy_units(core::UnitRegistry& r) {
  r.add<FrameSourceUnit>();
  r.add<RenderFrameUnit>();
  r.add<AnimationSinkUnit>();
}

}  // namespace cg::galaxy
