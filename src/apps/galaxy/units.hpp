// ConGrid -- Triana units for the galaxy-animation scenario.
//
// Mirrors the paper's Case 1 pipeline: a frame-index source (the Data
// Reader Unit separating the file into frames), a renderer computing the
// column density of its frame, and a visualisation/collector unit ordering
// the returned frames into an animation. The renderer is the farmed group.
#pragma once

#include <map>

#include "apps/galaxy/sph.hpp"
#include "core/unit/registry.hpp"

namespace cg::galaxy {

/// Emits frame indices 0, 1, 2, ... one per iteration (the work items the
/// parallel policy scatters). Params: frames (50).
class FrameSourceUnit final : public core::Unit {
 public:
  static core::UnitInfo make_info();
  const core::UnitInfo& info() const override;
  void configure(const core::ParamSet& p) override;
  void process(core::ProcessContext& ctx) override;
  serial::Bytes save_state() const override;
  void restore_state(const serial::Bytes& state) override;
  void reset() override { next_ = 0; }

 private:
  std::size_t frames_ = 50;
  std::size_t next_ = 0;
};

/// Renders frame index -> column-density image. Every peer regenerates the
/// snapshot deterministically from the spec (the paper's alternative "the
/// data file could be copied beforehand"), so the only traffic is the index
/// in and the image out.
/// Params: particles (2000, in [1, kMaxParticles]), frames (50, >= 1),
/// grid (128, in [1, kMaxGrid]), azimuth (0), elevation (0), extent (1.5,
/// finite and > 0), seed (42). `configure` throws std::invalid_argument on
/// a value out of range.
class RenderFrameUnit final : public core::Unit {
 public:
  static constexpr long long kMaxParticles = 1'000'000;
  static constexpr long long kMaxGrid = 4096;

  static core::UnitInfo make_info();
  const core::UnitInfo& info() const override;
  void configure(const core::ParamSet& p) override;
  void process(core::ProcessContext& ctx) override;

 private:
  SimulationSpec spec_;
  View view_;
  /// The t = 0 cloud of `spec_`, built once per configure; `process` only
  /// reads it (kPure firings may run concurrently) and evolves a copy.
  /// Derived from params, so it is never checkpointed.
  Snapshot cloud_;
};

/// Orders incoming (index, frame) pairs into the final animation. Input 0:
/// integer frame index; input 1: the rendered image. Exposes the assembled
/// animation for the host to read.
class AnimationSinkUnit final : public core::Unit {
 public:
  static core::UnitInfo make_info();
  const core::UnitInfo& info() const override;
  void process(core::ProcessContext& ctx) override;
  void reset() override { frames_.clear(); }

  /// Frames received so far, keyed by index.
  const std::map<std::size_t, core::ImageFrame>& frames() const {
    return frames_;
  }
  /// True when indices 0..n-1 are all present.
  bool complete(std::size_t n) const;

 private:
  std::map<std::size_t, core::ImageFrame> frames_;
};

void register_galaxy_units(core::UnitRegistry& r);

}  // namespace cg::galaxy
