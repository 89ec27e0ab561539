// ConGrid -- galaxy-formation snapshots.
//
// Case 1 (paper 3.6.1): "Galaxy and star formation simulation codes
// generate binary data files that represent a series of particles in three
// dimensions ... as a snap shot in time". We substitute the Cardiff Java
// simulation's output with a deterministic synthetic time series: a
// Plummer-sphere particle cloud that collapses and rotates over the frame
// sequence -- per-frame projection cost and data volumes match the
// scenario's shape, which is what the farming experiment measures.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/rng.hpp"

namespace cg::galaxy {

struct Particle {
  double x = 0, y = 0, z = 0;
  double mass = 1.0;
  double smoothing = 0.05;  ///< SPH smoothing length
};

using Snapshot = std::vector<Particle>;

struct SimulationSpec {
  std::size_t n_particles = 2000;
  std::size_t n_frames = 50;
  double plummer_radius = 1.0;
  double collapse_factor = 0.4;  ///< radius shrinks to this by the last frame
  double rotation_per_frame = 0.05;  ///< radians about z
  std::uint64_t seed = 42;
};

/// The particle cloud at t = 0 (Plummer-distributed radii, isotropic).
Snapshot initial_snapshot(const SimulationSpec& spec);

/// Evolve `initial`, the t = 0 cloud of `spec`, to frame `frame`
/// (0-based): global collapse plus solid rotation.
Snapshot evolve_snapshot(Snapshot initial, const SimulationSpec& spec,
                         std::size_t frame);

/// The particles at frame `frame`: `evolve_snapshot(initial_snapshot(spec),
/// spec, frame)`. Same spec + frame always yields the same particles, so
/// any peer can compute any frame -- the property the parallel
/// distribution policy exploits.
Snapshot snapshot_at(const SimulationSpec& spec, std::size_t frame);

/// Bytes of one snapshot when shipped raw (x,y,z,mass as f64).
std::size_t snapshot_bytes(const SimulationSpec& spec);

}  // namespace cg::galaxy
