#include "apps/galaxy/snapshot.hpp"

#include <cmath>

namespace cg::galaxy {

Snapshot initial_snapshot(const SimulationSpec& spec) {
  dsp::Rng rng(spec.seed);
  Snapshot snap;
  snap.reserve(spec.n_particles);
  for (std::size_t i = 0; i < spec.n_particles; ++i) {
    // Plummer radial profile: r = a / sqrt(u^(-2/3) - 1).
    double u = 0.0;
    while (u == 0.0) u = rng.uniform();
    const double r =
        spec.plummer_radius / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
    // Isotropic direction.
    const double cos_theta = rng.uniform(-1.0, 1.0);
    const double sin_theta = std::sqrt(1.0 - cos_theta * cos_theta);
    const double phi = rng.uniform(0.0, 2.0 * M_PI);

    Particle p;
    p.x = r * sin_theta * std::cos(phi);
    p.y = r * sin_theta * std::sin(phi);
    p.z = r * cos_theta;
    p.mass = 1.0 / static_cast<double>(spec.n_particles);
    p.smoothing = 0.1 * spec.plummer_radius;
    snap.push_back(p);
  }
  return snap;
}

Snapshot evolve_snapshot(Snapshot snap, const SimulationSpec& spec,
                         std::size_t frame) {
  if (spec.n_frames <= 1) return snap;

  const double t = static_cast<double>(frame) /
                   static_cast<double>(spec.n_frames - 1);
  const double scale = 1.0 + (spec.collapse_factor - 1.0) * t;
  const double angle = spec.rotation_per_frame * static_cast<double>(frame);
  const double c = std::cos(angle), s = std::sin(angle);

  for (auto& p : snap) {
    // Collapse towards the origin, then rotate about z.
    const double x = p.x * scale, y = p.y * scale;
    p.x = c * x - s * y;
    p.y = s * x + c * y;
    p.z *= scale;
    p.smoothing *= scale;
  }
  return snap;
}

Snapshot snapshot_at(const SimulationSpec& spec, std::size_t frame) {
  return evolve_snapshot(initial_snapshot(spec), spec, frame);
}

std::size_t snapshot_bytes(const SimulationSpec& spec) {
  return spec.n_particles * 4 * sizeof(double);
}

}  // namespace cg::galaxy
