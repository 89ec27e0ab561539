// ConGrid -- SPH column-density projection.
//
// Case 1 renders each snapshot "to calculate the column density using
// smooth particle hydrodynamics" from a user-chosen viewpoint (paper
// 3.6.1). We project particles onto a 2D grid through a rotation, splatting
// each with the standard cubic-spline SPH kernel integrated along the line
// of sight.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/galaxy/snapshot.hpp"
#include "core/types/data_item.hpp"

namespace cg::galaxy {

/// The user's view: rotation applied before projecting along +z.
struct View {
  double azimuth_rad = 0.0;    ///< rotation about z
  double elevation_rad = 0.0;  ///< rotation about x after azimuth
  double half_extent = 1.5;    ///< world units visible from the centre
  std::uint32_t grid = 128;    ///< output is grid x grid pixels
};

/// 2D cubic-spline column kernel value at normalised distance q = r/h
/// (zero beyond q = 2). Normalised so the kernel integrates to ~1.
double sph_kernel_2d(double q);

/// Project a snapshot to a column-density image. Particles splat in order;
/// every pixel is bit-identical to the plain scalar loop's (kept as the
/// oracle in tests/test_galaxy.cpp), on every target.
core::ImageFrame project_column_density(const Snapshot& snap,
                                        const View& view);

/// Total mass on the image (for conservation checks): sum of pixels times
/// pixel area.
double image_mass(const core::ImageFrame& frame, const View& view);

}  // namespace cg::galaxy
