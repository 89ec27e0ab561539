#include "apps/galaxy/sph.hpp"

#include <algorithm>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace cg::galaxy {

namespace {

constexpr double kNorm = 10.0 / (7.0 * M_PI);

/// Adds one particle's column density to `count` consecutive pixels of a
/// row. `dx2[i]` is dx^2 for the pixel `row[i]`, `dy2` the row's dy^2.
///
/// Bit-identical to evaluating `mass * sph_kernel_2d(sqrt(q2)) * inv_h2`
/// per pixel, q2 = (dx^2 + dy^2) * inv_h2: every lane performs the same
/// IEEE operations in the same order, and `q2 < 4` is exactly `q < 2`
/// because sqrt is correctly rounded and sqrt(4) = 2. Inside the disk the
/// kernel is > 0; outside it a lane adds +0.0, which leaves a pixel
/// (never -0.0) unchanged.
void splat_row(double* row, const double* dx2, std::size_t count, double dy2,
               double inv_h2, double mass) {
  std::size_t i = 0;
#if defined(__SSE2__)
  const __m128d v_dy2 = _mm_set1_pd(dy2);
  const __m128d v_inv_h2 = _mm_set1_pd(inv_h2);
  const __m128d v_mass = _mm_set1_pd(mass);
  const __m128d one = _mm_set1_pd(1.0);
  const __m128d two = _mm_set1_pd(2.0);
  const __m128d four = _mm_set1_pd(4.0);
  const __m128d c1_5 = _mm_set1_pd(1.5);
  const __m128d c0_75 = _mm_set1_pd(0.75);
  const __m128d norm = _mm_set1_pd(kNorm);
  const __m128d norm_quarter = _mm_set1_pd(kNorm * 0.25);
  for (; i + 2 <= count; i += 2) {
    const __m128d q2 =
        _mm_mul_pd(_mm_add_pd(_mm_loadu_pd(dx2 + i), v_dy2), v_inv_h2);
    const __m128d inside = _mm_cmplt_pd(q2, four);
    if (_mm_movemask_pd(inside) == 0) continue;
    const __m128d q = _mm_sqrt_pd(q2);
    // q < 1: norm * (1.0 - 1.5 * q * q + 0.75 * q * q * q)
    const __m128d a = _mm_mul_pd(_mm_mul_pd(c1_5, q), q);
    const __m128d b = _mm_mul_pd(_mm_mul_pd(_mm_mul_pd(c0_75, q), q), q);
    const __m128d w_in = _mm_mul_pd(norm, _mm_add_pd(_mm_sub_pd(one, a), b));
    // 1 <= q < 2: norm * 0.25 * two_q * two_q * two_q
    const __m128d two_q = _mm_sub_pd(two, q);
    const __m128d w_out = _mm_mul_pd(
        _mm_mul_pd(_mm_mul_pd(norm_quarter, two_q), two_q), two_q);
    const __m128d core = _mm_cmplt_pd(q, one);
    const __m128d w =
        _mm_or_pd(_mm_and_pd(core, w_in), _mm_andnot_pd(core, w_out));
    const __m128d add =
        _mm_and_pd(inside, _mm_mul_pd(_mm_mul_pd(v_mass, w), v_inv_h2));
    _mm_storeu_pd(row + i, _mm_add_pd(_mm_loadu_pd(row + i), add));
  }
#endif
  for (; i < count; ++i) {
    const double q2 = (dx2[i] + dy2) * inv_h2;
    if (q2 < 4.0) row[i] += mass * sph_kernel_2d(std::sqrt(q2)) * inv_h2;
  }
}

}  // namespace

double sph_kernel_2d(double q) {
  // Integrated (column) cubic spline, approximated by the 2D cubic spline
  // with normalisation 10/(7*pi) -- standard for column-density splats.
  if (q >= 2.0) return 0.0;
  if (q < 1.0) {
    return kNorm * (1.0 - 1.5 * q * q + 0.75 * q * q * q);
  }
  const double two_q = 2.0 - q;
  return kNorm * 0.25 * two_q * two_q * two_q;
}

core::ImageFrame project_column_density(const Snapshot& snap,
                                        const View& view) {
  const std::uint32_t n = view.grid;
  core::ImageFrame img;
  img.width = n;
  img.height = n;
  img.pixels.assign(static_cast<std::size_t>(n) * n, 0.0);
  if (n == 0) return img;

  const double ca = std::cos(view.azimuth_rad), sa = std::sin(view.azimuth_rad);
  const double ce = std::cos(view.elevation_rad),
               se = std::sin(view.elevation_rad);
  const double pixel = 2.0 * view.half_extent / static_cast<double>(n);
  const double inv_pixel = 1.0 / pixel;
  std::vector<double> dx2(n);  // dx^2 per column of the clipped box

  for (const auto& p : snap) {
    // Rotate: azimuth about z, then elevation about x; project onto xy.
    const double x1 = ca * p.x - sa * p.y;
    const double y1 = sa * p.x + ca * p.y;
    const double y2 = ce * y1 - se * p.z;

    const double px = (x1 + view.half_extent) * inv_pixel;
    const double py = (y2 + view.half_extent) * inv_pixel;
    const double h = std::max(p.smoothing, 0.5 * pixel);
    const double reach = 2.0 * h * inv_pixel;

    const long x_lo = std::max(0L, std::lround(std::floor(px - reach)));
    const long x_hi = std::min<long>(n - 1, std::lround(std::ceil(px + reach)));
    const long y_lo = std::max(0L, std::lround(std::floor(py - reach)));
    const long y_hi = std::min<long>(n - 1, std::lround(std::ceil(py + reach)));
    if (x_lo > x_hi) continue;
    const double inv_h2 = 1.0 / (h * h);

    for (long gx = x_lo; gx <= x_hi; ++gx) {
      const double dx = (static_cast<double>(gx) + 0.5 - px) * pixel;
      dx2[static_cast<std::size_t>(gx - x_lo)] = dx * dx;
    }
    const auto width = static_cast<std::size_t>(x_hi - x_lo + 1);
    for (long gy = y_lo; gy <= y_hi; ++gy) {
      const double dy = (static_cast<double>(gy) + 0.5 - py) * pixel;
      const double dy2 = dy * dy;
      // dx^2 >= 0 and rounding is monotone, so every pixel of this row has
      // q^2 >= dy^2 * inv_h2 >= 4: the whole row is outside the disk.
      if (dy2 * inv_h2 >= 4.0) continue;
      splat_row(&img.pixels[static_cast<std::size_t>(gy) * n +
                            static_cast<std::size_t>(x_lo)],
                dx2.data(), width, dy2, inv_h2, p.mass);
    }
  }
  return img;
}

double image_mass(const core::ImageFrame& frame, const View& view) {
  const double pixel = 2.0 * view.half_extent / static_cast<double>(frame.width);
  double sum = 0.0;
  for (double v : frame.pixels) sum += v;
  return sum * pixel * pixel;
}

}  // namespace cg::galaxy
