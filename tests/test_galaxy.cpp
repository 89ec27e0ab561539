// Tests for the galaxy workload: snapshot determinism and evolution, SPH
// projection properties (mass conservation, view sensitivity), the
// vectorised splat against a frozen scalar copy, and the frame-farm units
// (cached cloud, parameter bounds).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "apps/galaxy/units.hpp"
#include "core/engine/runtime.hpp"
#include "core/service/service.hpp"
#include "core/unit/builtin.hpp"
#include "net/sim_network.hpp"

namespace cg::galaxy {
namespace {

// -- frozen scalar oracle ------------------------------------------------
// The kernel and splat loop exactly as they stood before the row-hoisted
// SSE2 splat, kept verbatim so that `project_column_density` can be held to
// them bit for bit. perfbench's galaxy oracle calls the library kernel
// itself and so cannot see a drift; this copy can. Do not "tidy" it.

double reference_kernel(double q) {
  if (q >= 2.0) return 0.0;
  constexpr double norm = 10.0 / (7.0 * M_PI);
  if (q < 1.0) {
    return norm * (1.0 - 1.5 * q * q + 0.75 * q * q * q);
  }
  const double two_q = 2.0 - q;
  return norm * 0.25 * two_q * two_q * two_q;
}

core::ImageFrame reference_project(const Snapshot& snap, const View& view) {
  const std::uint32_t n = view.grid;
  core::ImageFrame img;
  img.width = n;
  img.height = n;
  img.pixels.assign(static_cast<std::size_t>(n) * n, 0.0);

  const double ca = std::cos(view.azimuth_rad), sa = std::sin(view.azimuth_rad);
  const double ce = std::cos(view.elevation_rad),
               se = std::sin(view.elevation_rad);
  const double pixel = 2.0 * view.half_extent / static_cast<double>(n);
  const double inv_pixel = 1.0 / pixel;

  for (const auto& p : snap) {
    // Rotate: azimuth about z, then elevation about x; project onto xy.
    const double x1 = ca * p.x - sa * p.y;
    const double y1 = sa * p.x + ca * p.y;
    const double y2 = ce * y1 - se * p.z;

    const double px = (x1 + view.half_extent) * inv_pixel;
    const double py = (y2 + view.half_extent) * inv_pixel;
    const double h = std::max(p.smoothing, 0.5 * pixel);
    const double reach = 2.0 * h * inv_pixel;

    const long x_lo = std::lround(std::floor(px - reach));
    const long x_hi = std::lround(std::ceil(px + reach));
    const long y_lo = std::lround(std::floor(py - reach));
    const long y_hi = std::lround(std::ceil(py + reach));
    const double inv_h2 = 1.0 / (h * h);

    for (long gy = std::max(0L, y_lo);
         gy <= std::min<long>(n - 1, y_hi); ++gy) {
      for (long gx = std::max(0L, x_lo);
           gx <= std::min<long>(n - 1, x_hi); ++gx) {
        const double dx = (static_cast<double>(gx) + 0.5 - px) * pixel;
        const double dy = (static_cast<double>(gy) + 0.5 - py) * pixel;
        const double q = std::sqrt((dx * dx + dy * dy) * inv_h2);
        const double w = reference_kernel(q);
        if (w > 0.0) {
          img.pixels[static_cast<std::size_t>(gy) * n +
                     static_cast<std::size_t>(gx)] += p.mass * w * inv_h2;
        }
      }
    }
  }
  return img;
}

/// Same size and the same bytes in every pixel (so -0.0 != +0.0, and a
/// NaN would have to match its payload).
bool bit_identical(const core::ImageFrame& a, const core::ImageFrame& b) {
  return a.width == b.width && a.height == b.height &&
         a.pixels.size() == b.pixels.size() &&
         std::memcmp(a.pixels.data(), b.pixels.data(),
                     a.pixels.size() * sizeof(double)) == 0;
}

SimulationSpec small_spec() {
  SimulationSpec s;
  s.n_particles = 300;
  s.n_frames = 10;
  return s;
}

TEST(Snapshot, DeterministicForSpecAndFrame) {
  const auto spec = small_spec();
  const Snapshot a = snapshot_at(spec, 4);
  const Snapshot b = snapshot_at(spec, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].x, b[i].x);
    EXPECT_DOUBLE_EQ(a[i].y, b[i].y);
    EXPECT_DOUBLE_EQ(a[i].z, b[i].z);
  }
}

TEST(Snapshot, DifferentSeedsDiffer) {
  SimulationSpec a = small_spec(), b = small_spec();
  b.seed = 43;
  EXPECT_NE(snapshot_at(a, 0)[0].x, snapshot_at(b, 0)[0].x);
}

TEST(Snapshot, TotalMassIsUnity) {
  const auto snap = initial_snapshot(small_spec());
  double mass = 0;
  for (const auto& p : snap) mass += p.mass;
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST(Snapshot, CollapseShrinksRadii) {
  const auto spec = small_spec();
  auto rms_radius = [](const Snapshot& s) {
    double sum = 0;
    for (const auto& p : s) sum += p.x * p.x + p.y * p.y + p.z * p.z;
    return std::sqrt(sum / static_cast<double>(s.size()));
  };
  const double r0 = rms_radius(snapshot_at(spec, 0));
  const double r9 = rms_radius(snapshot_at(spec, 9));
  EXPECT_NEAR(r9 / r0, spec.collapse_factor, 1e-9);
}

TEST(Snapshot, RotationPreservesRadii) {
  SimulationSpec spec = small_spec();
  spec.collapse_factor = 1.0;  // rotation only
  const auto s0 = snapshot_at(spec, 0);
  const auto s5 = snapshot_at(spec, 5);
  for (std::size_t i = 0; i < s0.size(); ++i) {
    const double r0 = std::hypot(s0[i].x, s0[i].y);
    const double r5 = std::hypot(s5[i].x, s5[i].y);
    EXPECT_NEAR(r0, r5, 1e-9);
    EXPECT_NEAR(s0[i].z, s5[i].z, 1e-9);
  }
}

TEST(Sph, KernelShape) {
  EXPECT_GT(sph_kernel_2d(0.0), sph_kernel_2d(0.5));
  EXPECT_GT(sph_kernel_2d(0.5), sph_kernel_2d(1.5));
  EXPECT_DOUBLE_EQ(sph_kernel_2d(2.0), 0.0);
  EXPECT_DOUBLE_EQ(sph_kernel_2d(5.0), 0.0);
}

TEST(Sph, ProjectionConservesMassApproximately) {
  const auto snap = initial_snapshot(small_spec());
  View view;
  view.grid = 96;
  view.half_extent = 4.0;  // wide enough to catch nearly everything
  const auto img = project_column_density(snap, view);
  EXPECT_EQ(img.width, 96u);
  EXPECT_EQ(img.pixels.size(), 96u * 96u);
  // Plummer tails extend to infinity; expect most of the mass on-image.
  EXPECT_NEAR(image_mass(img, view), 1.0, 0.15);
}

TEST(Sph, CentreIsBrightest) {
  const auto snap = initial_snapshot(small_spec());
  View view;
  view.grid = 64;
  const auto img = project_column_density(snap, view);
  // The brightest pixel lies near the image centre for a Plummer sphere.
  std::size_t best = 0;
  for (std::size_t i = 1; i < img.pixels.size(); ++i) {
    if (img.pixels[i] > img.pixels[best]) best = i;
  }
  const double cx = static_cast<double>(best % img.width);
  const double cy = static_cast<double>(best / img.width);
  EXPECT_NEAR(cx, 32.0, 8.0);
  EXPECT_NEAR(cy, 32.0, 8.0);
}

TEST(Sph, ViewChangesTheImage) {
  const auto snap = snapshot_at(small_spec(), 3);
  View a, b;
  a.grid = b.grid = 48;
  b.azimuth_rad = 1.0;
  b.elevation_rad = 0.7;
  const auto ia = project_column_density(snap, a);
  const auto ib = project_column_density(snap, b);
  EXPECT_NE(ia.pixels, ib.pixels);
}

TEST(Sph, MatchesReferenceBitForBit) {
  SimulationSpec spec = small_spec();
  spec.n_particles = 150;
  // Hand-placed particles on top of the Plummer cloud: far off the image on
  // every side, straddling each edge and corner, and with a smoothing length
  // both far below the 0.5-pixel clamp and wider than the image.
  const Snapshot extra = {
      {-50.0, 0.0, 0.0, 0.01, 0.1},  {50.0, 0.0, 0.0, 0.01, 0.1},
      {0.0, -50.0, 0.3, 0.01, 0.1},  {0.0, 50.0, -0.3, 0.01, 0.1},
      {-0.2, 0.0, 0.0, 0.02, 0.3},   {0.2, 0.0, 0.0, 0.02, 0.3},
      {0.0, -0.2, 0.0, 0.02, 0.3},   {0.0, 0.2, 0.0, 0.02, 0.3},
      {1.5, 1.5, 0.0, 0.03, 0.25},   {-1.5, -1.5, 0.0, 0.03, 0.25},
      {0.7, -0.7, 0.1, 0.005, 1e-6}, {0.01, 0.02, 0.0, 0.005, 5.0},
  };
  for (std::size_t frame : {std::size_t{0}, std::size_t{9}}) {
    Snapshot snap = snapshot_at(spec, frame);
    snap.insert(snap.end(), extra.begin(), extra.end());
    for (std::uint32_t grid : {1u, 2u, 3u, 17u, 97u, 128u, 255u}) {
      for (double extent : {0.2, 0.7, 1.5, 4.0}) {
        for (auto [az, el] : {std::pair{0.0, 0.0}, std::pair{1.1, -0.4},
                              std::pair{4.0, 0.6}}) {
          View view;
          view.grid = grid;
          view.half_extent = extent;
          view.azimuth_rad = az;
          view.elevation_rad = el;
          EXPECT_TRUE(bit_identical(project_column_density(snap, view),
                                    reference_project(snap, view)))
              << "frame=" << frame << " grid=" << grid
              << " extent=" << extent << " az=" << az << " el=" << el;
        }
      }
    }
  }
}

core::UnitRegistry galaxy_registry() {
  core::UnitRegistry reg = core::UnitRegistry::with_builtins();
  register_galaxy_units(reg);
  return reg;
}

/// One RenderFrame firing on frame `index`; returns the emitted image.
core::ImageFrame render(core::Unit& unit, std::int64_t index) {
  dsp::Rng rng(1);
  core::ProcessContext ctx({core::DataItem(index)}, 1, &rng, nullptr);
  unit.process(ctx);
  EXPECT_EQ(ctx.emissions().size(), 2u);
  EXPECT_EQ(ctx.emissions().at(0).second.integer(), index);
  return ctx.emissions().at(1).second.image();
}

TEST(Units, RenderFrameEmitsTheOracleFrame) {
  const core::UnitRegistry reg = galaxy_registry();
  auto unit = reg.create("RenderFrame");
  core::ParamSet p;
  p.set_int("particles", 250);
  p.set_int("frames", 10);
  p.set_int("grid", 40);
  p.set_int("seed", 7);
  p.set_double("azimuth", 0.8);
  p.set_double("elevation", -0.3);
  p.set_double("extent", 1.2);
  unit->configure(p);

  SimulationSpec spec;
  spec.n_particles = 250;
  spec.n_frames = 10;
  spec.seed = 7;
  View view;
  view.grid = 40;
  view.azimuth_rad = 0.8;
  view.elevation_rad = -0.3;
  view.half_extent = 1.2;
  // Out of order and repeated: each firing evolves the cached cloud afresh.
  for (std::size_t index : {5u, 0u, 9u, 5u, 2u}) {
    EXPECT_TRUE(bit_identical(
        render(*unit, static_cast<std::int64_t>(index)),
        project_column_density(snapshot_at(spec, index), view)))
        << "index=" << index;
  }
}

TEST(Units, RenderFrameReconfigureRendersTheNewCloud) {
  const core::UnitRegistry reg = galaxy_registry();
  auto unit = reg.create("RenderFrame");
  SimulationSpec spec;
  spec.n_particles = 120;
  spec.n_frames = 6;
  View view;
  view.grid = 24;
  auto configure = [&] {
    core::ParamSet p;
    p.set_int("particles", static_cast<long long>(spec.n_particles));
    p.set_int("frames", static_cast<long long>(spec.n_frames));
    p.set_int("grid", view.grid);
    p.set_int("seed", static_cast<long long>(spec.seed));
    unit->configure(p);
  };
  auto matches_oracle = [&](std::size_t index) {
    return bit_identical(render(*unit, static_cast<std::int64_t>(index)),
                         project_column_density(snapshot_at(spec, index),
                                                view));
  };

  configure();
  EXPECT_TRUE(matches_oracle(3));
  const core::ImageFrame before = render(*unit, 3);

  spec.seed = 99;  // same size, different cloud
  configure();
  EXPECT_TRUE(matches_oracle(3));
  EXPECT_FALSE(bit_identical(render(*unit, 3), before));

  spec.n_particles = 333;  // different size
  configure();
  EXPECT_TRUE(matches_oracle(3));
  EXPECT_TRUE(matches_oracle(5));
}

TEST(Units, RenderFrameRejectsOutOfRangeParams) {
  const core::UnitRegistry reg = galaxy_registry();
  auto configure_with = [&](auto set) {
    auto unit = reg.create("RenderFrame");
    core::ParamSet p;
    set(p);
    unit->configure(p);
  };
  auto int_param = [&](const char* key, long long v) {
    configure_with([&](core::ParamSet& p) { p.set_int(key, v); });
  };
  auto extent = [&](double v) {
    configure_with([&](core::ParamSet& p) { p.set_double("extent", v); });
  };

  for (long long g : {-1LL, 0LL, 4097LL, 100000LL, 1LL << 32}) {
    EXPECT_THROW(int_param("grid", g), std::invalid_argument) << g;
  }
  EXPECT_NO_THROW(int_param("grid", 1));
  EXPECT_NO_THROW(int_param("grid", RenderFrameUnit::kMaxGrid));

  for (long long n : {-1LL, 0LL, 1'000'001LL}) {
    EXPECT_THROW(int_param("particles", n), std::invalid_argument) << n;
  }
  EXPECT_NO_THROW(int_param("particles", 1));
  EXPECT_NO_THROW(int_param("particles", RenderFrameUnit::kMaxParticles));

  for (long long f : {-5LL, 0LL}) {
    EXPECT_THROW(int_param("frames", f), std::invalid_argument) << f;
  }
  EXPECT_NO_THROW(int_param("frames", 1));

  for (double e : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(extent(e), std::invalid_argument) << e;
  }
  EXPECT_NO_THROW(extent(1e-3));
}

TEST(Units, HostileRenderFrameDeployFailsCleanly) {
  const core::UnitRegistry reg = galaxy_registry();
  net::SimNetwork network;
  core::ServiceConfig home_cfg, worker_cfg;
  home_cfg.peer_id = "home";
  worker_cfg.peer_id = "worker";
  core::TrianaService home(network.add_node(), network.clock(),
                           network.scheduler(), reg, home_cfg);
  core::TrianaService worker(network.add_node(), network.clock(),
                             network.scheduler(), reg, worker_cfg);
  home.node().add_neighbor(worker.endpoint());
  worker.node().add_neighbor(home.endpoint());

  core::TaskGraph g("hostile");
  core::ParamSet fp;
  fp.set_int("frames", 2);
  g.add_task("Frames", "FrameSource", fp);
  core::ParamSet rp;
  rp.set_int("grid", -1);
  g.add_task("Render", "RenderFrame", rp);
  g.add_task("Anim", "AnimationSink");
  g.connect("Frames", 0, "Render", 0);
  g.connect("Render", 0, "Anim", 0);
  g.connect("Render", 1, "Anim", 1);
  home.publish_graph_modules(g, 4096);

  std::optional<core::DeployAckMsg> ack;
  home.deploy_remote(worker.endpoint(), g, 2,
                     [&](const core::DeployAckMsg& a) { ack = a; });
  network.run_all();
  ASSERT_TRUE(ack.has_value());
  EXPECT_FALSE(ack->ok);
  EXPECT_NE(ack->error.find("grid"), std::string::npos) << ack->error;
  EXPECT_EQ(worker.job_count(), 0u);
  EXPECT_EQ(worker.stats().jobs_failed, 1u);
  EXPECT_EQ(worker.stats().jobs_started, 0u);
}

TEST(Units, FrameSourceStopsAtFrameCount) {
  core::UnitRegistry reg = core::UnitRegistry::with_builtins();
  register_galaxy_units(reg);

  core::TaskGraph g("frames");
  core::ParamSet fp;
  fp.set_int("frames", 3);
  g.add_task("Frames", "FrameSource", fp);
  g.add_task("Sink", "StatSink");
  g.connect("Frames", 0, "Sink", 0);
  core::GraphRuntime rt(g, reg, {});
  rt.run(10);  // more ticks than frames
  EXPECT_EQ(rt.unit_as<core::StatSinkUnit>("Sink")->stats().count(), 3u);
}

TEST(Units, RenderFarmAssemblesCompleteAnimation) {
  core::UnitRegistry reg = core::UnitRegistry::with_builtins();
  register_galaxy_units(reg);

  const int kFrames = 6;
  core::TaskGraph g("anim");
  core::ParamSet fp;
  fp.set_int("frames", kFrames);
  g.add_task("Frames", "FrameSource", fp);
  core::ParamSet rp;
  rp.set_int("particles", 200);
  rp.set_int("frames", kFrames);
  rp.set_int("grid", 32);
  g.add_task("Render", "RenderFrame", rp);
  g.add_task("Anim", "AnimationSink");
  g.connect("Frames", 0, "Render", 0);
  g.connect("Render", 0, "Anim", 0);
  g.connect("Render", 1, "Anim", 1);

  core::GraphRuntime rt(g, reg, {});
  rt.run(kFrames);
  auto* anim = rt.unit_as<AnimationSinkUnit>("Anim");
  ASSERT_NE(anim, nullptr);
  EXPECT_TRUE(anim->complete(kFrames));
  // Consecutive frames differ (the cloud collapses/rotates).
  EXPECT_NE(anim->frames().at(0).pixels, anim->frames().at(5).pixels);
}

TEST(Units, FrameSourceStateSurvivesCheckpoint) {
  core::UnitRegistry reg = core::UnitRegistry::with_builtins();
  register_galaxy_units(reg);
  core::TaskGraph g("frames");
  core::ParamSet fp;
  fp.set_int("frames", 10);
  g.add_task("Frames", "FrameSource", fp);
  g.add_task("Sink", "StatSink");
  g.connect("Frames", 0, "Sink", 0);

  core::GraphRuntime a(g, reg, {});
  a.run(4);
  core::GraphRuntime b(g, reg, {});
  b.restore_checkpoint(a.save_checkpoint());
  b.run(1);
  // b continues from frame 4 (values 0..3 consumed in a).
  EXPECT_DOUBLE_EQ(b.unit_as<core::StatSinkUnit>("Sink")->stats().max(), 4.0);
}

TEST(Units, RenderRejectsWrongInput) {
  core::UnitRegistry reg = core::UnitRegistry::with_builtins();
  register_galaxy_units(reg);
  auto unit = reg.create("RenderFrame");
  unit->configure(core::ParamSet{});
  dsp::Rng rng(1);
  core::ProcessContext ctx({core::DataItem(std::string("x"))}, 1, &rng,
                           nullptr);
  EXPECT_THROW(unit->process(ctx), std::invalid_argument);
}

}  // namespace
}  // namespace cg::galaxy
