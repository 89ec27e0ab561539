// E2 -- reproduce Case 1 (3.6.1): galaxy-animation frames farmed out in
// parallel; "the user can visualise the galaxy formation in a fraction of
// the time than it would if the simulation was performed on a single
// machine".
//
// Three measurements:
//   (a) REAL: wall-clock speedup of the SPH frame farm on a local thread
//       pool (the All Hands demo ran "machines on a local network"; shared-
//       memory cores are our stand-in for the cluster).
//   (b) SIMULATED consumer grid: virtual-time makespan over DSL peers,
//       including frame-result upload time, comparing "regenerate snapshot
//       locally" against "ship the snapshot with every frame" (the paper
//       notes both variants).
//   (c) REAL: the engine's deterministic wave scheduler driving the same
//       render farm as a TaskGraph (FrameSource fanned out to B RenderFrame
//       branches). Swept over --threads; every row must produce a
//       bit-identical pixel checksum or the bench fails. CI's bench-smoke
//       job gates row throughput against bench/baselines/galaxy.json via
//       scripts/bench_compare.py.
//
// Machine-readable output: --json PATH writes the section (c) rows plus
// the obs metrics snapshot (per-row scopes: "t0.runtime.waves", ...).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/galaxy/sph.hpp"
#include "apps/galaxy/units.hpp"
#include "core/engine/runtime.hpp"
#include "core/unit/builtin.hpp"
#include "harness.hpp"
#include "net/sim_network.hpp"
#include "obs/obs.hpp"
#include "rm/thread_pool.hpp"

using namespace cg;

namespace {

double render_all_threaded(unsigned threads, const galaxy::SimulationSpec& spec,
                           const galaxy::View& view) {
  rm::ThreadPool pool(threads);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t f = 0; f < spec.n_frames; ++f) {
    pool.post([&, f] {
      const auto snap = galaxy::snapshot_at(spec, f);
      volatile double sink =
          galaxy::project_column_density(snap, view).pixels[0];
      (void)sink;
    });
  }
  pool.wait_idle();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Virtual-time farm: W peers, each frame takes `compute_s`, result upload
/// of `result_bytes`; optional `input_bytes` shipped to the peer per frame.
double simulated_makespan(std::size_t workers, std::size_t frames,
                          double compute_s, std::size_t input_bytes,
                          std::size_t result_bytes) {
  net::LinkParams lp;  // consumer DSL defaults

  std::vector<double> free_at(workers, 0.0);
  const double up = static_cast<double>(result_bytes) / lp.bandwidth_Bps;
  const double down = static_cast<double>(input_bytes) / lp.bandwidth_Bps;

  double makespan = 0;
  for (std::size_t f = 0; f < frames; ++f) {
    // Greedy: next frame to the earliest-free worker.
    std::size_t best = 0;
    for (std::size_t w = 1; w < workers; ++w) {
      if (free_at[w] < free_at[best]) best = w;
    }
    const double start = free_at[best] + lp.base_latency_s + down;
    const double done = start + compute_s + up + lp.base_latency_s;
    free_at[best] = start + compute_s;
    makespan = std::max(makespan, done);
  }
  return makespan;
}

/// Sections (a) and (b): the raw thread-pool farm and the virtual-time
/// consumer grid. Skipped under --only-wave (CI smoke).
void run_farm_sections() {
  // (a) real thread-pool speedup.
  galaxy::SimulationSpec spec;
  spec.n_particles = 20000;
  spec.n_frames = 48;
  galaxy::View view;
  view.grid = 192;

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("(a) real SPH renders, %zu frames x %zu particles, grid %u "
              "(this host: %u core%s -- speedup is capped at %u; the "
              "consumer grid exists precisely because one box runs out of "
              "cores)\n",
              spec.n_frames, spec.n_particles, view.grid, cores,
              cores == 1 ? "" : "s", cores);
  std::printf("%-8s %-12s %-10s %-12s\n", "workers", "seconds", "speedup",
              "ideal-capped");
  const double t1 = render_all_threaded(1, spec, view);
  for (unsigned w : {1u, 2u, 4u, 8u}) {
    const double t = (w == 1) ? t1 : render_all_threaded(w, spec, view);
    std::printf("%-8u %-12.3f %-10.2f %-12u\n", w, t, t1 / t,
                std::min(w, cores));
  }

  // (b) simulated consumer grid, 5 s/frame renders (2003-era PC).
  const std::size_t frames = 200;
  const double compute_s = 5.0;
  const std::size_t image_bytes = 128 * 128 * 8;     // one frame out
  const std::size_t snapshot_bytes = 20000 * 4 * 8;  // data file per frame

  std::printf("\n(b) simulated consumer grid, %zu frames x %.0f s renders, "
              "DSL links (%.0f kB/s)\n",
              frames, compute_s, 128.0);
  std::printf("%-8s %-22s %-22s\n", "", "regenerate-locally",
              "ship-snapshot-per-frame");
  std::printf("%-8s %-10s %-10s %-10s %-10s\n", "peers", "makespan",
              "speedup", "makespan", "speedup");
  const double base = simulated_makespan(1, frames, compute_s, 0, image_bytes);
  for (std::size_t w : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const double regen =
        simulated_makespan(w, frames, compute_s, 0, image_bytes);
    const double ship =
        simulated_makespan(w, frames, compute_s, snapshot_bytes, image_bytes);
    std::printf("%-8zu %-10.0f %-10.2f %-10.0f %-10.2f\n", w, regen,
                base / regen, ship, base / ship);
  }
  std::printf(
      "\nShape check (paper): near-linear speedup -- 'a fraction of the "
      "time ... on a single machine'; shipping the data file per frame "
      "erodes it on consumer uplinks.\n");
}

// -- (c) wave-scheduler sweep over the engine ------------------------------

/// Case 1 as a TaskGraph: one frame-index source fanned out to `branches`
/// RenderFrame units (different viewing angles), each with its own
/// animation sink. The wide render wave is what the scheduler spreads
/// across the pool.
core::TaskGraph wave_graph(int branches, int frames, int particles,
                           int grid) {
  core::TaskGraph g("galaxy_wave");
  core::ParamSet fp;
  fp.set_int("frames", frames);
  g.add_task("Frames", "FrameSource", fp);
  for (int b = 0; b < branches; ++b) {
    const std::string s = std::to_string(b);
    core::ParamSet rp;
    rp.set_int("particles", particles);
    rp.set_int("frames", frames);
    rp.set_int("grid", grid);
    rp.set_double("azimuth", 0.25 * b);
    g.add_task("Render" + s, "RenderFrame", rp);
    g.add_task("Anim" + s, "AnimationSink");
    g.connect("Frames", 0, "Render" + s, 0);
    g.connect("Render" + s, 0, "Anim" + s, 0);
    g.connect("Render" + s, 1, "Anim" + s, 1);
  }
  return g;
}

/// One timed wave run; the checksum sums every sink pixel.
bench::WaveRow run_wave(const core::TaskGraph& g, const core::UnitRegistry& reg,
                        unsigned threads, int branches, int frames,
                        obs::Registry& registry) {
  core::GraphRuntime rt(
      g, reg, core::RuntimeOptions{.rng_seed = 42, .max_threads = threads});
  rt.set_obs(registry, std::string("t").append(std::to_string(threads)));
  const auto t0 = std::chrono::steady_clock::now();
  rt.run(static_cast<std::uint64_t>(frames));
  bench::WaveRow row;
  row.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (int b = 0; b < branches; ++b) {
    const auto* sink = rt.unit_as<galaxy::AnimationSinkUnit>(
        "Anim" + std::to_string(b));
    for (const auto& [idx, frame] : sink->frames()) {
      for (double px : frame.pixels) row.checksum += px;
    }
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench b("bench_galaxy");
  std::vector<unsigned> threads = {0, 1, 2, 4};
  int wave_frames = 10;
  int wave_particles = 6000;
  bool only_wave = false;  // CI smoke: skip the slow (a)/(b) farm sections
  b.flags.add("--threads", threads, "0,1,2,4");
  b.flags.add("--frames", wave_frames, 1);
  b.flags.add("--particles", wave_particles, 1);
  b.flags.add_switch("--only-wave", only_wave);
  b.json_flag();
  if (!b.flags.parse(argc, argv)) return 2;

  std::printf("E2: galaxy animation farm (paper Case 1)\n\n");

  if (!only_wave) run_farm_sections();

  // (c) the engine's wave scheduler on the same farm, as a TaskGraph.
  const int wave_branches = 8;
  const int wave_grid = 96;
  std::printf("\n(c) wave scheduler: %d render branches x %d frames, %d "
              "particles, grid %d (deterministic -- every row must produce "
              "the same pixel checksum)\n",
              wave_branches, wave_frames, wave_particles, wave_grid);

  core::UnitRegistry wave_reg = core::UnitRegistry::with_builtins();
  galaxy::register_galaxy_units(wave_reg);
  const core::TaskGraph g =
      wave_graph(wave_branches, wave_frames, wave_particles, wave_grid);
  obs::Registry registry;
  std::vector<bench::WaveRow> rows;
  if (!bench::wave_sweep(
          b.flags.program(), threads, "frames/s",
          static_cast<double>(wave_branches) * wave_frames,
          [&](unsigned t) {
            return run_wave(g, wave_reg, t, wave_branches, wave_frames,
                            registry);
          },
          rows)) {
    return 1;
  }
  std::printf("\nShape check: identical checksums row-for-row (the wave "
              "barrier commits in unit order), speedup approaching the "
              "core count while the render wave stays wider than the "
              "pool.\n");

  const bool ok = b.write_json(
      "{\"bench\":\"galaxy\",\"branches\":" + std::to_string(wave_branches) +
      ",\"frames\":" + std::to_string(wave_frames) +
      ",\"particles\":" + std::to_string(wave_particles) +
      ",\"rows\":" + bench::wave_rows_json(rows) +
      ",\"metrics\":" + registry.snapshot().to_json(/*pretty=*/false) + "}");
  return ok ? 0 : 1;
}
