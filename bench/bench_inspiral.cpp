// E3 -- reproduce Case 2 (3.6.2): how many PCs keep the inspiral search
// real-time, and how churn inflates that number on a consumer grid.
//
// Paper numbers reproduced: 7.2 MB chunks (900 s at 2 kS/s, 4 B/sample);
// "This process takes about 5 hours on a 2 GHz PC"; "Therefore, 20 PC's
// would need to be employed full-time to keep up with the data. Within a
// Consumer Grid scenario the number of PCs would need to be increased due
// to various types of downtime".
//
// Part (a) checks the dedicated-PC arithmetic against a measured per-
// template filtering rate (scaled by the cost model). Part (b) samples
// volunteer availability traces and reports the peer multiplier for each
// availability model. Part (d) runs the template-bank scan as a TaskGraph
// through the engine's deterministic wave scheduler, swept over --threads;
// every row must produce a bit-identical SNR digest or the bench fails.
//
// Machine-readable output: --json PATH writes the part (d) rows plus the
// obs metrics snapshot; CI's bench-smoke job gates row throughput against
// bench/baselines/inspiral.json via scripts/bench_compare.py.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/gw/search.hpp"
#include "apps/gw/units.hpp"
#include "churn/availability.hpp"
#include "core/engine/runtime.hpp"
#include "core/unit/builtin.hpp"
#include "dsp/stats.hpp"
#include "harness.hpp"
#include "net/sim_network.hpp"
#include "obs/obs.hpp"
#include "rm/batch_queue.hpp"

using namespace cg;

namespace {

// -- (d) wave-scheduler sweep over the engine ------------------------------

/// Case 2 as a TaskGraph: one strain source scanned by `slices` template-
/// bank slices (4 templates each), best-SNR and hit counts into per-slice
/// stat sinks. The wide filter wave is what the scheduler spreads.
core::TaskGraph wave_graph(int slices, int samples) {
  core::TaskGraph g("inspiral_wave");
  core::ParamSet sp;
  sp.set_int("samples", samples);
  sp.set_int("inject_every", 2);
  g.add_task("Strain", "StrainSource", sp);
  for (int s = 0; s < slices; ++s) {
    const std::string n = std::to_string(s);
    core::ParamSet fp;
    fp.set_int("n_templates", slices * 4);
    fp.set_int("first", s * 4);
    fp.set_int("count", 4);
    g.add_task("Filter" + n, "InspiralFilter", fp);
    g.add_task("Snr" + n, "StatSink");
    g.add_task("Hits" + n, "StatSink");
    g.connect("Strain", 0, "Filter" + n, 0);
    g.connect("Filter" + n, 0, "Snr" + n, 0);
    g.connect("Filter" + n, 1, "Hits" + n, 0);
  }
  return g;
}

/// One timed wave run; the checksum digests every slice's SNR and hits.
bench::WaveRow run_wave(const core::TaskGraph& g, const core::UnitRegistry& reg,
                        unsigned threads, int slices, int ticks,
                        obs::Registry& registry) {
  core::GraphRuntime rt(
      g, reg, core::RuntimeOptions{.rng_seed = 17, .max_threads = threads});
  rt.set_obs(registry, std::string("t").append(std::to_string(threads)));
  const auto t0 = std::chrono::steady_clock::now();
  rt.run(static_cast<std::uint64_t>(ticks));
  bench::WaveRow row;
  row.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (int s = 0; s < slices; ++s) {
    const std::string n = std::to_string(s);
    const auto& snr = rt.unit_as<core::StatSinkUnit>("Snr" + n)->stats();
    const auto& hits = rt.unit_as<core::StatSinkUnit>("Hits" + n)->stats();
    row.checksum += snr.mean() + snr.max() +
                    static_cast<double>(snr.count()) + hits.mean();
  }
  return row;
}

/// Part (d): wave-scheduler sweep. Returns false on a determinism
/// violation or JSON write failure.
bool run_wave_section(const bench::Bench& b,
                      const std::vector<unsigned>& threads, int samples,
                      int ticks) {
  const int slices = 8;
  std::printf("\n(d) wave scheduler: %d bank slices x 4 templates, %d "
              "samples, %d chunks (deterministic -- every row must produce "
              "the same SNR digest)\n",
              slices, samples, ticks);

  core::UnitRegistry reg = core::UnitRegistry::with_builtins();
  gw::register_gw_units(reg);
  const core::TaskGraph g = wave_graph(slices, samples);
  obs::Registry registry;
  std::vector<bench::WaveRow> rows;
  if (!bench::wave_sweep(
          b.flags.program(), threads, "scans/s",
          static_cast<double>(slices) * 4 * ticks,
          [&](unsigned t) {
            return run_wave(g, reg, t, slices, ticks, registry);
          },
          rows)) {
    return false;
  }
  std::printf("\nShape check: identical digests row-for-row; the filter "
              "wave is %d wide, so speedup tracks min(threads, cores).\n",
              slices);

  return b.write_json(
      "{\"bench\":\"inspiral\",\"slices\":" + std::to_string(slices) +
      ",\"samples\":" + std::to_string(samples) +
      ",\"chunks\":" + std::to_string(ticks) +
      ",\"rows\":" + bench::wave_rows_json(rows) +
      ",\"metrics\":" + registry.snapshot().to_json(/*pretty=*/false) + "}");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench b("bench_inspiral");
  std::vector<unsigned> threads = {0, 1, 2, 4};
  int wave_samples = 2048;
  int wave_ticks = 6;
  bool only_wave = false;  // CI smoke: skip the capacity/churn sections
  b.flags.add("--threads", threads, "0,1,2,4");
  b.flags.add("--samples", wave_samples, 1);
  b.flags.add("--chunks", wave_ticks, 1);
  b.flags.add_switch("--only-wave", only_wave);
  b.json_flag();
  if (!b.flags.parse(argc, argv)) return 2;
  if (only_wave) {
    std::printf("E3: inspiral search capacity (paper Case 2)\n");
    return run_wave_section(b, threads, wave_samples, wave_ticks) ? 0 : 1;
  }
  gw::DetectorSpec det;
  gw::CostModel cost;

  std::printf("E3: inspiral search capacity (paper Case 2)\n\n");
  std::printf("chunk: %.0f s at %.0f S/s = %zu samples = %.1f MB (paper: "
              "7.2 MB)\n\n",
              det.chunk_seconds, det.sample_rate_hz, det.samples_per_chunk(),
              static_cast<double>(det.chunk_bytes()) / 1e6);

  // -- (a) dedicated-PC arithmetic -----------------------------------------
  std::printf("(a) dedicated 2 GHz PCs for real time\n");
  std::printf("%-12s %-18s %-14s\n", "templates", "hours per chunk",
              "PCs needed");
  for (std::size_t bank : {5000u, 7500u, 10000u}) {
    std::printf("%-12zu %-18.1f %-14.1f\n", bank,
                cost.chunk_seconds(bank, det.samples_per_chunk(), 2000.0) /
                    3600.0,
                cost.pcs_for_realtime(bank, det.chunk_seconds,
                                      det.samples_per_chunk(), 2000.0));
  }
  std::printf("(paper: ~5 h and 20 PCs at the 5,000-10,000 template "
              "midpoint)\n\n");

  // Measured anchor: filter a reduced chunk against a reduced bank for
  // real and scale by the model's linearity.
  {
    gw::BankSpec spec;
    spec.n_templates = 16;
    spec.f_low_hz = 150.0;
    gw::TemplateBank bank(spec);
    dsp::Rng rng(3);
    const std::size_t n = 1 << 17;  // 65.5 s of data
    auto data = gw::make_strain_chunk(det, rng, nullptr, 0, 0, n);
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = gw::scan_chunk(data, bank, 0, bank.size());
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double per_template_full =
        secs / static_cast<double>(r.templates_scanned) *
        (static_cast<double>(det.samples_per_chunk()) / static_cast<double>(n));
    std::printf("measured on this host: %.3f s for %zu templates x %zu "
                "samples -> %.3f s/template at full chunk size\n",
                secs, r.templates_scanned, n, per_template_full);
    std::printf("-> %.2f of this host's cores keep real time at 7500 "
                "templates\n",
                per_template_full * 7500.0 / det.chunk_seconds);
    std::printf("(model uses 2.4 s/template for a 2003-era 2 GHz PC)\n\n");
  }

  // -- (b) consumer-grid inflation under churn ------------------------------
  std::printf("(b) volunteer peers needed (1-week traces, 200 peers "
              "sampled, 7500 templates)\n");
  std::printf("%-26s %-14s %-16s %-12s\n", "availability model",
              "avail frac", "chunks/peer/wk", "peers needed");

  const double week = 7 * 86400.0;
  const double chunk_cpu_s =
      cost.chunk_seconds(7500, det.samples_per_chunk(), 2000.0);
  const double chunks_arriving = week / det.chunk_seconds;
  const double dedicated =
      cost.pcs_for_realtime(7500, det.chunk_seconds, det.samples_per_chunk(),
                            2000.0);

  struct Row {
    const char* name;
    const churn::AvailabilityModel* model;
  };
  churn::AlwaysOnModel always;
  churn::PoissonChurnModel dsl(4 * 3600.0, 1800.0);  // drops + returns
  churn::DiurnalIdleModel screensaver;
  const Row rows[] = {{"dedicated (always on)", &always},
                      {"DSL churn (4h up/30m down)", &dsl},
                      {"screensaver harvesting", &screensaver}};

  dsp::Rng rng(99);
  for (const Row& row : rows) {
    dsp::RunningStats frac, chunks;
    for (int p = 0; p < 200; ++p) {
      const auto trace = row.model->sample(week, rng);
      frac.add(churn::availability_fraction(trace, week));
      chunks.add(static_cast<double>(
          churn::completed_tasks(trace, week, chunk_cpu_s)));
    }
    const double peers_needed =
        chunks.mean() > 0 ? chunks_arriving / chunks.mean() : 0.0;
    std::printf("%-26s %-14.2f %-16.1f %-12.0f\n", row.name, frac.mean(),
                chunks.mean(), peers_needed);
  }
  // -- (c) organisation cluster via the GRAM gateway model ------------------
  // The paper's alternative substrate: "nodes which host parallel machines
  // or workstations clusters" behind a batch scheduler. Same aggregate
  // capacity as the dedicated-PC fleet, but each chunk pays queueing.
  std::printf("\n(c) 200 chunks through a 20-slot cluster (GRAM batch "
              "gateway) vs 20 dedicated peers\n");
  std::printf("%-34s %-16s %-18s\n", "substrate", "makespan (d)",
              "mean chunk latency");
  for (double overhead : {0.0, 300.0, 3600.0}) {
    net::SimNetwork sim({}, 1);
    rm::BatchQueueOptions opt;
    opt.slots = 20;
    opt.mean_queue_overhead_s = overhead;
    rm::SimBatchQueue queue(sim.scheduler(), sim.clock(), opt, 11);
    dsp::RunningStats latency;
    double makespan = 0;
    for (int c = 0; c < 200; ++c) {
      const double submitted = 0.0;
      queue.submit(chunk_cpu_s, [&, submitted] {
        latency.add(sim.now() - submitted);
        makespan = std::max(makespan, sim.now());
      });
    }
    sim.run_all();
    char label[64];
    std::snprintf(label, sizeof(label),
                  overhead == 0.0 ? "cluster, no queue overhead"
                                  : "cluster, %.0f s mean queue overhead",
                  overhead);
    std::printf("%-34s %-16.1f %-18.1f h\n", label, makespan / 86400.0,
                latency.mean() / 3600.0);
  }
  std::printf("(20 ideal dedicated peers: %.1f d -- the cluster matches "
              "throughput; GRAM overhead only adds per-chunk latency, which "
              "the paper notes 'is not important' for this search)\n",
              200.0 * chunk_cpu_s / 20.0 / 86400.0);

  std::printf("\nShape check (paper): ~%.0f dedicated PCs; consumer peers "
              "require a multiple of that as availability drops -- 'the "
              "number of PCs would need to be increased due to various "
              "types of downtime'. Latency tolerance makes this viable: "
              "'it can lag behind by several hours if necessary'.\n",
              dedicated);
  return run_wave_section(b, threads, wave_samples, wave_ticks) ? 0 : 1;
}
