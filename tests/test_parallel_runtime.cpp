// Tests for the deterministic wave scheduler: serial-vs-parallel
// equivalence (same seed => identical RuntimeStats, sink outputs and
// checkpoint bytes across max_threads in {0, 1, 4}) on the galaxy and GW
// application graphs and a cycle-free random graph, the serial-only
// coordinator contract for external-effect units, the purity enforcement
// of the unit threading contract, and the engine's wave instruments.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "apps/galaxy/units.hpp"
#include "apps/gw/units.hpp"
#include "core/engine/runtime.hpp"
#include "core/unit/builtin.hpp"
#include "dsp/rng.hpp"
#include "obs/obs.hpp"

namespace cg::core {
namespace {

UnitRegistry& reg() {
  static UnitRegistry r = [] {
    UnitRegistry r = UnitRegistry::with_builtins();
    galaxy::register_galaxy_units(r);
    gw::register_gw_units(r);
    return r;
  }();
  return r;
}

/// The paper's Figure 1 network (one linear stateful pipeline).
TaskGraph figure1_graph() {
  TaskGraph g("figure1");
  ParamSet wp;
  wp.set_double("freq", 50.0);
  wp.set_int("samples", 256);
  wp.set_double("amplitude", 0.3);
  g.add_task("Wave", "Wave", wp);
  ParamSet gp;
  gp.set_double("stddev", 1.0);
  g.add_task("Gaussian", "Gaussian", gp);
  g.add_task("FFT", "FFT");
  g.add_task("AccumStat", "AccumStat");
  g.add_task("Grapher", "Grapher");
  g.connect("Wave", 0, "Gaussian", 0);
  g.connect("Gaussian", 0, "FFT", 0);
  g.connect("FFT", 0, "AccumStat", 0);
  g.connect("AccumStat", 0, "Grapher", 0);
  return g;
}

/// Case 1 shape: one frame-index source fanned out to `branches` renders
/// (different viewing angles), each feeding its own animation sink. The
/// wide render wave is what the scheduler parallelises.
TaskGraph galaxy_graph(int branches = 4, int frames = 6) {
  TaskGraph g("galaxy");
  ParamSet fp;
  fp.set_int("frames", frames);
  g.add_task("Frames", "FrameSource", fp);
  for (int b = 0; b < branches; ++b) {
    const std::string s = std::to_string(b);
    ParamSet rp;
    rp.set_int("particles", 300);
    rp.set_int("frames", frames);
    rp.set_int("grid", 24);
    rp.set_double("azimuth", 0.3 * b);
    g.add_task("Render" + s, "RenderFrame", rp);
    g.add_task("Anim" + s, "AnimationSink");
    g.connect("Frames", 0, "Render" + s, 0);
    g.connect("Render" + s, 0, "Anim" + s, 0);
    g.connect("Render" + s, 1, "Anim" + s, 1);
  }
  return g;
}

/// Case 2 shape: one strain source scanned by `slices` template-bank
/// slices, best-SNR into per-slice stat sinks.
TaskGraph gw_graph(int slices = 4) {
  TaskGraph g("gw");
  ParamSet sp;
  sp.set_int("samples", 512);
  sp.set_int("inject_every", 2);
  g.add_task("Strain", "StrainSource", sp);
  for (int s = 0; s < slices; ++s) {
    const std::string n = std::to_string(s);
    ParamSet fp;
    fp.set_int("n_templates", 16);
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

/// A deterministic pseudo-random layered DAG over sample-set units: every
/// input port gets exactly one producer from the previous layer, outputs
/// fan out freely, sinks record every item for comparison.
TaskGraph random_dag(std::uint64_t seed, int layers = 4, int width = 5) {
  dsp::Rng rng(seed);
  TaskGraph g("random");
  std::vector<std::vector<std::string>> layer_names(layers + 1);
  for (int w = 0; w < width; ++w) {
    const std::string name = "src" + std::to_string(w);
    ParamSet p;
    p.set_double("freq", 10.0 + 7.0 * w);
    p.set_int("samples", 64);
    g.add_task(name, "Wave", p);
    layer_names[0].push_back(name);
  }
  const char* one_in[] = {"Scaler",  "Offset", "Rectifier",
                          "Clipper", "Delay",  "MovingAverage"};
  for (int l = 1; l <= layers; ++l) {
    for (int w = 0; w < width; ++w) {
      const std::string name = std::string("u")
                                   .append(std::to_string(l))
                                   .append("_")
                                   .append(std::to_string(w));
      const auto& prev = layer_names[l - 1];
      auto pick = [&] {
        return prev[static_cast<std::size_t>(rng.below(prev.size()))];
      };
      if (rng.below(3) == 0) {
        g.add_task(name, rng.below(2) == 0 ? "Adder" : "Multiplier");
        g.connect(pick(), 0, name, 0);
        g.connect(pick(), 0, name, 1);
      } else {
        const char* type = one_in[rng.below(std::size(one_in))];
        ParamSet p;
        if (std::string(type) == "Scaler") p.set_double("factor", 1.5);
        g.add_task(name, type, p);
        g.connect(pick(), 0, name, 0);
      }
      layer_names[l].push_back(name);
    }
  }
  for (int w = 0; w < width; ++w) {
    const std::string name = "sink" + std::to_string(w);
    g.add_task(name, "Grapher");
    g.connect(layer_names[layers][w], 0, name, 0);
  }
  return g;
}

struct RunOutcome {
  RuntimeStats stats;
  serial::Bytes checkpoint;
};

/// Run `ticks` iterations at the given thread count and capture stats +
/// checkpoint bytes; `inspect` may additionally read sink units.
template <typename Inspect>
RunOutcome run_graph(const TaskGraph& g, unsigned max_threads,
                     std::uint64_t ticks, Inspect inspect) {
  GraphRuntime rt(g, reg(),
                  RuntimeOptions{.rng_seed = 42, .max_threads = max_threads});
  rt.run(ticks);
  inspect(rt);
  return RunOutcome{rt.stats(), rt.save_checkpoint()};
}

TEST(ParallelRuntime, GalaxyEquivalenceAcrossThreadCounts) {
  const TaskGraph g = galaxy_graph();
  std::vector<std::map<std::size_t, ImageFrame>> frames;
  auto grab = [&](GraphRuntime& rt) {
    frames.push_back(rt.unit_as<galaxy::AnimationSinkUnit>("Anim0")->frames());
    frames.push_back(rt.unit_as<galaxy::AnimationSinkUnit>("Anim3")->frames());
  };
  const RunOutcome serial = run_graph(g, 0, 6, grab);
  const RunOutcome one = run_graph(g, 1, 6, grab);
  const RunOutcome four = run_graph(g, 4, 6, grab);

  EXPECT_EQ(serial.stats, one.stats);
  EXPECT_EQ(serial.stats, four.stats);
  EXPECT_EQ(serial.checkpoint, one.checkpoint);
  EXPECT_EQ(serial.checkpoint, four.checkpoint);
  ASSERT_EQ(frames.size(), 6u);
  EXPECT_FALSE(frames[0].empty());
  EXPECT_EQ(frames[0], frames[2]);  // Anim0: serial vs 1 thread
  EXPECT_EQ(frames[0], frames[4]);  // Anim0: serial vs 4 threads
  EXPECT_EQ(frames[1], frames[3]);  // Anim3
  EXPECT_EQ(frames[1], frames[5]);
}

TEST(ParallelRuntime, GalaxyWaveFramesMatchTheOracle) {
  // RenderFrame keeps its t = 0 cloud from configure; concurrent firings in
  // a wave only read it. Every frame must still be the oracle's.
  const int kBranches = 4, kFrames = 6;
  GraphRuntime rt(galaxy_graph(kBranches, kFrames), reg(),
                  RuntimeOptions{.rng_seed = 42, .max_threads = 4});
  rt.run(kFrames);
  galaxy::SimulationSpec spec;
  spec.n_particles = 300;
  spec.n_frames = kFrames;
  for (int b = 0; b < kBranches; ++b) {
    galaxy::View view;
    view.grid = 24;
    view.azimuth_rad = 0.3 * b;
    const auto& frames =
        rt.unit_as<galaxy::AnimationSinkUnit>("Anim" + std::to_string(b))
            ->frames();
    ASSERT_EQ(frames.size(), static_cast<std::size_t>(kFrames));
    for (const auto& [index, frame] : frames) {
      const ImageFrame want = galaxy::project_column_density(
          galaxy::snapshot_at(spec, index), view);
      ASSERT_EQ(frame.pixels.size(), want.pixels.size());
      EXPECT_EQ(std::memcmp(frame.pixels.data(), want.pixels.data(),
                            want.pixels.size() * sizeof(double)),
                0)
          << "branch " << b << " frame " << index;
    }
  }
}

TEST(ParallelRuntime, GwEquivalenceAcrossThreadCounts) {
  const TaskGraph g = gw_graph();
  std::vector<std::vector<double>> digests;
  auto grab = [&](GraphRuntime& rt) {
    std::vector<double> d;
    for (int s = 0; s < 4; ++s) {
      const auto& snr =
          rt.unit_as<StatSinkUnit>("Snr" + std::to_string(s))->stats();
      const auto& hits =
          rt.unit_as<StatSinkUnit>("Hits" + std::to_string(s))->stats();
      d.push_back(snr.mean());
      d.push_back(snr.max());
      d.push_back(static_cast<double>(snr.count()));
      d.push_back(hits.mean());
    }
    digests.push_back(std::move(d));
  };
  const RunOutcome serial = run_graph(g, 0, 3, grab);
  const RunOutcome one = run_graph(g, 1, 3, grab);
  const RunOutcome four = run_graph(g, 4, 3, grab);

  EXPECT_EQ(serial.stats, one.stats);
  EXPECT_EQ(serial.stats, four.stats);
  EXPECT_EQ(serial.checkpoint, one.checkpoint);
  EXPECT_EQ(serial.checkpoint, four.checkpoint);
  ASSERT_EQ(digests.size(), 3u);
  EXPECT_GT(digests[0][2], 0.0);   // sinks actually saw items
  EXPECT_EQ(digests[0], digests[1]);  // bit-identical doubles
  EXPECT_EQ(digests[0], digests[2]);
}

TEST(ParallelRuntime, RandomDagEquivalenceAcrossThreadCounts) {
  for (std::uint64_t seed : {3u, 17u}) {
    const TaskGraph g = random_dag(seed);
    std::vector<std::vector<DataItem>> items;
    auto grab = [&](GraphRuntime& rt) {
      std::vector<DataItem> all;
      for (int w = 0; w < 5; ++w) {
        const auto& v =
            rt.unit_as<GrapherUnit>("sink" + std::to_string(w))->items();
        all.insert(all.end(), v.begin(), v.end());
      }
      items.push_back(std::move(all));
    };
    const RunOutcome serial = run_graph(g, 0, 5, grab);
    const RunOutcome one = run_graph(g, 1, 5, grab);
    const RunOutcome four = run_graph(g, 4, 5, grab);

    EXPECT_EQ(serial.stats, one.stats) << "seed " << seed;
    EXPECT_EQ(serial.stats, four.stats) << "seed " << seed;
    EXPECT_EQ(serial.checkpoint, one.checkpoint) << "seed " << seed;
    EXPECT_EQ(serial.checkpoint, four.checkpoint) << "seed " << seed;
    ASSERT_EQ(items.size(), 3u);
    EXPECT_FALSE(items[0].empty());
    EXPECT_EQ(items[0], items[1]) << "seed " << seed;
    EXPECT_EQ(items[0], items[2]) << "seed " << seed;
    items.clear();
  }
}

TEST(ParallelRuntime, CheckpointRestoresIntoEitherMode) {
  GraphRuntime origin(figure1_graph(), reg(), RuntimeOptions{.rng_seed = 9});
  origin.run(3);
  const serial::Bytes ckpt = origin.save_checkpoint();

  GraphRuntime serial(figure1_graph(), reg(), RuntimeOptions{.rng_seed = 9});
  GraphRuntime parallel(figure1_graph(), reg(),
                        RuntimeOptions{.rng_seed = 9, .max_threads = 4});
  serial.restore_checkpoint(ckpt);
  parallel.restore_checkpoint(ckpt);
  serial.run(3);
  parallel.run(3);

  EXPECT_EQ(serial.iteration(), 6u);
  EXPECT_EQ(parallel.iteration(), 6u);
  EXPECT_EQ(serial.unit_as<GrapherUnit>("Grapher")->items(),
            parallel.unit_as<GrapherUnit>("Grapher")->items());
  EXPECT_EQ(serial.save_checkpoint(), parallel.save_checkpoint());
}

TEST(ParallelRuntime, SerialOnlyUnitsFireOnCoordinator) {
  TaskGraph g("sends");
  ParamSet wp;
  wp.set_int("samples", 32);
  g.add_task("Wave", "Wave", wp);
  ParamSet s1, s2;
  s1.set("label", "alpha");
  s2.set("label", "beta");
  g.add_task("OutA", "Send", s1);
  g.add_task("OutB", "Send", s2);
  g.connect("Wave", 0, "OutA", 0);
  g.connect("Wave", 0, "OutB", 0);

  auto run_once = [&](unsigned threads) {
    GraphRuntime rt(g, reg(),
                    RuntimeOptions{.rng_seed = 4, .max_threads = threads});
    std::vector<std::string> order;
    std::vector<std::thread::id> tids;
    rt.set_external_sender([&](const std::string& label, DataItem) {
      order.push_back(label);
      tids.push_back(std::this_thread::get_id());
    });
    rt.run(3);
    for (const auto& tid : tids) {
      EXPECT_EQ(tid, std::this_thread::get_id())
          << "sender hook left the coordinator thread";
    }
    EXPECT_EQ(rt.stats().external_sends, 6u);
    return order;
  };
  // Identical, deterministic (unit-index) send order in both modes.
  EXPECT_EQ(run_once(0), run_once(4));
  EXPECT_EQ(run_once(4), run_once(4));
}

/// A unit that lies about its threading contract: declares kPure but
/// serialises state.
class LyingPureUnit final : public Unit {
 public:
  static UnitInfo make_info() {
    UnitInfo i;
    i.type_name = "LyingPure";
    i.concurrency = Concurrency::kPure;
    i.inputs = {PortSpec{"in", kAnyType}};
    return i;
  }
  const UnitInfo& info() const override {
    static const UnitInfo i = make_info();
    return i;
  }
  void process(ProcessContext&) override {}
  serial::Bytes save_state() const override { return {1, 2, 3}; }
};

TEST(ParallelRuntime, PurityContractEnforcedAtConstruction) {
  UnitRegistry r = UnitRegistry::with_builtins();
  r.add<LyingPureUnit>();
  TaskGraph g("lying");
  g.add_task("C", "Constant");
  g.add_task("L", "LyingPure");
  g.connect("C", 0, "L", 0);
  EXPECT_THROW(GraphRuntime(g, r, {}), std::logic_error);
}

TEST(ParallelRuntime, BuiltinsHonourDeclaredPurity) {
  // Every registered type claiming kPure must construct under the
  // enforcement check (i.e. actually carry no serialisable state).
  const UnitRegistry& r = reg();
  for (const auto& type : r.type_names()) {
    if (r.info(type).concurrency != Concurrency::kPure) continue;
    EXPECT_TRUE(r.create(type)->save_state().empty())
        << type << " declares kPure but serialises state";
  }
}

TEST(ParallelRuntime, UnitErrorPropagatesFromWave) {
  TaskGraph g("err");
  ParamSet p1, p2;
  p1.set_int("samples", 8);
  p2.set_int("samples", 16);
  g.add_task("A", "Wave", p1);
  g.add_task("B", "Wave", p2);
  g.add_task("Add", "Adder");
  g.add_task("Sink", "NullSink");
  g.connect("A", 0, "Add", 0);
  g.connect("B", 0, "Add", 1);
  g.connect("Add", 0, "Sink", 0);
  GraphRuntime rt(g, reg(), RuntimeOptions{.rng_seed = 1, .max_threads = 4});
  EXPECT_THROW(rt.tick(), std::invalid_argument);
}

TEST(ParallelRuntime, DeliverWorksInParallelMode) {
  TaskGraph g("recv");
  ParamSet rp;
  rp.set("label", "in");
  g.add_task("In", "Receive", rp);
  g.add_task("Sink", "StatSink");
  g.connect("In", 0, "Sink", 0);
  GraphRuntime rt(g, reg(), RuntimeOptions{.rng_seed = 1, .max_threads = 2});
  EXPECT_TRUE(rt.deliver("in", DataItem(7.0)));
  EXPECT_EQ(rt.unit_as<StatSinkUnit>("Sink")->stats().count(), 1u);
  EXPECT_DOUBLE_EQ(rt.unit_as<StatSinkUnit>("Sink")->stats().mean(), 7.0);
}

TEST(ParallelRuntime, WaveInstrumentsRecord) {
  obs::Registry registry;
  GraphRuntime rt(galaxy_graph(8, 4), reg(),
                  RuntimeOptions{.rng_seed = 2, .max_threads = 2});
  rt.set_obs(registry, "eng");
  rt.run(4);
  const obs::MetricsSnapshot snap = registry.snapshot();
#if CONGRID_OBS_ENABLED
  EXPECT_GT(snap.counter("eng.runtime.waves"), 0u);
  const obs::HistogramData* width = snap.histogram("eng.runtime.wave_width");
  ASSERT_NE(width, nullptr);
  EXPECT_GT(width->count, 0u);
  EXPECT_GE(width->max, 8.0);  // the 8-way render wave was observed
  const obs::HistogramData* stall =
      snap.histogram("eng.runtime.barrier_stall_seconds");
  ASSERT_NE(stall, nullptr);
  EXPECT_EQ(stall->count, width->count);
  EXPECT_GT(snap.gauge("eng.runtime.parallelism"), 1.0);
#else
  EXPECT_TRUE(snap.counters.empty());
#endif
}

TEST(ParallelRuntime, SerialModeDispatchesNoWaves) {
  obs::Registry registry;
  GraphRuntime rt(figure1_graph(), reg(), RuntimeOptions{.rng_seed = 2});
  rt.set_obs(registry, "eng");
  rt.run(3);
  EXPECT_EQ(registry.snapshot().counter("eng.runtime.waves"), 0u);
}

}  // namespace
}  // namespace cg::core
