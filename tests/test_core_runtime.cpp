// Tests for the data-flow engine: the Figure 1/2 reference network,
// streaming semantics, external channels, determinism, checkpoint/restore
// and failure modes.
#include <gtest/gtest.h>

#include "cas/hash.hpp"
#include "cas/store.hpp"
#include "core/engine/runtime.hpp"
#include "core/graph/taskgraph.hpp"
#include "core/unit/builtin.hpp"
#include "dsp/spectrum.hpp"
#include "serial/writer.hpp"

namespace cg::core {
namespace {

UnitRegistry& reg() {
  static UnitRegistry r = UnitRegistry::with_builtins();
  return r;
}

/// The paper's Figure 1 network: Wave -> Gaussian -> FFT -> AccumStat ->
/// Grapher (signal buried in noise, recovered by averaging).
TaskGraph figure1_graph(double snr_amplitude = 0.3) {
  TaskGraph g("figure1");
  ParamSet wp;
  wp.set_double("freq", 50.0);
  wp.set_double("rate", 512.0);
  wp.set_int("samples", 512);
  wp.set_double("amplitude", snr_amplitude);
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

/// Signal-bin power over the strongest non-signal bin: > 1 means the tone
/// stands clear of the noise floor (what Figure 2's reader sees).
double tone_visibility(const DataItem& item, double tone_hz) {
  const auto& sp = item.spectrum();
  const auto signal_bin =
      static_cast<std::size_t>(tone_hz / sp.bin_width + 0.5);
  double noise_max = 0.0;
  for (std::size_t i = 1; i < sp.power.size(); ++i) {
    if (i == signal_bin) continue;
    noise_max = std::max(noise_max, sp.power[i]);
  }
  return sp.power[signal_bin] / noise_max;
}

TEST(Runtime, Figure2NoiseAveragesOut) {
  GraphRuntime rt(figure1_graph(0.15), reg(), RuntimeOptions{.rng_seed = 11});
  rt.run(20);
  auto* grapher = rt.unit_as<GrapherUnit>("Grapher");
  ASSERT_NE(grapher, nullptr);
  ASSERT_EQ(grapher->items().size(), 20u);

  // The paper's Figure 2: after 1 iteration the signal is buried (the tone
  // bin does not clearly dominate); after 20 the peak stands clear.
  const double vis1 = tone_visibility(grapher->items().front(), 50.0);
  const double vis20 = tone_visibility(grapher->items().back(), 50.0);
  EXPECT_LT(vis1, 1.5);
  EXPECT_GT(vis20, 1.5);
  EXPECT_GT(vis20, 1.5 * vis1);
}

TEST(Runtime, CountsFiringsAndIterations) {
  GraphRuntime rt(figure1_graph(), reg(), {});
  rt.run(5);
  EXPECT_EQ(rt.iteration(), 5u);
  EXPECT_EQ(rt.stats().ticks, 5u);
  EXPECT_EQ(rt.firings_of("Wave"), 5u);
  EXPECT_EQ(rt.firings_of("Grapher"), 5u);
  EXPECT_EQ(rt.stats().firings, 25u);  // 5 units x 5 ticks
  EXPECT_EQ(rt.task_count(), 5u);
}

TEST(Runtime, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    GraphRuntime rt(figure1_graph(), reg(), RuntimeOptions{.rng_seed = seed});
    rt.run(3);
    return rt.unit_as<GrapherUnit>("Grapher")->items().back();
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(Runtime, InvalidGraphThrowsAtConstruction) {
  TaskGraph g("bad");
  g.add_task("A", "NoSuchUnit");
  EXPECT_THROW(GraphRuntime(g, reg(), {}), std::invalid_argument);
}

TEST(Runtime, GroupsAreFlattenedTransparently) {
  // Same figure-1 network but with Gaussian+FFT grouped.
  TaskGraph inner("inner");
  ParamSet gp;
  gp.set_double("stddev", 1.0);
  inner.add_task("Gaussian", "Gaussian", gp);
  inner.add_task("FFT", "FFT");
  inner.connect("Gaussian", 0, "FFT", 0);

  TaskGraph g("grouped");
  ParamSet wp;
  wp.set_double("amplitude", 0.3);
  g.add_task("Wave", "Wave", wp);
  TaskDef& grp = g.add_group("G", std::move(inner), "");
  grp.group_inputs = {GroupPort{"Gaussian", 0}};
  grp.group_outputs = {GroupPort{"FFT", 0}};
  g.add_task("Grapher", "Grapher");
  g.connect("Wave", 0, "G", 0);
  g.connect("G", 0, "Grapher", 0);

  GraphRuntime rt(g, reg(), {});
  rt.run(2);
  EXPECT_EQ(rt.unit_as<GrapherUnit>("Grapher")->items().size(), 2u);
  EXPECT_EQ(rt.firings_of("G/FFT"), 2u);
}

TEST(Runtime, FanOutCopiesItems) {
  TaskGraph g("fan");
  g.add_task("C", "Constant", [] {
    ParamSet p;
    p.set_double("value", 5.0);
    return p;
  }());
  g.add_task("S1", "StatSink");
  g.add_task("S2", "StatSink");
  g.connect("C", 0, "S1", 0);
  g.connect("C", 0, "S2", 0);
  GraphRuntime rt(g, reg(), {});
  rt.run(3);
  EXPECT_EQ(rt.unit_as<StatSinkUnit>("S1")->stats().count(), 3u);
  EXPECT_EQ(rt.unit_as<StatSinkUnit>("S2")->stats().count(), 3u);
}

TEST(Runtime, TwoInputUnitWaitsForBoth) {
  TaskGraph g("join");
  g.add_task("A", "Constant");
  g.add_task("B", "Constant");
  g.add_task("Add", "Adder");
  g.add_task("Sink", "StatSink");
  g.connect("A", 0, "Add", 0);
  g.connect("B", 0, "Add", 1);
  g.connect("Add", 0, "Sink", 0);
  GraphRuntime rt(g, reg(), {});
  rt.run(4);
  EXPECT_EQ(rt.firings_of("Add"), 4u);
  EXPECT_EQ(rt.unit_as<StatSinkUnit>("Sink")->stats().count(), 4u);
}

TEST(Runtime, ExternalChannelsSendAndReceive) {
  // Graph A: Wave -> Send("ch").    Graph B: Receive("ch") -> Grapher.
  TaskGraph a("a");
  a.add_task("Wave", "Wave");
  ParamSet sp;
  sp.set("label", "ch");
  a.add_task("Out", "Send", sp);
  a.connect("Wave", 0, "Out", 0);

  TaskGraph b("b");
  ParamSet rp;
  rp.set("label", "ch");
  b.add_task("In", "Receive", rp);
  b.add_task("Grapher", "Grapher");
  b.connect("In", 0, "Grapher", 0);

  GraphRuntime ra(a, reg(), {});
  GraphRuntime rb(b, reg(), {});
  ra.set_external_sender([&](const std::string& label, DataItem item) {
    EXPECT_TRUE(rb.deliver(label, std::move(item)));
  });

  ra.run(3);
  EXPECT_EQ(rb.unit_as<GrapherUnit>("Grapher")->items().size(), 3u);
  EXPECT_EQ(ra.stats().external_sends, 3u);
  EXPECT_EQ(rb.stats().external_deliveries, 3u);
  EXPECT_EQ(rb.receive_labels(), (std::vector<std::string>{"ch"}));
}

TEST(Runtime, DeliverToUnknownLabelReturnsFalse) {
  TaskGraph g("g");
  g.add_task("Sink", "NullSink");
  ParamSet rp;
  rp.set("label", "known");
  g.add_task("In", "Receive", rp);
  g.connect("In", 0, "Sink", 0);
  GraphRuntime rt(g, reg(), {});
  EXPECT_FALSE(rt.deliver("unknown", DataItem(1.0)));
  EXPECT_TRUE(rt.deliver("known", DataItem(1.0)));
}

TEST(Runtime, DuplicateReceiveLabelRejected) {
  TaskGraph g("g");
  ParamSet rp;
  rp.set("label", "dup");
  g.add_task("In1", "Receive", rp);
  g.add_task("In2", "Receive", rp);
  g.add_task("S1", "NullSink");
  g.add_task("S2", "NullSink");
  g.connect("In1", 0, "S1", 0);
  g.connect("In2", 0, "S2", 0);
  EXPECT_THROW(GraphRuntime(g, reg(), {}), std::invalid_argument);
}

TEST(Runtime, SendWithoutSenderThrowsOnFire) {
  TaskGraph g("g");
  g.add_task("C", "Constant");
  ParamSet sp;
  sp.set("label", "ch");
  g.add_task("Out", "Send", sp);
  g.connect("C", 0, "Out", 0);
  GraphRuntime rt(g, reg(), {});
  EXPECT_THROW(rt.tick(), std::logic_error);
}

TEST(Runtime, CheckpointRestoreResumesExactly) {
  GraphRuntime a(figure1_graph(), reg(), RuntimeOptions{.rng_seed = 5});
  a.run(7);
  const serial::Bytes ckpt = a.save_checkpoint();

  GraphRuntime b(figure1_graph(), reg(), RuntimeOptions{.rng_seed = 5});
  b.restore_checkpoint(ckpt);
  EXPECT_EQ(b.iteration(), 7u);

  // AccumStat state carried over: its next output equals a's next output.
  a.run(1);
  b.run(1);
  auto* ga = a.unit_as<GrapherUnit>("Grapher");
  auto* gb = b.unit_as<GrapherUnit>("Grapher");
  // b's grapher only saw the post-restore item (grapher state is empty
  // after restore since GrapherUnit doesn't persist items) -- compare the
  // accumulated spectra instead.
  ASSERT_FALSE(ga->items().empty());
  ASSERT_FALSE(gb->items().empty());
  // Note: per-unit RNG streams are positional, so Wave/Gaussian continue
  // with different draws in b; the *accumulated average* is dominated by
  // the 7 restored iterations, so the two spectra must be close.
  const auto& sa = ga->items().back().spectrum().power;
  const auto& sb = gb->items().back().spectrum().power;
  ASSERT_EQ(sa.size(), sb.size());
  double diff = 0, total = 0;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    diff += std::abs(sa[i] - sb[i]);
    total += std::abs(sa[i]);
  }
  EXPECT_LT(diff / total, 0.5);
}

TEST(Runtime, CheckpointPreservesQueuedItems) {
  // A two-input Adder with only one input fed: the item waits in the
  // queue and must survive a checkpoint.
  TaskGraph g("g");
  ParamSet rp1, rp2;
  rp1.set("label", "x");
  rp2.set("label", "y");
  g.add_task("X", "Receive", rp1);
  g.add_task("Y", "Receive", rp2);
  g.add_task("Add", "Adder");
  g.add_task("Sink", "StatSink");
  g.connect("X", 0, "Add", 0);
  g.connect("Y", 0, "Add", 1);
  g.connect("Add", 0, "Sink", 0);

  GraphRuntime a(g, reg(), {});
  a.deliver("x", DataItem(41.0));  // waits for y

  GraphRuntime b(g, reg(), {});
  b.restore_checkpoint(a.save_checkpoint());
  b.deliver("y", DataItem(1.0));
  auto* sink = b.unit_as<StatSinkUnit>("Sink");
  ASSERT_EQ(sink->stats().count(), 1u);
  EXPECT_DOUBLE_EQ(sink->stats().mean(), 42.0);
}

TEST(Runtime, CheckpointMismatchRejected) {
  GraphRuntime a(figure1_graph(), reg(), {});
  TaskGraph other("other");
  other.add_task("Solo", "Constant");
  GraphRuntime b(other, reg(), {});
  EXPECT_THROW(b.restore_checkpoint(a.save_checkpoint()),
               std::invalid_argument);
}

TEST(Runtime, ResetClearsEverything) {
  GraphRuntime rt(figure1_graph(), reg(), {});
  rt.run(3);
  rt.reset();
  EXPECT_EQ(rt.iteration(), 0u);
  EXPECT_EQ(rt.stats().firings, 0u);
  EXPECT_TRUE(rt.unit_as<GrapherUnit>("Grapher")->items().empty());
  rt.run(2);
  EXPECT_EQ(rt.unit_as<GrapherUnit>("Grapher")->items().size(), 2u);
}

TEST(Runtime, UnitExceptionPropagates) {
  // Two same-typed but different-length streams into an Adder: passes
  // static type checking, fails when the unit fires.
  TaskGraph g("g");
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
  GraphRuntime rt(g, reg(), {});
  EXPECT_THROW(rt.tick(), std::invalid_argument);
}

TEST(Runtime, ParallelTickMatchesSerialBitForBit) {
  GraphRuntime serial(figure1_graph(), reg(), RuntimeOptions{.rng_seed = 7});
  GraphRuntime parallel(figure1_graph(), reg(),
                        RuntimeOptions{.rng_seed = 7, .max_threads = 4});
  serial.run(8);
  parallel.run(8);

  const auto& a = serial.unit_as<GrapherUnit>("Grapher")->items();
  const auto& b = parallel.unit_as<GrapherUnit>("Grapher")->items();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "iteration " << i;
  }
  EXPECT_EQ(serial.stats().firings, parallel.stats().firings);
  EXPECT_EQ(serial.stats().items_routed, parallel.stats().items_routed);
}

TEST(Runtime, ParallelTickWideFanOut) {
  // One source fanning out to many independent branches: the shape the
  // wave scheduler parallelises.
  TaskGraph g("wide");
  ParamSet wp;
  wp.set_int("samples", 256);
  g.add_task("Src", "Wave", wp);
  for (int i = 0; i < 12; ++i) {
    const std::string s = std::to_string(i);
    ParamSet p;
    p.set_double("factor", 1.0 + i);
    g.add_task("scale" + s, "Scaler", p);
    g.add_task("sink" + s, "NullSink");
    g.connect("Src", 0, "scale" + s, 0);
    g.connect("scale" + s, 0, "sink" + s, 0);
  }
  GraphRuntime rt(g, reg(), RuntimeOptions{.max_threads = 4});
  rt.run(5);
  for (int i = 0; i < 12; ++i) {
    const std::string s = std::to_string(i);
    EXPECT_EQ(rt.firings_of("scale" + s), 5u) << s;
    EXPECT_EQ(rt.unit_as<NullSinkUnit>("sink" + s)->received(), 5u) << s;
  }
}

TEST(Runtime, ParallelTickPropagatesUnitErrors) {
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
  GraphRuntime rt(g, reg(), RuntimeOptions{.max_threads = 2});
  EXPECT_THROW(rt.tick(), std::invalid_argument);
}

TEST(Runtime, SandboxViolationPropagates) {
  sandbox::Policy pol;
  pol.max_cpu_seconds = 1e-15;
  sandbox::Sandbox sb(pol);
  GraphRuntime rt(figure1_graph(), reg(),
                  RuntimeOptions{.rng_seed = 1, .sandbox = &sb});
  EXPECT_THROW(rt.run(10), sandbox::SandboxViolation);
}

// ------------------------------------------------------ pure-unit memoization

/// Wave -> FFT -> AccumStat -> Grapher: FFT is the only kPure unit and it
/// never touches rng()/iteration(), so every FFT firing is memoizable.
TaskGraph fft_pipeline() {
  TaskGraph g("fftpipe");
  ParamSet wp;
  wp.set_double("freq", 50.0);
  wp.set_double("rate", 512.0);
  wp.set_int("samples", 256);
  g.add_task("Wave", "Wave", wp);
  g.add_task("FFT", "FFT");
  g.add_task("AccumStat", "AccumStat");
  g.add_task("Grapher", "Grapher");
  g.connect("Wave", 0, "FFT", 0);
  g.connect("FFT", 0, "AccumStat", 0);
  g.connect("AccumStat", 0, "Grapher", 0);
  return g;
}

TEST(RuntimeMemo, WarmRunReplaysWithZeroRecomputation) {
  cas::ContentStore store;
  RuntimeOptions memo_opt;
  memo_opt.memo_store = &store;

  // Reference: no memoization at all.
  GraphRuntime plain(fft_pipeline(), reg(), {});
  plain.run(5);

  // Cold run populates the store (every FFT firing misses, then stores).
  GraphRuntime cold(fft_pipeline(), reg(), memo_opt);
  cold.run(5);
  EXPECT_EQ(cold.memo_hits(), 0u);
  EXPECT_EQ(cold.memo_misses(), 5u);

  // Warm run: same graph, fresh runtime, shared store. Every pure firing
  // replays; outputs are bit-identical to recompute; visible stats match.
  GraphRuntime warm(fft_pipeline(), reg(), memo_opt);
  warm.run(5);
  EXPECT_EQ(warm.memo_hits(), 5u);
  EXPECT_EQ(warm.memo_misses(), 0u);
  EXPECT_EQ(warm.firings_of("FFT"), 5u);  // replay still counts as a firing
  EXPECT_EQ(warm.unit_as<GrapherUnit>("Grapher")->items(),
            plain.unit_as<GrapherUnit>("Grapher")->items());
  EXPECT_EQ(warm.stats(), plain.stats());
}

TEST(RuntimeMemo, RngDependentFiringsAreNeverStored) {
  cas::ContentStore store;
  RuntimeOptions memo_opt;
  memo_opt.memo_store = &store;

  // Gaussian declares kPure but draws from ctx.rng() each firing, so
  // nothing it does may be stored: replaying would skip RNG draws and
  // desynchronise the stream for later firings.
  TaskGraph g("noisy");
  ParamSet wp;
  wp.set_int("samples", 64);
  g.add_task("Wave", "Wave", wp);
  ParamSet gp;
  gp.set_double("stddev", 1.0);
  g.add_task("Gaussian", "Gaussian", gp);
  g.add_task("Grapher", "Grapher");
  g.connect("Wave", 0, "Gaussian", 0);
  g.connect("Gaussian", 0, "Grapher", 0);

  GraphRuntime plain(g, reg(), {});
  plain.run(4);
  GraphRuntime cold(g, reg(), memo_opt);
  cold.run(4);
  GraphRuntime warm(g, reg(), memo_opt);
  warm.run(4);

  EXPECT_EQ(warm.memo_hits(), 0u);  // nothing was ever stored
  // All three runs recompute and stay bit-identical -- memoization being
  // enabled must not disturb RNG streams.
  EXPECT_EQ(warm.unit_as<GrapherUnit>("Grapher")->items(),
            plain.unit_as<GrapherUnit>("Grapher")->items());
}

TEST(RuntimeMemo, SerialAndParallelShareMemoizedResults) {
  cas::ContentStore store;
  RuntimeOptions serial_opt;
  serial_opt.memo_store = &store;
  GraphRuntime cold(fft_pipeline(), reg(), serial_opt);
  cold.run(4);

  RuntimeOptions par_opt;
  par_opt.memo_store = &store;
  par_opt.max_threads = 4;
  GraphRuntime warm(fft_pipeline(), reg(), par_opt);
  warm.run(4);
  EXPECT_EQ(warm.memo_hits(), 4u);
  EXPECT_EQ(warm.memo_misses(), 0u);

  GraphRuntime plain(fft_pipeline(), reg(), {});
  plain.run(4);
  EXPECT_EQ(warm.unit_as<GrapherUnit>("Grapher")->items(),
            plain.unit_as<GrapherUnit>("Grapher")->items());
}

TEST(RuntimeMemo, KeyCoversParamsAndInputs) {
  cas::ContentStore store;
  RuntimeOptions memo_opt;
  memo_opt.memo_store = &store;

  auto scaled = [&](double factor) {
    TaskGraph g("scaled");
    ParamSet cp;
    cp.set_double("value", 2.0);
    g.add_task("C", "Constant", cp);
    ParamSet sp;
    sp.set_double("factor", factor);
    g.add_task("S", "Scaler", sp);
    g.add_task("Sink", "StatSink");
    g.connect("C", 0, "S", 0);
    g.connect("S", 0, "Sink", 0);
    GraphRuntime rt(g, reg(), memo_opt);
    rt.run(1);
    return rt.unit_as<StatSinkUnit>("Sink")->stats().mean();
  };

  // Same unit type, same input, different parameter: distinct memo entries.
  EXPECT_DOUBLE_EQ(scaled(3.0), 6.0);
  EXPECT_DOUBLE_EQ(scaled(5.0), 10.0);  // must not replay factor=3.0's entry
  EXPECT_DOUBLE_EQ(scaled(3.0), 6.0);   // and the 3.0 entry is still hit
}

TEST(RuntimeMemo, KeysArePinned) {
  // Memo keys are persisted in disk stores, so their bytes must never
  // drift: sha256(type, params, varint input count, varint length + bytes
  // per encoded input). One FFT firing of the pipeline (a 2 KB input, so
  // a two-byte length varint) and one Scaler firing, pinned by value.
  cas::ContentStore store;
  RuntimeOptions memo_opt;
  memo_opt.memo_store = &store;
  GraphRuntime fft(fft_pipeline(), reg(), memo_opt);
  fft.run(5);
  const auto fft_key = cas::Digest::from_hex(
      "07451bcb15b83ec9804925315c87260526e3d3858755e137fe041d128883598f");
  ASSERT_TRUE(fft_key.has_value());
  EXPECT_TRUE(store.get_ref(*fft_key).has_value());

  TaskGraph g("scaled");
  ParamSet cp;
  cp.set_double("value", 2.0);
  g.add_task("C", "Constant", cp);
  ParamSet sp;
  sp.set_double("factor", 3.0);
  g.add_task("S", "Scaler", sp);
  g.add_task("Sink", "StatSink");
  g.connect("C", 0, "S", 0);
  g.connect("S", 0, "Sink", 0);
  GraphRuntime scaled(g, reg(), memo_opt);
  scaled.run(1);
  const auto scaler_key = cas::Digest::from_hex(
      "54fe2568a958ab16e5fd37fad597eb5664957d7b5615f71fe38227c739a8ea26");
  ASSERT_TRUE(scaler_key.has_value());
  EXPECT_TRUE(store.get_ref(*scaler_key).has_value());
}

TEST(RuntimeMemo, EntryWithHugeCountIsRecomputedNotThrown) {
  cas::ContentStore store;
  RuntimeOptions memo_opt;
  memo_opt.memo_store = &store;

  TaskGraph g("scaled");
  ParamSet cp;
  cp.set_double("value", 2.0);
  g.add_task("C", "Constant", cp);
  ParamSet sp;
  sp.set_double("factor", 3.0);
  g.add_task("S", "Scaler", sp);
  g.add_task("Sink", "StatSink");
  g.connect("C", 0, "S", 0);
  g.connect("S", 0, "Sink", 0);

  // The Scaler firing's memo key: unit type + params + encoded inputs.
  serial::Writer kw;
  kw.string("Scaler");
  kw.varint(sp.raw().size());
  for (const auto& [k, v] : sp.raw()) {
    kw.string(k);
    kw.string(v);
  }
  kw.varint(1);
  kw.blob(encode_data_item(DataItem(2.0)));
  const cas::Digest key = cas::sha256(kw.bytes());

  GraphRuntime cold(g, reg(), memo_opt);
  cold.run(1);
  ASSERT_TRUE(store.get_by_key(key).has_value());  // the key is the real one

  // Replace the entry with an emission count of 2^62 and nothing behind
  // it: the replay must fail as a DecodeError and recompute.
  serial::Writer bad;
  bad.varint(1ull << 62);
  store.put_keyed(key, bad.bytes());

  GraphRuntime warm(g, reg(), memo_opt);
  ASSERT_NO_THROW(warm.run(1));
  EXPECT_DOUBLE_EQ(warm.unit_as<StatSinkUnit>("Sink")->stats().mean(), 6.0);
  EXPECT_EQ(warm.memo_hits(), 1u);    // Constant replays
  EXPECT_EQ(warm.memo_misses(), 1u);  // Scaler recomputes
  // Recomputing stored the honest record over the crafted one.
  EXPECT_NE(*store.get_by_key(key), bad.bytes());
}

}  // namespace
}  // namespace cg::core
