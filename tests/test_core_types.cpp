// Tests for the core data model and the built-in unit library: DataItem
// codec round-trips, unit behaviours and parameter handling.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/types/data_item.hpp"
#include "core/unit/builtin.hpp"
#include "core/unit/proxy_units.hpp"
#include "dsp/correlate.hpp"
#include "serial/reader.hpp"

namespace cg::core {
namespace {

DataItem roundtrip(const DataItem& item) {
  return decode_data_item(encode_data_item(item));
}

TEST(DataItem, TypesAndAccessors) {
  EXPECT_EQ(DataItem().type(), DataType::kEmpty);
  EXPECT_TRUE(DataItem().empty());
  EXPECT_EQ(DataItem(2.5).type(), DataType::kScalar);
  EXPECT_DOUBLE_EQ(DataItem(2.5).scalar(), 2.5);
  EXPECT_EQ(DataItem(std::int64_t{7}).integer(), 7);
  EXPECT_EQ(DataItem(std::string("hi")).text(), "hi");
  EXPECT_THROW(DataItem(2.5).text(), std::bad_variant_access);
}

TEST(DataItem, CodecRoundTripsEveryType) {
  EXPECT_EQ(roundtrip(DataItem()), DataItem());
  EXPECT_EQ(roundtrip(DataItem(3.25)), DataItem(3.25));
  EXPECT_EQ(roundtrip(DataItem(std::int64_t{-42})),
            DataItem(std::int64_t{-42}));
  EXPECT_EQ(roundtrip(DataItem(std::string("text payload"))),
            DataItem(std::string("text payload")));

  SampleSet s{2000.0, {1.0, -2.0, 3.0}};
  EXPECT_EQ(roundtrip(DataItem(s)), DataItem(s));

  SpectrumData sp{0.5, {0.1, 0.9, 0.3}};
  EXPECT_EQ(roundtrip(DataItem(sp)), DataItem(sp));

  ImageFrame f{2, 2, {1, 2, 3, 4}};
  EXPECT_EQ(roundtrip(DataItem(f)), DataItem(f));

  Table t{{"name", "value"}, {{"a", "1"}, {"b", "2"}}};
  EXPECT_EQ(roundtrip(DataItem(t)), DataItem(t));
}

/// Per-element reference encoder: builds the documented wire image one
/// byte at a time (little-endian fixed-width fields, LEB128 counts), with
/// no use of serial::Writer, so the bulk codec is checked against the format
/// itself.
struct ReferenceBytes {
  serial::Bytes b;
  void u8(std::uint8_t v) { b.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void f64(double d) {
    std::uint64_t v;
    std::memcpy(&v, &d, sizeof(v));
    for (int i = 0; i < 8; ++i) {
      b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      b.push_back(static_cast<std::uint8_t>(v) | 0x80u);
      v >>= 7;
    }
    b.push_back(static_cast<std::uint8_t>(v));
  }
  void f64s(const std::vector<double>& v) {
    varint(v.size());
    for (double d : v) f64(d);
  }
};

std::vector<double> ramp(std::size_t n, double scale) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = scale * std::sin(0.37 * static_cast<double>(i)) - 1e-3 * i;
  }
  return v;
}

TEST(DataItem, EncodingMatchesPerElementReference) {
  // 200 elements puts the f64 count in a two-byte varint, so the doubles
  // start at an odd offset after the header fields.
  const SampleSet s{2048.0, ramp(200, 3.0)};
  ReferenceBytes rs;
  rs.u8(static_cast<std::uint8_t>(DataType::kSampleSet));
  rs.f64(s.sample_rate);
  rs.f64s(s.samples);
  EXPECT_EQ(encode_data_item(DataItem(s)), rs.b);

  const SpectrumData sp{0.125, ramp(129, 1e6)};
  ReferenceBytes rsp;
  rsp.u8(static_cast<std::uint8_t>(DataType::kSpectrum));
  rsp.f64(sp.bin_width);
  rsp.f64s(sp.power);
  EXPECT_EQ(encode_data_item(DataItem(sp)), rsp.b);

  const ImageFrame f{16, 9, ramp(16 * 9, 0.5)};
  ReferenceBytes rf;
  rf.u8(static_cast<std::uint8_t>(DataType::kImage));
  rf.u32(f.width);
  rf.u32(f.height);
  rf.f64s(f.pixels);
  EXPECT_EQ(encode_data_item(DataItem(f)), rf.b);

  // And the decoder reads the reference bytes back to the same items.
  EXPECT_EQ(decode_data_item(rs.b), DataItem(s));
  EXPECT_EQ(decode_data_item(rsp.b), DataItem(sp));
  EXPECT_EQ(decode_data_item(rf.b), DataItem(f));
}

TEST(DataItem, CorruptImageRejected) {
  ImageFrame f{2, 2, {1, 2, 3, 4}};
  auto bytes = encode_data_item(DataItem(f));
  bytes[1] = 99;  // widen width without adding pixels
  EXPECT_THROW(decode_data_item(bytes), serial::DecodeError);
}

TEST(DataItem, TableArityMismatchRejectedOnEncode) {
  Table t{{"a", "b"}, {{"only-one"}}};
  EXPECT_THROW(encode_data_item(DataItem(t)), std::invalid_argument);
}

TEST(DataItem, ByteSizeTracksPayload) {
  SampleSet s{1.0, std::vector<double>(100, 0.0)};
  EXPECT_GE(DataItem(s).byte_size(), 800u);
  EXPECT_LT(DataItem(2.0).byte_size(), 16u);
}

TEST(DataItem, TypeNames) {
  EXPECT_EQ(data_type_name(DataType::kSampleSet), "sample-set");
  EXPECT_EQ(data_type_name(DataType::kEmpty), "empty");
}

// ------------------------------------------------------------------ units

ProcessContext make_ctx(std::vector<DataItem> inputs, dsp::Rng& rng,
                        std::uint64_t iteration = 1) {
  return ProcessContext(std::move(inputs), iteration, &rng, nullptr);
}

DataItem run_unit(Unit& u, std::vector<DataItem> inputs, dsp::Rng& rng,
                  std::size_t port = 0) {
  ProcessContext ctx = make_ctx(std::move(inputs), rng);
  u.process(ctx);
  for (auto& [p, item] : ctx.emissions()) {
    if (p == port) return item;
  }
  return {};
}

TEST(Units, WaveProducesConfiguredTone) {
  WaveUnit w;
  ParamSet p;
  p.set_double("freq", 8.0);
  p.set_double("rate", 64.0);
  p.set_int("samples", 64);
  w.configure(p);
  dsp::Rng rng(1);
  DataItem out = run_unit(w, {}, rng);
  ASSERT_EQ(out.type(), DataType::kSampleSet);
  const auto& s = out.samples();
  EXPECT_EQ(s.samples.size(), 64u);
  EXPECT_DOUBLE_EQ(s.sample_rate, 64.0);
  // 8 Hz at 64 S/s: period of 8 samples, starts at sin(0)=0.
  EXPECT_NEAR(s.samples[0], 0.0, 1e-12);
  EXPECT_NEAR(s.samples[2], 1.0, 1e-12);
}

TEST(Units, WavePhaseContinuesAcrossFirings) {
  WaveUnit w;
  ParamSet p;
  p.set_double("freq", 5.0);
  p.set_double("rate", 128.0);
  p.set_int("samples", 50);  // not a whole number of periods
  w.configure(p);
  dsp::Rng rng(1);
  auto first = run_unit(w, {}, rng).samples().samples;
  auto second = run_unit(w, {}, rng).samples().samples;
  // Continuity: second block starts where a 100-sample run would be.
  WaveUnit w2;
  ParamSet p2 = p;
  p2.set_int("samples", 100);
  w2.configure(p2);
  auto whole = run_unit(w2, {}, rng).samples().samples;
  for (int i = 0; i < 50; ++i) {
    EXPECT_NEAR(second[i], whole[50 + i], 1e-9) << i;
  }
}

TEST(Units, WaveStateRoundTrip) {
  WaveUnit a, b;
  ParamSet p;
  p.set_int("samples", 37);
  a.configure(p);
  b.configure(p);
  dsp::Rng rng(1);
  run_unit(a, {}, rng);
  b.restore_state(a.save_state());
  auto next_a = run_unit(a, {}, rng).samples().samples;
  auto next_b = run_unit(b, {}, rng).samples().samples;
  EXPECT_EQ(next_a, next_b);
}

TEST(Units, WaveRejectsUnknownShape) {
  WaveUnit w;
  ParamSet p;
  p.set("shape", "triangle");
  EXPECT_THROW(w.configure(p), std::invalid_argument);
}

TEST(Units, SquareAndSawShapes) {
  for (const char* shape : {"square", "saw"}) {
    WaveUnit w;
    ParamSet p;
    p.set("shape", shape);
    p.set_int("samples", 128);
    w.configure(p);
    dsp::Rng rng(1);
    auto s = run_unit(w, {}, rng).samples().samples;
    for (double v : s) {
      EXPECT_GE(v, -1.0 - 1e-9);
      EXPECT_LE(v, 1.0 + 1e-9);
    }
  }
}

TEST(Units, NoiseSourceIsDeterministicPerRngStream) {
  NoiseSourceUnit n;
  n.configure(ParamSet{});
  dsp::Rng rng1(5), rng2(5);
  auto a = run_unit(n, {}, rng1).samples().samples;
  NoiseSourceUnit n2;
  n2.configure(ParamSet{});
  auto b = run_unit(n2, {}, rng2).samples().samples;
  EXPECT_EQ(a, b);
}

/// Configure a fresh `U` with one integer param set to `v`.
template <typename U>
void configure_int(const char* key, long long v) {
  U unit;
  ParamSet p;
  p.set_int(key, v);
  unit.configure(p);
}

TEST(Units, WaveRejectsOutOfRangeSamples) {
  for (long long n : {-1LL, 0LL, kMaxSourceSamples + 1, 1LL << 62}) {
    EXPECT_THROW(configure_int<WaveUnit>("samples", n), std::invalid_argument)
        << n;
  }
  EXPECT_NO_THROW(configure_int<WaveUnit>("samples", 1));
  EXPECT_NO_THROW(configure_int<WaveUnit>("samples", kMaxSourceSamples));
}

TEST(Units, NoiseSourceRejectsOutOfRangeSamples) {
  for (long long n : {-512LL, 0LL, kMaxSourceSamples + 1}) {
    EXPECT_THROW(configure_int<NoiseSourceUnit>("samples", n),
                 std::invalid_argument)
        << n;
  }
  EXPECT_NO_THROW(configure_int<NoiseSourceUnit>("samples", 1));
  EXPECT_NO_THROW(
      configure_int<NoiseSourceUnit>("samples", kMaxSourceSamples));
}

TEST(Units, GaussianAddsNoiseOfRequestedLevel) {
  GaussianUnit g;
  ParamSet p;
  p.set_double("stddev", 0.5);
  g.configure(p);
  dsp::Rng rng(9);
  SampleSet clean{1024.0, std::vector<double>(4096, 0.0)};
  auto out = run_unit(g, {DataItem(clean)}, rng).samples();
  double var = 0;
  for (double v : out.samples) var += v * v;
  var /= static_cast<double>(out.samples.size());
  EXPECT_NEAR(std::sqrt(var), 0.5, 0.05);
}

TEST(Units, GaussianRejectsWrongType) {
  GaussianUnit g;
  g.configure(ParamSet{});
  dsp::Rng rng(1);
  EXPECT_THROW(run_unit(g, {DataItem(1.0)}, rng), std::invalid_argument);
}

TEST(Units, FftFindsTone) {
  WaveUnit w;
  ParamSet wp;
  wp.set_double("freq", 50.0);
  wp.set_double("rate", 512.0);
  wp.set_int("samples", 512);
  w.configure(wp);
  dsp::Rng rng(1);
  DataItem sig = run_unit(w, {}, rng);

  FftUnit f;
  f.configure(ParamSet{});
  DataItem spec = run_unit(f, {sig}, rng);
  ASSERT_EQ(spec.type(), DataType::kSpectrum);
  const auto& sp = spec.spectrum();
  std::size_t peak = 0;
  for (std::size_t i = 1; i < sp.power.size(); ++i) {
    if (sp.power[i] > sp.power[peak]) peak = i;
  }
  EXPECT_NEAR(static_cast<double>(peak) * sp.bin_width, 50.0, sp.bin_width);
}

TEST(Units, AccumStatConvergesToMean) {
  AccumStatUnit acc;
  dsp::Rng rng(3);
  DataItem out;
  for (int i = 0; i < 200; ++i) {
    SpectrumData sp;
    sp.bin_width = 1.0;
    sp.power = {rng.gaussian(5.0, 1.0), rng.gaussian(10.0, 1.0)};
    out = run_unit(acc, {DataItem(sp)}, rng);
  }
  ASSERT_EQ(out.type(), DataType::kSpectrum);
  EXPECT_NEAR(out.spectrum().power[0], 5.0, 0.3);
  EXPECT_NEAR(out.spectrum().power[1], 10.0, 0.3);
  EXPECT_EQ(acc.count(), 200u);
}

TEST(Units, AccumStatStateRoundTrip) {
  AccumStatUnit a;
  dsp::Rng rng(3);
  SpectrumData sp{1.0, {2.0, 4.0}};
  run_unit(a, {DataItem(sp)}, rng);
  run_unit(a, {DataItem(sp)}, rng);

  AccumStatUnit b;
  b.restore_state(a.save_state());
  EXPECT_EQ(b.count(), 2u);
  SpectrumData sp2{1.0, {8.0, 16.0}};
  auto out = run_unit(b, {DataItem(sp2)}, rng).spectrum();
  EXPECT_NEAR(out.power[0], (2 + 2 + 8) / 3.0, 1e-12);
}

TEST(Units, AccumStatRejectsLengthChange) {
  AccumStatUnit a;
  dsp::Rng rng(1);
  run_unit(a, {DataItem(SpectrumData{1.0, {1, 2}})}, rng);
  EXPECT_THROW(run_unit(a, {DataItem(SpectrumData{1.0, {1, 2, 3}})}, rng),
               std::invalid_argument);
}

TEST(Units, AccumStatWorksOnSampleSetsToo) {
  AccumStatUnit a;
  dsp::Rng rng(1);
  auto out = run_unit(a, {DataItem(SampleSet{10.0, {4.0}})}, rng);
  EXPECT_EQ(out.type(), DataType::kSampleSet);
  EXPECT_DOUBLE_EQ(out.samples().samples[0], 4.0);
}

TEST(Units, ScalerOffsetRectifierClipper) {
  dsp::Rng rng(1);
  SampleSet s{1.0, {-2.0, 0.5, 3.0}};

  ScalerUnit sc;
  ParamSet p1;
  p1.set_double("factor", 2.0);
  sc.configure(p1);
  EXPECT_EQ(run_unit(sc, {DataItem(s)}, rng).samples().samples,
            (std::vector<double>{-4.0, 1.0, 6.0}));

  OffsetUnit off;
  ParamSet p2;
  p2.set_double("offset", 1.0);
  off.configure(p2);
  EXPECT_EQ(run_unit(off, {DataItem(s)}, rng).samples().samples,
            (std::vector<double>{-1.0, 1.5, 4.0}));

  RectifierUnit rect;
  EXPECT_EQ(run_unit(rect, {DataItem(s)}, rng).samples().samples,
            (std::vector<double>{2.0, 0.5, 3.0}));

  ClipperUnit clip;
  ParamSet p3;
  p3.set_double("lo", -1.0);
  p3.set_double("hi", 1.0);
  clip.configure(p3);
  EXPECT_EQ(run_unit(clip, {DataItem(s)}, rng).samples().samples,
            (std::vector<double>{-1.0, 0.5, 1.0}));
}

TEST(Units, ScalerHandlesScalars) {
  ScalerUnit sc;
  ParamSet p;
  p.set_double("factor", 3.0);
  sc.configure(p);
  dsp::Rng rng(1);
  EXPECT_DOUBLE_EQ(run_unit(sc, {DataItem(2.0)}, rng).scalar(), 6.0);
}

TEST(Units, ClipperRejectsInvertedRange) {
  ClipperUnit clip;
  ParamSet p;
  p.set_double("lo", 2.0);
  p.set_double("hi", 1.0);
  EXPECT_THROW(clip.configure(p), std::invalid_argument);
}

TEST(Units, MovingAverageSmooths) {
  MovingAverageUnit ma;
  ParamSet p;
  p.set_int("window", 3);
  ma.configure(p);
  dsp::Rng rng(1);
  SampleSet s{1.0, {0, 3, 0, 3, 0}};
  auto out = run_unit(ma, {DataItem(s)}, rng).samples().samples;
  EXPECT_NEAR(out[2], 2.0, 1e-12);  // (3+0+3)/3
  EXPECT_NEAR(out[0], 1.5, 1e-12);  // (0+3)/2 at the edge
}

TEST(Units, SubsampleHalvesRateAndLength) {
  SubsampleUnit sub;
  ParamSet p;
  p.set_int("stride", 2);
  sub.configure(p);
  dsp::Rng rng(1);
  SampleSet s{100.0, {1, 2, 3, 4, 5}};
  auto out = run_unit(sub, {DataItem(s)}, rng).samples();
  EXPECT_EQ(out.samples, (std::vector<double>{1, 3, 5}));
  EXPECT_DOUBLE_EQ(out.sample_rate, 50.0);
}

TEST(Units, AdderAndMultiplier) {
  dsp::Rng rng(1);
  SampleSet a{1.0, {1, 2}}, b{1.0, {10, 20}};
  AdderUnit add;
  EXPECT_EQ(run_unit(add, {DataItem(a), DataItem(b)}, rng).samples().samples,
            (std::vector<double>{11, 22}));
  MultiplierUnit mul;
  EXPECT_EQ(run_unit(mul, {DataItem(a), DataItem(b)}, rng).samples().samples,
            (std::vector<double>{10, 40}));
  EXPECT_DOUBLE_EQ(
      run_unit(add, {DataItem(2.0), DataItem(3.0)}, rng).scalar(), 5.0);
}

TEST(Units, AdderRejectsMismatchedLengths) {
  AdderUnit add;
  dsp::Rng rng(1);
  EXPECT_THROW(run_unit(add,
                        {DataItem(SampleSet{1.0, {1}}),
                         DataItem(SampleSet{1.0, {1, 2}})},
                        rng),
               std::invalid_argument);
}

TEST(Units, CorrelatorEmitsSeriesAndPeak) {
  CorrelatorUnit corr;
  dsp::Rng rng(7);
  std::vector<double> tmpl(32);
  for (std::size_t i = 0; i < tmpl.size(); ++i) {
    tmpl[i] = std::sin(0.4 * static_cast<double>(i));
  }
  std::vector<double> data(512, 0.0);
  for (std::size_t i = 0; i < tmpl.size(); ++i) data[100 + i] = tmpl[i];

  ProcessContext ctx({DataItem(SampleSet{1.0, data}),
                      DataItem(SampleSet{1.0, tmpl})},
                     1, &rng, nullptr);
  corr.process(ctx);
  ASSERT_EQ(ctx.emissions().size(), 2u);
  const auto& series = ctx.emissions()[0].second.samples().samples;
  std::size_t best = 0;
  for (std::size_t i = 1; i < series.size(); ++i) {
    if (series[i] > series[best]) best = i;
  }
  EXPECT_EQ(best, 100u);
  EXPECT_GT(ctx.emissions()[1].second.scalar(), 0.0);
}

TEST(Units, CorrelatorPeakEqualsMatchedFilter) {
  // The peak is read off the emitted series, not from a second
  // correlation; it must be the very value matched_filter reports.
  CorrelatorUnit corr;
  dsp::Rng rng(9);
  std::vector<double> data(700), tmpl(45);
  for (double& v : data) v = rng.gaussian();
  for (double& v : tmpl) v = rng.gaussian();
  ProcessContext ctx({DataItem(SampleSet{1.0, data}),
                      DataItem(SampleSet{1.0, tmpl})},
                     1, &rng, nullptr);
  corr.process(ctx);
  ASSERT_EQ(ctx.emissions().size(), 2u);
  EXPECT_EQ(ctx.emissions()[1].second.scalar(),
            dsp::matched_filter(data, tmpl).peak);
}

TEST(Units, SpectrumPeakReportsFrequency) {
  SpectrumPeakUnit sp;
  dsp::Rng rng(1);
  SpectrumData d{2.0, {0.1, 0.2, 9.0, 0.1}};
  ProcessContext ctx({DataItem(d)}, 1, &rng, nullptr);
  sp.process(ctx);
  EXPECT_DOUBLE_EQ(ctx.emissions()[0].second.scalar(), 4.0);  // bin 2 * 2 Hz
  EXPECT_GT(ctx.emissions()[1].second.scalar(), 1.0);
}

TEST(Units, ThresholdTriggers) {
  ThresholdUnit t;
  ParamSet p;
  p.set_double("threshold", 2.0);
  t.configure(p);
  dsp::Rng rng(1);
  EXPECT_EQ(run_unit(t, {DataItem(SampleSet{1.0, {0.5, -3.0}})}, rng)
                .integer(),
            1);
  EXPECT_EQ(run_unit(t, {DataItem(1.5)}, rng).integer(), 0);
}

TEST(Units, CounterCountsAndRestores) {
  CounterUnit c;
  ParamSet p;
  p.set_int("start", 10);
  p.set_int("step", 5);
  c.configure(p);
  dsp::Rng rng(1);
  EXPECT_EQ(run_unit(c, {}, rng).integer(), 10);
  EXPECT_EQ(run_unit(c, {}, rng).integer(), 15);

  CounterUnit c2;
  c2.configure(p);
  c2.restore_state(c.save_state());
  EXPECT_EQ(run_unit(c2, {}, rng).integer(), 20);

  c.reset();
  EXPECT_EQ(run_unit(c, {}, rng).integer(), 10);
}

TEST(Units, DelayEmitsPreviousItem) {
  DelayUnit d;
  dsp::Rng rng(1);
  EXPECT_TRUE(run_unit(d, {DataItem(1.0)}, rng).empty());  // first: nothing
  EXPECT_DOUBLE_EQ(run_unit(d, {DataItem(2.0)}, rng).scalar(), 1.0);
  EXPECT_DOUBLE_EQ(run_unit(d, {DataItem(3.0)}, rng).scalar(), 2.0);

  // State survives checkpoint.
  DelayUnit d2;
  d2.restore_state(d.save_state());
  EXPECT_DOUBLE_EQ(run_unit(d2, {DataItem(9.0)}, rng).scalar(), 3.0);

  d.reset();
  EXPECT_TRUE(run_unit(d, {DataItem(5.0)}, rng).empty());
}

TEST(Units, IntegratorAccumulatesScalarsAndSamples) {
  IntegratorUnit u;
  dsp::Rng rng(1);
  EXPECT_DOUBLE_EQ(run_unit(u, {DataItem(2.0)}, rng).scalar(), 2.0);
  EXPECT_DOUBLE_EQ(run_unit(u, {DataItem(3.0)}, rng).scalar(), 5.0);

  IntegratorUnit v;
  SampleSet s{10.0, {1.0, 2.0}};
  run_unit(v, {DataItem(s)}, rng);
  auto out = run_unit(v, {DataItem(s)}, rng).samples();
  EXPECT_EQ(out.samples, (std::vector<double>{2.0, 4.0}));

  IntegratorUnit w;
  w.restore_state(v.save_state());
  auto out3 = run_unit(w, {DataItem(s)}, rng).samples();
  EXPECT_EQ(out3.samples, (std::vector<double>{3.0, 6.0}));

  EXPECT_THROW(run_unit(v, {DataItem(SampleSet{10.0, {1.0}})}, rng),
               std::invalid_argument);
  EXPECT_THROW(run_unit(v, {DataItem(std::string("x"))}, rng),
               std::invalid_argument);
}

TEST(Units, SinksCollect) {
  dsp::Rng rng(1);
  GrapherUnit g;
  run_unit(g, {DataItem(1.0)}, rng);
  run_unit(g, {DataItem(std::string("x"))}, rng);
  ASSERT_EQ(g.items().size(), 2u);
  EXPECT_EQ(g.items()[1].text(), "x");
  g.reset();
  EXPECT_TRUE(g.items().empty());

  StatSinkUnit st;
  run_unit(st, {DataItem(2.0)}, rng);
  run_unit(st, {DataItem(std::int64_t{4})}, rng);
  EXPECT_DOUBLE_EQ(st.stats().mean(), 3.0);

  NullSinkUnit nul;
  run_unit(nul, {DataItem(1.0)}, rng);
  EXPECT_EQ(nul.received(), 1u);
}

TEST(Units, SandboxCpuEnforcedThroughContext) {
  sandbox::Policy pol;
  pol.max_cpu_seconds = 1e-12;  // practically zero
  sandbox::Sandbox sb(pol);
  dsp::Rng rng(1);
  FftUnit f;
  f.configure(ParamSet{});
  SampleSet s{512.0, std::vector<double>(512, 1.0)};
  ProcessContext ctx({DataItem(s)}, 1, &rng, &sb);
  EXPECT_THROW(f.process(ctx), sandbox::SandboxViolation);
}

TEST(Units, ScatterRoundRobins) {
  ScatterUnit sc;
  ParamSet p;
  p.set("labels", "a,b,c");
  sc.configure(p);
  std::vector<std::string> order;
  sc.set_sender([&](const std::string& l, DataItem) { order.push_back(l); });
  dsp::Rng rng(1);
  for (int i = 0; i < 5; ++i) run_unit(sc, {DataItem(1.0)}, rng);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c", "a", "b"}));
}

TEST(Units, ScatterRequiresLabels) {
  ScatterUnit sc;
  EXPECT_THROW(sc.configure(ParamSet{}), std::invalid_argument);
}

TEST(Units, SendRequiresSenderAndLabel) {
  SendUnit s;
  EXPECT_THROW(s.configure(ParamSet{}), std::invalid_argument);
  ParamSet p;
  p.set("label", "ch");
  s.configure(p);
  dsp::Rng rng(1);
  EXPECT_THROW(run_unit(s, {DataItem(1.0)}, rng), std::logic_error);
}

TEST(Units, RegistryHasAllBuiltins) {
  UnitRegistry r = UnitRegistry::with_builtins();
  for (const char* name :
       {"Wave", "NoiseSource", "Constant", "Counter", "TextSource",
        "Gaussian", "FFT", "AccumStat", "Scaler", "Offset", "Rectifier",
        "Clipper", "MovingAverage", "Subsample", "Window", "LogScale",
        "Adder", "Multiplier", "Correlator", "SpectrumPeak", "Threshold",
        "Delay", "Integrator", "Grapher", "StatSink", "NullSink", "Send",
        "Receive", "Scatter", "Broadcast", "Vote"}) {
    EXPECT_TRUE(r.has(name)) << name;
    EXPECT_NE(r.create(name), nullptr) << name;
  }
  EXPECT_FALSE(r.has("Bogus"));
  EXPECT_THROW(r.create("Bogus"), std::out_of_range);
  EXPECT_GE(r.size(), 27u);
}

TEST(Units, UnitInfoXmlRoundTrip) {
  UnitInfo info = FftUnit::make_info();
  UnitInfo back = UnitInfo::from_xml(info.to_xml());
  EXPECT_EQ(back.type_name, info.type_name);
  EXPECT_EQ(back.package, info.package);
  EXPECT_EQ(back.inputs.size(), info.inputs.size());
  EXPECT_EQ(back.inputs[0].accepts, info.inputs[0].accepts);
  EXPECT_EQ(back.is_source, info.is_source);

  UnitInfo src = WaveUnit::make_info();
  EXPECT_TRUE(UnitInfo::from_xml(src.to_xml()).is_source);
}

TEST(Params, TypedAccessAndErrors) {
  ParamSet p;
  p.set("s", "hello");
  p.set_double("d", 2.5);
  p.set_int("i", -3);
  p.set("b", "true");
  EXPECT_EQ(p.get("s", ""), "hello");
  EXPECT_DOUBLE_EQ(p.get_double("d", 0), 2.5);
  EXPECT_EQ(p.get_int("i", 0), -3);
  EXPECT_TRUE(p.get_bool("b", false));
  EXPECT_EQ(p.get("missing", "dflt"), "dflt");
  p.set("bad", "xyz");
  EXPECT_THROW(p.get_double("bad", 0), std::invalid_argument);
  EXPECT_THROW(p.get_int("bad", 0), std::invalid_argument);
  EXPECT_THROW(p.get_bool("bad", false), std::invalid_argument);
}

}  // namespace
}  // namespace cg::core
