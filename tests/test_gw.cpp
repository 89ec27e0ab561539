// Tests for the gravitational-wave workload: chirp physics sanity, the
// template bank, the matched-filter search (detection + rejection), the
// paper's Case 2 arithmetic through the cost model, and the Triana units.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>

#include "apps/gw/units.hpp"
#include "core/engine/runtime.hpp"
#include "core/unit/builtin.hpp"
#include "dsp/stats.hpp"
#include "rm/thread_pool.hpp"

namespace cg::gw {
namespace {

ChirpParams small_chirp(double mc = 1.2) {
  ChirpParams p;
  p.chirp_mass_msun = mc;
  p.f_low_hz = 100.0;  // short waveform: fast tests
  p.f_high_hz = 900.0;
  p.sample_rate_hz = 2000.0;
  return p;
}

TEST(Chirp, TimeToCoalescenceDecreasesWithMass) {
  ChirpParams light = small_chirp(0.8);
  ChirpParams heavy = small_chirp(3.0);
  EXPECT_GT(time_to_coalescence_s(light), time_to_coalescence_s(heavy));
  EXPECT_GT(time_to_coalescence_s(light), 0.0);
}

TEST(Chirp, TimeToCoalescenceDropsWithHigherFlow) {
  ChirpParams lo = small_chirp();
  lo.f_low_hz = 50.0;
  ChirpParams hi = small_chirp();
  hi.f_low_hz = 200.0;
  EXPECT_GT(time_to_coalescence_s(lo), time_to_coalescence_s(hi));
}

TEST(Chirp, WaveformSweepsUpInFrequency) {
  const auto h = make_chirp(small_chirp());
  ASSERT_GT(h.size(), 100u);
  // Count zero crossings in the first and last quarters: the chirp's
  // frequency (hence crossing density) must increase.
  auto crossings = [&](std::size_t a, std::size_t b) {
    int c = 0;
    for (std::size_t i = a + 1; i < b; ++i) {
      if ((h[i - 1] < 0) != (h[i] < 0)) ++c;
    }
    return c;
  };
  const std::size_t q = h.size() / 4;
  EXPECT_GT(crossings(3 * q, 4 * q - 1), crossings(0, q));
}

TEST(Chirp, UnitPeakNormalisation) {
  const auto h = make_chirp(small_chirp());
  double peak = 0;
  for (double v : h) peak = std::max(peak, std::abs(v));
  EXPECT_NEAR(peak, 1.0, 1e-12);
}

TEST(Chirp, InvalidBandsRejected) {
  ChirpParams p = small_chirp();
  p.f_high_hz = p.f_low_hz;
  EXPECT_THROW(make_chirp(p), std::invalid_argument);
  p = small_chirp();
  p.f_high_hz = 2000.0;  // above Nyquist
  EXPECT_THROW(make_chirp(p), std::invalid_argument);
}

TEST(Chirp, DetectorSpecMatchesPaperNumbers) {
  DetectorSpec spec;  // defaults are the paper's
  EXPECT_EQ(spec.samples_per_chunk(), 1'800'000u);
  EXPECT_EQ(spec.chunk_bytes(), 7'200'000u);  // "7.2MB of data"
}

TEST(Bank, GeometricMassSpacing) {
  BankSpec spec;
  spec.n_templates = 11;
  EXPECT_DOUBLE_EQ(TemplateBank::chirp_mass_for(spec, 0),
                   spec.min_chirp_mass_msun);
  EXPECT_NEAR(TemplateBank::chirp_mass_for(spec, 10),
              spec.max_chirp_mass_msun, 1e-12);
  // Geometric: ratios between consecutive masses are equal.
  const double r1 = TemplateBank::chirp_mass_for(spec, 1) /
                    TemplateBank::chirp_mass_for(spec, 0);
  const double r2 = TemplateBank::chirp_mass_for(spec, 6) /
                    TemplateBank::chirp_mass_for(spec, 5);
  EXPECT_NEAR(r1, r2, 1e-12);
}

TEST(Bank, BuildsRequestedSize) {
  BankSpec spec;
  spec.n_templates = 8;
  spec.f_low_hz = 150.0;  // short templates
  TemplateBank bank(spec);
  EXPECT_EQ(bank.size(), 8u);
  EXPECT_GT(bank.total_bytes(), 0u);
  // Heavier templates are shorter (coalesce sooner from the same f_low).
  EXPECT_GT(bank.waveform(0).size(), bank.waveform(7).size());
}

TEST(Search, FindsInjectedChirp) {
  BankSpec spec;
  spec.n_templates = 16;
  spec.f_low_hz = 150.0;
  TemplateBank bank(spec);

  DetectorSpec det;
  dsp::Rng rng(11);
  const std::size_t inject_tmpl = 9;
  const std::size_t inject_at = 5000;
  auto data = make_strain_chunk(det, rng, &bank.params(inject_tmpl),
                                inject_at, 4.0, 1 << 15);

  const auto r = scan_chunk(data, bank, 0, bank.size());
  EXPECT_EQ(r.templates_scanned, 16u);
  EXPECT_TRUE(detected(r, 8.0));
  // The best template is at (or adjacent to) the injected one.
  EXPECT_NEAR(static_cast<double>(r.best_template),
              static_cast<double>(inject_tmpl), 1.0);
  EXPECT_NEAR(static_cast<double>(r.best_offset),
              static_cast<double>(inject_at), 16.0);
}

TEST(Search, NoiseOnlyStaysBelowThreshold) {
  BankSpec spec;
  spec.n_templates = 8;
  spec.f_low_hz = 150.0;
  TemplateBank bank(spec);
  DetectorSpec det;
  dsp::Rng rng(5);
  auto data = make_strain_chunk(det, rng, nullptr, 0, 0.0, 1 << 14);
  const auto r = scan_chunk(data, bank, 0, bank.size());
  EXPECT_FALSE(detected(r, 8.0));
  EXPECT_GT(r.best_snr, 0.0);
}

TEST(Search, SlicedScansCoverTheBank) {
  BankSpec spec;
  spec.n_templates = 12;
  spec.f_low_hz = 150.0;
  TemplateBank bank(spec);
  DetectorSpec det;
  dsp::Rng rng(3);
  auto data = make_strain_chunk(det, rng, &bank.params(7), 2000, 4.0, 1 << 14);

  // Whole-bank scan equals the max over three 4-template slices.
  const auto whole = scan_chunk(data, bank, 0, 12);
  SearchResult best;
  for (std::size_t s = 0; s < 3; ++s) {
    const auto r = scan_chunk(data, bank, s * 4, 4);
    if (r.best_snr > best.best_snr) best = r;
  }
  EXPECT_DOUBLE_EQ(best.best_snr, whole.best_snr);
  EXPECT_EQ(best.best_template, whole.best_template);
}

TEST(Search, BadRangeThrows) {
  BankSpec spec;
  spec.n_templates = 4;
  spec.f_low_hz = 200.0;
  TemplateBank bank(spec);
  std::vector<double> data(1024, 0.1);
  EXPECT_THROW(scan_chunk(data, bank, 10, 1), std::out_of_range);
}

TEST(Bank, KeepsEnergiesAndBlockLengthSpectra) {
  BankSpec spec;
  spec.n_templates = 5;
  spec.f_low_hz = 200.0;
  TemplateBank bank(spec);
  std::size_t longest = 0;
  for (std::size_t i = 0; i < bank.size(); ++i) {
    double energy = 0.0;
    for (double v : bank.waveform(i)) energy += v * v;
    EXPECT_EQ(bank.energy(i), energy);
    longest = std::max(longest, bank.waveform(i).size());
  }
  EXPECT_EQ(bank.longest(), longest);
  EXPECT_EQ(bank.block_length(), dsp::next_pow2(2 * longest));
  const auto& spectrum = bank.spectrum(3);
  EXPECT_EQ(spectrum.size(), bank.block_length() / 2 + 1);
  EXPECT_EQ(spectrum, dsp::rfft(bank.waveform(3), bank.block_length()));
  EXPECT_EQ(&bank.spectrum(3), &spectrum);  // built once, then kept
}

/// The definition scan_chunk implements: per template, time-domain linear
/// correlation over lags 0..N-1, peak |corr| / sqrt(energy), over sigma.
SearchResult direct_scan(const std::vector<double>& data,
                         const TemplateBank& bank, std::size_t first,
                         std::size_t count) {
  const std::size_t last = std::min(bank.size(), first + count);
  const double sigma = std::max(1e-12, dsp::rms(data));
  SearchResult r;
  for (std::size_t i = first; i < last; ++i) {
    const auto& tmpl = bank.waveform(i);
    double energy = 0.0;
    for (double v : tmpl) energy += v * v;
    const auto corr = dsp::direct_correlate(data, tmpl);
    for (std::size_t lag = 0; lag < corr.size(); ++lag) {
      const double snr = std::abs(corr[lag]) / std::sqrt(energy) / sigma;
      if (snr > r.best_snr) {
        r.best_snr = snr;
        r.best_template = i;
        r.best_offset = lag;
      }
    }
    ++r.templates_scanned;
  }
  return r;
}

void expect_same_match(const SearchResult& got, const SearchResult& want) {
  EXPECT_EQ(got.best_template, want.best_template);
  EXPECT_EQ(got.best_offset, want.best_offset);
  EXPECT_EQ(got.templates_scanned, want.templates_scanned);
  EXPECT_NEAR(got.best_snr / want.best_snr, 1.0, 1e-12);
}

class OverlapSave : public ::testing::Test {
 protected:
  OverlapSave() : bank_(make_spec()) {}
  static BankSpec make_spec() {
    BankSpec spec;
    spec.n_templates = 6;
    spec.f_low_hz = 200.0;
    return spec;
  }
  std::size_t step() const {
    return bank_.block_length() - bank_.longest() + 1;
  }
  std::vector<double> chunk(std::size_t n, std::uint64_t seed,
                            const ChirpParams* injection = nullptr,
                            std::size_t inject_at = 0) const {
    DetectorSpec det;
    dsp::Rng rng(seed);
    return make_strain_chunk(det, rng, injection, inject_at, 4.0, n);
  }
  TemplateBank bank_;
};

TEST_F(OverlapSave, TemplateLongerThanTheChunk) {
  const auto data = chunk(bank_.longest() / 2, 31);
  ASSERT_LT(data.size(), bank_.waveform(0).size());
  expect_same_match(scan_chunk(data, bank_, 0, bank_.size()),
                    direct_scan(data, bank_, 0, bank_.size()));
}

TEST_F(OverlapSave, ChunkShorterThanOneBlock) {
  // One block that holds the whole chunk, and one chunk just under a
  // block long that still needs a second block past the first step.
  for (std::size_t n : {step() - 1, bank_.block_length() - 100}) {
    SCOPED_TRACE(n);
    const auto data = chunk(n, 32 + n, &bank_.params(4), n / 3);
    expect_same_match(scan_chunk(data, bank_, 0, bank_.size()),
                      direct_scan(data, bank_, 0, bank_.size()));
  }
}

TEST_F(OverlapSave, ChunkLengthNotAMultipleOfTheStep) {
  // The longest template injected at the lags around block boundaries:
  // the last lag the first block owns, the first lag the second block
  // owns, and the last lag of the second block. A step one lag too long
  // would let the first block claim lag step() with a wrapped tail.
  const std::size_t odd = 3 * step() + 123;
  const std::size_t even = 2 * step();
  for (const auto& [n, at] : std::vector<std::pair<std::size_t, std::size_t>>{
           {odd, step() - 1},
           {odd, step()},
           {odd, 2 * step() - 1},
           {even, step() - 1},
           {even, step()}}) {
    SCOPED_TRACE(testing::Message() << "n " << n << " at " << at);
    const auto data = chunk(n, 33 + n + at, &bank_.params(0), at);
    const auto want = direct_scan(data, bank_, 0, bank_.size());
    EXPECT_EQ(want.best_offset, at);
    expect_same_match(scan_chunk(data, bank_, 0, bank_.size()), want);
  }
}

TEST_F(OverlapSave, SlicedRanges) {
  const auto data = chunk(2 * step() + 501, 34, &bank_.params(5), 900);
  for (const auto& [first, count] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 1}, {2, 3}, {5, 1}, {3, 100}}) {
    SCOPED_TRACE(first);
    expect_same_match(scan_chunk(data, bank_, first, count),
                      direct_scan(data, bank_, first, count));
  }
}

TEST(Search, MatchesPerTemplateMatchedFilterOnSeededChunks) {
  // The per-template path scan_chunk replaced: one matched_filter (its own
  // data, template and inverse transforms) per template.
  BankSpec spec;
  spec.n_templates = 8;
  spec.f_low_hz = 150.0;
  TemplateBank bank(spec);
  DetectorSpec det;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    dsp::Rng rng(seed);
    const std::size_t inject = seed % 2 ? seed % bank.size() : 0;
    const auto data = make_strain_chunk(det, rng, &bank.params(inject),
                                        (seed * 977) % 6000,
                                        seed % 2 ? 4.0 : 0.0, 8192);
    const double sigma = std::max(1e-12, dsp::rms(data));
    SearchResult want;
    for (std::size_t i = 0; i < bank.size(); ++i) {
      const auto m = dsp::matched_filter(data, bank.waveform(i));
      if (m.peak / sigma > want.best_snr) {
        want.best_snr = m.peak / sigma;
        want.best_template = i;
        want.best_offset = m.offset;
      }
      ++want.templates_scanned;
    }
    expect_same_match(scan_chunk(data, bank, 0, bank.size()), want);
  }
}

TEST(Search, ConcurrentScansOfOneBankMatchSerial) {
  // InspiralFilter is kPure, so scans may run on pool threads; the bank's
  // spectra are built on first use by whichever scan gets there first.
  BankSpec spec;
  spec.n_templates = 8;
  spec.f_low_hz = 150.0;
  TemplateBank bank(spec);
  DetectorSpec det;
  dsp::Rng rng(41);
  const auto data = make_strain_chunk(det, rng, &bank.params(6), 3000, 4.0,
                                      1 << 13);
  std::vector<SearchResult> results;
  {
    rm::ThreadPool pool(4);
    std::vector<std::future<SearchResult>> futures;
    for (std::size_t t = 0; t < 8; ++t) {
      futures.push_back(pool.submit(
          [&, t] { return scan_chunk(data, bank, t % 4, 5); }));
    }
    for (auto& f : futures) results.push_back(f.get());
  }
  for (std::size_t t = 0; t < results.size(); ++t) {
    const auto want = scan_chunk(data, bank, t % 4, 5);
    EXPECT_EQ(results[t].best_snr, want.best_snr) << t;
    EXPECT_EQ(results[t].best_template, want.best_template) << t;
    EXPECT_EQ(results[t].best_offset, want.best_offset) << t;
  }
}

TEST(CostModel, ReproducesPaperArithmetic) {
  CostModel cost;
  DetectorSpec det;
  // 7,500 templates, 900 s chunks, 2 GHz PC -> about 5 hours per chunk.
  const double secs =
      cost.chunk_seconds(7500, det.samples_per_chunk(), 2000.0);
  EXPECT_NEAR(secs / 3600.0, 5.0, 0.1);
  // "20 PC's would need to be employed full-time to keep up".
  const double pcs =
      cost.pcs_for_realtime(7500, det.chunk_seconds, det.samples_per_chunk(),
                            2000.0);
  EXPECT_NEAR(pcs, 20.0, 0.5);
  // Slower consumer boxes need proportionally more.
  EXPECT_NEAR(cost.pcs_for_realtime(7500, det.chunk_seconds,
                                    det.samples_per_chunk(), 1000.0),
              2.0 * pcs, 1.0);
}

TEST(Units, StrainSourcePlusFilterPipelineDetects) {
  core::UnitRegistry reg = core::UnitRegistry::with_builtins();
  register_gw_units(reg);

  core::TaskGraph g("inspiral");
  core::ParamSet sp;
  sp.set_int("samples", 16384);
  sp.set_int("inject_every", 2);  // every second chunk carries a signal
  sp.set_double("inject_amp", 4.0);
  sp.set_double("chirp_mass", 1.5);
  sp.set_double("f_low", 150.0);
  g.add_task("Source", "StrainSource", sp);

  core::ParamSet fp;
  fp.set_int("n_templates", 12);
  fp.set_double("f_low", 150.0);
  fp.set_double("min_mass", 0.8);
  fp.set_double("max_mass", 3.0);
  fp.set_double("threshold", 8.0);
  g.add_task("Filter", "InspiralFilter", fp);
  g.add_task("Snr", "StatSink");
  g.add_task("Hits", "StatSink");
  g.connect("Source", 0, "Filter", 0);
  g.connect("Filter", 0, "Snr", 0);
  g.connect("Filter", 1, "Hits", 0);

  core::GraphRuntime rt(g, reg, core::RuntimeOptions{.rng_seed = 2});
  rt.run(6);

  auto* hits = rt.unit_as<core::StatSinkUnit>("Hits");
  ASSERT_EQ(hits->stats().count(), 6u);
  // Injections on iterations 2, 4, 6 -> 3 detections of 6 chunks.
  EXPECT_DOUBLE_EQ(hits->stats().mean() * 6.0, 3.0);
}

TEST(Units, StrainSourceRejectsOutOfRangeParams) {
  auto configure_with = [](const char* key, long long v) {
    StrainSourceUnit unit;
    core::ParamSet p;
    p.set_int(key, v);
    unit.configure(p);
  };
  for (long long n : {-1LL, 0LL, core::kMaxSourceSamples + 1}) {
    EXPECT_THROW(configure_with("samples", n), std::invalid_argument) << n;
  }
  EXPECT_NO_THROW(configure_with("samples", 1));
  EXPECT_NO_THROW(configure_with("samples", core::kMaxSourceSamples));
  EXPECT_THROW(configure_with("inject_every", -1), std::invalid_argument);
  EXPECT_NO_THROW(configure_with("inject_every", 0));
  for (long long k : {-1LL, core::kMaxSourceSamples + 1}) {
    EXPECT_THROW(configure_with("inject_offset", k), std::invalid_argument)
        << k;
  }
  EXPECT_NO_THROW(configure_with("inject_offset", 0));
}

TEST(Units, InspiralFilterRejectsOutOfRangeParams) {
  // Each case sets n_templates, first and count; a small f_low keeps the
  // accepted banks cheap to build.
  auto configure_with = [](long long n, long long first, long long count) {
    InspiralFilterUnit unit;
    core::ParamSet p;
    p.set_double("f_low", 300.0);
    p.set_int("n_templates", n);
    p.set_int("first", first);
    p.set_int("count", count);
    unit.configure(p);
  };
  const long long kMax = InspiralFilterUnit::kMaxTemplates;
  for (long long n : {-1LL, 0LL, kMax + 1, 1LL << 40}) {
    EXPECT_THROW(configure_with(n, 0, 0), std::invalid_argument) << n;
  }
  EXPECT_THROW(configure_with(4, -1, 0), std::invalid_argument);
  EXPECT_THROW(configure_with(4, 4, 0), std::invalid_argument);
  EXPECT_THROW(configure_with(4, 0, -1), std::invalid_argument);
  EXPECT_THROW(configure_with(4, 0, 5), std::invalid_argument);
  try {
    configure_with(4, 2, 3);
    ADD_FAILURE() << "first + count > n_templates was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "InspiralFilter: count must be in [0, 2]");
  }
  EXPECT_NO_THROW(configure_with(4, 2, 2));
  EXPECT_NO_THROW(configure_with(4, 3, 0));
  EXPECT_NO_THROW(configure_with(1, 0, 1));
}

TEST(Units, FilterRejectsWrongInput) {
  core::UnitRegistry reg = core::UnitRegistry::with_builtins();
  register_gw_units(reg);
  auto unit = reg.create("InspiralFilter");
  core::ParamSet p;
  p.set_int("n_templates", 2);
  p.set_double("f_low", 300.0);
  unit->configure(p);
  dsp::Rng rng(1);
  core::ProcessContext ctx({core::DataItem(1.0)}, 1, &rng, nullptr);
  EXPECT_THROW(unit->process(ctx), std::invalid_argument);
}

}  // namespace
}  // namespace cg::gw
