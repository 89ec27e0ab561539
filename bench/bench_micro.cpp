// M1 -- substrate micro-benchmarks (google-benchmark).
//
// Sanity numbers behind the experiment harnesses: complex and real FFT,
// fast-vs-direct correlation (the inspiral kernel), DataItem and frame
// codecs, CRC-32, XML task-graph parsing, simulated-network event
// throughput, and chirp/SPH generation costs.
#include <benchmark/benchmark.h>

#include "apps/gw/chirp.hpp"
#include "core/graph/taskgraph_xml.hpp"
#include "core/types/data_item.hpp"
#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"
#include "dsp/rng.hpp"
#include "net/sim_network.hpp"
#include "serial/crc32.hpp"
#include "serial/frame.hpp"

using namespace cg;

namespace {

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
  dsp::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.gaussian();
  return v;
}

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto sig = random_signal(n, 1);
  std::vector<dsp::Complex> a(n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) a[i] = sig[i];
    dsp::fft(a);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

/// The same real signals through the half-size real transform: one n/2
/// complex FFT plus the split step, against BM_Fft's full n-point one.
void BM_Rfft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto sig = random_signal(n, 1);
  for (auto _ : state) {
    auto half = dsp::rfft(sig, n);
    benchmark::DoNotOptimize(half.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Rfft)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_FastCorrelate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto data = random_signal(n, 1);
  auto tmpl = random_signal(512, 2);
  for (auto _ : state) {
    auto r = dsp::fast_correlate(data, tmpl);
    benchmark::DoNotOptimize(r.data());
  }
}
BENCHMARK(BM_FastCorrelate)->Arg(1 << 12)->Arg(1 << 16);

void BM_DirectCorrelate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto data = random_signal(n, 1);
  auto tmpl = random_signal(512, 2);
  for (auto _ : state) {
    auto r = dsp::direct_correlate(data, tmpl);
    benchmark::DoNotOptimize(r.data());
  }
}
BENCHMARK(BM_DirectCorrelate)->Arg(1 << 12)->Arg(1 << 16);

void BM_ChirpGeneration(benchmark::State& state) {
  gw::ChirpParams p;
  p.f_low_hz = 100.0;
  for (auto _ : state) {
    auto h = gw::make_chirp(p);
    benchmark::DoNotOptimize(h.data());
  }
}
BENCHMARK(BM_ChirpGeneration);

void BM_DataItemCodec(benchmark::State& state) {
  core::SampleSet s;
  s.sample_rate = 2000;
  s.samples = random_signal(static_cast<std::size_t>(state.range(0)), 3);
  const core::DataItem item(s);
  for (auto _ : state) {
    auto bytes = core::encode_data_item(item);
    auto back = core::decode_data_item(bytes);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(item.byte_size()));
}
BENCHMARK(BM_DataItemCodec)->Arg(1 << 10)->Arg(1 << 16);

void BM_FrameEncodeDecode(benchmark::State& state) {
  serial::Frame f;
  f.type = serial::FrameType::kData;
  f.payload.assign(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    auto wire = serial::encode_frame(f);
    serial::FrameDecoder d;
    d.feed(wire);
    auto out = d.next();
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FrameEncodeDecode)->Arg(1 << 10)->Arg(1 << 20);

void BM_Crc32(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  serial::Bytes data(n);
  dsp::Rng rng(4);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(serial::crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1 << 10)->Arg(1 << 20);

void BM_TaskGraphParse(benchmark::State& state) {
  core::TaskGraph g("bench");
  core::ParamSet wp;
  g.add_task("t0", "Wave", wp);
  for (int i = 1; i < state.range(0); ++i) {
    g.add_task(std::string("t").append(std::to_string(i)), "Scaler", wp);
    g.connect(std::string("t").append(std::to_string(i - 1)), 0,
              std::string("t").append(std::to_string(i)), 0);
  }
  const std::string xml = core::write_taskgraph(g);
  for (auto _ : state) {
    auto back = core::parse_taskgraph(xml);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(xml.size()));
}
BENCHMARK(BM_TaskGraphParse)->Arg(16)->Arg(128);

void BM_SimNetworkMessageRate(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    net::SimNetwork net({}, 1);
    auto& a = net.add_node();
    auto& b = net.add_node();
    int got = 0;
    b.set_handler([&](const net::Endpoint&, serial::Frame) { ++got; });
    serial::Frame f;
    f.type = serial::FrameType::kData;
    f.payload.assign(64, 1);
    state.ResumeTiming();
    for (int i = 0; i < 10000; ++i) a.send(b.local(), f);
    net.run_all();
    benchmark::DoNotOptimize(got);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_SimNetworkMessageRate);

}  // namespace

BENCHMARK_MAIN();
