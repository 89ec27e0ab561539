// E7 -- task-graph-as-text overhead.
//
// Paper (3.3): "Transmitting the connectivity graph to nodes has a limited
// overhead -- as the graph itself is a text file that does not consume many
// resources." We quantify it: XML document size and parse/serialise time
// for growing graphs, against the size of the *data* a single streaming
// iteration moves -- the graph is a one-off cost, the data is per item.
#include <chrono>
#include <cstdio>
#include <functional>

#include "core/graph/taskgraph_xml.hpp"
#include "core/types/data_item.hpp"

using namespace cg;

namespace {

core::TaskGraph chain_graph(std::size_t n_tasks) {
  core::TaskGraph g("chain");
  core::ParamSet wp;
  wp.set_int("samples", 512);
  g.add_task("t0", "Wave", wp);
  for (std::size_t i = 1; i < n_tasks; ++i) {
    core::ParamSet p;
    p.set_double("factor", 1.01);
    p.set_double("other", static_cast<double>(i));
    g.add_task(std::string("t").append(std::to_string(i)), "Scaler", p);
    g.connect(std::string("t").append(std::to_string(i - 1)), 0,
              std::string("t").append(std::to_string(i)), 0);
  }
  return g;
}

double ms_per_op(const std::function<void()>& op, int reps) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) op();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
             .count() /
         reps;
}

}  // namespace

int main() {
  std::printf("E7: task-graph transmission overhead (paper 3.3)\n\n");
  std::printf("%-8s %-11s %-12s %-12s %-18s\n", "tasks", "XML bytes",
              "write ms", "parse ms", "bytes/task");

  for (std::size_t n : {4u, 16u, 64u, 256u, 512u}) {
    const core::TaskGraph g = chain_graph(n);
    const std::string xml = core::write_taskgraph(g);
    const int reps = n >= 256 ? 20 : 200;
    const double wr = ms_per_op([&] {
      volatile std::size_t s = core::write_taskgraph(g).size();
      (void)s;
    }, reps);
    const double pr = ms_per_op([&] {
      volatile std::size_t s = core::parse_taskgraph(xml).tasks().size();
      (void)s;
    }, reps);
    std::printf("%-8zu %-11zu %-12.3f %-12.3f %-18.1f\n", n, xml.size(), wr,
                pr, static_cast<double>(xml.size()) / static_cast<double>(n));
  }

  // Compare with the data plane: what one iteration of typical payloads
  // costs *every* iteration.
  std::printf("\nper-iteration data payloads for comparison:\n");
  core::SampleSet chunk;
  chunk.sample_rate = 2000;
  chunk.samples.assign(1'800'000, 0.0);  // one GEO600 chunk
  core::ImageFrame frame;
  frame.width = frame.height = 128;
  frame.pixels.assign(128 * 128, 0.0);
  std::printf("  GEO600 chunk:   %10zu bytes (paper: 7.2 MB raw)\n",
              core::DataItem(chunk).byte_size());
  std::printf("  128x128 frame:  %10zu bytes\n",
              core::DataItem(frame).byte_size());

  std::printf(
      "\nShape check (paper): even a 512-task workflow serialises to tens "
      "of kB -- orders of magnitude below a single data chunk, and sent "
      "once per deployment rather than per iteration.\n");
  return 0;
}
