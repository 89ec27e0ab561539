// The benchmark's workloads and the driver that runs one of them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase
  bool trace = false;     ///< per-layer run instead of end-to-end
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Human-readable figures and ledgers, printed before the result line.
  std::vector<std::string> lines;
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Run one workload. Throws std::invalid_argument for an unknown name and
/// std::runtime_error when the stack cannot be set up.
Report run_workload(const RunConfig& cfg);

}  // namespace perfbench
