// congrid_e2e -- the end-to-end run ledger.
//
//   congrid_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload through the whole stack (controller, discovery,
// deploy and code fetch, pipes, GraphRuntime, sink), checks every result
// against an in-process oracle, and prints human-readable figures followed
// by one JSON line: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 a traced
// run prints the per-layer ledger and the per-layer metrics. Exit status
// is 0 only when every result was correct.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "obs/context.hpp"
#include "obs/json.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: congrid_e2e --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:");
  for (const auto& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

std::string json_string(const std::string& s) { return cg::obs::json_quote(s); }

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(key, "--workload") == 0) {
      cfg.workload = val;
    } else if (std::strcmp(key, "--seed") == 0) {
      cfg.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return usage();
    } else if (std::strcmp(key, "--seconds") == 0) {
      cfg.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(cfg.seconds > 0.0)) return usage();
    } else if (std::strcmp(key, "--trace") == 0) {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return usage();
      }
      cfg.trace = val[0] == '1';
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || cfg.workload.empty()) return usage();

  // Machine stamp: every output says where and how it was measured.
  const std::string build = PERFBENCH_BUILD_TYPE;
  std::printf(
      "machine: {\"nproc\":%u,\"compiler\":%s,\"build_type\":%s,"
      "\"congrid_obs\":%d,\"workload\":%s,\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d}\n",
      std::thread::hardware_concurrency(),
      json_string("gcc " __VERSION__).c_str(), json_string(build).c_str(),
      CONGRID_OBS_ENABLED, json_string(cfg.workload).c_str(),
      static_cast<unsigned long long>(cfg.seed), cfg.seconds,
      cfg.trace ? 1 : 0);
  if (build != "Release") {
    std::printf("WARNING: %s build; timings are not comparable with Release\n",
                build.c_str());
  }

  perfbench::Report rep;
  try {
    rep = perfbench::run_workload(cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "congrid_e2e: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "congrid_e2e: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const auto& line : rep.lines) std::printf("%s\n", line.c_str());
  std::string metrics;
  for (const auto& m : rep.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "congrid_e2e: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
    std::printf("%-32s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!metrics.empty()) metrics += ",";
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += json_string(m.name) + ":{\"value\":" + value +
               ",\"unit\":" + json_string(m.unit) + "}";
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              rep.correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed), metrics.c_str());
  return rep.correct ? 0 : 1;
}
