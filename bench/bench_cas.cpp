// E11 -- content-addressed artifact store: cold vs warm deploys and
// cross-run pure-unit memoization.
//
// Paper (3.3): dynamic download of code "allows the peer to only host code
// that is necessary". The CAS layer (DESIGN.md 4f) extends that idea across
// restarts: deploys advertise content digests, so a peer that already holds
// the advertised bytes -- in its module cache, its disk-backed store, or
// under another name -- starts the job without touching the network, and
// kPure unit firings recorded in the store replay instead of recomputing.
//
// Phases (rows keyed by "phase"):
//   cold       first deploy to workers with empty stores; pays the fetch
//   warm       same deploy after a simulated restart (new services, same
//              store directories); score = fetch-byte reduction vs cold
//   memo_cold  first run of a pure pipeline with memoization on
//   memo_warm  re-run after restart; score = % of memoizable firings
//              replayed from the store (100 = zero recomputation)
//
// The gate (scripts/bench_compare.py --key phase --metric score) checks the
// warm row's reduction factor and the memo_warm row's replay rate against
// bench/baselines/cas.json. The obs snapshot embedded in the JSON carries
// the per-phase runtime.memo_misses counters, so "zero recomputations" is
// verifiable from the artifact alone.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cas/store.hpp"
#include "core/service/service.hpp"
#include "core/unit/builtin.hpp"
#include "harness.hpp"
#include "net/sim_network.hpp"
#include "obs/obs.hpp"

using namespace cg;
using namespace cg::core;

namespace {

constexpr std::size_t kModuleBytes = 256 * 1024;
constexpr int kIterations = 32;

UnitRegistry& reg() {
  static UnitRegistry r = UnitRegistry::with_builtins();
  return r;
}

/// One controller + N workers, fully meshed over a simulated network.
/// Mirrors the integration-test fixture; each worker gets its own
/// ContentStore so per-peer hit counters stay meaningful.
struct Grid {
  Grid(std::size_t n_workers, obs::Registry& registry,
       const std::string& phase, std::vector<cas::ContentStore*> stores,
       bool memoize) {
    auto clock = net.clock();
    auto sched = net.scheduler();
    ServiceConfig home_cfg;
    home_cfg.peer_id = "home";
    home = std::make_unique<TrianaService>(net.add_node(), clock, sched,
                                           reg(), home_cfg);
    for (std::size_t i = 0; i < n_workers; ++i) {
      ServiceConfig cfg;
      cfg.peer_id = "worker-" + std::to_string(i);
      cfg.cas = i < stores.size() ? stores[i] : nullptr;
      cfg.memoize_pure_units = memoize;
      workers.push_back(std::make_unique<TrianaService>(
          net.add_node(), clock, sched, reg(), cfg));
      workers.back()->set_obs(registry, nullptr,
                              phase + "." + cfg.peer_id);
    }
    std::vector<TrianaService*> all{home.get()};
    for (auto& w : workers) all.push_back(w.get());
    for (auto* a : all) {
      for (auto* b : all) {
        if (a != b) a->node().add_neighbor(b->endpoint());
      }
      a->announce();
    }
  }

  /// Deploy `g` to every worker and run the network to quiescence.
  /// Returns the job ids, one per worker.
  std::vector<std::string> deploy_all(const TaskGraph& g, int iterations) {
    std::vector<std::string> ids;
    for (auto& w : workers) {
      ids.push_back(home->deploy_remote(
          w->endpoint(), g, iterations, [](const DeployAckMsg& a) {
            if (!a.ok) {
              std::fprintf(stderr, "bench_cas: deploy failed: %s\n",
                           a.error.c_str());
              std::exit(1);
            }
          }));
    }
    net.run_all();
    return ids;
  }

  net::SimNetwork net{net::LinkParams{}, 1};
  std::unique_ptr<TrianaService> home;
  std::vector<std::unique_ptr<TrianaService>> workers;
};

TaskGraph pure_pipeline() {
  TaskGraph g("e11");
  g.add_task("Wave", "Wave");
  g.add_task("FFT", "FFT");
  g.add_task("Peak", "SpectrumPeak");
  g.add_task("Sink", "NullSink");
  g.connect("Wave", 0, "FFT", 0);
  g.connect("FFT", 0, "Peak", 0);
  g.connect("Peak", 0, "Sink", 0);
  return g;
}

struct Row {
  std::string phase;
  std::uint64_t fetch_bytes = 0;     ///< code bytes received off the network
  std::uint64_t modules_fetched = 0;
  std::uint64_t modules_from_cas = 0;
  std::uint64_t firings = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  double elapsed_ms = 0;  ///< wall clock, workload execution only
  double score = 0;       ///< gated: see header comment
};

std::string rows_json(const std::vector<Row>& rows) {
  return bench::json_rows(rows, [](std::string& out, const Row& r) {
    out += "\"phase\":\"" + r.phase + "\"";
    out += ",\"fetch_bytes\":" + std::to_string(r.fetch_bytes);
    out += ",\"modules_fetched\":" + std::to_string(r.modules_fetched);
    out += ",\"modules_from_cas\":" + std::to_string(r.modules_from_cas);
    out += ",\"firings\":" + std::to_string(r.firings);
    out += ",\"memo_hits\":" + std::to_string(r.memo_hits);
    out += ",\"memo_misses\":" + std::to_string(r.memo_misses);
    out += ",\"elapsed_ms\":" + obs::json_number(r.elapsed_ms);
    out += ",\"score\":" + obs::json_number(r.score);
  });
}

/// Run one deploy phase: workers with disk stores rooted at
/// `root`/worker-<i>, deploy the pipeline everywhere, collect transfer and
/// memo counters.
Row run_phase(const std::string& phase, const std::filesystem::path& root,
              std::size_t n_workers, obs::Registry& registry, bool memoize) {
  std::vector<std::unique_ptr<cas::ContentStore>> stores;
  std::vector<cas::ContentStore*> ptrs;
  for (std::size_t i = 0; i < n_workers; ++i) {
    cas::CasConfig c;
    c.dir = (root / ("worker-" + std::to_string(i))).string();
    stores.push_back(std::make_unique<cas::ContentStore>(c));
    ptrs.push_back(stores.back().get());
  }

  Grid grid(n_workers, registry, phase, ptrs, memoize);
  const TaskGraph g = pure_pipeline();
  grid.home->publish_graph_modules(g, kModuleBytes);

  const auto t0 = std::chrono::steady_clock::now();
  const auto job_ids = grid.deploy_all(g, kIterations);
  const auto t1 = std::chrono::steady_clock::now();

  Row row;
  row.phase = phase;
  row.elapsed_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  for (std::size_t i = 0; i < n_workers; ++i) {
    auto& w = *grid.workers[i];
    row.fetch_bytes += w.code().stats().bytes_received;
    row.modules_fetched += w.stats().modules_fetched;
    // Store-satisfied modules arrive two ways: the module cache's
    // backing-store fallback (same name) and the service's digest lookup
    // (any name). Both are network bytes not fetched.
    row.modules_from_cas += w.stats().modules_from_cas +
                            w.module_cache().stats().backing_hits;
    if (auto* rt = w.job_runtime(job_ids[i])) {
      row.firings += rt->stats().firings;
      row.memo_hits += rt->memo_hits();
      row.memo_misses += rt->memo_misses();
    }
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench b("bench_cas");
  b.json_flag();
  if (!b.flags.parse(argc, argv)) return 2;

  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "congrid_bench_cas";
  fs::remove_all(root);

  std::printf("E11: content-addressed deploys and pure-unit memoization\n");
  std::printf("pipeline Wave->FFT->SpectrumPeak->NullSink, %zu kB/module, "
              "%d iterations\n\n",
              kModuleBytes / 1024, kIterations);

  obs::Registry registry;
  std::vector<Row> rows;

  // Deploy phases: 2 workers, memoization off -- isolate code transfer.
  const fs::path deploy_root = root / "deploy";
  Row cold = run_phase("cold", deploy_root, 2, registry, false);
  cold.score = 1.0;
  rows.push_back(cold);

  // "Restart": everything in memory is gone, the store directories remain.
  Row warm = run_phase("warm", deploy_root, 2, registry, false);
  warm.score = static_cast<double>(cold.fetch_bytes + 1) /
               static_cast<double>(warm.fetch_bytes + 1);
  rows.push_back(warm);

  // Memoization phases: 1 worker, memoization on, separate store.
  const fs::path memo_root = root / "memo";
  Row memo_cold = run_phase("memo_cold", memo_root, 1, registry, true);
  memo_cold.score = 1.0;
  rows.push_back(memo_cold);

  Row memo_warm = run_phase("memo_warm", memo_root, 1, registry, true);
  const auto memoizable = memo_warm.memo_hits + memo_warm.memo_misses;
  memo_warm.score = memoizable == 0
                        ? 0.0
                        : 100.0 * static_cast<double>(memo_warm.memo_hits) /
                              static_cast<double>(memoizable);
  rows.push_back(memo_warm);

  std::printf("%-10s %-12s %-9s %-9s %-9s %-7s %-7s %-10s %s\n", "phase",
              "fetch B", "fetched", "from-cas", "firings", "hits", "miss",
              "wall ms", "score");
  for (const Row& r : rows) {
    std::printf("%-10s %-12llu %-9llu %-9llu %-9llu %-7llu %-7llu %-10.2f "
                "%.1f\n",
                r.phase.c_str(),
                static_cast<unsigned long long>(r.fetch_bytes),
                static_cast<unsigned long long>(r.modules_fetched),
                static_cast<unsigned long long>(r.modules_from_cas),
                static_cast<unsigned long long>(r.firings),
                static_cast<unsigned long long>(r.memo_hits),
                static_cast<unsigned long long>(r.memo_misses), r.elapsed_ms,
                r.score);
  }
  std::printf(
      "\nShape check: the warm restart resolves every module from the disk "
      "tier (fetch B = 0, score = fetch-byte reduction factor); the "
      "memoized re-run replays every pure firing from the store "
      "(miss = 0, score = 100).\n");

  int rc = 0;
  if (warm.fetch_bytes != 0) {
    std::fprintf(stderr, "bench_cas: warm restart still fetched %llu bytes\n",
                 static_cast<unsigned long long>(warm.fetch_bytes));
    rc = 1;
  }
  if (memo_warm.memo_misses != 0) {
    std::fprintf(stderr, "bench_cas: memoized re-run recomputed %llu "
                 "firings\n",
                 static_cast<unsigned long long>(memo_warm.memo_misses));
    rc = 1;
  }

  if (!b.write_json("{\"bench\":\"cas\",\"iterations\":" +
                    std::to_string(kIterations) +
                    ",\"rows\":" + rows_json(rows) + ",\"metrics\":" +
                    registry.snapshot().to_json(/*pretty=*/false) + "}")) {
    rc = 1;
  }

  fs::remove_all(root);
  return rc;
}
