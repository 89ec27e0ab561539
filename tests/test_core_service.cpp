// Integration tests: TrianaService + TrianaController over the simulated
// network -- deploy with on-demand code download, pipe-wired distributed
// execution (farm and pipeline), billing, certification, discovery-driven
// worker selection, status, cancellation, checkpoint and migration.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <optional>
#include <set>

#include "cas/store.hpp"
#include "core/graph/taskgraph_xml.hpp"
#include "core/service/controller.hpp"
#include "core/unit/builtin.hpp"
#include "net/sim_network.hpp"
#include "repo/artifact.hpp"

namespace cg::core {
namespace {

UnitRegistry& reg() {
  static UnitRegistry r = UnitRegistry::with_builtins();
  return r;
}

/// A simulated consumer grid: one controller peer + N worker services,
/// fully meshed as overlay neighbours.
struct Grid {
  explicit Grid(std::size_t n_workers, ServiceConfig worker_cfg = {},
                net::LinkParams lp = {})
      : net(lp, 1) {
    auto clock = [this] { return net.now(); };
    auto sched = [this](double d, std::function<void()> fn) {
      net.schedule(d, std::move(fn));
    };
    ServiceConfig home_cfg;
    home_cfg.peer_id = "home";
    home =
        std::make_unique<TrianaService>(net.add_node(), clock, sched, reg(),
                                        home_cfg);
    for (std::size_t i = 0; i < n_workers; ++i) {
      ServiceConfig cfg = worker_cfg;
      cfg.peer_id = "worker-" + std::to_string(i);
      workers.push_back(std::make_unique<TrianaService>(
          net.add_node(), clock, sched, reg(), cfg));
    }
    // Full mesh overlay.
    auto all = [&]() {
      std::vector<TrianaService*> v{home.get()};
      for (auto& w : workers) v.push_back(w.get());
      return v;
    }();
    for (auto* a : all) {
      for (auto* b : all) {
        if (a != b) a->node().add_neighbor(b->endpoint());
      }
      a->announce();
    }
  }

  std::vector<net::Endpoint> worker_endpoints() const {
    std::vector<net::Endpoint> out;
    for (const auto& w : workers) out.push_back(w->endpoint());
    return out;
  }

  net::SimNetwork net;
  std::unique_ptr<TrianaService> home;
  std::vector<std::unique_ptr<TrianaService>> workers;
};

/// Wave -> [Gaussian -> FFT] -> AccumStat -> Grapher with the middle
/// grouped for distribution.
TaskGraph grouped_figure1(const std::string& policy) {
  TaskGraph inner("inner");
  ParamSet gp;
  gp.set_double("stddev", 1.0);
  inner.add_task("Gaussian", "Gaussian", gp);
  inner.add_task("FFT", "FFT");
  inner.connect("Gaussian", 0, "FFT", 0);

  TaskGraph g("fig1");
  ParamSet wp;
  wp.set_double("amplitude", 0.3);
  g.add_task("Wave", "Wave", wp);
  TaskDef& grp = g.add_group("G", std::move(inner), policy);
  grp.group_inputs = {GroupPort{"Gaussian", 0}};
  grp.group_outputs = {GroupPort{"FFT", 0}};
  g.add_task("AccumStat", "AccumStat");
  g.add_task("Grapher", "Grapher");
  g.connect("Wave", 0, "G", 0);
  g.connect("G", 0, "AccumStat", 0);
  g.connect("AccumStat", 0, "Grapher", 0);
  return g;
}

TEST(Service, LocalDeployRunsWholeGraph) {
  Grid grid(0);
  TaskGraph g = grouped_figure1("parallel");  // groups flatten locally
  const std::string job = grid.home->deploy_local(g, 5);
  auto* rt = grid.home->job_runtime(job);
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->unit_as<GrapherUnit>("Grapher")->items().size(), 5u);
  EXPECT_FALSE(grid.home->job_failed(job));
}

TEST(Service, LocalDeployBadGraphThrows) {
  Grid grid(0);
  TaskGraph g("bad");
  g.add_task("X", "NoSuchUnit");
  EXPECT_THROW(grid.home->deploy_local(g, 1), std::invalid_argument);
  EXPECT_EQ(grid.home->job_count(), 0u);
}

TEST(Service, RemoteDeployFetchesCodeOnDemand) {
  Grid grid(1);

  TaskGraph simple("remote");
  simple.add_task("Wave", "Wave");
  simple.add_task("Sink", "NullSink");
  simple.connect("Wave", 0, "Sink", 0);
  grid.home->publish_graph_modules(simple, 4096);

  bool acked = false;
  DeployAckMsg got;
  grid.home->deploy_remote(grid.workers[0]->endpoint(), simple, 3,
                           [&](const DeployAckMsg& a) {
                             acked = true;
                             got = a;
                           });
  grid.net.run_all();
  ASSERT_TRUE(acked);
  EXPECT_TRUE(got.ok) << got.error;
  // Worker fetched Wave and NullSink artifacts from home.
  EXPECT_EQ(grid.workers[0]->stats().modules_fetched, 2u);
  EXPECT_TRUE(grid.workers[0]->module_cache().contains("Wave"));
  EXPECT_TRUE(grid.workers[0]->module_cache().is_pinned("Wave"));
  EXPECT_EQ(grid.home->code().stats().requests_served, 2u);
  // The job ran its 3 iterations on the worker.
  auto* rt = grid.workers[0]->job_runtime(got.job_id);
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->iteration(), 3u);
}

TEST(Service, DuplicateDeployIsReAckedNotReExecuted) {
  Grid grid(1);
  TaskGraph simple("dup");
  simple.add_task("Wave", "Wave");
  simple.add_task("Sink", "NullSink");
  simple.connect("Wave", 0, "Sink", 0);
  grid.home->publish_graph_modules(simple, 4096);

  int acks = 0;
  const std::string job = grid.home->deploy_remote(
      grid.workers[0]->endpoint(), simple, 3,
      [&](const DeployAckMsg& a) {
        ++acks;
        EXPECT_TRUE(a.ok) << a.error;
      });
  grid.net.run_all();
  ASSERT_EQ(acks, 1);
  ASSERT_EQ(grid.workers[0]->stats().jobs_started, 1u);

  // Replay the deploy verbatim -- as a retransmission that slipped past
  // the reliable layer's dedup window would. Each reliable send gets a
  // fresh message id, so only the service-level idempotence guard stands
  // between this and a second execution.
  DeployMsg m;
  m.job_id = job;
  m.owner = grid.home->id();
  m.owner_endpoint = grid.home->endpoint();
  m.iterations = 3;
  m.graph_xml = write_taskgraph(simple, false);
  grid.home->reliable().send(grid.workers[0]->endpoint(), encode(m));
  grid.net.run_all();

  EXPECT_EQ(grid.workers[0]->stats().jobs_started, 1u);  // not re-run
  EXPECT_EQ(grid.workers[0]->stats().duplicate_deploys, 1u);
  EXPECT_EQ(grid.workers[0]->job_count(), 1u);
  auto* rt = grid.workers[0]->job_runtime(job);
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->iteration(), 3u);  // still only the first run's work
}

TEST(Service, DeployFailsWhenOwnerLacksModule) {
  Grid grid(1);
  TaskGraph simple("remote");
  simple.add_task("Wave", "Wave");
  simple.add_task("Sink", "NullSink");
  simple.connect("Wave", 0, "Sink", 0);
  // Home never published modules.
  DeployAckMsg got;
  grid.home->deploy_remote(grid.workers[0]->endpoint(), simple, 1,
                           [&](const DeployAckMsg& a) { got = a; });
  grid.net.run_all();
  EXPECT_FALSE(got.ok);
  EXPECT_NE(got.error.find("no module"), std::string::npos);
}

TEST(Service, DeployFailsWhenFetchDisabled) {
  ServiceConfig cfg;
  cfg.fetch_code_on_demand = false;
  Grid grid(1, cfg);
  TaskGraph simple("remote");
  simple.add_task("Wave", "Wave");
  simple.add_task("Sink", "NullSink");
  simple.connect("Wave", 0, "Sink", 0);
  grid.home->publish_graph_modules(simple);
  DeployAckMsg got;
  grid.home->deploy_remote(grid.workers[0]->endpoint(), simple, 1,
                           [&](const DeployAckMsg& a) { got = a; });
  grid.net.run_all();
  EXPECT_FALSE(got.ok);
  EXPECT_NE(got.error.find("on-demand fetch is disabled"), std::string::npos);
}

TEST(Service, CertifiedLibraryGatesExecution) {
  // Worker policy: certified modules only; library empty -> reject.
  static sandbox::CertifiedLibrary library;
  ServiceConfig cfg;
  cfg.sandbox_policy.certified_modules_only = true;
  cfg.certified_library = &library;
  Grid grid(1, cfg);

  TaskGraph simple("remote");
  simple.add_task("Wave", "Wave");
  simple.add_task("Sink", "NullSink");
  simple.connect("Wave", 0, "Sink", 0);
  grid.home->publish_graph_modules(simple);

  DeployAckMsg got;
  grid.home->deploy_remote(grid.workers[0]->endpoint(), simple, 1,
                           [&](const DeployAckMsg& a) { got = a; });
  grid.net.run_all();
  EXPECT_FALSE(got.ok);
  EXPECT_NE(got.error.find("certified"), std::string::npos);

  // Certify exactly those modules -> accepted.
  library.certify(
      repo::make_synthetic_artifact("Wave", "1.0", 8192).content_hash());
  library.certify(
      repo::make_synthetic_artifact("NullSink", "1.0", 8192).content_hash());
  DeployAckMsg got2;
  grid.home->deploy_remote(grid.workers[0]->endpoint(), simple, 1,
                           [&](const DeployAckMsg& a) { got2 = a; });
  grid.net.run_all();
  EXPECT_TRUE(got2.ok) << got2.error;
}

TEST(Service, BillingSettlesOnCancel) {
  Grid grid(1);
  TaskGraph simple("remote");
  simple.add_task("Wave", "Wave");
  simple.add_task("FFT", "FFT");
  simple.add_task("Sink", "NullSink");
  simple.connect("Wave", 0, "FFT", 0);
  simple.connect("FFT", 0, "Sink", 0);
  grid.home->publish_graph_modules(simple);

  DeployAckMsg got;
  grid.home->deploy_remote(grid.workers[0]->endpoint(), simple, 10,
                           [&](const DeployAckMsg& a) { got = a; });
  grid.net.run_all();
  ASSERT_TRUE(got.ok);

  grid.home->cancel_remote(grid.workers[0]->endpoint(), got.job_id);
  grid.net.run_all();
  EXPECT_EQ(grid.workers[0]->job_count(), 0u);
  const auto totals = grid.workers[0]->account().ledger().totals_for("home");
  EXPECT_EQ(totals.executions, 1u);
  EXPECT_GT(totals.cpu_seconds, 0.0);  // FFT charged its cost model
  // Pinned modules were released on cancel.
  EXPECT_FALSE(grid.workers[0]->module_cache().is_pinned("FFT"));
}

TEST(Service, StatusReporting) {
  Grid grid(1);
  TaskGraph simple("remote");
  simple.add_task("Wave", "Wave");
  simple.add_task("Sink", "NullSink");
  simple.connect("Wave", 0, "Sink", 0);
  grid.home->publish_graph_modules(simple);
  DeployAckMsg got;
  grid.home->deploy_remote(grid.workers[0]->endpoint(), simple, 7,
                           [&](const DeployAckMsg& a) { got = a; });
  grid.net.run_all();
  ASSERT_TRUE(got.ok);

  StatusMsg status;
  grid.home->request_status(grid.workers[0]->endpoint(), got.job_id,
                            [&](const StatusMsg& s) { status = s; });
  grid.net.run_all();
  EXPECT_TRUE(status.known);
  EXPECT_TRUE(status.running);
  EXPECT_EQ(status.iteration, 7u);

  StatusMsg missing;
  grid.home->request_status(grid.workers[0]->endpoint(), "nope",
                            [&](const StatusMsg& s) { missing = s; });
  grid.net.run_all();
  EXPECT_FALSE(missing.known);
}

TEST(Controller, ParallelFarmOverSimNetwork) {
  Grid grid(3);
  TaskGraph g = grouped_figure1("parallel");
  grid.home->publish_graph_modules(g);

  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "G", grid.worker_endpoints());
  grid.net.run_all();
  ASSERT_TRUE(run->all_acked());
  EXPECT_TRUE(run->deployed_ok()) << (run->errors.empty() ? "" : run->errors[0]);

  const int kIters = 12;
  ctl.tick(*run, kIters);
  grid.net.run_all();

  GraphRuntime* home_rt = ctl.home_runtime(*run);
  ASSERT_NE(home_rt, nullptr);
  auto* grapher = home_rt->unit_as<GrapherUnit>("Grapher");
  ASSERT_EQ(grapher->items().size(), static_cast<std::size_t>(kIters));

  // Farm really spread: each worker's job fired Gaussian 4 times.
  for (std::size_t i = 0; i < grid.workers.size(); ++i) {
    EXPECT_EQ(run->remote_jobs[i].empty(), false);
    auto* wrt = grid.workers[i]->job_runtime(run->remote_jobs[i]);
    ASSERT_NE(wrt, nullptr) << i;
    EXPECT_EQ(wrt->firings_of("Gaussian"), 4u) << i;
  }

  // The distributed result still shows the Figure-2 effect.
  const auto& first = grapher->items().front().spectrum().power;
  const auto& last = grapher->items().back().spectrum().power;
  (void)first;
  (void)last;
  EXPECT_EQ(grapher->items().back().type(), DataType::kSpectrum);

  ctl.shutdown(*run);
  grid.net.run_all();
  for (auto& w : grid.workers) EXPECT_EQ(w->job_count(), 0u);
}

TEST(Controller, PipelineOverSimNetwork) {
  Grid grid(2);
  TaskGraph g = grouped_figure1("p2p");
  grid.home->publish_graph_modules(g);

  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "G", grid.worker_endpoints());
  grid.net.run_all();
  ASSERT_TRUE(run->deployed_ok())
      << (run->errors.empty() ? "" : run->errors[0]);

  ctl.tick(*run, 6);
  grid.net.run_all();

  auto* grapher = ctl.home_runtime(*run)->unit_as<GrapherUnit>("Grapher");
  ASSERT_EQ(grapher->items().size(), 6u);

  // Stage 0 ran Gaussian only, stage 1 FFT only.
  auto* rt0 = grid.workers[0]->job_runtime(run->remote_jobs[0]);
  auto* rt1 = grid.workers[1]->job_runtime(run->remote_jobs[1]);
  ASSERT_NE(rt0, nullptr);
  ASSERT_NE(rt1, nullptr);
  EXPECT_EQ(rt0->firings_of("Gaussian"), 6u);
  EXPECT_EQ(rt1->firings_of("FFT"), 6u);
}

TEST(Controller, DiscoveryFindsCapableWorkers) {
  Grid grid(4);
  // Give two workers beefier adverts.
  // (Adverts were announced in the fixture with default cpu_mhz=2000.)
  p2p::Query q;
  q.kind = p2p::AdvertKind::kPeer;
  q.require_min["cpu_mhz"] = 1000.0;

  TrianaController ctl(*grid.home);
  std::vector<net::Endpoint> found;
  ctl.discover_workers(q, /*ttl=*/2, /*want=*/8, /*timeout_s=*/5.0,
                       [&](std::vector<net::Endpoint> eps) {
                         found = std::move(eps);
                       });
  grid.net.run_all();
  EXPECT_EQ(found.size(), 4u);  // all workers, self excluded
  for (const auto& e : found) EXPECT_NE(e, grid.home->endpoint());
}

TEST(Controller, DiscoveryRespectsConstraints) {
  Grid grid(2);
  p2p::Query q;
  q.kind = p2p::AdvertKind::kPeer;
  q.require_min["cpu_mhz"] = 999999.0;  // nobody qualifies
  TrianaController ctl(*grid.home);
  std::vector<net::Endpoint> found{net::Endpoint{"sentinel"}};
  ctl.discover_workers(q, 2, 8, 5.0, [&](std::vector<net::Endpoint> eps) {
    found = std::move(eps);
  });
  grid.net.run_all();
  EXPECT_TRUE(found.empty());
}

TEST(Controller, CheckpointAndMigrateFragment) {
  Grid grid(3);
  TaskGraph g = grouped_figure1("parallel");
  grid.home->publish_graph_modules(g);

  TrianaController ctl(*grid.home);
  // Use only workers 0 and 1 initially.
  auto run = ctl.distribute(
      g, "G", {grid.workers[0]->endpoint(), grid.workers[1]->endpoint()});
  grid.net.run_all();
  ASSERT_TRUE(run->deployed_ok());

  ctl.tick(*run, 4);
  grid.net.run_all();

  // Migrate fragment 0 from worker 0 to worker 2.
  bool migrated = false;
  ctl.migrate(run, 0, grid.workers[2]->endpoint(),
              [&](bool ok) { migrated = ok; });
  grid.net.run_all();
  ASSERT_TRUE(migrated);
  EXPECT_EQ(grid.workers[0]->job_count(), 0u);
  EXPECT_EQ(grid.workers[2]->job_count(), 1u);

  // Keep streaming: results continue to arrive at the home graph.
  auto* grapher = ctl.home_runtime(*run)->unit_as<GrapherUnit>("Grapher");
  const std::size_t before = grapher->items().size();
  ctl.tick(*run, 4);
  grid.net.run_all();
  EXPECT_EQ(grapher->items().size(), before + 4);
  // The migrated replica processes its round-robin share on worker 2.
  auto* rt2 = grid.workers[2]->job_runtime(run->remote_jobs[0]);
  ASSERT_NE(rt2, nullptr);
  EXPECT_EQ(rt2->firings_of("Gaussian"), 2u);
}

TEST(Controller, DistributeValidatesInput) {
  Grid grid(1);
  TaskGraph g = grouped_figure1("parallel");
  TrianaController ctl(*grid.home);
  EXPECT_THROW(ctl.distribute(g, "G", {}), std::invalid_argument);
  EXPECT_THROW(ctl.distribute(g, "Wave", grid.worker_endpoints()),
               std::invalid_argument);
}

TEST(Service, SandboxCpuViolationFailsJobAndBillsIt) {
  // Tight CPU budget on the worker: the FFT's cost model trips it.
  ServiceConfig cfg;
  cfg.sandbox_policy.max_cpu_seconds = 1e-12;
  Grid grid(1, cfg);
  TaskGraph g("heavy");
  ParamSet wp;
  wp.set_int("samples", 4096);
  g.add_task("Wave", "Wave", wp);
  g.add_task("FFT", "FFT");
  g.add_task("Sink", "NullSink");
  g.connect("Wave", 0, "FFT", 0);
  g.connect("FFT", 0, "Sink", 0);
  grid.home->publish_graph_modules(g);

  DeployAckMsg ack;
  grid.home->deploy_remote(grid.workers[0]->endpoint(), g, 5,
                           [&](const DeployAckMsg& a) { ack = a; });
  grid.net.run_all();
  ASSERT_TRUE(ack.ok);  // deploy succeeds; the job fails at runtime
  std::string error;
  EXPECT_TRUE(grid.workers[0]->job_failed(ack.job_id, &error));
  EXPECT_NE(error.find("CPU budget"), std::string::npos);
  EXPECT_EQ(grid.workers[0]->account().ledger().totals_for("home").violations,
            1u);
}

TEST(Service, SandboxNetworkBudgetStopsChattyJob) {
  // Worker grants almost no uplink: the fragment's Send trips the budget
  // after the first item.
  ServiceConfig cfg;
  cfg.sandbox_policy.max_network_bytes = 3000;
  Grid grid(1, cfg);

  TaskGraph frag("chatty");
  ParamSet wp;
  wp.set_int("samples", 256);  // ~2 kB per item
  frag.add_task("Wave", "Wave", wp);
  ParamSet sp;
  sp.set("label", "uplink");
  frag.add_task("Out", "Send", sp);
  frag.connect("Wave", 0, "Out", 0);
  grid.home->publish_graph_modules(frag);

  // Home hosts the receiving pipe.
  int got = 0;
  grid.home->pipes().advertise_input(
      "uplink", [&](const net::Endpoint&, serial::Bytes) { ++got; });

  DeployAckMsg ack;
  grid.home->deploy_remote(grid.workers[0]->endpoint(), frag, 5,
                           [&](const DeployAckMsg& a) { ack = a; });
  grid.net.run_all();
  ASSERT_TRUE(ack.ok);
  std::string error;
  EXPECT_TRUE(grid.workers[0]->job_failed(ack.job_id, &error));
  EXPECT_NE(error.find("network"), std::string::npos);
  EXPECT_LE(got, 2);  // budget allowed at most one ~2 kB item out
}

TEST(Service, CancelAfterReplacementKeepsSharedLabelAlive) {
  // Cancel and redeploy can arrive reordered (link jitter): if the
  // replacement job registered the same channel label first, tearing down
  // the old job must not sever it.
  Grid grid(1);
  TaskGraph frag("frag");
  ParamSet rp;
  rp.set("label", "shared-label");
  frag.add_task("In", "Receive", rp);
  frag.add_task("Sink", "NullSink");
  frag.connect("In", 0, "Sink", 0);
  grid.home->publish_graph_modules(frag);

  DeployAckMsg a1, a2;
  grid.home->deploy_remote(grid.workers[0]->endpoint(), frag, 0,
                           [&](const DeployAckMsg& a) { a1 = a; });
  grid.net.run_all();
  // Replacement lands first...
  grid.home->deploy_remote(grid.workers[0]->endpoint(), frag, 0,
                           [&](const DeployAckMsg& a) { a2 = a; });
  grid.net.run_all();
  ASSERT_TRUE(a1.ok);
  ASSERT_TRUE(a2.ok);
  // ...then the stale cancel arrives.
  grid.home->cancel_remote(grid.workers[0]->endpoint(), a1.job_id);
  grid.net.run_all();
  EXPECT_EQ(grid.workers[0]->job_count(), 1u);

  // The channel still delivers into the replacement job.
  EXPECT_TRUE(grid.workers[0]->pipes().has_input("shared-label"));
  auto* rt = grid.workers[0]->job_runtime(a2.job_id);
  ASSERT_NE(rt, nullptr);
  // Send a payload from home over the pipe machinery.
  bool bound = false;
  p2p::OutputPipe pipe;
  grid.home->pipes().bind_output("shared-label", [&](p2p::OutputPipe p) {
    bound = true;
    pipe = std::move(p);
  });
  grid.net.run_all();
  ASSERT_TRUE(bound);
  ASSERT_TRUE(pipe.bound());
  grid.home->pipes().send(pipe, encode_data_item(DataItem(1.0)));
  grid.net.run_all();
  auto* sink = rt->unit_as<NullSinkUnit>("Sink");
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->received(), 1u);
}

TEST(Service, PipeItemCountsAreTracked) {
  Grid grid(1);
  TaskGraph g = grouped_figure1("parallel");
  grid.home->publish_graph_modules(g);
  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "G", grid.worker_endpoints());
  grid.net.run_all();
  ctl.tick(*run, 5);
  grid.net.run_all();
  EXPECT_EQ(grid.home->stats().pipe_items_out, 5u);   // scatter -> worker
  EXPECT_EQ(grid.home->stats().pipe_items_in, 5u);    // results back
  EXPECT_EQ(grid.workers[0]->stats().pipe_items_in, 5u);
  EXPECT_EQ(grid.workers[0]->stats().pipe_items_out, 5u);
}

// ------------------------------------------------- content-addressed deploys

/// RAII temp directory for worker-side CAS stores.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() / name).string()) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

TaskGraph simple_remote_graph() {
  TaskGraph g("remote");
  g.add_task("Wave", "Wave");
  g.add_task("Sink", "NullSink");
  g.connect("Wave", 0, "Sink", 0);
  return g;
}

TEST(Service, DeployAdvertisesModuleDigests) {
  Grid grid(1);
  TaskGraph g = simple_remote_graph();
  grid.home->publish_graph_modules(g, 4096);

  bool acked = false;
  grid.home->deploy_remote(grid.workers[0]->endpoint(), g, 1,
                           [&](const DeployAckMsg& a) {
                             acked = true;
                             EXPECT_TRUE(a.ok) << a.error;
                           });
  grid.net.run_all();
  ASSERT_TRUE(acked);

  // The worker's fetched copies carry exactly the digests home advertises.
  for (const std::string type : {"Wave", "NullSink"}) {
    const auto fetched = grid.workers[0]->module_cache().lookup(type);
    ASSERT_TRUE(fetched.has_value()) << type;
    EXPECT_EQ(repo::artifact_digest(*fetched),
              repo::artifact_digest(*grid.home->local_repo().latest(type)))
        << type;
  }
}

TEST(Service, CasWarmRestartSkipsNetworkFetch) {
  TempDir dir("congrid_svc_cas_warm");
  cas::CasConfig ccfg;
  ccfg.dir = dir.path;
  TaskGraph g = simple_remote_graph();

  std::uint64_t cold_fetched = 0;
  {
    cas::ContentStore store(ccfg);
    ServiceConfig wcfg;
    wcfg.cas = &store;
    Grid grid(1, wcfg);
    grid.home->publish_graph_modules(g, 4096);
    bool ok = false;
    grid.home->deploy_remote(grid.workers[0]->endpoint(), g, 2,
                             [&](const DeployAckMsg& a) { ok = a.ok; });
    grid.net.run_all();
    ASSERT_TRUE(ok);
    cold_fetched = grid.workers[0]->stats().modules_fetched;
    EXPECT_EQ(cold_fetched, 2u);  // cold start pays the network fetch
  }

  // "Restart": a brand-new grid (fresh services, empty module caches) over
  // the same CAS directory. The deploy's advertised digests resolve from
  // the disk tier, so no code crosses the network.
  {
    cas::ContentStore store(ccfg);
    ServiceConfig wcfg;
    wcfg.cas = &store;
    Grid grid(1, wcfg);
    grid.home->publish_graph_modules(g, 4096);
    bool ok = false;
    grid.home->deploy_remote(grid.workers[0]->endpoint(), g, 2,
                             [&](const DeployAckMsg& a) { ok = a.ok; });
    grid.net.run_all();
    ASSERT_TRUE(ok);
    EXPECT_EQ(grid.workers[0]->stats().modules_fetched, 0u);
    EXPECT_EQ(grid.workers[0]->stats().modules_from_cas +
                  grid.workers[0]->module_cache().stats().backing_hits,
              2u);
    EXPECT_EQ(grid.home->code().stats().requests_served, 0u);
  }
}

TEST(Service, StaleCachedModuleIsRefreshedByDigestMismatch) {
  cas::ContentStore store;  // memory-only is enough here
  ServiceConfig wcfg;
  wcfg.cas = &store;
  Grid grid(1, wcfg);
  TaskGraph g = simple_remote_graph();
  grid.home->publish_graph_modules(g, 4096);

  // Seed the worker's cache with a divergent "Wave" under the same name --
  // e.g. fetched earlier from a now-outdated owner.
  ASSERT_TRUE(grid.workers[0]->module_cache().insert(
      repo::make_synthetic_artifact("Wave", "0.9-stale", 4096)));

  bool ok = false;
  grid.home->deploy_remote(grid.workers[0]->endpoint(), g, 1,
                           [&](const DeployAckMsg& a) { ok = a.ok; });
  grid.net.run_all();
  ASSERT_TRUE(ok);
  // The digest mismatch forced a re-fetch (paper 3.3: the owner's current
  // version always wins), and the resident copy is now the owner's.
  const auto resident = grid.workers[0]->module_cache().lookup("Wave");
  ASSERT_TRUE(resident.has_value());
  EXPECT_EQ(resident->version, "1.0");
  EXPECT_EQ(repo::artifact_digest(*resident),
            repo::artifact_digest(*grid.home->local_repo().latest("Wave")));
}

TEST(Service, MemoizedPureUnitsReplayAcrossJobs) {
  cas::ContentStore store;
  ServiceConfig wcfg;
  wcfg.cas = &store;
  wcfg.memoize_pure_units = true;
  Grid grid(1, wcfg);

  // Wave -> FFT -> NullSink: FFT is pure and deterministic, so the second
  // job's FFT firings replay from the store populated by the first.
  TaskGraph g("memo");
  g.add_task("Wave", "Wave");
  g.add_task("FFT", "FFT");
  g.add_task("Sink", "NullSink");
  g.connect("Wave", 0, "FFT", 0);
  g.connect("FFT", 0, "Sink", 0);
  grid.home->publish_graph_modules(g, 4096);

  DeployAckMsg first, second;
  grid.home->deploy_remote(grid.workers[0]->endpoint(), g, 3,
                           [&](const DeployAckMsg& a) { first = a; });
  grid.net.run_all();
  ASSERT_TRUE(first.ok) << first.error;
  auto* rt1 = grid.workers[0]->job_runtime(first.job_id);
  ASSERT_NE(rt1, nullptr);
  EXPECT_EQ(rt1->memo_hits(), 0u);
  EXPECT_EQ(rt1->memo_misses(), 3u);

  grid.home->deploy_remote(grid.workers[0]->endpoint(), g, 3,
                           [&](const DeployAckMsg& a) { second = a; });
  grid.net.run_all();
  ASSERT_TRUE(second.ok) << second.error;
  auto* rt2 = grid.workers[0]->job_runtime(second.job_id);
  ASSERT_NE(rt2, nullptr);
  EXPECT_EQ(rt2->memo_hits(), 3u);  // zero FFT recomputations
  EXPECT_EQ(rt2->memo_misses(), 0u);
}

// ------------------------------------------------------ job lifecycle

/// Receive("lc-in") -> NullSink: a reactive job with one input pipe.
TaskGraph listener_fragment() {
  TaskGraph frag("listener");
  ParamSet rp;
  rp.set("label", "lc-in");
  frag.add_task("In", "Receive", rp);
  frag.add_task("Sink", "NullSink");
  frag.connect("In", 0, "Sink", 0);
  return frag;
}

/// Send `payload` straight to the worker's "lc-in" pipe, bypassing
/// discovery (the label may not be advertised at all).
void send_to_listener(Grid& grid, serial::Bytes payload) {
  const p2p::OutputPipe pipe{"lc-in", grid.workers[0]->endpoint()};
  grid.home->pipes().send(pipe, std::move(payload));
  grid.net.run_all();
}

/// Four bytes that do not decode as a DataItem.
serial::Bytes garbage_payload() {
  return serial::Bytes{0xff, 0xfe, 0xfd, 0xfc};
}

TEST(Service, MalformedInputPayloadFailsJobOnceAndCountsIt) {
  Grid grid(1);
  const TaskGraph frag = listener_fragment();
  grid.home->publish_graph_modules(frag);
  DeployAckMsg ack;
  grid.home->deploy_remote(grid.workers[0]->endpoint(), frag, 0,
                           [&](const DeployAckMsg& a) { ack = a; });
  grid.net.run_all();
  ASSERT_TRUE(ack.ok) << ack.error;

  send_to_listener(grid, garbage_payload());
  std::string error;
  EXPECT_TRUE(grid.workers[0]->job_failed(ack.job_id, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(grid.workers[0]->stats().jobs_failed, 1u);

  // More garbage for the already-failed job is dropped, not re-counted.
  send_to_listener(grid, garbage_payload());
  EXPECT_EQ(grid.workers[0]->stats().jobs_failed, 1u);
}

TEST(Service, LeasedStandbyStaysDarkUntilPromoted) {
  Grid grid(1);
  const TaskGraph frag = listener_fragment();
  grid.home->publish_graph_modules(frag);
  const net::Endpoint w = grid.workers[0]->endpoint();
  DeployAckMsg ack;
  grid.home->deploy_remote(w, frag, 0,
                           [&](const DeployAckMsg& a) { ack = a; }, {},
                           DeployOptions{.lease_s = 2.0, .standby = true});
  grid.net.run_until(0.5);
  ASSERT_TRUE(ack.ok) << ack.error;

  // A standby is not running...
  StatusMsg seen;
  grid.home->request_status(w, ack.job_id,
                            [&](const StatusMsg& m) { seen = m; });
  grid.net.run_until(1.0);
  EXPECT_TRUE(seen.known);
  EXPECT_FALSE(seen.running);

  // ...and it is dark, not suspended: nothing renews a standby's lease, so
  // it has none to lose.
  grid.net.run_until(10.0);  // five leases long, never probed
  grid.home->request_status(w, ack.job_id,
                            [&](const StatusMsg& m) { seen = m; });
  grid.net.run_until(11.0);
  EXPECT_FALSE(seen.running);
  EXPECT_FALSE(seen.suspended);
  EXPECT_EQ(grid.workers[0]->stats().jobs_suspended, 0u);

  // Promotion makes it live and starts the lease from then on.
  grid.home->promote_remote(w, ack.job_id, [](const DeployAckMsg&) {});
  grid.net.run_until(11.5);
  grid.home->request_status(w, ack.job_id,
                            [&](const StatusMsg& m) { seen = m; });
  grid.net.run_until(12.0);
  EXPECT_TRUE(seen.running);
  EXPECT_FALSE(seen.suspended);
  EXPECT_TRUE(grid.workers[0]->pipes().has_input("lc-in"));
  EXPECT_EQ(grid.workers[0]->stats().promotions, 1u);

  // The live job honours its lease: unprobed, it suspends.
  grid.net.run_until(20.0);
  EXPECT_EQ(grid.workers[0]->stats().jobs_suspended, 1u);
}

/// What the transition-table test does to a job, over the wire.
enum class LifecycleEvent {
  kDeploy,         ///< the same deploy again (a retransmission)
  kPromote,
  kLeaseExpiry,    ///< a leased probe, then a silent supervisor
  kResume,         ///< at the job's epoch
  kResumeStale,    ///< at another epoch
  kFence,          ///< consumer-side fence at a higher epoch
  kCancel,
  kFailure,        ///< a malformed payload on its input pipe
};

/// One row of the job transition table: what an event does to a job that
/// is in `from`, as seen from outside the service.
struct TransitionRow {
  JobState from;
  LifecycleEvent event;
  std::optional<JobState> to;  ///< nullopt: the job left the service
  bool advertised;             ///< its input pipe is served afterwards
  bool bounces;                ///< payloads for its input come back
  std::set<std::string> counted;  ///< ServiceStats counters that moved
};

/// The lifecycle counters of ServiceStats, by name.
std::map<std::string, std::uint64_t> lifecycle_counters(const ServiceStats& s) {
  return {{"jobs_started", s.jobs_started},
          {"jobs_failed", s.jobs_failed},
          {"jobs_cancelled", s.jobs_cancelled},
          {"duplicate_deploys", s.duplicate_deploys},
          {"jobs_suspended", s.jobs_suspended},
          {"jobs_resumed", s.jobs_resumed},
          {"jobs_fenced", s.jobs_fenced},
          {"promotions", s.promotions}};
}

/// Deploy the listener on the worker at epoch 0 and drive it into `state`.
std::string job_in_state(Grid& grid, JobState state) {
  const TaskGraph frag = listener_fragment();
  grid.home->publish_graph_modules(frag);
  const net::Endpoint w = grid.workers[0]->endpoint();
  DeployOptions opt;
  opt.standby = state == JobState::kStandby;
  DeployAckMsg ack;
  grid.home->deploy_remote(w, frag, 0, [&](const DeployAckMsg& a) { ack = a; },
                           {}, opt);
  grid.net.run_all();
  EXPECT_TRUE(ack.ok) << ack.error;
  if (state == JobState::kSuspended) {
    grid.home->request_status(w, ack.job_id, [](const StatusMsg&) {}, 0, 2.0);
    grid.net.run_all();
  } else if (state == JobState::kFailed) {
    send_to_listener(grid, garbage_payload());
  }
  EXPECT_EQ(grid.workers[0]->job_state(ack.job_id), state);
  return ack.job_id;
}

void apply(Grid& grid, const std::string& job, LifecycleEvent event) {
  TrianaService& home = *grid.home;
  const net::Endpoint w = grid.workers[0]->endpoint();
  switch (event) {
    case LifecycleEvent::kDeploy: {
      DeployMsg m;
      m.job_id = job;
      m.owner = home.id();
      m.owner_endpoint = home.endpoint();
      m.graph_xml = write_taskgraph(listener_fragment(), false);
      home.reliable().send(w, encode(m));
      break;
    }
    case LifecycleEvent::kPromote:
      home.promote_remote(w, job, [](const DeployAckMsg&) {});
      break;
    case LifecycleEvent::kLeaseExpiry:
      home.request_status(w, job, [](const StatusMsg&) {}, 0, 2.0);
      break;
    case LifecycleEvent::kResume:
      home.resume_remote(w, job, 0, 0.0);
      break;
    case LifecycleEvent::kResumeStale:
      home.resume_remote(w, job, 7, 0.0);
      break;
    case LifecycleEvent::kFence:
      home.reliable().send(w, encode(RebindMsg{"lc-in", 1}));
      break;
    case LifecycleEvent::kCancel:
      home.cancel_remote(w, job);
      break;
    case LifecycleEvent::kFailure:
      send_to_listener(grid, garbage_payload());
      break;
  }
  grid.net.run_all();
}

TEST(Service, JobTransitionTableIsExhaustive) {
  using S = JobState;
  using E = LifecycleEvent;
  const std::set<std::string> none;
  const std::set<std::string> fenced{"jobs_fenced", "jobs_cancelled"};
  const std::set<std::string> cancelled{"jobs_cancelled"};
  const std::set<std::string> dup{"duplicate_deploys"};
  const std::vector<TransitionRow> table = {
      {S::kStandby, E::kDeploy, S::kStandby, false, false, dup},
      {S::kStandby, E::kPromote, S::kRunning, true, false, {"promotions"}},
      {S::kStandby, E::kLeaseExpiry, S::kStandby, false, false, none},
      {S::kStandby, E::kResume, S::kStandby, false, false, none},
      {S::kStandby, E::kResumeStale, S::kStandby, false, false, none},
      {S::kStandby, E::kFence, std::nullopt, false, true, fenced},
      {S::kStandby, E::kCancel, std::nullopt, false, false, cancelled},
      {S::kStandby, E::kFailure, S::kStandby, false, false, none},

      {S::kRunning, E::kDeploy, S::kRunning, true, false, dup},
      {S::kRunning, E::kPromote, S::kRunning, true, false, none},
      {S::kRunning, E::kLeaseExpiry, S::kSuspended, false, true,
       {"jobs_suspended"}},
      {S::kRunning, E::kResume, S::kRunning, true, false, none},
      {S::kRunning, E::kResumeStale, S::kRunning, true, false, none},
      {S::kRunning, E::kFence, std::nullopt, false, true, fenced},
      {S::kRunning, E::kCancel, std::nullopt, false, false, cancelled},
      {S::kRunning, E::kFailure, S::kFailed, true, false, {"jobs_failed"}},

      // A suspended job has withdrawn its input and bounces what arrives,
      // and its label stays bouncy after it leaves.
      {S::kSuspended, E::kDeploy, S::kSuspended, false, true, dup},
      {S::kSuspended, E::kPromote, S::kSuspended, false, true, none},
      {S::kSuspended, E::kLeaseExpiry, S::kSuspended, false, true, none},
      {S::kSuspended, E::kResume, S::kRunning, true, false, {"jobs_resumed"}},
      {S::kSuspended, E::kResumeStale, S::kSuspended, false, true, none},
      {S::kSuspended, E::kFence, std::nullopt, false, true, fenced},
      {S::kSuspended, E::kCancel, std::nullopt, false, true, cancelled},
      {S::kSuspended, E::kFailure, S::kSuspended, false, true, none},

      // A failed job keeps its input advertised and drops what arrives.
      {S::kFailed, E::kDeploy, S::kFailed, true, false, dup},
      {S::kFailed, E::kPromote, S::kFailed, true, false, none},
      {S::kFailed, E::kLeaseExpiry, S::kFailed, true, false, none},
      {S::kFailed, E::kResume, S::kFailed, true, false, none},
      {S::kFailed, E::kResumeStale, S::kFailed, true, false, none},
      {S::kFailed, E::kFence, std::nullopt, false, true, fenced},
      {S::kFailed, E::kCancel, std::nullopt, false, false, cancelled},
      {S::kFailed, E::kFailure, S::kFailed, true, false, none},
  };
  ASSERT_EQ(table.size(), 4u * 8u);

  for (const TransitionRow& row : table) {
    constexpr const char* kStates[] = {"standby", "running", "suspended",
                                       "failed"};
    constexpr const char* kEvents[] = {"deploy", "promote", "lease expiry",
                                       "resume", "stale resume", "fence",
                                       "cancel", "failure"};
    SCOPED_TRACE(std::string(kStates[static_cast<int>(row.from)]) + " + " +
                 kEvents[static_cast<int>(row.event)]);
    Grid grid(1);
    TrianaService& worker = *grid.workers[0];
    const std::string job = job_in_state(grid, row.from);
    const auto before = lifecycle_counters(worker.stats());

    apply(grid, job, row.event);

    EXPECT_EQ(worker.job_state(job), row.to);
    EXPECT_EQ(worker.pipes().has_input("lc-in"), row.advertised);
    std::set<std::string> counted;
    for (const auto& [name, value] : lifecycle_counters(worker.stats())) {
      if (value != before.at(name)) {
        EXPECT_EQ(value, before.at(name) + 1) << name;
        counted.insert(name);
      }
    }
    EXPECT_EQ(counted, row.counted);

    const std::uint64_t bounced = worker.stats().payloads_bounced;
    send_to_listener(grid, encode_data_item(DataItem(1.0)));
    EXPECT_EQ(worker.stats().payloads_bounced - bounced, row.bounces ? 1u : 0u);
  }
}

}  // namespace
}  // namespace cg::core
