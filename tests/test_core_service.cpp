// Integration tests: TrianaService + TrianaController over the simulated
// network -- deploy with on-demand code download, pipe-wired distributed
// execution (farm and pipeline), billing, certification, discovery-driven
// worker selection, status, cancellation, checkpoint and migration.
#include <gtest/gtest.h>

#include <malloc.h>

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
#include "serial/reader.hpp"
#include "serial/writer.hpp"
#include "xml/write.hpp"

namespace cg::core {
namespace {

UnitRegistry& reg() {
  static UnitRegistry r = UnitRegistry::with_builtins();
  return r;
}

/// Overlay shapes: every peer a neighbour of every other, or a star
/// through home (the loopback-TCP benches' shape), where workers are two
/// hops apart.
enum class Overlay { kMesh, kStar };

/// A simulated consumer grid: one controller peer + N worker services,
/// linked as overlay neighbours in the given shape.
struct Grid {
  explicit Grid(std::size_t n_workers, ServiceConfig worker_cfg = {},
                net::LinkParams lp = {}, Overlay shape = Overlay::kMesh)
      : net(lp, 1) {
    auto clock = net.clock();
    auto sched = net.scheduler();
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
        const bool linked = shape == Overlay::kMesh || a == home.get() ||
                            b == home.get();
        if (a != b && linked) a->node().add_neighbor(b->endpoint());
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

/// Wave -> [Scale -> Smooth -> Shift] -> Grapher: three trivial stages,
/// one per worker under the p2p policy.
TaskGraph three_stage_pipeline() {
  TaskGraph inner("stages");
  inner.add_task("Scale", "Scaler");
  inner.add_task("Smooth", "MovingAverage");
  inner.add_task("Shift", "Offset");
  inner.connect("Scale", 0, "Smooth", 0);
  inner.connect("Smooth", 0, "Shift", 0);

  TaskGraph g("pipeline");
  g.add_task("Wave", "Wave");
  TaskDef& grp = g.add_group("Pipe", std::move(inner), "p2p");
  grp.group_inputs = {GroupPort{"Scale", 0}};
  grp.group_outputs = {GroupPort{"Shift", 0}};
  g.add_task("Grapher", "Grapher");
  g.connect("Wave", 0, "Pipe", 0);
  g.connect("Pipe", 0, "Grapher", 0);
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

  // Certify exactly those modules' artifact digests -> accepted.
  for (const char* type : {"Wave", "NullSink"}) {
    library.certify(repo::artifact_digest(
        repo::make_synthetic_artifact(type, "1.0", 8192)));
  }
  DeployAckMsg got2;
  grid.home->deploy_remote(grid.workers[0]->endpoint(), simple, 1,
                           [&](const DeployAckMsg& a) { got2 = a; });
  grid.net.run_all();
  EXPECT_TRUE(got2.ok) << got2.error;

  // The owner republishes Wave@1.0 with different code: the worker fetches
  // it (its cached digest no longer matches the advert), and the new bytes
  // are not the certified artifact.
  grid.home->local_repo().put(
      repo::make_synthetic_artifact("Wave", "1.0", 4096));
  DeployAckMsg got3;
  grid.home->deploy_remote(grid.workers[0]->endpoint(), simple, 1,
                           [&](const DeployAckMsg& a) { got3 = a; });
  grid.net.run_all();
  EXPECT_FALSE(got3.ok);
  EXPECT_NE(got3.error.find("'Wave' is not in the certified library"),
            std::string::npos)
      << got3.error;
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

TEST(Controller, RendezvousDiscoveryFindsAnnouncedWorkersWithoutFlooding) {
  // One rendezvous, three workers that announce to it, and a home peer
  // with no neighbour edges: discover_workers at ttl == 0 asks the
  // rendezvous alone.
  net::SimNetwork net({}, 1);
  auto clock = net.clock();
  auto sched = net.scheduler();
  const auto make = [&](const std::string& id) {
    ServiceConfig cfg;
    cfg.peer_id = id;
    return std::make_unique<TrianaService>(net.add_node(), clock, sched,
                                           reg(), cfg);
  };
  auto rdv = make("rdv");
  rdv->node().set_rendezvous_role(true);
  auto home = make("home");
  home->node().add_rendezvous(rdv->endpoint());
  std::vector<std::unique_ptr<TrianaService>> workers;
  for (int i = 0; i < 3; ++i) {
    workers.push_back(make("worker-" + std::to_string(i)));
    workers.back()->node().add_rendezvous(rdv->endpoint());
    workers.back()->announce();
  }
  net.run_all();
  EXPECT_EQ(rdv->node().stats().publishes_received, workers.size());

  p2p::Query q;
  q.kind = p2p::AdvertKind::kPeer;
  TrianaController ctl(*home);
  std::vector<net::Endpoint> found;
  ctl.discover_workers(q, /*ttl=*/0, /*want=*/8, /*timeout_s=*/5.0,
                       [&](std::vector<net::Endpoint> eps) {
                         found = std::move(eps);
                       });
  net.run_all();
  std::set<net::Endpoint> want;
  for (const auto& w : workers) want.insert(w->endpoint());
  EXPECT_EQ(std::set<net::Endpoint>(found.begin(), found.end()), want);
  EXPECT_EQ(found.size(), workers.size());

  // Home's one query went to the rendezvous; nobody forwarded it further.
  EXPECT_EQ(home->node().stats().queries_forwarded, 1u);
  EXPECT_EQ(rdv->node().stats().queries_received, 1u);
  EXPECT_EQ(rdv->node().stats().queries_forwarded, 0u);
  for (const auto& w : workers) {
    EXPECT_EQ(w->node().stats().queries_received, 0u);
    EXPECT_EQ(w->node().stats().queries_forwarded, 0u);
  }
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

  // Home bound fragment 0's input from the plan's hint: worker 0.
  const std::string in0 = channel_labels(run->fragments[0]).inputs.at(0);
  p2p::Query pipe_q;
  pipe_q.kind = p2p::AdvertKind::kPipe;
  pipe_q.name = in0;
  const auto hinted = grid.home->node().find_local(pipe_q);
  ASSERT_EQ(hinted.size(), 1u);
  EXPECT_EQ(hinted[0].provider, grid.workers[0]->endpoint());
  const std::uint64_t w0_received =
      grid.workers[0]->pipes().stats().payloads_received;

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
  // The rebind dropped the stale hint: home re-resolved the label to the
  // new host and sent nothing more to the old one.
  for (const auto& a : grid.home->node().find_local(pipe_q)) {
    EXPECT_EQ(a.provider, grid.workers[2]->endpoint());
  }
  EXPECT_EQ(grid.workers[0]->pipes().stats().payloads_received, w0_received);
  EXPECT_EQ(grid.workers[0]->pipes().stats().payloads_for_unknown_pipe, 0u);
  EXPECT_EQ(grid.workers[2]->pipes().stats().payloads_received, 2u);
}

TEST(Controller, DistributeValidatesInput) {
  Grid grid(1);
  TaskGraph g = grouped_figure1("parallel");
  TrianaController ctl(*grid.home);
  EXPECT_THROW(ctl.distribute(g, "G", {}), std::invalid_argument);
  EXPECT_THROW(ctl.distribute(g, "Wave", grid.worker_endpoints()),
               std::invalid_argument);
}

TEST(Controller, HintedPipelineBindsWithoutDiscoveryOnAStar) {
  // Workers two hops apart: a lazy worker->worker bind misses at TTL 1 and
  // waits out a whole ring timeout before TTL 2 finds the sibling.
  Grid grid(3, {}, {}, Overlay::kStar);
  TaskGraph g = three_stage_pipeline();
  grid.home->publish_graph_modules(g);

  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "Pipe", grid.worker_endpoints());
  grid.net.run_all();
  ASSERT_TRUE(run->deployed_ok())
      << (run->errors.empty() ? "" : run->errors[0]);

  const double t0 = grid.net.now();
  ctl.tick(*run, 1);
  auto* grapher = ctl.home_runtime(*run)->unit_as<GrapherUnit>("Grapher");
  while (grapher->items().empty() && grid.net.step()) {
  }
  ASSERT_EQ(grapher->items().size(), 1u);
  EXPECT_LT(grid.net.now() - t0, p2p::ExpandingRingOptions{}.ring_timeout_s);

  ctl.tick(*run, 4);
  grid.net.run_all();
  EXPECT_EQ(grapher->items().size(), 5u);
  // Every output -- home's, each stage's -- bound from the plan's map.
  EXPECT_EQ(grid.home->node().stats().queries_initiated, 0u);
  for (const auto& w : grid.workers) {
    EXPECT_EQ(w->node().stats().queries_initiated, 0u) << w->id();
    EXPECT_EQ(w->stats().binds_retried, 0u) << w->id();
  }
}

TEST(Controller, PipelineDeploysDownstreamFirst) {
  Grid grid(3);
  TaskGraph g = three_stage_pipeline();
  grid.home->publish_graph_modules(g);

  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "Pipe", grid.worker_endpoints());
  using D = FragmentDeploy;
  // Stage i feeds stage i+1; only the last stage goes out at once.
  EXPECT_EQ(run->deploy_state, (std::vector<D>{D::kHeld, D::kHeld, D::kSent}));
  EXPECT_TRUE(run->remote_jobs[0].empty());

  // Whenever a stage's deploy is out, its consumer has already acked; the
  // workers receive their deploys last stage first.
  std::vector<std::size_t> arrival;
  do {
    for (std::size_t i = 0; i + 1 < 3; ++i) {
      if (run->deploy_state[i] != D::kHeld) {
        EXPECT_EQ(run->deploy_state[i + 1], D::kLive) << i;
      }
    }
    for (std::size_t i = 0; i < 3; ++i) {
      if (grid.workers[i]->stats().deploys_received == 1 &&
          std::find(arrival.begin(), arrival.end(), i) == arrival.end()) {
        arrival.push_back(i);
      }
    }
  } while (grid.net.step());
  EXPECT_EQ(arrival, (std::vector<std::size_t>{2, 1, 0}));
  EXPECT_EQ(run->deploy_state, (std::vector<D>(3, D::kLive)));
  EXPECT_TRUE(run->deployed_ok());
}

TEST(Controller, WrappedPipelineCycleDeploysTogetherAndBindsLazily) {
  // Three stages on two workers: stage slots 0,1,0, so the two fragments
  // feed each other and neither can wait for the other.
  Grid grid(2);
  TaskGraph g = three_stage_pipeline();
  grid.home->publish_graph_modules(g);

  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "Pipe", grid.worker_endpoints());
  EXPECT_EQ(run->deploy_state,
            (std::vector<FragmentDeploy>(2, FragmentDeploy::kSent)));
  grid.net.run_all();
  ASSERT_TRUE(run->deployed_ok());

  ctl.tick(*run, 5);
  grid.net.run_all();
  auto* grapher = ctl.home_runtime(*run)->unit_as<GrapherUnit>("Grapher");
  EXPECT_EQ(grapher->items().size(), 5u);
  EXPECT_GT(grid.workers[0]->node().stats().queries_initiated +
                grid.workers[1]->node().stats().queries_initiated,
            0u);
}

TEST(Controller, FarmDeploysEveryFragmentInOnePass) {
  Grid grid(3);
  TaskGraph g = grouped_figure1("parallel");
  grid.home->publish_graph_modules(g);

  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "G", grid.worker_endpoints());
  EXPECT_EQ(run->deploy_state,
            (std::vector<FragmentDeploy>(3, FragmentDeploy::kSent)));
  for (const auto& job : run->remote_jobs) EXPECT_FALSE(job.empty());
  grid.net.run_all();
  EXPECT_TRUE(run->deployed_ok());
}

TEST(Controller, HeldFragmentsAreNeverSentAfterShutdown) {
  Grid grid(3);
  TaskGraph g = three_stage_pipeline();
  grid.home->publish_graph_modules(g);

  TrianaController ctl(*grid.home);
  sandbox::TrustManager trust;
  ctl.set_trust_manager(&trust);
  const std::string w2 = grid.workers[2]->endpoint().value;
  const double w2_score = trust.score(w2);
  auto run = ctl.distribute(g, "Pipe", grid.worker_endpoints());
  ctl.shutdown(*run);
  grid.net.run_all();
  EXPECT_EQ(run->deploy_state[0], FragmentDeploy::kCancelled);
  EXPECT_EQ(run->deploy_state[1], FragmentDeploy::kCancelled);
  EXPECT_EQ(grid.workers[0]->stats().deploys_received, 0u);
  EXPECT_EQ(grid.workers[1]->stats().deploys_received, 0u);
  // The last stage went out before the shutdown; its cancel caught the
  // deploy while the worker was still fetching modules, so it never ran.
  // That "cancelled" nack answers our own shutdown: no error, and the
  // worker is not charged a failure.
  EXPECT_EQ(run->deploy_state[2], FragmentDeploy::kCancelled);
  EXPECT_TRUE(run->errors.empty());
  EXPECT_EQ(trust.observations(w2), 0u);
  EXPECT_EQ(trust.score(w2), w2_score);
  EXPECT_EQ(grid.workers[2]->job_count(), 0u);
  EXPECT_EQ(grid.workers[2]->stats().jobs_started, 0u);
}

TEST(Service, DeployWithoutChannelMapBindsThroughDiscovery) {
  // The oracle path: a deploy from an older controller names no channels,
  // so the sender resolves its output by flooding -- on the star, a TTL-1
  // miss, a ring timeout, then the sibling at TTL 2.
  Grid grid(2, {}, {}, Overlay::kStar);
  TaskGraph consumer("consumer");
  ParamSet lp;
  lp.set("label", "lazy-ch");
  consumer.add_task("In", "Receive", lp);
  consumer.add_task("Grapher", "Grapher");
  consumer.connect("In", 0, "Grapher", 0);
  TaskGraph producer("producer");
  producer.add_task("Wave", "Wave");
  producer.add_task("Out", "Send", lp);
  producer.connect("Wave", 0, "Out", 0);
  grid.home->publish_graph_modules(producer);
  grid.home->publish_graph_modules(consumer);

  const std::string cjob = grid.home->deploy_remote(
      grid.workers[1]->endpoint(), consumer, 0, nullptr);
  grid.net.run_all();
  ASSERT_NE(grid.workers[1]->job_runtime(cjob), nullptr);

  DeployMsg m;
  m.job_id = "hand-built#1";
  m.owner = grid.home->id();
  m.owner_endpoint = grid.home->endpoint();
  m.iterations = 3;
  m.graph_xml = write_taskgraph(producer, false);
  const double t0 = grid.net.now();
  grid.home->reliable().send(grid.workers[0]->endpoint(), encode(m));
  grid.net.run_all();

  auto* grapher =
      grid.workers[1]->job_runtime(cjob)->unit_as<GrapherUnit>("Grapher");
  EXPECT_EQ(grapher->items().size(), 3u);
  EXPECT_GT(grid.workers[0]->node().stats().queries_initiated, 0u);
  EXPECT_GE(grid.net.now() - t0, p2p::ExpandingRingOptions{}.ring_timeout_s);
}

// -- control protocol: the deploy's channel map ------------------------------

/// A deploy frame whose header is `header` verbatim (hostile-input tests).
serial::Frame deploy_frame(const xml::Node& header) {
  serial::Writer w;
  w.string(xml::write(header, /*pretty=*/false));
  w.blob({});
  serial::Frame f;
  f.type = serial::FrameType::kControl;
  f.payload = w.take();
  return f;
}

xml::Node deploy_header() {
  xml::Node n("deploy");
  n.set_attr("job", "j#1");
  n.add_child("graph").set_text("<taskgraph/>");
  return n;
}

TEST(ControlProtocol, DeployChannelMapRoundTrips) {
  DeployMsg m;
  m.job_id = "home#1";
  m.graph_xml = "<taskgraph/>";
  m.channels["home/g1/t/Smooth/p0"] = ChannelHint{net::Endpoint{"n2"}, 0};
  m.channels["home/g1/out0"] =
      ChannelHint{net::Endpoint{"tcp:127.0.0.1:4000"}, 0xfedcba9876543210ull};
  const DeployMsg d = decode_deploy(encode(m));
  EXPECT_EQ(d.channels, m.channels);
  EXPECT_EQ(d.job_id, m.job_id);
}

TEST(ControlProtocol, DeployWithoutChannelsDecodesToAnEmptyMap) {
  DeployMsg m;
  m.job_id = "home#1";
  m.graph_xml = "<taskgraph/>";
  EXPECT_TRUE(decode_deploy(encode(m)).channels.empty());
  xml::Node n = deploy_header();
  n.add_child("channels");
  EXPECT_TRUE(decode_deploy(deploy_frame(n)).channels.empty());
}

TEST(ControlProtocol, HostileChannelEntriesAreSkippedOrRejected) {
  {
    // No label, empty label, no endpoint, a foreign child: skipped. A
    // missing epoch reads as 0.
    xml::Node n = deploy_header();
    xml::Node& chans = n.add_child("channels");
    chans.add_child("channel").set_attr("endpoint", "n1");
    xml::Node& empty = chans.add_child("channel");
    empty.set_attr("label", "");
    empty.set_attr("endpoint", "n1");
    chans.add_child("channel").set_attr("label", "no-endpoint");
    chans.add_child("module").set_attr("label", "wrong-element");
    xml::Node& ok = chans.add_child("channel");
    ok.set_attr("label", "ok");
    ok.set_attr("endpoint", "n3");
    const DeployMsg d = decode_deploy(deploy_frame(n));
    EXPECT_EQ(d.channels,
              (ChannelMap{{"ok", ChannelHint{net::Endpoint{"n3"}, 0}}}));
  }
  for (const char* epoch : {"zz", "-1", "12345678901234567"}) {
    xml::Node n = deploy_header();
    xml::Node& c = n.add_child("channels").add_child("channel");
    c.set_attr("label", "l");
    c.set_attr("endpoint", "n1");
    c.set_attr("epoch", epoch);
    EXPECT_THROW(decode_deploy(deploy_frame(n)), serial::DecodeError)
        << epoch;
  }
  // Every truncation and every single-byte corruption of a deploy with a
  // map either decodes or throws DecodeError -- nothing else escapes.
  DeployMsg m;
  m.job_id = "home#1";
  m.graph_xml = "<taskgraph/>";
  m.channels["a"] = ChannelHint{net::Endpoint{"n1"}, 7};
  m.channels["b"] = ChannelHint{net::Endpoint{"n2"}, 0};
  const serial::Frame whole = encode(m);
  for (std::size_t cut = 0; cut < whole.payload.size(); ++cut) {
    serial::Frame f = whole;
    f.payload.resize(cut);
    try {
      decode_deploy(f);
    } catch (const serial::DecodeError&) {
    }
    f = whole;
    f.payload[cut] ^= 0x5a;
    try {
      decode_deploy(f);
    } catch (const serial::DecodeError&) {
    }
  }
}

// -- control protocol: module digests -----------------------------------------

TEST(ControlProtocol, DeployModuleDigestsRoundTrip) {
  DeployMsg m;
  m.job_id = "home#1";
  m.graph_xml = "<taskgraph/>";
  const auto wave = repo::make_synthetic_artifact("Wave", "1.0", 64);
  const auto fft = repo::make_synthetic_artifact("FFT", "1.0", 64);
  m.module_hashes["Wave"] = repo::artifact_digest(wave);
  m.module_hashes["FFT"] = repo::artifact_digest(fft);
  const serial::Frame f = encode(m);
  EXPECT_EQ(decode_deploy(f).module_hashes, m.module_hashes);
  // On the wire each digest is its 64-hex rendering, as before.
  const std::string wire(f.payload.begin(), f.payload.end());
  EXPECT_NE(wire.find("<module type=\"Wave\" sha256=\"" +
                      repo::artifact_digest(wave).hex() + "\"/>"),
            std::string::npos);
}

TEST(ControlProtocol, BadModuleDigestIsRejected) {
  const std::string good(64, 'a');
  {
    // A well-formed digest decodes; an entry without a type is skipped.
    xml::Node n = deploy_header();
    xml::Node& mods = n.add_child("modules");
    xml::Node& ok = mods.add_child("module");
    ok.set_attr("type", "Wave");
    ok.set_attr("sha256", good);
    mods.add_child("module").set_attr("sha256", good);
    const DeployMsg d = decode_deploy(deploy_frame(n));
    ASSERT_EQ(d.module_hashes.size(), 1u);
    EXPECT_EQ(d.module_hashes.at("Wave").hex(), good);
  }
  for (const std::string& bad :
       {good.substr(1), good + "a", good.substr(1) + "g", std::string()}) {
    xml::Node n = deploy_header();
    xml::Node& mod = n.add_child("modules").add_child("module");
    mod.set_attr("type", "Wave");
    mod.set_attr("sha256", bad);
    EXPECT_THROW(decode_deploy(deploy_frame(n)), serial::DecodeError)
        << "'" << bad << "'";
  }
  xml::Node n = deploy_header();
  n.add_child("modules").add_child("module").set_attr("type", "Wave");
  EXPECT_THROW(decode_deploy(deploy_frame(n)), serial::DecodeError);
}

// -- cancel racing its deploy -------------------------------------------------

TaskGraph wave_to_sink() {
  TaskGraph g("remote");
  g.add_task("Wave", "Wave");
  g.add_task("Sink", "NullSink");
  g.connect("Wave", 0, "Sink", 0);
  return g;
}

TEST(Service, DeployDelayedPastItsCancelNeverRuns) {
  Grid grid(1);
  const TaskGraph g = wave_to_sink();
  grid.home->publish_graph_modules(g);
  grid.net.run_all();

  // Every frame home sends the worker is held back 2 s until the cancel
  // goes out, so the deploy (and its first retransmission) lands after it.
  bool hold = true;
  grid.net.set_fault_fn(
      [&](std::uint32_t from, std::uint32_t, const serial::Frame&) {
        net::FaultAction act;
        if (hold && from == 0) act.extra_delay_s = 2.0;
        return act;
      });
  std::optional<DeployAckMsg> ack;
  const std::string job = grid.home->deploy_remote(
      grid.workers[0]->endpoint(), g, 1,
      [&](const DeployAckMsg& a) { ack = a; });
  grid.net.run_until(grid.net.now() + 0.01);
  hold = false;
  grid.home->cancel_remote(grid.workers[0]->endpoint(), job);
  grid.net.run_all();

  ASSERT_TRUE(ack.has_value());
  EXPECT_FALSE(ack->ok);
  EXPECT_EQ(ack->error, "cancelled");
  EXPECT_EQ(grid.workers[0]->stats().deploys_received, 1u);
  EXPECT_EQ(grid.workers[0]->stats().jobs_started, 0u);
  EXPECT_EQ(grid.workers[0]->job_count(), 0u);
}

TEST(Service, CancelDuringModuleFetchDropsTheDeploy) {
  Grid grid(1);
  const TaskGraph g = wave_to_sink();
  grid.home->publish_graph_modules(g);
  grid.net.run_all();

  std::optional<DeployAckMsg> ack;
  const std::string job = grid.home->deploy_remote(
      grid.workers[0]->endpoint(), g, 1,
      [&](const DeployAckMsg& a) { ack = a; });
  TrianaService& worker = *grid.workers[0];
  while (worker.stats().deploys_received == 0 && grid.net.step()) {
  }
  // The deploy is in, its two modules are being fetched from home.
  ASSERT_EQ(worker.stats().deploys_received, 1u);
  ASSERT_EQ(worker.stats().modules_fetched, 0u);
  ASSERT_EQ(worker.job_count(), 0u);
  EXPECT_TRUE(worker.cancel_local(job));
  grid.net.run_all();

  ASSERT_TRUE(ack.has_value());
  EXPECT_FALSE(ack->ok);
  EXPECT_EQ(ack->error, "cancelled");
  EXPECT_EQ(worker.stats().jobs_started, 0u);
  EXPECT_EQ(worker.job_count(), 0u);
}

TEST(Service, MalformedPipePayloadIsDroppedNotFatal) {
  Grid grid(1);
  TaskGraph consumer("consumer");
  ParamSet lp;
  lp.set("label", "in-ch");
  consumer.add_task("In", "Receive", lp);
  consumer.add_task("Grapher", "Grapher");
  consumer.connect("In", 0, "Grapher", 0);
  grid.home->publish_graph_modules(consumer);
  const std::string job = grid.home->deploy_remote(
      grid.workers[0]->endpoint(), consumer, 0, nullptr);
  grid.net.run_all();
  TrianaService& worker = *grid.workers[0];
  ASSERT_EQ(worker.job_state(job), JobState::kRunning);
  obs::Registry registry;
  worker.set_obs(registry, nullptr, "w");

  p2p::OutputPipe pipe;
  pipe.name = "in-ch";
  pipe.target = worker.endpoint();
  grid.home->pipes().send(pipe, serial::Bytes{0xff, 0x01, 0x02});
  grid.net.run_all();
  EXPECT_EQ(worker.stats().pipe_items_malformed, 1u);
  EXPECT_EQ(worker.job_state(job), JobState::kRunning);

  grid.home->pipes().send(pipe, encode_data_item(DataItem(4.0)));
  grid.net.run_all();
  EXPECT_EQ(worker.job_state(job), JobState::kRunning);
  EXPECT_EQ(worker.stats().pipe_items_malformed, 1u);
  auto* grapher = worker.job_runtime(job)->unit_as<GrapherUnit>("Grapher");
  ASSERT_EQ(grapher->items().size(), 1u);
#if CONGRID_OBS_ENABLED
  EXPECT_EQ(registry.counter("w.service.pipe_items_malformed").value(), 1u);
#endif
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

/// An owner with a memory-only store deploying to a bare reliable endpoint
/// that keeps every DeployMsg it receives.
struct DeployProbe {
  explicit DeployProbe(cas::CasConfig ccfg = {})
      : net(net::LinkParams{}, 1),
        store(ccfg),
        home(net.add_node(), net.clock(), net.scheduler(), reg(),
             [this] {
               ServiceConfig cfg;
               cfg.peer_id = "home";
               cfg.cas = &store;
               return cfg;
             }()),
        target(net.add_node(), net.clock(), net.scheduler()) {
    target.set_handler([this](const net::Endpoint&, serial::Frame f) {
      if (f.type == serial::FrameType::kControl &&
          control_type(f) == ControlType::kDeploy) {
        deploys.push_back(decode_deploy(f));
      }
    });
  }

  void deploy(const TaskGraph& g) {
    home.deploy_remote(target.local(), g, 1, {});
    net.run_all();
  }

  cas::Digest owned_digest(const std::string& type) {
    return repo::artifact_digest(*home.local_repo().latest(type));
  }

  net::SimNetwork net;
  cas::ContentStore store;
  TrianaService home;
  net::ReliableTransport target;
  std::vector<DeployMsg> deploys;
};

TEST(Service, RepeatedDeployAdvertisesOwnedDigestsWithoutReStoring) {
  DeployProbe p;
  const TaskGraph g = simple_remote_graph();
  p.home.publish_graph_modules(g, 4096);

  p.deploy(g);
  ASSERT_EQ(p.deploys.size(), 1u);
  EXPECT_EQ(p.store.memory_object_count(), 2u);  // first deploy stores both
  EXPECT_EQ(p.store.stats().puts, 2u);

  p.deploy(g);
  ASSERT_EQ(p.deploys.size(), 2u);
  for (const DeployMsg& d : p.deploys) {
    ASSERT_EQ(d.module_hashes.size(), 2u);
    for (const std::string type : {"Wave", "NullSink"}) {
      EXPECT_EQ(d.module_hashes.at(type), p.owned_digest(type)) << type;
      EXPECT_TRUE(p.store.contains(p.owned_digest(type))) << type;
    }
  }
  // The repeat deploy found both digests resident: nothing re-encoded,
  // re-hashed or re-put.
  EXPECT_EQ(p.store.memory_object_count(), 2u);
  EXPECT_EQ(p.store.stats().puts, 2u);
  EXPECT_EQ(p.store.stats().dedup_hits, 0u);
}

TEST(Service, ModuleEvictedFromTheStoreIsStoredAgainOnTheNextDeploy) {
  cas::CasConfig ccfg;
  ccfg.memory_bytes = 10'000;  // both ~4 KB modules, but not beside 9 KB
  DeployProbe p(ccfg);
  const TaskGraph g = simple_remote_graph();
  p.home.publish_graph_modules(g, 4096);

  p.deploy(g);
  ASSERT_TRUE(p.store.contains(p.owned_digest("Wave")));
  ASSERT_TRUE(p.store.contains(p.owned_digest("NullSink")));
  p.store.put(serial::Bytes(9'000, 0x5a));
  ASSERT_FALSE(p.store.contains(p.owned_digest("Wave")));
  ASSERT_FALSE(p.store.contains(p.owned_digest("NullSink")));

  p.deploy(g);
  ASSERT_EQ(p.deploys.size(), 2u);
  EXPECT_EQ(p.deploys[1].module_hashes, p.deploys[0].module_hashes);
  EXPECT_TRUE(p.store.contains(p.owned_digest("Wave")));
  EXPECT_TRUE(p.store.contains(p.owned_digest("NullSink")));
  EXPECT_EQ(p.store.stats().puts, 2u + 1u + 2u);
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
  frag.add_task("Sink", "StatSink");
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

/// A well-formed item the listener's StatSink throws on (it takes numbers).
serial::Bytes unusable_payload() {
  return encode_data_item(DataItem(std::string("not a number")));
}

TEST(Service, UnitErrorOnInputFailsJobOnceAndCountsIt) {
  Grid grid(1);
  const TaskGraph frag = listener_fragment();
  grid.home->publish_graph_modules(frag);
  DeployAckMsg ack;
  grid.home->deploy_remote(grid.workers[0]->endpoint(), frag, 0,
                           [&](const DeployAckMsg& a) { ack = a; });
  grid.net.run_all();
  ASSERT_TRUE(ack.ok) << ack.error;

  send_to_listener(grid, unusable_payload());
  std::string error;
  EXPECT_TRUE(grid.workers[0]->job_failed(ack.job_id, &error));
  EXPECT_NE(error.find("StatSink"), std::string::npos) << error;
  EXPECT_EQ(grid.workers[0]->stats().jobs_failed, 1u);

  // More input for the already-failed job is dropped, not re-counted.
  send_to_listener(grid, unusable_payload());
  EXPECT_EQ(grid.workers[0]->stats().jobs_failed, 1u);
  EXPECT_EQ(grid.workers[0]->stats().pipe_items_malformed, 0u);
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
  kFailure,        ///< an item its unit throws on, on its input pipe
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
    send_to_listener(grid, unusable_payload());
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
      send_to_listener(grid, unusable_payload());
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

/// Receive("lc-in") -> Grapher: counts what reaches a listener.
TaskGraph grapher_listener() {
  TaskGraph frag("listener");
  ParamSet rp;
  rp.set("label", "lc-in");
  frag.add_task("In", "Receive", rp);
  frag.add_task("Sink", "Grapher");
  frag.connect("In", 0, "Sink", 0);
  return frag;
}

// A burst of payloads bounced off a suspended consumer joins the sender's
// backlog for the label: one bind re-resolves it, and every payload is
// re-sent once, to the replacement.
TEST(Service, BounceBurstSharesOneBind) {
  constexpr std::uint64_t kBurst = 8;
  Grid grid(2);
  TrianaService& home = *grid.home;
  const TaskGraph listener = grapher_listener();
  TaskGraph producer("producer");
  ParamSet sp;
  sp.set("label", "lc-in");
  producer.add_task("Wave", "Wave");
  producer.add_task("Out", "Send", sp);
  producer.connect("Wave", 0, "Out", 0);
  home.publish_graph_modules(listener);

  // The first consumer binds the sender, then its lease runs dry.
  std::string old_job;
  home.deploy_remote(grid.workers[0]->endpoint(), listener, 0,
                     [&](const DeployAckMsg& a) { old_job = a.job_id; }, {},
                     DeployOptions{.lease_s = 2.0});
  grid.net.run_until(0.5);
  const std::string sender = home.deploy_local(producer, 1);
  grid.net.run_until(3.0);
  ASSERT_EQ(grid.workers[0]->job_state(old_job), JobState::kSuspended);

  // Its replacement serves the label at a higher epoch; the sender is still
  // bound to the suspended one.
  std::string new_job;
  home.deploy_remote(grid.workers[1]->endpoint(), listener, 0,
                     [&](const DeployAckMsg& a) { new_job = a.job_id; }, {},
                     DeployOptions{.epoch = 1});
  grid.net.run_until(3.5);
  ASSERT_FALSE(new_job.empty());

  const std::uint64_t queries = home.node().stats().queries_initiated;
  home.tick_job(sender, kBurst);
  grid.net.run_all();

  EXPECT_EQ(grid.workers[0]->stats().payloads_bounced, kBurst);
  EXPECT_EQ(home.node().stats().queries_initiated - queries, 1u);
  EXPECT_EQ(home.stats().bounces_resent, kBurst);
  EXPECT_EQ(home.stats().bounces_dropped, 0u);
  auto* sink =
      grid.workers[1]->job_runtime(new_job)->unit_as<GrapherUnit>("Sink");
  EXPECT_EQ(sink->items().size(), kBurst);
  EXPECT_FALSE(home.job_failed(sender));
}

// Every suspension or fence leaves its job's input labels bouncing; a host
// that outlives many fenced runs forgets the oldest past the cap.
TEST(Service, BounceLabelsAreCapped) {
  constexpr std::size_t kCap = TrianaService::kMaxBounceLabels;
  Grid grid(1);
  TrianaService& worker = *grid.workers[0];
  for (std::size_t i = 0; i <= kCap; ++i) {
    const std::string label = "fenced-" + std::to_string(i);
    TaskGraph frag("listener");
    ParamSet rp;
    rp.set("label", label);
    frag.add_task("In", "Receive", rp);
    frag.add_task("Sink", "NullSink");
    frag.connect("In", 0, "Sink", 0);
    worker.deploy_local(frag, 0);
    grid.home->reliable().send(worker.endpoint(), encode(RebindMsg{label, 1}));
    grid.net.run_all();
  }
  EXPECT_EQ(worker.stats().jobs_fenced, kCap + 1);
  EXPECT_EQ(worker.job_count(), 0u);
  EXPECT_EQ(worker.bounce_label_count(), kCap);

  // The first label is forgotten, the last still bounces.
  const auto bounced = [&](const std::string& label) {
    const std::uint64_t before = worker.stats().payloads_bounced;
    grid.home->pipes().send(p2p::OutputPipe{label, worker.endpoint()},
                            encode_data_item(DataItem(1.0)));
    grid.net.run_all();
    return worker.stats().payloads_bounced - before;
  };
  EXPECT_EQ(bounced("fenced-0"), 0u);
  EXPECT_EQ(bounced("fenced-" + std::to_string(kCap)), 1u);
}

/// glibc's in-use heap: arena bytes handed out plus mmapped blocks.
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kGlibcHeap = false;  // the sanitizer's allocator serves malloc
#else
constexpr bool kGlibcHeap = true;
#endif

// A volunteer stays connected for months, running one short job after
// another. Every table it keeps per job, query or message must stay
// bounded however many jobs it has served, and the heap must stop growing
// once the first cycles have warmed every pool and cache. A record kept
// per job (~100 B) breaks the heap bound by cycle 2,000.
TEST(Soak, LongLivedPeersKeepBoundedState) {
  constexpr int kCycles = 2000;
  constexpr int kWarmup = 200;
  constexpr std::uint64_t kItems = 3;
  constexpr std::size_t kMaxModules = 3;    // the pipeline's stage types
  constexpr std::size_t kMaxAdverts = 256;  // peers + unexpired pipe adverts
  constexpr std::size_t kMaxHeapGrowth = 256 * 1024;
  Grid grid(3);
  TaskGraph g = three_stage_pipeline();
  grid.home->publish_graph_modules(g);
  TrianaController ctl(*grid.home);

  std::size_t heap_at_warmup = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    if (cycle == kWarmup) heap_at_warmup = heap_in_use();
    auto run = ctl.distribute(g, "Pipe", grid.worker_endpoints());
    grid.net.run_all();
    ASSERT_TRUE(run->deployed_ok()) << "cycle " << cycle;
    ctl.tick(*run, kItems);
    grid.net.run_all();
    ASSERT_EQ(ctl.home_runtime(*run)->unit_as<GrapherUnit>("Grapher")
                  ->items().size(),
              kItems)
        << "cycle " << cycle;
    ctl.shutdown(*run);
    grid.net.run_all();
  }
  const std::size_t heap_at_end = heap_in_use();

  std::vector<TrianaService*> peers{grid.home.get()};
  for (const auto& w : grid.workers) peers.push_back(w.get());
  for (TrianaService* peer : peers) {
    SCOPED_TRACE(peer->id());
    EXPECT_EQ(peer->job_count(), 0u);
    EXPECT_EQ(peer->reliable().in_flight(), 0u);
    EXPECT_LE(peer->module_cache().entry_count(), kMaxModules);
    EXPECT_LE(peer->node().cache().size(), kMaxAdverts);
    // Home owns every job, its own home graphs included: one owner, one
    // running total, however many jobs were billed.
    const auto& totals = peer->account().ledger().totals();
    ASSERT_EQ(totals.size(), 1u);
    EXPECT_EQ(totals.at("home").executions,
              static_cast<std::uint64_t>(kCycles));
  }
  if (kGlibcHeap) {
    EXPECT_LT(heap_at_end, heap_at_warmup + kMaxHeapGrowth)
        << "heap grew from " << heap_at_warmup << " to " << heap_at_end
        << " bytes between cycle " << kWarmup << " and " << kCycles;
  }
}

}  // namespace
}  // namespace cg::core
