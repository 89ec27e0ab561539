// Tests for the checkpoint store and the run supervisor: periodic
// checkpointing, failure detection via missed probes, and automatic
// recovery of a fragment onto a spare worker with state restored.
#include <gtest/gtest.h>

#include "core/service/supervisor.hpp"
#include "core/unit/builtin.hpp"
#include "net/sim_network.hpp"

namespace cg::core {
namespace {

UnitRegistry& reg() {
  static UnitRegistry r = UnitRegistry::with_builtins();
  return r;
}

// ---------------------------------------------------------- checkpoint store

TEST(CheckpointStore, LatestWinsAndStaleRejected) {
  CheckpointStore store;
  EXPECT_FALSE(store.get("a").has_value());
  EXPECT_TRUE(store.put("a", {1, 2, 3}, 10.0));
  EXPECT_TRUE(store.put("a", {4, 5}, 20.0));
  EXPECT_FALSE(store.put("a", {9}, 15.0));  // out-of-order arrival

  auto rec = store.get("a");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->state, (serial::Bytes{4, 5}));
  EXPECT_DOUBLE_EQ(rec->taken_at, 20.0);
  EXPECT_EQ(rec->sequence, 2u);
}

TEST(CheckpointStore, EraseAndTotals) {
  CheckpointStore store;
  store.put("a", serial::Bytes(100, 1), 1.0);
  store.put("b", serial::Bytes(50, 2), 1.0);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.total_bytes(), 150u);
  EXPECT_TRUE(store.erase("a"));
  EXPECT_FALSE(store.erase("a"));
  EXPECT_EQ(store.total_bytes(), 50u);
}

TEST(CheckpointStore, SerialiseRoundTrip) {
  CheckpointStore store;
  store.put("x", {1, 2, 3}, 5.0);
  store.put("y", {}, 7.0);
  CheckpointStore back = CheckpointStore::deserialise(store.serialise());
  EXPECT_EQ(back.size(), 2u);
  EXPECT_EQ(back.get("x")->state, (serial::Bytes{1, 2, 3}));
  EXPECT_DOUBLE_EQ(back.get("y")->taken_at, 7.0);
}

// ----------------------------------------------------------------- supervisor

struct SupGrid {
  explicit SupGrid(int n = 3) : net({}, 1) {
    ServiceConfig hc;
    hc.peer_id = "home";
    home = std::make_unique<TrianaService>(net.add_node(), net.clock(),
                                           net.scheduler(), reg(), hc);
    for (int i = 0; i < n; ++i) {
      ServiceConfig cfg;
      cfg.peer_id = std::string("w").append(std::to_string(i));
      add_worker(cfg);
    }
  }

  /// Workers are sim nodes 1..n in creation order (home is node 0).
  TrianaService& add_worker(ServiceConfig cfg) {
    workers.push_back(std::make_unique<TrianaService>(
        net.add_node(), net.clock(), net.scheduler(), reg(), cfg));
    home->node().add_neighbor(workers.back()->endpoint());
    workers.back()->node().add_neighbor(home->endpoint());
    return *workers.back();
  }

  net::SimNetwork net;
  std::unique_ptr<TrianaService> home;
  std::vector<std::unique_ptr<TrianaService>> workers;
};

TaskGraph accum_farm_graph() {
  TaskGraph inner("inner");
  ParamSet np;
  np.set_double("stddev", 1.0);
  inner.add_task("Gaussian", "Gaussian", np);
  inner.add_task("AccumStat", "AccumStat");
  inner.connect("Gaussian", 0, "AccumStat", 0);

  TaskGraph g("sup");
  ParamSet wp;
  wp.set_int("samples", 64);
  g.add_task("Wave", "Wave", wp);
  TaskDef& grp = g.add_group("G", std::move(inner), "parallel");
  grp.group_inputs = {GroupPort{"Gaussian", 0}};
  grp.group_outputs = {GroupPort{"AccumStat", 0}};
  g.add_task("Sink", "Grapher");
  g.connect("Wave", 0, "G", 0);
  g.connect("G", 0, "Sink", 0);
  return g;
}

TEST(Supervisor, CheckpointsPeriodically) {
  SupGrid grid;
  TaskGraph g = accum_farm_graph();
  grid.home->publish_graph_modules(g);
  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "G", {grid.workers[0]->endpoint()});
  grid.net.run_all();
  ASSERT_TRUE(run->deployed_ok());

  SupervisorOptions opt;
  opt.checkpoint_period_s = 5.0;
  opt.probe_period_s = 2.0;
  auto sup = std::make_shared<RunSupervisor>(
      ctl, run, std::vector<net::Endpoint>{}, opt);
  sup->start();

  ctl.tick(*run, 4);
  grid.net.run_until(21.0);
  EXPECT_GE(sup->stats().checkpoints_taken, 3u);
  EXPECT_GE(sup->stats().probes_answered, 8u);
  EXPECT_EQ(sup->stats().failures_detected, 0u);
  EXPECT_TRUE(sup->checkpoints().get("fragment#0").has_value());
  sup->stop();
}

TEST(Supervisor, DetectsDeadWorkerAndRecoversToSpare) {
  SupGrid grid;
  TaskGraph g = accum_farm_graph();
  grid.home->publish_graph_modules(g);

  sandbox::TrustManager trust;
  TrianaController ctl(*grid.home);
  ctl.set_trust_manager(&trust);

  // Workers 0 runs the fragment; worker 2 is the spare.
  auto run = ctl.distribute(g, "G", {grid.workers[0]->endpoint()});
  grid.net.run_all();
  ASSERT_TRUE(run->deployed_ok());

  SupervisorOptions opt;
  opt.checkpoint_period_s = 4.0;
  opt.probe_period_s = 2.0;
  opt.max_missed = 2;
  auto sup = std::make_shared<RunSupervisor>(
      ctl, run, std::vector<net::Endpoint>{grid.workers[2]->endpoint()}, opt);
  sup->start();

  // Stream some work, let checkpoints accumulate.
  ctl.tick(*run, 6);
  grid.net.run_until(13.0);
  auto* sink = ctl.home_runtime(*run)->unit_as<GrapherUnit>("Sink");
  ASSERT_EQ(sink->items().size(), 6u);

  // Volunteer 0's DSL drops (sim node ids: home=0, w0=1, w1=2, w2=3).
  grid.net.set_up(1, false);

  // Probes start missing; the supervisor recovers onto the spare.
  grid.net.run_until(40.0);
  EXPECT_EQ(sup->stats().failures_detected, 1u);
  EXPECT_EQ(sup->stats().recoveries, 1u);
  EXPECT_EQ(sup->spares_left(), 0u);
  EXPECT_EQ(run->workers[0], grid.workers[2]->endpoint());
  EXPECT_LT(trust.score(grid.workers[0]->endpoint().value), 0.5);

  // The fragment resumed from its checkpoint: the recovered AccumStat
  // continues from the pre-failure count.
  auto* rt = grid.workers[2]->job_runtime(run->remote_jobs[0]);
  ASSERT_NE(rt, nullptr);
  auto* acc = dynamic_cast<AccumStatUnit*>(rt->unit("AccumStat"));
  ASSERT_NE(acc, nullptr);
  EXPECT_GE(acc->count(), 6u);  // restored state, not a fresh unit

  // And the stream keeps flowing end to end.
  ctl.tick(*run, 4);
  grid.net.run_until(60.0);
  EXPECT_EQ(sink->items().size(), 10u);
  EXPECT_GE(acc->count(), 10u);
  sup->stop();
}

TEST(Supervisor, NoSpareMeansRecoveryFails) {
  SupGrid grid;
  TaskGraph g = accum_farm_graph();
  grid.home->publish_graph_modules(g);
  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "G", {grid.workers[0]->endpoint()});
  grid.net.run_all();
  ASSERT_TRUE(run->deployed_ok());

  SupervisorOptions opt;
  opt.probe_period_s = 2.0;
  opt.max_missed = 2;
  auto sup = std::make_shared<RunSupervisor>(
      ctl, run, std::vector<net::Endpoint>{}, opt);
  sup->start();

  grid.net.set_up(1, false);  // w0 is sim node 1
  grid.net.run_until(30.0);
  EXPECT_EQ(sup->stats().failures_detected, 1u);
  EXPECT_EQ(sup->stats().recoveries, 0u);
  EXPECT_EQ(sup->stats().recoveries_failed, 1u);
  EXPECT_TRUE(sup->degraded(0));
  sup->stop();
}

TEST(Supervisor, StartTwiceThrows) {
  SupGrid grid;
  TaskGraph g = accum_farm_graph();
  grid.home->publish_graph_modules(g);
  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "G", {grid.workers[0]->endpoint()});
  grid.net.run_all();

  auto sup = std::make_shared<RunSupervisor>(
      ctl, run, std::vector<net::Endpoint>{});
  sup->start();
  EXPECT_THROW(sup->start(), std::logic_error);
  sup->stop();
}

TEST(Supervisor, StopMakesInflightCallbacksNoOps) {
  SupGrid grid;
  TaskGraph g = accum_farm_graph();
  grid.home->publish_graph_modules(g);
  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "G", {grid.workers[0]->endpoint()});
  grid.net.run_all();
  ASSERT_TRUE(run->deployed_ok());

  SupervisorOptions opt;
  opt.probe_period_s = 2.0;
  opt.lease_s = 10.0;  // fenced: recovery starts with a lease wait
  auto sup = std::make_shared<RunSupervisor>(
      ctl, run, std::vector<net::Endpoint>{grid.workers[2]->endpoint()}, opt);
  sup->start();

  // Warm up the detector, then drop the worker so a recovery begins; stop()
  // lands mid lease-wait, with the replacement callback still scheduled.
  grid.net.run_until(13.0);
  grid.net.set_up(1, false);
  grid.net.run_until(18.0);
  ASSERT_EQ(sup->stats().failures_detected, 1u);
  ASSERT_EQ(sup->stats().recoveries, 0u);  // still waiting out the lease
  sup->stop();

  const SupervisorStats frozen = sup->stats();
  const net::Endpoint worker_before = run->workers[0];
  grid.net.run_until(60.0);

  // The pending lease-wait, probe and checkpoint callbacks all fired into a
  // stopped supervisor: nothing moved.
  EXPECT_EQ(sup->stats().probes_sent, frozen.probes_sent);
  EXPECT_EQ(sup->stats().probes_answered, frozen.probes_answered);
  EXPECT_EQ(sup->stats().checkpoints_taken, frozen.checkpoints_taken);
  EXPECT_EQ(sup->stats().failures_detected, frozen.failures_detected);
  EXPECT_EQ(sup->stats().recoveries, 0u);
  EXPECT_EQ(sup->stats().recoveries_failed, 0u);
  EXPECT_EQ(run->workers[0], worker_before);
  EXPECT_EQ(sup->spares_left(), 1u);
}

TEST(Supervisor, NackedRedeployReturnsSpareToPool) {
  SupGrid grid;
  // A spare that will refuse the redeploy: it may not fetch code over the
  // network and owns none of the graph's modules.
  ServiceConfig nackcfg;
  nackcfg.peer_id = "nacker";
  nackcfg.fetch_code_on_demand = false;
  TrianaService& nacker = grid.add_worker(nackcfg);  // sim node 4

  TaskGraph g = accum_farm_graph();
  grid.home->publish_graph_modules(g);
  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "G", {grid.workers[0]->endpoint()});
  grid.net.run_all();
  ASSERT_TRUE(run->deployed_ok());

  SupervisorOptions opt;
  opt.checkpoint_period_s = 4.0;
  opt.probe_period_s = 2.0;
  // Spares are consumed from the back: the nacker is tried first.
  auto sup = std::make_shared<RunSupervisor>(
      ctl, run,
      std::vector<net::Endpoint>{grid.workers[2]->endpoint(),
                                 nacker.endpoint()},
      opt);
  sup->start();

  ctl.tick(*run, 4);
  grid.net.run_until(13.0);
  grid.net.set_up(1, false);  // w0 dies
  grid.net.run_until(40.0);

  EXPECT_EQ(sup->stats().failures_detected, 1u);
  EXPECT_EQ(sup->stats().redeploys_nacked, 1u);
  EXPECT_EQ(sup->stats().recoveries, 1u);
  EXPECT_EQ(sup->stats().recoveries_failed, 0u);
  // The refusing spare went back to the pool -- not leaked.
  EXPECT_EQ(sup->spares_left(), 1u);
  EXPECT_EQ(run->workers[0], grid.workers[2]->endpoint());

  ctl.tick(*run, 3);
  grid.net.run_until(60.0);
  auto* sink = ctl.home_runtime(*run)->unit_as<GrapherUnit>("Sink");
  EXPECT_EQ(sink->items().size(), 7u);
  sup->stop();
}

TEST(Supervisor, CorrelatedFailureRecoversBothFragments) {
  SupGrid grid(4);  // w0,w1 run fragments; w2,w3 are spares
  TaskGraph g = accum_farm_graph();
  grid.home->publish_graph_modules(g);
  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(
      g, "G", {grid.workers[0]->endpoint(), grid.workers[1]->endpoint()});
  grid.net.run_all();
  ASSERT_TRUE(run->deployed_ok());

  SupervisorOptions opt;
  opt.checkpoint_period_s = 4.0;
  opt.probe_period_s = 2.0;
  auto sup = std::make_shared<RunSupervisor>(
      ctl, run,
      std::vector<net::Endpoint>{grid.workers[2]->endpoint(),
                                 grid.workers[3]->endpoint()},
      opt);
  sup->start();

  ctl.tick(*run, 6);
  grid.net.run_until(13.0);
  auto* sink = ctl.home_runtime(*run)->unit_as<GrapherUnit>("Sink");
  ASSERT_EQ(sink->items().size(), 6u);

  // Both fragment hosts vanish in the same probe window.
  grid.net.set_up(1, false);
  grid.net.set_up(2, false);
  grid.net.run_until(45.0);

  EXPECT_EQ(sup->stats().failures_detected, 2u);
  EXPECT_EQ(sup->stats().recoveries, 2u);
  EXPECT_EQ(sup->stats().recoveries_failed, 0u);
  EXPECT_EQ(sup->spares_left(), 0u);
  EXPECT_FALSE(sup->degraded(0));
  EXPECT_FALSE(sup->degraded(1));
  EXPECT_NE(run->workers[0], run->workers[1]);

  ctl.tick(*run, 4);
  grid.net.run_until(70.0);
  EXPECT_EQ(sink->items().size(), 10u);
  sup->stop();
}

TEST(Supervisor, SpareDyingDuringRecoveryDegradesCleanly) {
  SupGrid grid;
  TaskGraph g = accum_farm_graph();
  grid.home->publish_graph_modules(g);
  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "G", {grid.workers[0]->endpoint()});
  grid.net.run_all();
  ASSERT_TRUE(run->deployed_ok());

  SupervisorOptions opt;
  opt.probe_period_s = 2.0;
  opt.redeploy_timeout_s = 5.0;
  auto sup = std::make_shared<RunSupervisor>(
      ctl, run, std::vector<net::Endpoint>{grid.workers[2]->endpoint()}, opt);
  sup->start();

  grid.net.run_until(13.0);
  // The worker AND the only spare die together: the redeploy can never be
  // acked. The supervisor must give up cleanly, not hang or spin.
  grid.net.set_up(1, false);
  grid.net.set_up(3, false);
  grid.net.run_until(60.0);

  EXPECT_EQ(sup->stats().failures_detected, 1u);
  EXPECT_EQ(sup->stats().redeploys_timed_out, 1u);
  EXPECT_EQ(sup->stats().recoveries, 0u);
  EXPECT_EQ(sup->stats().recoveries_failed, 1u);
  EXPECT_TRUE(sup->degraded(0));
  EXPECT_EQ(sup->spares_left(), 0u);  // the silent spare is not trusted again
  sup->stop();
}

TEST(Supervisor, RecoveryAbortedWhenHostReturnsDuringLeaseWait) {
  SupGrid grid;
  TaskGraph g = accum_farm_graph();
  grid.home->publish_graph_modules(g);
  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "G", {grid.workers[0]->endpoint()});
  grid.net.run_all();
  ASSERT_TRUE(run->deployed_ok());

  SupervisorOptions opt;
  opt.checkpoint_period_s = 4.0;
  opt.probe_period_s = 2.0;
  opt.lease_s = 10.0;  // long lease: the wait outlasts the partition
  auto sup = std::make_shared<RunSupervisor>(
      ctl, run, std::vector<net::Endpoint>{grid.workers[2]->endpoint()}, opt);
  sup->start();

  ctl.tick(*run, 4);
  grid.net.run_until(13.0);
  grid.net.set_up(1, false);  // partition, not death
  grid.net.run_until(17.0);
  ASSERT_EQ(sup->stats().failures_detected, 1u);
  grid.net.set_up(1, true);  // the host returns during the lease wait
  grid.net.run_until(40.0);

  // Life was observed before the lease expired: recovery aborted, the spare
  // stayed in the pool, and the original placement stands.
  EXPECT_EQ(sup->stats().recoveries_aborted, 1u);
  EXPECT_EQ(sup->stats().recoveries, 0u);
  EXPECT_EQ(sup->stats().recoveries_failed, 0u);
  EXPECT_EQ(sup->spares_left(), 1u);
  EXPECT_EQ(run->workers[0], grid.workers[0]->endpoint());
  EXPECT_FALSE(sup->degraded(0));

  // The lease-suspended job was resumed by the next probe: items flow again.
  ctl.tick(*run, 3);
  grid.net.run_until(60.0);
  auto* sink = ctl.home_runtime(*run)->unit_as<GrapherUnit>("Sink");
  EXPECT_EQ(sink->items().size(), 7u);
  sup->stop();
}

TEST(Supervisor, SpeculativeStandbyPromotedOnDeath) {
  SupGrid grid;
  TaskGraph g = accum_farm_graph();
  grid.home->publish_graph_modules(g);
  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "G", {grid.workers[0]->endpoint()});
  grid.net.run_all();
  ASSERT_TRUE(run->deployed_ok());

  SupervisorOptions opt;
  opt.checkpoint_period_s = 4.0;
  opt.probe_period_s = 2.0;
  opt.lease_s = 4.0;
  opt.speculative_backups = true;
  // A wide variance floor stretches the suspect band over several probe
  // rounds so the standby provably deploys before the death verdict.
  opt.detector_min_std_s = 2.0;
  opt.phi_suspect = 1.0;
  opt.phi_dead = 8.0;
  auto sup = std::make_shared<RunSupervisor>(
      ctl, run, std::vector<net::Endpoint>{grid.workers[2]->endpoint()}, opt);
  sup->start();

  ctl.tick(*run, 6);
  grid.net.run_until(13.0);
  auto* sink = ctl.home_runtime(*run)->unit_as<GrapherUnit>("Sink");
  ASSERT_EQ(sink->items().size(), 6u);

  grid.net.set_up(1, false);
  grid.net.run_until(45.0);

  // Suspicion crossed phi_suspect first (standby deployed dark), then
  // phi_dead: promotion, not a cold redeploy.
  EXPECT_EQ(sup->stats().speculative_deploys, 1u);
  EXPECT_EQ(sup->stats().speculative_promoted, 1u);
  EXPECT_EQ(sup->stats().failures_detected, 1u);
  EXPECT_EQ(sup->stats().recoveries, 1u);
  EXPECT_EQ(sup->spares_left(), 0u);
  EXPECT_GE(sup->epoch_of(0), 1u);
  EXPECT_GT(sup->stats().fences_sent, 0u);
  EXPECT_EQ(run->workers[0], grid.workers[2]->endpoint());

  // The promoted standby restored the checkpoint and serves the stream.
  auto* rt = grid.workers[2]->job_runtime(run->remote_jobs[0]);
  ASSERT_NE(rt, nullptr);
  auto* acc = dynamic_cast<AccumStatUnit*>(rt->unit("AccumStat"));
  ASSERT_NE(acc, nullptr);
  ctl.tick(*run, 4);
  grid.net.run_until(70.0);
  EXPECT_EQ(sink->items().size(), 10u);
  EXPECT_GE(acc->count(), 10u);
  sup->stop();
}

TEST(Supervisor, SpeculativeStandbyCancelledWhenSuspicionSubsides) {
  SupGrid grid;
  TaskGraph g = accum_farm_graph();
  grid.home->publish_graph_modules(g);
  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "G", {grid.workers[0]->endpoint()});
  grid.net.run_all();
  ASSERT_TRUE(run->deployed_ok());

  SupervisorOptions opt;
  opt.checkpoint_period_s = 4.0;
  opt.probe_period_s = 2.0;
  opt.lease_s = 4.0;
  opt.speculative_backups = true;
  opt.detector_min_std_s = 2.0;
  opt.phi_suspect = 1.0;
  opt.phi_dead = 8.0;
  auto sup = std::make_shared<RunSupervisor>(
      ctl, run, std::vector<net::Endpoint>{grid.workers[2]->endpoint()}, opt);
  sup->start();

  ctl.tick(*run, 4);
  grid.net.run_until(13.0);

  // A blip, not a death: long enough to cross phi_suspect, far too short
  // for phi_dead.
  grid.net.set_up(1, false);
  grid.net.run_until(19.0);
  grid.net.set_up(1, true);
  grid.net.run_until(40.0);

  EXPECT_EQ(sup->stats().speculative_deploys, 1u);
  EXPECT_EQ(sup->stats().speculative_cancelled, 1u);
  EXPECT_EQ(sup->stats().speculative_promoted, 0u);
  EXPECT_EQ(sup->stats().failures_detected, 0u);
  EXPECT_EQ(sup->stats().recoveries, 0u);
  EXPECT_EQ(sup->spares_left(), 1u);  // the spare came back
  EXPECT_EQ(run->workers[0], grid.workers[0]->endpoint());

  ctl.tick(*run, 3);
  grid.net.run_until(60.0);
  auto* sink = ctl.home_runtime(*run)->unit_as<GrapherUnit>("Sink");
  EXPECT_EQ(sink->items().size(), 7u);
  sup->stop();
}

// A lease-suspended job must not self-resume off a probe: over real sockets
// a probe can be a stale retransmission from before a recovery, and resuming
// on it lets an already-replaced zombie execute retransmitted payloads at the
// old epoch (the result is then fenced at home while the reliable layer
// counts the payload delivered -- a permanently lost item). Resume is an
// explicit, epoch-gated supervisor verb.
TEST(Supervisor, SuspendedJobResumesOnlyOnExplicitEpochGatedResume) {
  SupGrid grid;
  TaskGraph g = accum_farm_graph();
  grid.home->publish_graph_modules(g);
  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "G", {grid.workers[0]->endpoint()});
  grid.net.run_all();
  ASSERT_TRUE(run->deployed_ok());
  const std::string job = run->remote_jobs[0];
  const net::Endpoint w = grid.workers[0]->endpoint();

  // Grant a short lease via a probe, then go silent: the job self-suspends
  // when the lease runs dry.
  grid.home->request_status(w, job, [](const StatusMsg&) {}, 0, 2.0);
  grid.net.run_until(10.0);
  EXPECT_GE(grid.workers[0]->stats().jobs_suspended, 1u);

  // A later leased probe -- indistinguishable from a stale retransmission
  // -- renews the lease but must NOT resume; it only reports suspended.
  StatusMsg seen;
  grid.home->request_status(
      w, job, [&](const StatusMsg& m) { seen = m; }, 0, 2.0);
  grid.net.run_until(10.5);
  EXPECT_TRUE(seen.known);
  EXPECT_TRUE(seen.suspended);

  // A resume at the wrong epoch is ignored...
  grid.home->resume_remote(w, job, 7, 2.0);
  grid.net.run_until(11.0);
  grid.home->request_status(
      w, job, [&](const StatusMsg& m) { seen = m; }, 0, 2.0);
  grid.net.run_until(11.5);
  EXPECT_TRUE(seen.suspended);

  // ...and the current-epoch resume un-suspends it.
  grid.home->resume_remote(w, job, 0, 2.0);
  grid.net.run_until(12.0);
  grid.home->request_status(
      w, job, [&](const StatusMsg& m) { seen = m; }, 0, 2.0);
  grid.net.run_until(12.5);
  EXPECT_FALSE(seen.suspended);
  EXPECT_TRUE(seen.running);
}

}  // namespace
}  // namespace cg::core
