// Chaos tests: full deploy -> execute -> checkpoint -> recover loops under
// scripted network faults (loss, duplication, reordering, corruption) plus
// a forced mid-run peer crash. The acceptance bar: a 3-fragment distributed
// run over a faulty SimNetwork completes with results bit-identical to the
// loss-free run and zero duplicate executions, while the reliable layer's
// counters prove retries and duplicate suppression actually happened.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/service/supervisor.hpp"
#include "core/unit/builtin.hpp"
#include "net/fault.hpp"
#include "net/sim_network.hpp"

namespace cg::core {
namespace {

UnitRegistry& reg() {
  static UnitRegistry r = UnitRegistry::with_builtins();
  return r;
}

/// Wave source -> parallel group of stateless Scalers -> Grapher sink.
/// Stateless fragments make the expected output independent of which
/// worker (original or recovery spare) handled each item.
TaskGraph scaler_farm_graph() {
  TaskGraph inner("inner");
  ParamSet sp;
  sp.set_double("factor", 3.0);
  inner.add_task("Scale", "Scaler", sp);
  TaskGraph g("chaos");
  ParamSet wp;
  wp.set_int("samples", 64);
  g.add_task("Wave", "Wave", wp);
  TaskDef& grp = g.add_group("G", std::move(inner), "parallel");
  grp.group_inputs = {GroupPort{"Scale", 0}};
  grp.group_outputs = {GroupPort{"Scale", 0}};
  g.add_task("Sink", "Grapher");
  g.connect("Wave", 0, "G", 0);
  g.connect("G", 0, "Sink", 0);
  return g;
}

/// Home + 3 workers + 1 spare on one simulator.
/// Sim node ids: home=0, w0=1, w1=2, w2=3, spare=4.
struct ChaosGrid {
  explicit ChaosGrid(std::uint64_t seed) : net({}, seed) {
    auto clock = net.clock();
    auto sched = net.scheduler();
    // Generous retry budget: a crash window must not expire messages, only
    // delay them.
    net::ReliableConfig rel;
    rel.deadline_s = 60.0;
    rel.max_retries = 12;

    ServiceConfig hc;
    hc.peer_id = "home";
    hc.reliable = rel;
    home = std::make_unique<TrianaService>(net.add_node(), clock, sched,
                                           reg(), hc);
    for (int i = 0; i < 4; ++i) {  // 3 workers + 1 spare
      ServiceConfig cfg;
      cfg.peer_id = "w" + std::to_string(i);
      cfg.reliable = rel;
      workers.push_back(std::make_unique<TrianaService>(net.add_node(), clock,
                                                        sched, reg(), cfg));
      home->node().add_neighbor(workers.back()->endpoint());
      workers.back()->node().add_neighbor(home->endpoint());
    }
  }

  net::SimNetwork net;
  std::unique_ptr<TrianaService> home;
  std::vector<std::unique_ptr<TrianaService>> workers;
};

/// Everything a chaos run produces that two runs can be compared on.
struct RunOutcome {
  std::vector<std::vector<double>> items;  ///< sorted sink payloads
  net::ReliableStats home_reliable;
  std::vector<net::ReliableStats> worker_reliable;
  net::FaultStats faults;
  std::uint64_t duplicate_deploys = 0;
  std::uint64_t jobs_started = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t corrupt_rejected = 0;
};

constexpr int kItems = 12;

/// Drive the full distributed run; with `chaotic` the network drops,
/// duplicates, delays and corrupts frames, and worker w1 (sim node 2)
/// crashes mid-run and restarts 8 s later.
RunOutcome run_farm(std::uint64_t seed, bool chaotic) {
  ChaosGrid grid(seed);
  TaskGraph g = scaler_farm_graph();
  grid.home->publish_graph_modules(g);

  net::FaultPlan plan;
  if (chaotic) {
    plan.default_link.drop = 0.10;
    plan.default_link.duplicate = 0.05;
    plan.default_link.delay = 0.10;
    plan.default_link.delay_min_s = 0.05;
    plan.default_link.delay_max_s = 0.80;
    plan.default_link.corrupt = 0.02;
    plan.crashes.push_back(
        net::CrashWindow{.node = 2, .at_s = 8.0, .duration_s = 8.0});
  }
  if (chaotic) grid.net.arm_faults(plan, seed ^ 0xFA01u);

  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "G",
                            {grid.workers[0]->endpoint(),
                             grid.workers[1]->endpoint(),
                             grid.workers[2]->endpoint()});
  grid.net.run_until(5.0);
  EXPECT_TRUE(run->deployed_ok())
      << (run->errors.empty() ? "missing acks" : run->errors[0]);

  SupervisorOptions opt;
  opt.checkpoint_period_s = 4.0;
  opt.probe_period_s = 2.0;
  opt.max_missed = 2;
  auto sup = std::make_shared<RunSupervisor>(
      ctl, run, std::vector<net::Endpoint>{grid.workers[3]->endpoint()}, opt);
  sup->start();

  // Stream work in three bursts: before, during and after the crash
  // window, so in-flight items hit every failure mode.
  ctl.tick(*run, kItems / 3);
  grid.net.schedule(10.0, [&] { ctl.tick(*run, kItems / 3); });
  grid.net.schedule(25.0, [&] { ctl.tick(*run, kItems / 3); });
  grid.net.run_until(120.0);
  sup->stop();

  RunOutcome out;
  auto* sink = ctl.home_runtime(*run)->unit_as<GrapherUnit>("Sink");
  for (const auto& item : sink->items()) {
    out.items.push_back(item.samples().samples);
  }
  std::sort(out.items.begin(), out.items.end());
  out.home_reliable = grid.home->reliable().stats();
  for (const auto& w : grid.workers) {
    out.worker_reliable.push_back(w->reliable().stats());
    out.duplicate_deploys += w->stats().duplicate_deploys;
    out.jobs_started += w->stats().jobs_started;
  }
  out.faults = grid.net.fault_stats();
  out.recoveries = sup->stats().recoveries;
  out.corrupt_rejected = grid.net.stats().messages_corrupt_rejected;
  return out;
}

TEST(Chaos, FaultyRunMatchesLossFreeRunBitForBit) {
  RunOutcome clean = run_farm(404, /*chaotic=*/false);
  RunOutcome dirty = run_farm(404, /*chaotic=*/true);

  // The loss-free run is the oracle: every item arrived, scaled once.
  ASSERT_EQ(clean.items.size(), static_cast<std::size_t>(kItems));
  EXPECT_EQ(clean.recoveries, 0u);

  // The chaotic run produced the exact same multiset of results -- no item
  // lost, none executed or delivered twice.
  ASSERT_EQ(dirty.items.size(), static_cast<std::size_t>(kItems));
  EXPECT_EQ(dirty.items, clean.items);

  // The chaos was real...
  EXPECT_GT(dirty.faults.dropped, 0u);
  EXPECT_GT(dirty.faults.duplicated, 0u);
  EXPECT_EQ(dirty.faults.crashes_opened, 1u);
  EXPECT_EQ(dirty.faults.crashes_closed, 1u);

  // ...and the reliable layer fought through it: retransmissions happened
  // and retransmitted copies were suppressed at receivers, which is what
  // keeps deploys/cancels/data effectively-once.
  auto total = [](const RunOutcome& o) {
    net::ReliableStats sum = o.home_reliable;
    for (const auto& w : o.worker_reliable) {
      sum.retransmits += w.retransmits;
      sum.duplicates_suppressed += w.duplicates_suppressed;
      sum.expired += w.expired;
    }
    return sum;
  };
  const net::ReliableStats dirty_total = total(dirty);
  EXPECT_GT(dirty_total.retransmits, 0u);
  EXPECT_GT(dirty_total.duplicates_suppressed, 0u);
  EXPECT_EQ(dirty_total.expired, 0u);  // nothing gave up
  EXPECT_EQ(total(clean).retransmits, 0u);

  // No deploy ran twice anywhere (the dedup + idempotence guard): three
  // fragments, plus at most one recovery redeploy onto the spare.
  EXPECT_EQ(dirty.duplicate_deploys, 0u);
  EXPECT_EQ(dirty.jobs_started, 3u + dirty.recoveries);
  EXPECT_EQ(clean.jobs_started, 3u);
}

TEST(Chaos, CrashTriggersSupervisedRecovery) {
  RunOutcome dirty = run_farm(404, /*chaotic=*/true);
  // The 8 s crash window outlives max_missed * probe_period, so the
  // supervisor must have detected the failure and recovered to the spare.
  EXPECT_EQ(dirty.recoveries, 1u);
}

TEST(Chaos, CorruptionIsRejectedNotDelivered) {
  RunOutcome dirty = run_farm(404, /*chaotic=*/true);
  EXPECT_GT(dirty.faults.corrupted, 0u);
  // Not exactly equal to faults.corrupted: a corrupted frame can also be
  // duplicated (both copies rejected) or addressed to a crashed node
  // (dropped before the CRC check).
  EXPECT_GT(dirty.corrupt_rejected, 0u);
  // Yet the run still completed intact (checked in the bit-identical
  // test); corruption degraded into retransmission, not wrong data.
  EXPECT_EQ(dirty.items.size(), static_cast<std::size_t>(kItems));
}

// ------------------------------------------------- fenced zombie recovery

/// Outcome of a *fenced* chaos run (lease_s > 0): everything needed to
/// prove exactly-once delivery across a recovery epoch bump.
struct FencedOutcome {
  std::vector<std::vector<double>> items;  ///< sorted sink payloads
  SupervisorStats sup;
  std::vector<ServiceStats> svc;  ///< home first, then workers
  std::uint64_t payloads_fenced = 0;   ///< summed over every pipe layer
  std::uint64_t payloads_bounced = 0;  ///< summed over every service
  std::uint64_t bounces_resent = 0;
  std::uint64_t jobs_started = 0;
  std::uint64_t duplicate_deploys = 0;
  std::uint64_t zombie_suspended = 0;  ///< lease expiries on the crashed host
  std::uint64_t zombie_fenced = 0;     ///< fence-halts on the crashed host
  std::uint64_t final_epoch = 0;       ///< recovered fragment's epoch
  net::FaultStats faults;
};

/// Like run_farm, but with lease-based fencing on and a crash window long
/// enough (20 s) that recovery completes while the host is away -- the
/// "dead" host then RETURNS to a world where its epoch is stale.
FencedOutcome run_fenced_farm(std::uint64_t seed, bool chaotic) {
  ChaosGrid grid(seed);
  TaskGraph g = scaler_farm_graph();
  grid.home->publish_graph_modules(g);

  net::FaultPlan plan;
  if (chaotic) {
    plan.default_link.drop = 0.10;
    plan.default_link.duplicate = 0.05;
    plan.default_link.delay = 0.10;
    plan.default_link.delay_min_s = 0.05;
    plan.default_link.delay_max_s = 0.80;
    plan.default_link.corrupt = 0.02;
    // w1 (sim node 2) "dies" at t=8 and comes back at t=28: well after its
    // lease expired, the supervisor fenced its fragment and a replacement
    // is live on the spare.
    plan.crashes.push_back(
        net::CrashWindow{.node = 2, .at_s = 8.0, .duration_s = 20.0});
  }
  if (chaotic) grid.net.arm_faults(plan, seed ^ 0xFA01u);

  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "G",
                            {grid.workers[0]->endpoint(),
                             grid.workers[1]->endpoint(),
                             grid.workers[2]->endpoint()});
  grid.net.run_until(5.0);
  EXPECT_TRUE(run->deployed_ok())
      << (run->errors.empty() ? "missing acks" : run->errors[0]);

  SupervisorOptions opt;
  opt.checkpoint_period_s = 4.0;
  opt.probe_period_s = 2.0;
  opt.max_missed = 2;
  opt.lease_s = 6.0;  // fenced recovery
  auto sup = std::make_shared<RunSupervisor>(
      ctl, run, std::vector<net::Endpoint>{grid.workers[3]->endpoint()}, opt);
  sup->start();

  ctl.tick(*run, kItems / 3);
  grid.net.schedule(10.0, [&] { ctl.tick(*run, kItems / 3); });
  grid.net.schedule(25.0, [&] { ctl.tick(*run, kItems / 3); });
  grid.net.run_until(120.0);
  sup->stop();

  FencedOutcome out;
  auto* sink = ctl.home_runtime(*run)->unit_as<GrapherUnit>("Sink");
  for (const auto& item : sink->items()) {
    out.items.push_back(item.samples().samples);
  }
  std::sort(out.items.begin(), out.items.end());
  out.sup = sup->stats();
  out.svc.push_back(grid.home->stats());
  out.payloads_fenced = grid.home->pipes().stats().payloads_fenced;
  for (const auto& w : grid.workers) {
    out.svc.push_back(w->stats());
    out.payloads_fenced += w->pipes().stats().payloads_fenced;
    out.payloads_bounced += w->stats().payloads_bounced;
    out.bounces_resent += w->stats().bounces_resent;
    out.jobs_started += w->stats().jobs_started;
    out.duplicate_deploys += w->stats().duplicate_deploys;
  }
  out.payloads_bounced += grid.home->stats().payloads_bounced;
  out.bounces_resent += grid.home->stats().bounces_resent;
  out.zombie_suspended = grid.workers[1]->stats().jobs_suspended;
  out.zombie_fenced = grid.workers[1]->stats().jobs_fenced;
  out.final_epoch = sup->epoch_of(1);
  out.faults = grid.net.fault_stats();
  return out;
}

TEST(Chaos, FencedRecoveryKeepsReturningZombieExactlyOnce) {
  FencedOutcome clean = run_fenced_farm(404, /*chaotic=*/false);
  FencedOutcome dirty = run_fenced_farm(404, /*chaotic=*/true);

  // Oracle: with fencing on but no faults, leases renew forever and nothing
  // is suspended, fenced or bounced.
  ASSERT_EQ(clean.items.size(), static_cast<std::size_t>(kItems));
  EXPECT_EQ(clean.sup.recoveries, 0u);
  EXPECT_EQ(clean.zombie_suspended, 0u);
  EXPECT_EQ(clean.payloads_fenced, 0u);

  // The fenced chaotic run produced the exact same multiset of results:
  // no item lost to the fence, none double-fired by the returning zombie.
  ASSERT_EQ(dirty.items.size(), static_cast<std::size_t>(kItems));
  EXPECT_EQ(dirty.items, clean.items);

  // The scripted outage really happened and was recovered from, once, at a
  // bumped epoch, with fences broadcast.
  EXPECT_EQ(dirty.faults.crashes_opened, 1u);
  EXPECT_EQ(dirty.faults.crashes_closed, 1u);
  EXPECT_EQ(dirty.sup.failures_detected, 1u);
  EXPECT_EQ(dirty.sup.recoveries, 1u);
  EXPECT_GE(dirty.final_epoch, 1u);
  EXPECT_GT(dirty.sup.fences_sent, 0u);

  // The zombie provably self-suspended when its lease ran out during the
  // outage (this is what licenses deploying the replacement) and was halted
  // by the fence when it returned.
  EXPECT_GE(dirty.zombie_suspended, 1u);
  EXPECT_GE(dirty.zombie_fenced, 1u);

  // Work in flight toward the crashed host was recovered by the reliable
  // layer retransmitting it at the rebound channel (the crash window drops
  // frames on the floor, so nothing reaches the suspended job to bounce --
  // the bounce path is proven by SuspendedStageBouncesWorkToReplacement).
  EXPECT_EQ(dirty.payloads_bounced, 0u);

  // Deploy-level exactly-once held throughout: the three originals plus
  // one recovery redeploy, nothing started twice.
  EXPECT_EQ(dirty.duplicate_deploys, 0u);
  EXPECT_EQ(dirty.jobs_started, 3u + dirty.sup.recoveries);
}

TEST(Chaos, FencedRunIsDeterministic) {
  FencedOutcome r1 = run_fenced_farm(777, /*chaotic=*/true);
  FencedOutcome r2 = run_fenced_farm(777, /*chaotic=*/true);
  EXPECT_EQ(r1.items, r2.items);
  EXPECT_EQ(r1.sup.recoveries, r2.sup.recoveries);
  EXPECT_EQ(r1.payloads_fenced, r2.payloads_fenced);
  EXPECT_EQ(r1.payloads_bounced, r2.payloads_bounced);
  EXPECT_EQ(r1.bounces_resent, r2.bounces_resent);
  EXPECT_EQ(r1.jobs_started, r2.jobs_started);
  EXPECT_EQ(r1.final_epoch, r2.final_epoch);
}

// --------------------------------------------------- suspended-stage bounce

/// Wave -> pipeline group (Scale1 on one host feeding Scale2 on another)
/// -> Sink. Unlike the farm, stage data flows worker-to-worker, so a stage
/// can lose its supervisor while its upstream peer still reaches it.
TaskGraph scaler_pipeline_graph() {
  TaskGraph inner("inner");
  ParamSet s1;
  s1.set_double("factor", 3.0);
  inner.add_task("Scale1", "Scaler", s1);
  ParamSet s2;
  s2.set_double("factor", 0.5);
  inner.add_task("Scale2", "Scaler", s2);
  inner.connect("Scale1", 0, "Scale2", 0);
  TaskGraph g("chaos-pipe");
  ParamSet wp;
  wp.set_int("samples", 64);
  g.add_task("Wave", "Wave", wp);
  TaskDef& grp = g.add_group("G", std::move(inner), "p2p");
  grp.group_inputs = {GroupPort{"Scale1", 0}};
  grp.group_outputs = {GroupPort{"Scale2", 0}};
  g.add_task("Sink", "Grapher");
  g.connect("Wave", 0, "G", 0);
  g.connect("G", 0, "Sink", 0);
  return g;
}

/// Drive the pipeline; with `blackhole`, every frame home -> w1 (sim node
/// 2) is dropped from t=7.5 on. Stage 1 keeps emitting results (its own
/// sends still get out) but never hears another probe: its lease runs dry
/// and it SUSPENDS on a perfectly healthy host. Upstream stage 0 keeps
/// sending to it -- those payloads must bounce back and be re-sent to the
/// replacement the supervisor eventually deploys.
std::vector<std::vector<double>> run_pipeline(
    std::uint64_t seed, bool blackhole, SupervisorStats* out_sup = nullptr,
    std::uint64_t* out_epoch = nullptr,
    std::vector<ServiceStats>* out_svc = nullptr) {
  ChaosGrid grid(seed);
  TaskGraph g = scaler_pipeline_graph();
  grid.home->publish_graph_modules(g);

  net::FaultPlan plan;
  net::LinkFaults dead;
  dead.drop = 1.0;
  plan.per_link[{0u, 2u}] = dead;
  // Armed mid-run, after deploy and a few healthy probe rounds.
  if (blackhole) {
    grid.net.schedule(7.5, [&] { grid.net.arm_faults(plan, seed ^ 0xFA01u); });
  }

  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "G", {grid.workers[0]->endpoint(),
                                     grid.workers[1]->endpoint()});
  grid.net.run_until(5.0);
  EXPECT_TRUE(run->deployed_ok())
      << (run->errors.empty() ? "missing acks" : run->errors[0]);

  SupervisorOptions opt;
  opt.checkpoint_period_s = 4.0;
  opt.probe_period_s = 2.0;
  opt.lease_s = 6.0;
  // A patient detector (6 missed probes, and phi needs a long silence at
  // this variance floor) detects at ~21 s while the stage's lease dies at
  // ~13 s: the suspended-but-not-yet-replaced window stays open for
  // several seconds so in-flight work provably hits it.
  opt.max_missed = 6;
  opt.detector_min_std_s = 2.0;
  opt.phi_dead = 8.0;
  auto sup = std::make_shared<RunSupervisor>(
      ctl, run, std::vector<net::Endpoint>{grid.workers[2]->endpoint()}, opt);
  sup->start();

  // Burst 1 rides the healthy pipeline; burst 2 lands after the blackhole
  // but before stage 1's lease expires (results still flow out); burst 3
  // arrives at the suspended stage and has to bounce.
  ctl.tick(*run, kItems / 3);
  grid.net.schedule(10.0, [&] { ctl.tick(*run, kItems / 3); });
  grid.net.schedule(15.0, [&] { ctl.tick(*run, kItems / 3); });
  grid.net.run_until(120.0);
  sup->stop();

  std::vector<std::vector<double>> items;
  auto* sink = ctl.home_runtime(*run)->unit_as<GrapherUnit>("Sink");
  for (const auto& item : sink->items()) {
    items.push_back(item.samples().samples);
  }
  std::sort(items.begin(), items.end());
  if (out_sup) *out_sup = sup->stats();
  if (out_epoch) *out_epoch = sup->epoch_of(1);
  if (out_svc) {
    out_svc->clear();
    out_svc->push_back(grid.home->stats());
    for (const auto& w : grid.workers) out_svc->push_back(w->stats());
  }
  return items;
}

TEST(Chaos, SuspendedStageBouncesWorkToReplacement) {
  std::vector<std::vector<double>> clean = run_pipeline(606, false);
  ASSERT_EQ(clean.size(), static_cast<std::size_t>(kItems));

  SupervisorStats sup;
  std::uint64_t epoch = 0;
  std::vector<ServiceStats> svc;  // home, w0, w1, w2, w3
  std::vector<std::vector<double>> dirty =
      run_pipeline(606, true, &sup, &epoch, &svc);

  // Every item arrived exactly once despite the detour -- bit-identical to
  // the healthy pipeline.
  ASSERT_EQ(dirty.size(), static_cast<std::size_t>(kItems));
  EXPECT_EQ(dirty, clean);

  // Stage 1 provably suspended itself when its lease ran dry (node 2 is
  // workers[1], svc index 2 after home and w0)...
  EXPECT_GE(svc[2].jobs_suspended, 1u);
  // ...the supervisor replaced it at a bumped epoch...
  EXPECT_EQ(sup.failures_detected, 1u);
  EXPECT_EQ(sup.recoveries, 1u);
  EXPECT_GE(epoch, 1u);
  // ...and the in-flight burst bounced off the suspended stage back to
  // stage 0, which re-resolved the channel and re-sent every payload to
  // the replacement: bounced at w1, re-sent by w0, none dropped.
  EXPECT_GT(svc[2].payloads_bounced, 0u);
  EXPECT_GT(svc[1].bounces_resent, 0u);
  std::uint64_t dropped = 0;
  for (const auto& s : svc) dropped += s.bounces_dropped;
  EXPECT_EQ(dropped, 0u);
}

// A transient discovery failure must not be fatal: when the only provider
// of an output label is down for a blip at bind time, the sender keeps the
// backlog and re-floods until the provider returns (or a recovery replaces
// it), instead of failing the whole job on the first empty search.
TEST(Chaos, OutputBindRetriesSurviveProviderBlip) {
  ChaosGrid grid(707);
  TaskGraph g = scaler_farm_graph();
  grid.home->publish_graph_modules(g);
  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "G", {grid.workers[0]->endpoint()});
  grid.net.run_until(5.0);
  ASSERT_TRUE(run->deployed_ok())
      << (run->errors.empty() ? "missing acks" : run->errors[0]);

  // The provider (sim node 1) blips out before the first item forces the
  // output bind; its cached advert is dropped (exactly what a recovery
  // rebind does), so the bind must flood -- and nobody answers until the
  // host returns 12 s later.
  grid.net.set_up(1, false);
  grid.home->rebind_channel(run->prefix + "/w0/in0");
  grid.net.schedule(6.0, [&] { ctl.tick(*run, 4); });
  grid.net.schedule(18.0, [&] { grid.net.set_up(1, true); });
  grid.net.run_until(60.0);

  auto* sink = ctl.home_runtime(*run)->unit_as<GrapherUnit>("Sink");
  EXPECT_EQ(sink->items().size(), 4u);
  EXPECT_GE(grid.home->stats().binds_retried, 1u);
  EXPECT_EQ(grid.home->stats().jobs_failed, 0u);
}

// A provider that stays away past the whole bind budget parks the label
// instead of failing the sender's job: the backlog waits with no timer
// armed -- even once the host is back -- until the supervisor's recovery
// rebind starts the bind again, and then every queued item lands once.
TEST(Chaos, OutputBindParksPastItsBudgetAndResumesOnRebind) {
  ChaosGrid grid(708);
  TaskGraph g = scaler_farm_graph();
  grid.home->publish_graph_modules(g);
  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "G", {grid.workers[0]->endpoint()});
  grid.net.run_until(5.0);
  ASSERT_TRUE(run->deployed_ok())
      << (run->errors.empty() ? "missing acks" : run->errors[0]);

  // 11 floods (~2 s of rings each) 2 s apart: the budget runs out at ~48 s,
  // well before the host returns.
  grid.net.set_up(1, false);
  grid.home->rebind_channel(run->prefix + "/w0/in0");
  grid.net.schedule(6.0, [&] { ctl.tick(*run, 4); });
  grid.net.schedule(70.0, [&] { grid.net.set_up(1, true); });
  grid.net.run_until(80.0);

  auto* sink = ctl.home_runtime(*run)->unit_as<GrapherUnit>("Sink");
  EXPECT_TRUE(sink->items().empty());
  EXPECT_EQ(grid.home->stats().binds_retried, 10u);
  EXPECT_EQ(grid.home->stats().jobs_failed, 0u);
  EXPECT_EQ(grid.home->job_state(run->home_job), JobState::kRunning);

  // What RunSupervisor does once it has recovered fragment 0.
  ctl.rebind_inputs(*run, 0);
  grid.net.run_until(100.0);
  EXPECT_EQ(sink->items().size(), 4u);
  EXPECT_EQ(grid.workers[0]->stats().pipe_items_in, 4u);
  EXPECT_EQ(grid.home->stats().binds_retried, 10u);  // bound at once
  EXPECT_EQ(grid.home->stats().jobs_failed, 0u);
}

TEST(Chaos, SameSeedAndPlanReproduceIdenticalStats) {
  RunOutcome r1 = run_farm(1234, /*chaotic=*/true);
  RunOutcome r2 = run_farm(1234, /*chaotic=*/true);
  EXPECT_EQ(r1.home_reliable, r2.home_reliable);
  ASSERT_EQ(r1.worker_reliable.size(), r2.worker_reliable.size());
  for (std::size_t i = 0; i < r1.worker_reliable.size(); ++i) {
    EXPECT_EQ(r1.worker_reliable[i], r2.worker_reliable[i]) << "worker " << i;
  }
  EXPECT_EQ(r1.faults, r2.faults);
  EXPECT_EQ(r1.items, r2.items);
  EXPECT_EQ(r1.recoveries, r2.recoveries);
}

}  // namespace
}  // namespace cg::core
