// Backend parity: the SAME deploy -> execute -> crash -> recover harness
// runs over the discrete-event simulator and over real TCP sockets on
// 127.0.0.1 through the NetworkBackend seam, and must produce the same
// results.
//
// Real-socket timing is nondeterministic, so parity is judged on outcomes
// the reliable/fencing machinery makes deterministic: the multiset of sink
// payloads (bit-identical across backends), the exactly-once ledgers
// (duplicate_deploys == 0, jobs_started == originals + recoveries), and the
// zombie-fence counters. Timelines are ~10x compressed versus the sim chaos
// suite so the wall-clock runs finish in seconds; every wait is a
// predicate-with-budget, never a bare sleep, so slow CI runners get slack
// without racing.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/service/supervisor.hpp"
#include "core/unit/builtin.hpp"
#include "net/backend.hpp"
#include "net/loopback.hpp"

namespace cg::core {
namespace {

UnitRegistry& reg() {
  static UnitRegistry r = UnitRegistry::with_builtins();
  return r;
}

/// Wave source -> parallel group of stateless Scalers -> Grapher sink
/// (same shape as the sim chaos suite).
TaskGraph scaler_farm_graph() {
  TaskGraph inner("inner");
  ParamSet sp;
  sp.set_double("factor", 3.0);
  inner.add_task("Scale", "Scaler", sp);
  TaskGraph g("parity");
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

constexpr int kItems = 12;

/// The ~10x-compressed timeline shared by both backends. Deadlines and
/// budgets stay generous in absolute terms: a descheduled CI process must
/// delay the run, never change its outcome.
net::ReliableConfig parity_reliable(bool batch) {
  net::ReliableConfig rel;
  rel.rto_initial_s = 0.06;
  rel.rto_max_s = 0.5;
  rel.deadline_s = 60.0;
  rel.max_retries = 60;
  if (batch) {
    rel.batch = true;
    rel.batch_max_frames = 32;
    rel.batch_flush_s = 0.002;
  }
  return rel;
}

/// Home + 3 workers + 1 spare over any backend.
struct ParityGrid {
  ParityGrid(net::NetworkBackend& be, bool batch) {
    auto clock = be.clock();
    auto sched = be.scheduler();
    const net::ReliableConfig rel = parity_reliable(batch);

    ServiceConfig hc;
    hc.peer_id = "home";
    hc.reliable = rel;
    hc.bind_retry_s = 0.2;
    home = std::make_unique<TrianaService>(be.add_node(), clock, sched,
                                           reg(), hc);
    for (int i = 0; i < 4; ++i) {  // 3 workers + 1 spare
      ServiceConfig cfg;
      cfg.peer_id = "w" + std::to_string(i);
      cfg.reliable = rel;
      cfg.bind_retry_s = 0.2;
      workers.push_back(std::make_unique<TrianaService>(be.add_node(), clock,
                                                        sched, reg(), cfg));
      home->node().add_neighbor(workers.back()->endpoint());
      workers.back()->node().add_neighbor(home->endpoint());
    }
  }

  std::unique_ptr<TrianaService> home;
  std::vector<std::unique_ptr<TrianaService>> workers;
};

/// 10% loss + duplication + delay + corruption on every link. The crash is
/// NOT scripted by time: on a wall-clock backend a timer-driven crash can
/// land while a consumed item's result is still in flight, and the ensuing
/// epoch fence would discard work no checkpoint covers -- a protocol window
/// the sim chaos suite keeps empty by timeline construction. The harness
/// instead crashes w1 by predicate (below), once its in-flight work has
/// provably drained.
net::FaultPlan loss_plan() {
  net::FaultPlan plan;
  plan.default_link.drop = 0.10;
  plan.default_link.duplicate = 0.05;
  plan.default_link.delay = 0.10;
  plan.default_link.delay_min_s = 0.005;
  plan.default_link.delay_max_s = 0.080;
  plan.default_link.corrupt = 0.02;
  return plan;
}

struct ParityOutcome {
  bool deployed = false;
  bool completed = false;                  ///< all items arrived in budget
  std::vector<std::vector<double>> items;  ///< sorted sink payloads
  std::uint64_t duplicate_deploys = 0;
  std::uint64_t jobs_started = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t failures_detected = 0;
  std::uint64_t fences_sent = 0;
  std::uint64_t zombie_suspended = 0;  ///< lease expiries on the crashed host
  std::uint64_t zombie_fenced = 0;     ///< fence-halts on the crashed host
  std::uint64_t batches_on_wire = 0;   ///< summed over every service
  net::FaultStats faults;
};

/// Drive one full run over `be`. All runs are lease-fenced: a spurious
/// detection on a noisy CI box then degrades into a safe (fenced) recovery
/// instead of a double execution, so the outcome stays exactly-once.
ParityOutcome run_parity_farm(net::NetworkBackend& be, bool chaotic,
                              bool batch) {
  ParityGrid grid(be, batch);
  TaskGraph g = scaler_farm_graph();
  grid.home->publish_graph_modules(g);

  if (chaotic) be.arm_faults(loss_plan(), 0xFA01u);

  TrianaController ctl(*grid.home);
  auto run = ctl.distribute(g, "G",
                            {grid.workers[0]->endpoint(),
                             grid.workers[1]->endpoint(),
                             grid.workers[2]->endpoint()});
  ParityOutcome out;
  out.deployed =
      be.run_until(be.now() + 10.0, [&] { return run->deployed_ok(); });
  if (!out.deployed) return out;

  SupervisorOptions opt;
  opt.checkpoint_period_s = 0.4;
  opt.probe_period_s = 0.2;
  opt.max_missed = 4;
  opt.detector_min_std_s = 0.1;
  opt.phi_dead = 8.0;
  opt.lease_s = 0.6;
  opt.redeploy_timeout_s = 2.0;
  auto sup = std::make_shared<RunSupervisor>(
      ctl, run, std::vector<net::Endpoint>{grid.workers[3]->endpoint()}, opt);
  sup->start();

  // Three bursts, each gated on observable state rather than a timer, so a
  // descheduled CI process shifts the schedule instead of racing it.
  auto* sink = ctl.home_runtime(*run)->unit_as<GrapherUnit>("Sink");
  auto sink_has = [&](int n) {
    return [&, n] { return sink->items().size() >= static_cast<std::size_t>(n); };
  };

  // Burst 1 on the healthy grid, drained to the sink.
  ctl.tick(*run, kItems / 3);
  if (!be.run_until(be.now() + 20.0, sink_has(kItems / 3))) {
    sup->stop();
    return out;
  }

  if (chaotic) {
    // The zombie-fence story needs w1 to hold a lease when it dies, and
    // leases are granted by probes -- so let several full probe rounds
    // complete first. Probes and their replies ride the same
    // single-threaded pump, so this wait is loss-bound, not timing-bound
    // (and bit-deterministic on the sim backend).
    if (!be.run_until(be.now() + 20.0, [&] {
          return sup->stats().probes_answered >= 15;
        })) {
      sup->stop();
      return out;
    }
    // Burst 1 fully reported, so w1 holds no consumed-but-unreported work:
    // crashing it now cannot strand results behind the coming epoch fence.
    be.set_up(2, false);
    // Burst 2 rides the outage -- w1's share goes unacked and must reach
    // the replacement via rebind + retransmission.
    ctl.tick(*run, kItems / 3);
    // Hold the node down until its lease provably expired (zombie
    // self-suspended) and the supervisor finished the fenced recovery.
    if (!be.run_until(be.now() + 20.0, [&] {
          return grid.workers[1]->stats().jobs_suspended >= 1 &&
                 sup->stats().recoveries >= 1;
        })) {
      sup->stop();
      return out;
    }
    // The zombie returns to a world that moved on; the retransmitted fence
    // must halt it.
    be.set_up(2, true);
    if (!be.run_until(be.now() + 20.0, [&] {
          return grid.workers[1]->stats().jobs_fenced >= 1;
        })) {
      sup->stop();
      return out;
    }
  } else {
    ctl.tick(*run, kItems / 3);
    if (!be.run_until(be.now() + 20.0, sink_has(2 * kItems / 3))) {
      sup->stop();
      return out;
    }
  }

  // Burst 3 lands on the recovered grid.
  ctl.tick(*run, kItems / 3);
  out.completed = be.run_until(be.now() + 30.0, sink_has(kItems));
  // Let the tail of acks/fences settle so ledgers are stable.
  be.run_until(be.now() + 0.3);
  sup->stop();

  for (const auto& item : sink->items()) {
    out.items.push_back(item.samples().samples);
  }
  std::sort(out.items.begin(), out.items.end());
  for (const auto& w : grid.workers) {
    out.duplicate_deploys += w->stats().duplicate_deploys;
    out.jobs_started += w->stats().jobs_started;
    out.batches_on_wire += w->reliable().stats().batches_sent;
  }
  out.batches_on_wire += grid.home->reliable().stats().batches_sent;
  out.recoveries = sup->stats().recoveries;
  out.failures_detected = sup->stats().failures_detected;
  out.fences_sent = sup->stats().fences_sent;
  out.zombie_suspended = grid.workers[1]->stats().jobs_suspended;
  out.zombie_fenced = grid.workers[1]->stats().jobs_fenced;
  out.faults = be.fault_stats();
  return out;
}

/// The sim-world oracle: clean run, compressed timeline.
ParityOutcome sim_oracle() {
  // Link latency compressed with the timeline so RTO/probe ratios match.
  net::LinkParams p;
  p.base_latency_s = 0.004;
  p.jitter_s = 0.001;
  p.bandwidth_Bps = 1.28e6;
  net::SimBackend be(p, 404);
  return run_parity_farm(be, /*chaotic=*/false, /*batch=*/false);
}

TEST(TcpParity, CleanFarmMatchesSimOracle) {
  ParityOutcome sim = sim_oracle();
  ASSERT_TRUE(sim.deployed);
  ASSERT_TRUE(sim.completed);
  ASSERT_EQ(sim.items.size(), static_cast<std::size_t>(kItems));
  EXPECT_EQ(sim.recoveries, 0u);

  net::TcpLoopbackBackend tcp;
  ParityOutcome real = run_parity_farm(tcp, /*chaotic=*/false,
                                       /*batch=*/false);
  ASSERT_TRUE(real.deployed);
  ASSERT_TRUE(real.completed);

  // Same job, same inputs, different world: bit-identical results.
  EXPECT_EQ(real.items, sim.items);
  EXPECT_EQ(real.duplicate_deploys, 0u);
  EXPECT_EQ(real.jobs_started, 3u + real.recoveries);
}

TEST(TcpParity, ChaosSuitePassesBitIdenticallyOverLoopback) {
  ParityOutcome oracle = sim_oracle();
  ASSERT_TRUE(oracle.completed);

  // The same chaos plan over both worlds.
  net::LinkParams p;
  p.base_latency_s = 0.004;
  p.jitter_s = 0.001;
  p.bandwidth_Bps = 1.28e6;
  net::SimBackend sim_be(p, 404);
  ParityOutcome sim = run_parity_farm(sim_be, /*chaotic=*/true,
                                      /*batch=*/false);
  net::TcpLoopbackBackend tcp_be;
  tcp_be.set_wire_log_capacity(200000);
  ParityOutcome real = run_parity_farm(tcp_be, /*chaotic=*/true,
                                       /*batch=*/false);
  if (!real.completed && ::testing::Test::HasFailure() == false) {
    // Leave a post-mortem trail for CI (uploaded as an artifact).
    tcp_be.dump_wire_log("tcp_parity_chaos_wirelog.jsonl");
  }

  for (const ParityOutcome* o : {&sim, &real}) {
    ASSERT_TRUE(o->deployed);
    ASSERT_TRUE(o->completed);
    // Loss, crash, recovery, zombie fencing -- all survived with the exact
    // oracle result multiset: nothing lost, nothing double-executed.
    EXPECT_EQ(o->items, oracle.items);
    EXPECT_EQ(o->duplicate_deploys, 0u);
    EXPECT_EQ(o->jobs_started, 3u + o->recoveries);
    // The chaos was real on this backend.
    EXPECT_GT(o->faults.frames_seen, 0u);
    EXPECT_GT(o->faults.dropped, 0u);
    // The outage outlived the lease: detection + fenced recovery happened,
    // and the returning zombie was halted.
    EXPECT_GE(o->failures_detected, 1u);
    EXPECT_GE(o->recoveries, 1u);
    EXPECT_GT(o->fences_sent, 0u);
    EXPECT_GE(o->zombie_suspended, 1u);
    EXPECT_GE(o->zombie_fenced, 1u);
  }
}

TEST(TcpParity, BatchedChaosRunStaysExactlyOnce) {
  ParityOutcome oracle = sim_oracle();
  ASSERT_TRUE(oracle.completed);

  net::TcpLoopbackBackend be;
  be.set_wire_log_capacity(200000);
  ParityOutcome real = run_parity_farm(be, /*chaotic=*/true, /*batch=*/true);
  if (!real.completed) {
    be.dump_wire_log("tcp_parity_batched_wirelog.jsonl");
  }

  ASSERT_TRUE(real.deployed);
  ASSERT_TRUE(real.completed);
  // Batching under 10% loss + a crash window: still the oracle's exact
  // multiset, still exactly-once -- and batches really crossed the wire.
  EXPECT_EQ(real.items, oracle.items);
  EXPECT_EQ(real.duplicate_deploys, 0u);
  EXPECT_EQ(real.jobs_started, 3u + real.recoveries);
  EXPECT_GT(real.batches_on_wire, 0u);
}

TEST(TcpParity, SimBackendStaysDeterministicThroughTheSeam) {
  auto once = [] {
    net::LinkParams p;
    p.base_latency_s = 0.004;
    p.jitter_s = 0.001;
    p.bandwidth_Bps = 1.28e6;
    net::SimBackend be(p, 1234);
    return run_parity_farm(be, /*chaotic=*/true, /*batch=*/false);
  };
  ParityOutcome r1 = once();
  ParityOutcome r2 = once();
  EXPECT_EQ(r1.items, r2.items);
  EXPECT_EQ(r1.recoveries, r2.recoveries);
  EXPECT_EQ(r1.jobs_started, r2.jobs_started);
  EXPECT_EQ(r1.faults.dropped, r2.faults.dropped);
  EXPECT_EQ(r1.zombie_fenced, r2.zombie_fenced);
}

// -- one fault model ----------------------------------------------------------

serial::Frame raw_frame() {
  serial::Frame f;
  f.type = serial::FrameType::kControl;
  f.payload = {1, 2, 3};
  return f;
}

/// One FaultInjector decides for both worlds: the same plan and seed over
/// the same frames must make the same decisions, class by class.
TEST(TcpParity, OneFaultScriptDecidesAlikeOnBothBackends) {
  net::FaultPlan plan;
  plan.default_link = net::LinkFaults{
      .drop = 0.2, .duplicate = 0.1, .corrupt = 0.05, .delay = 0.3};
  auto decide = [&plan](net::NetworkBackend& be) {
    net::Transport& a = be.add_node();
    net::Transport& b = be.add_node();
    b.set_handler([](const net::Endpoint&, serial::Frame) {});
    be.arm_faults(plan, 23);
    for (int i = 0; i < 500; ++i) a.send(b.local(), raw_frame());
    return be.fault_stats();
  };
  net::SimBackend sim_be;
  net::TcpLoopbackBackend tcp_be;
  const net::FaultStats sim = decide(sim_be);
  const net::FaultStats tcp = decide(tcp_be);

  EXPECT_EQ(sim.frames_seen, 500u);
  EXPECT_GT(sim.dropped, 0u);
  EXPECT_GT(sim.duplicated, 0u);
  EXPECT_GT(sim.corrupted, 0u);
  EXPECT_GT(sim.delayed, 0u);
  EXPECT_EQ(sim, tcp) << "tcp dropped " << tcp.dropped << " duplicated "
                      << tcp.duplicated << " corrupted " << tcp.corrupted
                      << " delayed " << tcp.delayed;
}

/// Crash windows are absolute backend times on both backends: armed at
/// T > 0 for T + delta, the node goes dark at about T + delta (not
/// 2T + delta), and a window that already opened is refused.
TEST(TcpParity, CrashWindowsOpenAtAbsoluteBackendTime) {
  constexpr double kT = 0.5;
  constexpr double kDelta = 0.1;
  constexpr double kDown = 0.2;
  auto check = [](net::NetworkBackend& be) {
    SCOPED_TRACE(be.name());
    net::Transport& a = be.add_node();
    net::Transport& b = be.add_node();
    int got = 0;
    b.set_handler([&got](const net::Endpoint&, serial::Frame) { ++got; });
    be.run_until(kT);
    const double t0 = be.now();

    net::FaultPlan past;
    past.crashes.push_back(
        net::CrashWindow{.node = 1, .at_s = t0 - kDelta, .duration_s = kDown});
    EXPECT_THROW(be.arm_faults(past, 1), std::invalid_argument);

    net::FaultPlan plan;
    plan.crashes.push_back(
        net::CrashWindow{.node = 1, .at_s = t0 + kDelta, .duration_s = kDown});
    be.arm_faults(plan, 1);
    ASSERT_TRUE(be.run_until(t0 + 10.0, [&be] {
      return be.fault_stats().crashes_opened == 1;
    }));
    const double opened = be.now();
    EXPECT_GE(opened, t0 + kDelta - 1e-9);
    EXPECT_LT(opened, t0 + kDelta + 0.2);  // relative timing: ~2T + delta

    a.send(b.local(), raw_frame());  // into the void
    ASSERT_TRUE(be.run_until(opened + 10.0, [&be] {
      return be.fault_stats().crashes_closed == 1;
    }));
    EXPECT_GE(be.now(), t0 + kDelta + kDown - 1e-9);
    EXPECT_EQ(got, 0);
    a.send(b.local(), raw_frame());
    EXPECT_TRUE(be.run_until(be.now() + 10.0, [&got] { return got == 1; }));
  };
  net::SimBackend sim_be;
  check(sim_be);
  net::TcpLoopbackBackend tcp_be;
  check(tcp_be);
}

}  // namespace
}  // namespace cg::core
