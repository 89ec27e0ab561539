// E8 -- checkpointing and migration under volunteer churn.
//
// Paper (3.6.2): "A check-pointing mechanism may also be employed to
// migrate computation if necessary." Two parts:
//
//   (a) throughput: long tasks (a 7,500-template chunk = 5 h of CPU) on
//       screensaver-harvested peers lose all partial work when the user
//       returns; sweeping the checkpoint period shows how much of the lost
//       work checkpointing salvages (the E3 inflation factor shrinks);
//   (b) mechanics: size and capture cost of a real GraphRuntime checkpoint
//       (the state that actually crosses the network on migration), plus a
//       live migrate on the service stack preserving AccumStat state.
#include <chrono>
#include <cstdio>

#include "churn/availability.hpp"
#include "core/service/controller.hpp"
#include "core/service/supervisor.hpp"
#include "core/unit/builtin.hpp"
#include "dsp/stats.hpp"
#include "net/sim_network.hpp"

using namespace cg;

namespace {

core::TaskGraph accum_graph() {
  core::TaskGraph g("accum");
  core::ParamSet wp;
  wp.set_int("samples", 2048);
  g.add_task("Wave", "Wave", wp);
  core::ParamSet np;
  np.set_double("stddev", 1.0);
  g.add_task("Gaussian", "Gaussian", np);
  g.add_task("FFT", "FFT");
  g.add_task("AccumStat", "AccumStat");
  g.add_task("Grapher", "Grapher");
  g.connect("Wave", 0, "Gaussian", 0);
  g.connect("Gaussian", 0, "FFT", 0);
  g.connect("FFT", 0, "AccumStat", 0);
  g.connect("AccumStat", 0, "Grapher", 0);
  return g;
}

}  // namespace

int main() {
  std::printf("E8: checkpointing under churn (paper 3.6.2)\n\n");

  // -- (a) work completed vs checkpoint period -----------------------------
  const double week = 7 * 86400.0;
  const double task_s = 5.0 * 3600.0;  // one chunk of CPU
  const int kPeers = 300;

  std::printf("(a) 5 h tasks on screensaver-harvested peers, %d peers x 1 "
              "week\n",
              kPeers);
  std::printf("%-20s %-18s %-22s\n", "checkpoint period",
              "tasks/peer/week", "vs no checkpointing");

  churn::DiurnalIdleModel model;
  const double periods[] = {0.0, 3600.0, 900.0, 300.0};
  double baseline = 0;
  for (double period : periods) {
    dsp::Rng rng(5);
    dsp::RunningStats done;
    for (int p = 0; p < kPeers; ++p) {
      const auto trace = model.sample(week, rng);
      done.add(static_cast<double>(
          churn::completed_tasks(trace, week, task_s, period)));
    }
    if (period == 0.0) baseline = done.mean();
    char label[32];
    if (period == 0.0) {
      std::snprintf(label, sizeof(label), "none");
    } else {
      std::snprintf(label, sizeof(label), "%.0f min", period / 60.0);
    }
    std::printf("%-20s %-18.2f %+.0f%%\n", label, done.mean(),
                baseline > 0 ? (done.mean() / baseline - 1.0) * 100.0 : 0.0);
  }

  // -- (b) checkpoint mechanics ---------------------------------------------
  std::printf("\n(b) checkpoint capture on a real runtime (Figure-1 graph, "
              "2048-sample spectra)\n");
  core::UnitRegistry registry = core::UnitRegistry::with_builtins();
  core::GraphRuntime rt(accum_graph(), registry, {});
  rt.run(50);
  const auto t0 = std::chrono::steady_clock::now();
  const auto ckpt = rt.save_checkpoint();
  const double capture_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("state after 50 iterations: %zu bytes, captured in %.3f ms "
              "(one DSL-second to ship at 128 kB/s: %.2f s)\n",
              ckpt.size(), capture_ms,
              static_cast<double>(ckpt.size()) / 128e3);

  // Live migration on the service stack: AccumStat state survives.
  {
    net::SimNetwork net({}, 1);
    auto clock = net.clock();
    auto sched = net.scheduler();
    core::ServiceConfig hc;
    hc.peer_id = "home";
    core::TrianaService home(net.add_node(), clock, sched, registry, hc);
    std::vector<std::unique_ptr<core::TrianaService>> ws;
    std::vector<net::Endpoint> eps;
    for (int i = 0; i < 2; ++i) {
      core::ServiceConfig cfg;
      cfg.peer_id = std::string("w").append(std::to_string(i));
      ws.push_back(std::make_unique<core::TrianaService>(
          net.add_node(), clock, sched, registry, cfg));
      home.node().add_neighbor(ws.back()->endpoint());
      ws.back()->node().add_neighbor(home.endpoint());
      eps.push_back(ws.back()->endpoint());
    }

    // Group the accumulating stages and farm them onto worker 0 only.
    core::TaskGraph inner("inner");
    core::ParamSet np;
    np.set_double("stddev", 1.0);
    inner.add_task("Gaussian", "Gaussian", np);
    inner.add_task("FFT", "FFT");
    inner.add_task("AccumStat", "AccumStat");
    inner.connect("Gaussian", 0, "FFT", 0);
    inner.connect("FFT", 0, "AccumStat", 0);
    core::TaskGraph g("migrate");
    core::ParamSet wp;
    wp.set_int("samples", 512);
    g.add_task("Wave", "Wave", wp);
    core::TaskDef& grp = g.add_group("G", std::move(inner), "parallel");
    grp.group_inputs = {core::GroupPort{"Gaussian", 0}};
    grp.group_outputs = {core::GroupPort{"AccumStat", 0}};
    g.add_task("Grapher", "Grapher");
    g.connect("Wave", 0, "G", 0);
    g.connect("G", 0, "Grapher", 0);
    home.publish_graph_modules(g);

    core::TrianaController ctl(home);
    auto run = ctl.distribute(g, "G", {eps[0]});
    net.run_all();
    ctl.tick(*run, 10);
    net.run_all();

    bool migrated = false;
    ctl.migrate(run, 0, eps[1], [&](bool ok) { migrated = ok; });
    net.run_all();
    ctl.tick(*run, 10);
    net.run_all();

    auto* rt1 = ws[1]->job_runtime(run->remote_jobs[0]);
    auto* acc =
        rt1 ? dynamic_cast<core::AccumStatUnit*>(rt1->unit("AccumStat"))
            : nullptr;
    std::printf("live migration w0 -> w1: %s; AccumStat count after "
                "10+10 iterations: %llu (state carried across hosts)\n",
                migrated ? "ok" : "FAILED",
                acc ? static_cast<unsigned long long>(acc->count()) : 0ull);
  }

  // -- (c) supervised recovery on the live service stack --------------------
  // A 2-replica farm streams items; the worker hosting replica 0 drops at
  // t=30 s and never returns. Without supervision its share of the stream
  // is lost; with the RunSupervisor the fragment is restored from its last
  // checkpoint onto a spare and the stream recovers.
  std::printf("\n(c) live farm under a mid-run peer loss (120 items over "
              "240 s, worker dies at t=30)\n");
  std::printf("%-16s %-16s %-14s %-12s\n", "mode", "items delivered",
              "recoveries", "ckpts taken");

  for (const bool supervised : {false, true}) {
    net::SimNetwork simnet({}, 1);
    auto clock = simnet.clock();
    auto sched = simnet.scheduler();
    core::ServiceConfig hc;
    hc.peer_id = "home";
    core::TrianaService home(simnet.add_node(), clock, sched, registry, hc);
    std::vector<std::unique_ptr<core::TrianaService>> ws;
    std::vector<net::Endpoint> eps;
    for (int i = 0; i < 3; ++i) {  // w0, w1 active; w2 spare
      core::ServiceConfig cfg;
      cfg.peer_id = std::string("w").append(std::to_string(i));
      ws.push_back(std::make_unique<core::TrianaService>(
          simnet.add_node(), clock, sched, registry, cfg));
      home.node().add_neighbor(ws.back()->endpoint());
      ws.back()->node().add_neighbor(home.endpoint());
      eps.push_back(ws.back()->endpoint());
    }

    core::TaskGraph inner("inner");
    core::ParamSet np;
    np.set_double("stddev", 1.0);
    inner.add_task("Gaussian", "Gaussian", np);
    core::TaskGraph g("farm");
    core::ParamSet wp;
    wp.set_int("samples", 256);
    g.add_task("Wave", "Wave", wp);
    core::TaskDef& grp = g.add_group("G", std::move(inner), "parallel");
    grp.group_inputs = {core::GroupPort{"Gaussian", 0}};
    grp.group_outputs = {core::GroupPort{"Gaussian", 0}};
    g.add_task("Sink", "NullSink");
    g.connect("Wave", 0, "G", 0);
    g.connect("G", 0, "Sink", 0);
    home.publish_graph_modules(g);

    core::TrianaController ctl(home);
    auto run = ctl.distribute(g, "G", {eps[0], eps[1]});
    simnet.run_all();

    std::shared_ptr<core::RunSupervisor> sup;
    if (supervised) {
      core::SupervisorOptions opt;
      opt.checkpoint_period_s = 10.0;
      opt.probe_period_s = 5.0;
      opt.max_missed = 2;
      sup = std::make_shared<core::RunSupervisor>(
          ctl, run, std::vector<net::Endpoint>{eps[2]}, opt);
      sup->start();
    }

    // One item every 2 s for 240 s; worker w0 (sim node 1) dies at t=30.
    for (int i = 0; i < 120; ++i) {
      simnet.schedule(2.0 * i, [&ctl, run] { ctl.tick(*run, 1); });
    }
    simnet.schedule(30.0, [&simnet] { simnet.set_up(1, false); });
    simnet.run_until(260.0);

    auto* sink = ctl.home_runtime(*run)->unit_as<core::NullSinkUnit>("Sink");
    std::printf("%-16s %-16llu %-14llu %-12llu\n",
                supervised ? "supervised" : "unsupervised",
                static_cast<unsigned long long>(sink->received()),
                static_cast<unsigned long long>(
                    sup ? sup->stats().recoveries : 0),
                static_cast<unsigned long long>(
                    sup ? sup->stats().checkpoints_taken : 0));
    if (sup) sup->stop();
  }

  std::printf(
      "\nShape check (paper): without checkpoints, screensaver peers "
      "almost never finish a 5 h task inside one idle session; minute-"
      "grained checkpointing recovers most of the lost throughput, the "
      "state that must move is small against DSL bandwidth, and automatic "
      "checkpoint-restore recovery keeps a live stream flowing through a "
      "mid-run peer loss.\n");
  return 0;
}
