// E12 -- churn-at-scale chaos campaign: adaptive detection under volunteer
// availability.
//
// The paper's consumer grid runs on hosts that suffer "various types of
// downtime e.g. connection lost, user intervenes" (3.6.2). E9 measures what
// such a population offers; this campaign measures what the supervised
// runtime actually EXTRACTS from it. A ~120-peer farm (home + 40 fragment
// hosts + 80 spares, star overlay) streams work for four simulated minutes
// while every non-home peer follows its own sampled churn::PoissonChurn
// availability trace -- hosts drop, return as fenced zombies, and drop
// again. The sweep crosses two churn climates with three phi-accrual
// conviction thresholds (SupervisorOptions::phi_dead):
//
//   calm    long sessions, short blips   (DSL drops: up ~10 min, down ~10 s)
//   stormy  short sessions, long outages (up ~90 s, down ~45 s)
//
// Reported per scenario (rows keyed "scenario"): completion rate (items
// delivered / items injected -- the gated metric), recovery counts and
// failure-detection -> recovery-complete latency quantiles from the obs
// histogram, and the cost side of the trade: recoveries aborted on a
// returning host, spares wasted on silent redeploys, and stale-epoch
// payloads the fences absorbed (work the grid paid for but could not use).
// An aggressive threshold (phi 4) convicts during calm blips -- fast
// recoveries, wasted spares; a patient one (phi 12) rides the blips out but
// leaves stormy fragments dark for longer. The campaign prints that trade
// instead of asserting a winner; the CI gate only insists the completion
// floor holds.
//
// Machine-readable output: --json PATH writes BENCH_churn.json for
// scripts/bench_compare.py (--key scenario --metric completion_rate).
// --trace PATH reruns a small calm scenario with the causal tracer bound to
// the whole stack and exports merged JSONL for congrid-trace --validate.
// --seed N reseeds the simulator and the churn trace (default 12, the seed
// the committed rows and CI's replay use).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "churn/availability.hpp"
#include "core/service/supervisor.hpp"
#include "core/unit/builtin.hpp"
#include "harness.hpp"
#include "net/sim_network.hpp"
#include "obs/obs.hpp"

using namespace cg;
using namespace cg::core;

namespace {

UnitRegistry& reg() {
  static UnitRegistry r = UnitRegistry::with_builtins();
  return r;
}

/// Campaign shape. Sim node ids: home = 0, fragment hosts 1..workers,
/// spares workers+1..workers+spares.
struct CampaignSpec {
  std::string scenario;  ///< row key, e.g. "calm/phi8"
  double mean_up_s = 0;
  double mean_down_s = 0;
  double phi_dead = 8.0;
  std::size_t workers = 40;
  std::size_t spares = 80;
  double warmup_s = 20.0;    ///< deploy + first probes, churn held off
  double churn_s = 220.0;    ///< churned streaming window
  double drain_s = 40.0;     ///< everyone back up, stragglers settle
  double burst_period_s = 5.0;
  std::uint64_t burst_items = 12;
  std::uint64_t seed = 12;
};

struct Row {
  std::string scenario;
  double phi_dead = 0;
  std::size_t peers = 0;
  std::uint64_t items_expected = 0;
  std::uint64_t items_done = 0;
  double completion_rate = 0;  ///< gated metric
  std::uint64_t failures_detected = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t recoveries_failed = 0;
  std::uint64_t recoveries_aborted = 0;
  std::uint64_t redeploys_timed_out = 0;
  std::uint64_t fences_sent = 0;
  std::uint64_t payloads_fenced = 0;   ///< zombie work absorbed by fences
  std::uint64_t payloads_bounced = 0;  ///< refused by suspended hosts
  std::uint64_t degraded = 0;          ///< fragments lost for good
  double recovery_p50_s = 0;
  double recovery_p95_s = 0;
};

TaskGraph farm_graph() {
  TaskGraph inner("inner");
  ParamSet sp;
  sp.set_double("factor", 3.0);
  inner.add_task("Scale", "Scaler", sp);
  TaskGraph g("e12");
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

Row run_campaign(const CampaignSpec& spec, obs::Registry* obs_registry,
                 obs::Tracer* tracer) {
  net::SimNetwork net({}, spec.seed);
  auto clock = net.clock();
  auto sched = net.scheduler();
  // Data must survive multi-round outages: generous retry budget, like the
  // chaos tests.
  net::ReliableConfig rel;
  rel.deadline_s = 60.0;
  rel.max_retries = 12;

  ServiceConfig hc;
  hc.peer_id = "home";
  hc.reliable = rel;
  TrianaService home(net.add_node(), clock, sched, reg(), hc);
  std::vector<std::unique_ptr<TrianaService>> peers;  // workers then spares
  std::vector<net::Endpoint> worker_eps, spare_eps;
  for (std::size_t i = 0; i < spec.workers + spec.spares; ++i) {
    ServiceConfig cfg;
    cfg.peer_id = (i < spec.workers ? "w" : "s") + std::to_string(i);
    cfg.reliable = rel;
    peers.push_back(std::make_unique<TrianaService>(net.add_node(), clock,
                                                    sched, reg(), cfg));
    home.node().add_neighbor(peers.back()->endpoint());
    peers.back()->node().add_neighbor(home.endpoint());
    (i < spec.workers ? worker_eps : spare_eps)
        .push_back(peers.back()->endpoint());
  }
  const std::string scope = "e12." + spec.scenario;
  if (obs_registry != nullptr) {
    net.set_obs(*obs_registry, tracer, scope + ".net");
    home.set_obs(*obs_registry, tracer, scope + ".home");
    // Every peer's transport must be bound too, or an exported trace has
    // receives with no matching sends and fails validation.
    for (std::size_t i = 0; i < peers.size(); ++i) {
      peers[i]->set_obs(*obs_registry, tracer,
                        scope + "." + peers[i]->id());
    }
  }

  TaskGraph g = farm_graph();
  home.publish_graph_modules(g);
  TrianaController ctl(home);
  auto run = ctl.distribute(g, "G", worker_eps);

  SupervisorOptions opt;
  opt.checkpoint_period_s = 8.0;
  opt.probe_period_s = 2.0;
  // Conviction is the phi sweep's job: keep the bootstrap missed-probe
  // fallback as a far-out hard cap only.
  opt.max_missed = 12;
  opt.detector_min_std_s = 2.0;
  opt.phi_suspect = spec.phi_dead / 2.0;
  opt.phi_dead = spec.phi_dead;
  opt.lease_s = 8.0;
  opt.redeploy_timeout_s = 10.0;
  auto sup = std::make_shared<RunSupervisor>(ctl, run, spare_eps, opt);
  if (obs_registry != nullptr) sup->set_obs(*obs_registry, tracer, scope);

  // Every non-home peer follows its own availability trace once the
  // warmup ends: down in every gap, forced back up when the drain begins
  // so zombies return to be fenced and acks flush. One Rng for the whole
  // population: per-peer traces differ but the campaign replays
  // bit-for-bit.
  churn::PoissonChurnModel model(spec.mean_up_s, spec.mean_down_s);
  dsp::Rng churn_rng(spec.seed ^ 0xC4A2u);
  net::FaultPlan churn_plan;
  for (std::size_t i = 0; i < peers.size(); ++i) {
    const auto windows = churn::crash_windows(
        static_cast<std::uint32_t>(i + 1),
        model.sample(spec.churn_s, churn_rng), spec.warmup_s, spec.churn_s);
    churn_plan.crashes.insert(churn_plan.crashes.end(), windows.begin(),
                              windows.end());
  }
  net.arm_faults(churn_plan, spec.seed);

  net.run_until(5.0);
  if (!run->deployed_ok()) {
    std::fprintf(stderr, "bench_churn_campaign: deploy failed (%s)\n",
                 run->errors.empty() ? "missing acks"
                                     : run->errors[0].c_str());
    std::exit(1);
  }
  sup->start();

  // Streamed load: a burst every few seconds across the churn window.
  Row row;
  row.scenario = spec.scenario;
  row.phi_dead = spec.phi_dead;
  row.peers = 1 + peers.size();
  for (double t = spec.warmup_s; t < spec.warmup_s + spec.churn_s - 10.0;
       t += spec.burst_period_s) {
    net.schedule(t, [&ctl, &run, &spec] { ctl.tick(*run, spec.burst_items); });
    row.items_expected += spec.burst_items;
  }

  const double horizon = spec.warmup_s + spec.churn_s + spec.drain_s;
  net.run_until(horizon);
  sup->stop();

  row.items_done =
      ctl.home_runtime(*run)->unit_as<GrapherUnit>("Sink")->items().size();
  row.completion_rate = row.items_expected == 0
                            ? 0.0
                            : static_cast<double>(row.items_done) /
                                  static_cast<double>(row.items_expected);
  const SupervisorStats& st = sup->stats();
  row.failures_detected = st.failures_detected;
  row.recoveries = st.recoveries;
  row.recoveries_failed = st.recoveries_failed;
  row.recoveries_aborted = st.recoveries_aborted;
  row.redeploys_timed_out = st.redeploys_timed_out;
  row.fences_sent = st.fences_sent;
  row.payloads_fenced = home.pipes().stats().payloads_fenced;
  for (const auto& p : peers) {
    row.payloads_fenced += p->pipes().stats().payloads_fenced;
    row.payloads_bounced += p->stats().payloads_bounced;
  }
  for (std::size_t i = 0; i < spec.workers; ++i) {
    if (sup->degraded(i)) ++row.degraded;
  }
  if (obs_registry != nullptr) {
    // One extraction path for table, JSON artifact and live /metrics: the
    // snapshot's quantile helper (test_obs pins both against a fixture).
    const auto snap = obs_registry->snapshot();
    const std::string hist = obs::scoped(scope, "supervisor.recovery_s");
    row.recovery_p50_s = snap.histogram_quantile(hist, 0.50);
    row.recovery_p95_s = snap.histogram_quantile(hist, 0.95);
  }

  // Close every deploy span before a trace export: cancel the remotes and
  // let the cancels (and any zombie fences) drain.
  ctl.shutdown(*run);
  net.run_until(horizon + 30.0);
  return row;
}

std::string rows_json(const std::vector<Row>& rows) {
  return bench::json_rows(rows, [](std::string& out, const Row& r) {
    out += "\"scenario\":" + obs::json_quote(r.scenario);
    out += ",\"phi_dead\":" + obs::json_number(r.phi_dead);
    out += ",\"peers\":" + std::to_string(r.peers);
    out += ",\"items_expected\":" + std::to_string(r.items_expected);
    out += ",\"items_done\":" + std::to_string(r.items_done);
    out += ",\"completion_rate\":" + obs::json_number(r.completion_rate);
    out += ",\"failures_detected\":" + std::to_string(r.failures_detected);
    out += ",\"recoveries\":" + std::to_string(r.recoveries);
    out += ",\"recoveries_failed\":" + std::to_string(r.recoveries_failed);
    out += ",\"recoveries_aborted\":" + std::to_string(r.recoveries_aborted);
    out += ",\"redeploys_timed_out\":" + std::to_string(r.redeploys_timed_out);
    out += ",\"fences_sent\":" + std::to_string(r.fences_sent);
    out += ",\"payloads_fenced\":" + std::to_string(r.payloads_fenced);
    out += ",\"payloads_bounced\":" + std::to_string(r.payloads_bounced);
    out += ",\"degraded\":" + std::to_string(r.degraded);
    out += ",\"recovery_p50_s\":" + obs::json_number(r.recovery_p50_s);
    out += ",\"recovery_p95_s\":" + obs::json_number(r.recovery_p95_s);
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench b("bench_churn_campaign");
  CampaignSpec base;
  std::size_t seed = base.seed;
  b.flags.add("--seed", seed, 0);
  b.json_flag();
  b.trace_flag();
  b.obs_flags();
  if (!b.flags.parse(argc, argv)) return 2;
  base.seed = seed;

  std::printf("E12: churn-at-scale campaign, %zu peers (1 home + %zu "
              "fragments + %zu spares), %.0f s churned window, seed %zu\n\n",
              1 + base.workers + base.spares, base.workers, base.spares,
              base.churn_s, seed);
  std::printf("%-13s %-6s %-7s %-6s %-5s %-7s %-7s %-7s %-7s %-7s %-5s "
              "%-8s %-8s\n",
              "scenario", "phi", "done", "rate", "det", "recov", "abort",
              "failed", "fenced", "bounce", "degr", "p50 s", "p95 s");

  struct Climate {
    const char* name;
    double mean_up_s;
    double mean_down_s;
  };
  const Climate climates[] = {
      {"calm", 600.0, 10.0},   // long sessions, screensaver blips
      {"stormy", 90.0, 45.0},  // volunteer rush hour
  };

  obs::Registry registry;
  // --obs-port: serve the campaign's registry (and a live trace ring) over
  // loopback HTTP while the sweep runs. Binding the tracer does not change
  // sim behaviour (PR 5 invariant: obs never feeds back into scheduling).
  obs::Tracer live_tracer(1 << 15);
  bench::ObsServer server(b, registry, &live_tracer);
  if (!server.start()) return 1;
  obs::Tracer* campaign_tracer = server.running() ? &live_tracer : nullptr;

  std::vector<Row> rows;
  for (const Climate& c : climates) {
    for (double phi : {4.0, 8.0, 12.0}) {
      CampaignSpec spec = base;
      spec.scenario =
          std::string(c.name) + "/phi" + std::to_string(static_cast<int>(phi));
      spec.mean_up_s = c.mean_up_s;
      spec.mean_down_s = c.mean_down_s;
      spec.phi_dead = phi;
      Row row = run_campaign(spec, &registry, campaign_tracer);
      rows.push_back(row);
      std::printf("%-13s %-6.0f %-7llu %-6.3f %-5llu %-7llu %-7llu %-7llu "
                  "%-7llu %-7llu %-5llu %-8.2f %-8.2f\n",
                  row.scenario.c_str(), row.phi_dead,
                  static_cast<unsigned long long>(row.items_done),
                  row.completion_rate,
                  static_cast<unsigned long long>(row.failures_detected),
                  static_cast<unsigned long long>(row.recoveries),
                  static_cast<unsigned long long>(row.recoveries_aborted),
                  static_cast<unsigned long long>(row.recoveries_failed),
                  static_cast<unsigned long long>(row.payloads_fenced),
                  static_cast<unsigned long long>(row.payloads_bounced),
                  static_cast<unsigned long long>(row.degraded),
                  row.recovery_p50_s, row.recovery_p95_s);
    }
  }

  std::printf(
      "\nShape check: calm blips ride below every threshold (detections "
      "identical across phi, completion stays at 1.0 -- the reliable layer "
      "and bind retries absorb 10 s outages without convicting anyone). "
      "The stormy climate exposes the trade: phi 4 convicts eagerly, so "
      "more recoveries fire and the spare pool burns down to degraded "
      "fragments, while phi 12 convicts tens of deaths fewer, keeps every "
      "fragment alive, but leaves them dark longer (recovery p95 grows). "
      "The fences keep the ledger honest either way: returning zombies' "
      "stale work is counted and dropped, never double-applied, and the "
      "completion floor holds.\n");

  if (!b.write_json("{\"bench\":\"churn\",\"rows\":" + rows_json(rows) +
                    ",\"metrics\":" +
                    registry.snapshot().to_json(/*pretty=*/false) + "}")) {
    return 1;
  }

  // --trace: rerun a pocket-sized calm scenario with the causal tracer on
  // the whole stack; the export is structurally complete (every span ends)
  // so congrid-trace --validate accepts it.
  if (b.tracing()) {
    obs::Registry trace_registry;
    obs::Tracer tracer(1 << 16);
    CampaignSpec tiny;
    tiny.seed = base.seed;
    tiny.scenario = "trace";
    tiny.mean_up_s = 60.0;
    tiny.mean_down_s = 15.0;
    tiny.phi_dead = 8.0;
    tiny.workers = 6;
    tiny.spares = 6;
    tiny.churn_s = 80.0;
    tiny.burst_items = 4;
    (void)run_campaign(tiny, &trace_registry, &tracer);
    if (!b.write_trace(tracer)) return 1;
  }

  server.linger();
  return 0;
}
