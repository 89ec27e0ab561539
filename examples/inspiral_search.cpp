// Inspiral search on the Consumer Grid (paper Case 2, section 3.6.2).
//
// A controller farms GEO600-style strain chunks over volunteer peers, each
// scanning them against a template bank with FFT fast correlation. Sizes
// are reduced for a seconds-long demo; the CostModel then scales the
// measured behaviour back up to the paper's numbers (5,000-10,000
// templates, 900 s chunks, "about 5 hours on a 2 GHz PC", "20 PC's ... to
// keep up").
#include <cstdio>

#include "apps/gw/units.hpp"
#include "core/service/controller.hpp"
#include "core/unit/builtin.hpp"
#include "net/sim_network.hpp"

using namespace cg;

int main() {
  // -- the consumer grid: 1 controller + 4 volunteer services -------------
  net::SimNetwork net({}, /*seed=*/1);
  auto clock = net.clock();
  auto sched = net.scheduler();
  core::UnitRegistry registry = core::UnitRegistry::with_builtins();
  gw::register_gw_units(registry);

  core::ServiceConfig home_cfg;
  home_cfg.peer_id = "controller";
  home_cfg.sandbox_policy.max_cpu_seconds = 1e9;
  core::TrianaService home(net.add_node(), clock, sched, registry, home_cfg);

  std::vector<std::unique_ptr<core::TrianaService>> volunteers;
  for (int i = 0; i < 4; ++i) {
    core::ServiceConfig cfg;
    cfg.peer_id = "volunteer-" + std::to_string(i);
    cfg.sandbox_policy.max_cpu_seconds = 1e9;  // inspiral is CPU-hungry
    volunteers.push_back(std::make_unique<core::TrianaService>(
        net.add_node(), clock, sched, registry, cfg));
  }
  std::vector<net::Endpoint> workers;
  for (auto& v : volunteers) {
    home.node().add_neighbor(v->endpoint());
    v->node().add_neighbor(home.endpoint());
    v->announce();
    workers.push_back(v->endpoint());
  }

  // -- the workflow: StrainSource -> [InspiralFilter] farm -> sinks --------
  core::TaskGraph inner("scan");
  core::ParamSet fp;
  fp.set_int("n_templates", 24);
  fp.set_double("f_low", 150.0);
  fp.set_double("threshold", 8.0);
  inner.add_task("Filter", "InspiralFilter", fp);

  core::TaskGraph g("inspiral");
  core::ParamSet sp;
  sp.set_int("samples", 16384);
  sp.set_int("inject_every", 3);
  sp.set_double("inject_amp", 4.0);
  sp.set_double("chirp_mass", 1.5);
  sp.set_double("f_low", 150.0);
  g.add_task("Detector", "StrainSource", sp);
  core::TaskDef& grp = g.add_group("Scan", std::move(inner), "parallel");
  grp.group_inputs = {core::GroupPort{"Filter", 0}};
  grp.group_outputs = {core::GroupPort{"Filter", 0},
                       core::GroupPort{"Filter", 1}};
  g.add_task("Snr", "Grapher");
  g.add_task("Hits", "StatSink");
  g.connect("Detector", 0, "Scan", 0);
  g.connect("Scan", 0, "Snr", 0);
  g.connect("Scan", 1, "Hits", 0);

  home.publish_graph_modules(g);

  core::TrianaController controller(home);
  auto run = controller.distribute(g, "Scan", workers);
  net.run_all();
  if (!run->deployed_ok()) {
    std::fprintf(stderr, "deploy failed: %s\n",
                 run->errors.empty() ? "?" : run->errors[0].c_str());
    return 1;
  }
  std::printf("deployed %zu scan fragments to %zu volunteers\n",
              run->remote_jobs.size(), workers.size());

  const int kChunks = 12;
  controller.tick(*run, kChunks);
  net.run_all();

  auto* hits = controller.home_runtime(*run)->unit_as<core::StatSinkUnit>(
      "Hits");
  std::printf("chunks analysed: %zu, detections: %.0f (expected 4: every "
              "3rd chunk carries an injection)\n",
              hits->stats().count(), hits->stats().mean() * kChunks);
  for (std::size_t i = 0; i < volunteers.size(); ++i) {
    std::printf("  %s scanned %llu chunks\n",
                volunteers[i]->id().c_str(),
                static_cast<unsigned long long>(
                    volunteers[i]
                        ->job_runtime(run->remote_jobs[i])
                        ->firings_of("Filter")));
  }

  // -- scale the arithmetic back to the paper ------------------------------
  gw::CostModel cost;
  gw::DetectorSpec det;
  std::printf("\npaper-scale arithmetic (CostModel):\n");
  for (std::size_t bank : {5000u, 7500u, 10000u}) {
    std::printf(
        "  %5zu templates: %.1f h per 900 s chunk on a 2 GHz PC -> %.0f "
        "dedicated PCs for real time\n",
        bank,
        cost.chunk_seconds(bank, det.samples_per_chunk(), 2000.0) / 3600.0,
        cost.pcs_for_realtime(bank, det.chunk_seconds,
                              det.samples_per_chunk(), 2000.0));
  }
  std::printf("(the paper: ~5 hours, '20 PCs would need to be employed')\n");
  return 0;
}
