// Database-access pipeline on the Consumer Grid (paper Case 3, 3.6.3).
//
// "the user establishes a pipeline in Triana consisting of: (1) a data
// access service, (2) a data manipulation service, (3) a data visualisation
// service, and (4) a data verification service ... Each of these services
// may now be provided by different Triana Peers." We group the four stages
// and distribute them with the *peer-to-peer* (vertical pipeline) policy,
// so each stage lands on its own peer, discovered by capability.
#include <cstdio>

#include "apps/db/units.hpp"
#include "core/service/controller.hpp"
#include "core/unit/builtin.hpp"
#include "net/sim_network.hpp"

using namespace cg;

int main() {
  net::SimNetwork net({}, 1);
  auto clock = net.clock();
  auto sched = net.scheduler();
  core::UnitRegistry registry = core::UnitRegistry::with_builtins();
  db::register_db_units(registry);

  core::ServiceConfig home_cfg;
  home_cfg.peer_id = "user";
  core::TrianaService home(net.add_node(), clock, sched, registry, home_cfg);

  // Four service-provider peers at "different geographic sites".
  std::vector<std::unique_ptr<core::TrianaService>> sites;
  for (int i = 0; i < 4; ++i) {
    core::ServiceConfig cfg;
    cfg.peer_id = "site-" + std::to_string(i);
    cfg.capabilities["cpu_mhz"] = std::to_string(1200 + 400 * i);
    sites.push_back(std::make_unique<core::TrianaService>(
        net.add_node(), clock, sched, registry, cfg));
    home.node().add_neighbor(sites.back()->endpoint());
    sites.back()->node().add_neighbor(home.endpoint());
    sites.back()->announce();
  }

  // Discover providers ("The Triana system looks on the network to
  // discover peers which offer each of these services").
  core::TrianaController controller(home);
  p2p::Query query;
  query.kind = p2p::AdvertKind::kPeer;
  query.require_min["cpu_mhz"] = 1000.0;
  std::vector<net::Endpoint> providers;
  controller.discover_workers(query, /*ttl=*/2, /*want=*/4, /*timeout_s=*/2.0,
                              [&](std::vector<net::Endpoint> eps) {
                                providers = std::move(eps);
                              });
  net.run_all();
  std::printf("discovered %zu capable provider peers\n", providers.size());

  // The 4-stage pipeline group.
  core::TaskGraph inner("stages");
  core::ParamSet ap;
  ap.set("dataset", "stars");
  ap.set_int("rows", 500);
  inner.add_task("Access", "DataAccess", ap);
  core::ParamSet mp;
  mp.set("op", "filter");
  mp.set("column", "magnitude");
  mp.set("where_op", "<");
  mp.set("value", "12");
  inner.add_task("Manipulate", "DataManipulate", mp);
  core::ParamSet vp;
  vp.set("column", "magnitude");
  inner.add_task("Visualise", "DataVisualise", vp);
  core::ParamSet fp;
  fp.set_int("min_rows", 10);
  fp.set("numeric_column", "magnitude");
  inner.add_task("Verify", "DataVerify", fp);
  inner.connect("Access", 0, "Manipulate", 0);
  inner.connect("Manipulate", 0, "Visualise", 0);
  inner.connect("Manipulate", 0, "Verify", 0);

  core::TaskGraph g("dbflow");
  core::TaskDef& grp = g.add_group("Pipeline", std::move(inner), "p2p");
  grp.group_outputs = {core::GroupPort{"Visualise", 0},
                       core::GroupPort{"Verify", 0}};
  g.add_task("Summary", "Grapher");
  g.add_task("Ok", "StatSink");
  g.connect("Pipeline", 0, "Summary", 0);
  g.connect("Pipeline", 1, "Ok", 0);

  home.publish_graph_modules(g);
  auto run = controller.distribute(g, "Pipeline", providers);
  net.run_all();
  if (!run->deployed_ok()) {
    std::fprintf(stderr, "deploy failed: %s\n",
                 run->errors.empty() ? "?" : run->errors[0].c_str());
    return 1;
  }
  std::printf("pipeline stages deployed to %zu peers (p2p policy: one stage "
              "per resource)\n",
              run->remote_jobs.size());

  // The pipeline's source (DataAccess) lives on a remote stage, so tick
  // the *remote* source jobs by asking their hosts; here the Access stage
  // is driven by the home graph having no sources -- instead request 3
  // evaluations via status-quo: Access is a source unit inside stage 0.
  // Remote fragments are reactive jobs, so the controller asks the stage-0
  // host to tick it.
  for (int round = 0; round < 3; ++round) {
    for (const auto& job : run->remote_jobs) {
      for (auto& site : sites) site->tick_job(job);  // no-op on non-hosts
    }
    net.run_all();
  }

  auto* summary =
      controller.home_runtime(*run)->unit_as<core::GrapherUnit>("Summary");
  auto* ok = controller.home_runtime(*run)->unit_as<core::StatSinkUnit>("Ok");
  std::printf("rounds returned: %zu\n", summary->items().size());
  if (!summary->items().empty()) {
    std::printf("summary: %s\n", summary->items().back().text().c_str());
  }
  std::printf("verification: %s\n",
              ok->stats().count() && ok->stats().mean() == 1.0
                  ? "all rounds OK"
                  : "FAILED rounds present");
  return 0;
}
