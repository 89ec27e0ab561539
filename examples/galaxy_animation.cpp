// Galaxy-formation animation on the Consumer Grid (paper Case 1, 3.6.1).
//
// "It is possible to distribute each time slice or frame over a number of
// processes and calculate the different views ... in parallel." A
// controller farms frame renders over volunteer peers with the parallel
// distribution policy; frames return in arbitrary order and the
// AnimationSink re-assembles them. Then the user "manipulates the view"
// and the animation is recomputed under the new projection.
#include <cstdio>

#include "apps/galaxy/units.hpp"
#include "core/service/controller.hpp"
#include "core/unit/builtin.hpp"
#include "net/sim_network.hpp"

using namespace cg;

namespace {

core::TaskGraph animation_graph(int frames, double azimuth) {
  core::TaskGraph inner("render");
  core::ParamSet rp;
  rp.set_int("particles", 600);
  rp.set_int("frames", frames);
  rp.set_int("grid", 48);
  rp.set_double("azimuth", azimuth);
  inner.add_task("Render", "RenderFrame", rp);

  core::TaskGraph g("galaxy");
  core::ParamSet fp;
  fp.set_int("frames", frames);
  g.add_task("Frames", "FrameSource", fp);
  core::TaskDef& grp = g.add_group("Farm", std::move(inner), "parallel");
  grp.group_inputs = {core::GroupPort{"Render", 0}};
  grp.group_outputs = {core::GroupPort{"Render", 0},
                       core::GroupPort{"Render", 1}};
  g.add_task("Anim", "AnimationSink");
  g.connect("Frames", 0, "Farm", 0);
  g.connect("Farm", 0, "Anim", 0);
  g.connect("Farm", 1, "Anim", 1);
  return g;
}

double frame_brightness(const core::ImageFrame& f) {
  double sum = 0;
  for (double v : f.pixels) sum += v;
  return sum;
}

}  // namespace

int main() {
  net::SimNetwork net({}, 1);
  auto clock = net.clock();
  auto sched = net.scheduler();
  core::UnitRegistry registry = core::UnitRegistry::with_builtins();
  galaxy::register_galaxy_units(registry);

  core::ServiceConfig home_cfg;
  home_cfg.peer_id = "visualiser";
  core::TrianaService home(net.add_node(), clock, sched, registry, home_cfg);

  std::vector<std::unique_ptr<core::TrianaService>> nodes;
  std::vector<net::Endpoint> workers;
  for (int i = 0; i < 5; ++i) {
    core::ServiceConfig cfg;
    cfg.peer_id = "render-node-" + std::to_string(i);
    nodes.push_back(std::make_unique<core::TrianaService>(
        net.add_node(), clock, sched, registry, cfg));
    home.node().add_neighbor(nodes.back()->endpoint());
    nodes.back()->node().add_neighbor(home.endpoint());
    workers.push_back(nodes.back()->endpoint());
  }

  const int kFrames = 20;
  core::TrianaController controller(home);

  for (double azimuth : {0.0, 0.8}) {
    core::TaskGraph g = animation_graph(kFrames, azimuth);
    home.publish_graph_modules(g);
    auto run = controller.distribute(g, "Farm", workers);
    net.run_all();
    if (!run->deployed_ok()) {
      std::fprintf(stderr, "deploy failed\n");
      return 1;
    }
    controller.tick(*run, kFrames);
    net.run_all();

    auto* anim =
        controller.home_runtime(*run)->unit_as<galaxy::AnimationSinkUnit>(
            "Anim");
    std::printf("view azimuth %.1f rad: %zu/%d frames assembled%s\n", azimuth,
                anim->frames().size(), kFrames,
                anim->complete(kFrames) ? " (complete, in order)" : "");
    std::printf("  brightness: frame0=%.3f frame%d=%.3f (cloud collapses -> "
                "light concentrates)\n",
                frame_brightness(anim->frames().at(0)), kFrames - 1,
                frame_brightness(anim->frames().at(kFrames - 1)));
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      std::printf("  %s rendered %llu frames\n", nodes[i]->id().c_str(),
                  static_cast<unsigned long long>(
                      nodes[i]
                          ->job_runtime(run->remote_jobs[i])
                          ->firings_of("Render")));
    }
    controller.shutdown(*run);
    net.run_all();
  }
  return 0;
}
