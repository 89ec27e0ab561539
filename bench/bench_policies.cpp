// E5 -- the two distribution policies compared on the real service stack.
//
// Paper (3.3): "There are two distribution policies currently implemented
// in Triana, parallel and peer to peer. Parallel is a farming out mechanism
// and generally involves no communication between hosts. Peer to Peer means
// distributing the group vertically i.e. each unit in the group is
// distributed onto a separate resource and data is passed between them."
//
// Both policies run the same 3-stage group over 3 simulated DSL peers and
// the same input stream; we account what each costs: network messages,
// payload bytes, virtual completion time, and how much module code each
// peer had to download (the constrained-device angle of 3.3 -- the
// pipeline puts 1/3 of the code on each peer, the farm all of it on all).
//
// Machine-readable output: --json PATH writes a BENCH_policies.json
// artifact holding every table row. --trace PATH reruns the smallest p2p
// point with a causal tracer bound to the whole stack and exports the
// merged JSONL -- a real deploy/fetch/tick/return trace for congrid-trace.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/service/controller.hpp"
#include "core/unit/builtin.hpp"
#include "harness.hpp"
#include "net/sim_network.hpp"
#include "obs/obs.hpp"

using namespace cg;

namespace {

core::TaskGraph make_graph(const std::string& policy, int samples) {
  core::TaskGraph inner("stages");
  core::ParamSet p1;
  p1.set_double("factor", 2.0);
  inner.add_task("Scale", "Scaler", p1);
  core::ParamSet p2;
  p2.set_int("window", 5);
  inner.add_task("Smooth", "MovingAverage", p2);
  core::ParamSet p3;
  p3.set_double("offset", -1.0);
  inner.add_task("Shift", "Offset", p3);
  inner.connect("Scale", 0, "Smooth", 0);
  inner.connect("Smooth", 0, "Shift", 0);

  core::TaskGraph g("policy-bench");
  core::ParamSet wp;
  wp.set_int("samples", samples);
  g.add_task("Wave", "Wave", wp);
  core::TaskDef& grp = g.add_group("G", std::move(inner), policy);
  grp.group_inputs = {core::GroupPort{"Scale", 0}};
  grp.group_outputs = {core::GroupPort{"Shift", 0}};
  g.add_task("Sink", "NullSink");
  g.connect("Wave", 0, "G", 0);
  g.connect("G", 0, "Sink", 0);
  return g;
}

struct Result {
  std::uint64_t messages = 0;
  double megabytes = 0;
  double completion_s = 0;
  std::uint64_t items_done = 0;
  std::uint64_t code_bytes_max_peer = 0;  ///< worst-case per-peer download
};

Result run_policy(const std::string& policy, int samples, int items,
                  obs::Registry* obs_registry = nullptr,
                  obs::Tracer* tracer = nullptr) {
  net::SimNetwork net({}, 1);
  auto clock = net.clock();
  auto sched = net.scheduler();
  core::UnitRegistry registry = core::UnitRegistry::with_builtins();

  core::ServiceConfig hc;
  hc.peer_id = "home";
  core::TrianaService home(net.add_node(), clock, sched, registry, hc);
  std::vector<std::unique_ptr<core::TrianaService>> workers;
  std::vector<net::Endpoint> eps;
  for (int i = 0; i < 3; ++i) {
    core::ServiceConfig cfg;
    cfg.peer_id = std::string("w").append(std::to_string(i));
    workers.push_back(std::make_unique<core::TrianaService>(
        net.add_node(), clock, sched, registry, cfg));
    home.node().add_neighbor(workers.back()->endpoint());
    workers.back()->node().add_neighbor(home.endpoint());
    eps.push_back(workers.back()->endpoint());
  }
  if (obs_registry != nullptr) {
    net.set_obs(*obs_registry, tracer, "policy");
    home.set_obs(*obs_registry, tracer, "home");
    for (std::size_t i = 0; i < workers.size(); ++i) {
      workers[i]->set_obs(*obs_registry, tracer,
                          std::string("w").append(std::to_string(i)));
    }
  }

  core::TaskGraph g = make_graph(policy, samples);
  home.publish_graph_modules(g, 64 * 1024);  // 64 kB per module artifact

  core::TrianaController ctl(home);
  auto run = ctl.distribute(g, "G", eps);
  net.run_all();
  if (!run->deployed_ok()) {
    std::fprintf(stderr, "deploy failed (%s)\n", policy.c_str());
    std::exit(1);
  }

  ctl.tick(*run, static_cast<std::uint64_t>(items));
  net.run_all();

  Result r;
  r.messages = net.stats().messages_sent;
  r.megabytes = static_cast<double>(net.stats().bytes_sent) / 1e6;
  r.completion_s = net.now();
  r.items_done =
      ctl.home_runtime(*run)->unit_as<core::NullSinkUnit>("Sink")->received();
  for (auto& w : workers) {
    r.code_bytes_max_peer =
        std::max(r.code_bytes_max_peer,
                 static_cast<std::uint64_t>(w->module_cache().stats()
                                                .bytes_fetched));
  }
  // After the stats are read: cancel remote jobs and close the run's trace
  // span so an exported trace has no dangling root.
  ctl.shutdown(*run);
  net.run_all();
  return r;
}

struct Row {
  int samples = 0;
  std::string policy;
  Result r;
};

std::string rows_json(const std::vector<Row>& rows) {
  return bench::json_rows(rows, [](std::string& out, const Row& row) {
    out += "\"samples\":" + std::to_string(row.samples);
    out += ",\"policy\":" + obs::json_quote(row.policy);
    out += ",\"messages\":" + std::to_string(row.r.messages);
    out += ",\"megabytes\":" + obs::json_number(row.r.megabytes);
    out += ",\"completion_s\":" + obs::json_number(row.r.completion_s);
    out += ",\"items_done\":" + std::to_string(row.r.items_done);
    out += ",\"code_bytes_max_peer\":" +
           std::to_string(row.r.code_bytes_max_peer);
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench b("bench_policies");
  b.json_flag();
  b.trace_flag();
  if (!b.flags.parse(argc, argv)) return 2;

  std::printf("E5: parallel (farm) vs peer-to-peer (pipeline) vs "
              "replicated policy\n");
  std::printf("3-stage group, 3 DSL peers, 60 items per run\n\n");
  std::printf("%-10s %-11s %-9s %-10s %-9s %-8s %-14s\n", "payload",
              "policy", "msgs", "MB moved", "virt s", "items",
              "code kB/peer");

  const int kItems = 60;
  std::vector<Row> rows;
  for (int samples : {256, 4096, 32768}) {
    // "replicated" is the A1 ablation: integrity via 3x redundancy
    // (paper 3.5's wrong-results problem) paid for in messages/bytes.
    for (const char* policy : {"parallel", "p2p", "replicated"}) {
      const Result r = run_policy(policy, samples, kItems);
      rows.push_back({samples, policy, r});
      std::printf("%-10d %-11s %-9llu %-10.2f %-9.1f %-8llu %-14.0f\n",
                  samples, policy,
                  static_cast<unsigned long long>(r.messages), r.megabytes,
                  r.completion_s,
                  static_cast<unsigned long long>(r.items_done),
                  static_cast<double>(r.code_bytes_max_peer) / 1024.0);
    }
  }
  std::printf(
      "\nShape check (paper 3.3): the farm moves each item twice (in/out) "
      "but every peer downloads the whole group's code; the vertical "
      "pipeline adds a hop per stage boundary (more messages and bytes) "
      "yet each peer hosts only its own stage's module -- the granularity/"
      "footprint trade the paper gives the user 'complete control' over.\n");

  if (!b.write_json("{\"bench\":\"policies\",\"items\":" +
                    std::to_string(kItems) + ",\"rows\":" + rows_json(rows) +
                    "}")) {
    return 1;
  }

  // --trace: rerun the smallest p2p point with a tracer bound to the
  // network, home service and workers, and export the causal JSONL. The
  // rerun shares nothing with the sweep above, so the table is unaffected.
  if (b.tracing()) {
    obs::Registry trace_registry;
    obs::Tracer tracer(1 << 16);
    (void)run_policy("p2p", 256, kItems, &trace_registry, &tracer);
    if (!b.write_trace(tracer)) return 1;
  }
  return 0;
}
