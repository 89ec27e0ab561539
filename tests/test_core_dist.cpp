// Tests for the distribution policies: plan structure for parallel (farm)
// and p2p (pipeline), channel closure across all three policies, and
// end-to-end equivalence -- a distributed plan executed through an
// in-memory channel router must compute the same results as running the
// original graph locally.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/dist/policy.hpp"
#include "core/engine/runtime.hpp"
#include "core/graph/validate.hpp"
#include "core/unit/builtin.hpp"

namespace cg::core {
namespace {

UnitRegistry& reg() {
  static UnitRegistry r = UnitRegistry::with_builtins();
  return r;
}

/// Wave -> [Scaler(2x) -> Offset(+1)] -> Grapher, group "G".
TaskGraph pipeline_graph() {
  TaskGraph inner("inner");
  ParamSet sp;
  sp.set_double("factor", 2.0);
  inner.add_task("Scale", "Scaler", sp);
  ParamSet op;
  op.set_double("offset", 1.0);
  inner.add_task("Shift", "Offset", op);
  inner.connect("Scale", 0, "Shift", 0);

  TaskGraph g("main");
  ParamSet wp;
  wp.set_int("samples", 16);
  g.add_task("Wave", "Wave", wp);
  TaskDef& grp = g.add_group("G", std::move(inner), "p2p");
  grp.group_inputs = {GroupPort{"Scale", 0}};
  grp.group_outputs = {GroupPort{"Shift", 0}};
  g.add_task("Grapher", "Grapher");
  g.connect("Wave", 0, "G", 0);
  g.connect("G", 0, "Grapher", 0);
  return g;
}

/// Run a plan entirely in-process: one runtime per fragment plus the home
/// runtime, with Send/Scatter emissions routed to whichever runtime owns
/// the label's Receive.
struct InMemoryMesh {
  std::vector<std::unique_ptr<GraphRuntime>> runtimes;  // [0] = home
  std::map<std::string, GraphRuntime*> receive_owner;

  explicit InMemoryMesh(const DistributionPlan& plan) {
    runtimes.push_back(
        std::make_unique<GraphRuntime>(plan.home_graph, reg(), RuntimeOptions{}));
    for (const auto& frag : plan.fragments) {
      runtimes.push_back(
          std::make_unique<GraphRuntime>(frag, reg(), RuntimeOptions{}));
    }
    for (auto& rt : runtimes) {
      for (const auto& label : rt->receive_labels()) {
        receive_owner[label] = rt.get();
      }
      rt->set_external_sender([this](const std::string& label, DataItem item) {
        auto it = receive_owner.find(label);
        ASSERT_NE(it, receive_owner.end()) << "unrouted label " << label;
        it->second->deliver(label, std::move(item));
      });
    }
  }

  GraphRuntime& home() { return *runtimes[0]; }
};

TEST(ParallelPolicy, PlanShape) {
  TaskGraph g = pipeline_graph();
  ParallelPolicy policy;
  DistributionPlan plan = policy.plan(g, "G", 3, "run1");

  ASSERT_EQ(plan.fragments.size(), 3u);
  for (const auto& frag : plan.fragments) {
    EXPECT_TRUE(validate(frag, reg()).ok()) << validate(frag, reg()).to_string();
    EXPECT_NE(frag.task("Scale"), nullptr);
    EXPECT_NE(frag.task("Shift"), nullptr);
    // Every replica sends to the same home channel.
    EXPECT_EQ(frag.task("__send0")->params.get("label", ""), "run1/out0");
  }
  // Distinct per-replica input labels.
  EXPECT_EQ(plan.fragments[0].task("__recv0")->params.get("label", ""),
            "run1/w0/in0");
  EXPECT_EQ(plan.fragments[2].task("__recv0")->params.get("label", ""),
            "run1/w2/in0");

  // Home: Wave -> Scatter(G.in0), Receive(G.out0) -> Grapher.
  EXPECT_TRUE(validate(plan.home_graph, reg()).ok());
  const TaskDef* scatter = plan.home_graph.task("G.in0");
  ASSERT_NE(scatter, nullptr);
  EXPECT_EQ(scatter->unit_type, "Scatter");
  EXPECT_NE(scatter->params.get("labels", "").find("run1/w1/in0"),
            std::string::npos);
  EXPECT_EQ(plan.home_graph.task("G.out0")->unit_type, "Receive");
  EXPECT_EQ(channel_labels(plan.home_graph).inputs,
            std::vector<std::string>{"run1/out0"});
}

TEST(ParallelPolicy, DistributedEqualsLocal) {
  TaskGraph g = pipeline_graph();

  // Local reference.
  GraphRuntime local(g, reg(), RuntimeOptions{});
  local.run(6);
  const auto& local_items = local.unit_as<GrapherUnit>("Grapher")->items();

  // Distributed over 3 in-memory workers.
  ParallelPolicy policy;
  InMemoryMesh mesh(policy.plan(g, "G", 3, "r"));
  mesh.home().run(6);
  const auto& dist_items = mesh.home().unit_as<GrapherUnit>("Grapher")->items();

  ASSERT_EQ(dist_items.size(), local_items.size());
  // Item payloads identical: the transform is deterministic and the wave
  // phase advances the same way in both runs.
  for (std::size_t i = 0; i < local_items.size(); ++i) {
    EXPECT_EQ(dist_items[i], local_items[i]) << "iteration " << i;
  }
}

TEST(ParallelPolicy, FarmSpreadsWorkAcrossReplicas) {
  TaskGraph g = pipeline_graph();
  ParallelPolicy policy;
  InMemoryMesh mesh(policy.plan(g, "G", 3, "r"));
  mesh.home().run(9);
  // Each of the 3 replicas processed 3 of the 9 items (round-robin).
  for (std::size_t w = 1; w <= 3; ++w) {
    EXPECT_EQ(mesh.runtimes[w]->firings_of("Scale"), 3u) << "worker " << w;
  }
}

TEST(PipelinePolicy, PlanShape) {
  TaskGraph g = pipeline_graph();
  PipelinePolicy policy;
  DistributionPlan plan = policy.plan(g, "G", 2, "run2");

  // Two inner tasks -> two stages.
  ASSERT_EQ(plan.fragments.size(), 2u);
  EXPECT_NE(plan.fragments[0].task("Scale"), nullptr);
  EXPECT_NE(plan.fragments[1].task("Shift"), nullptr);
  for (const auto& frag : plan.fragments) {
    EXPECT_TRUE(validate(frag, reg()).ok())
        << validate(frag, reg()).to_string();
  }
  // Stage 0 sends to stage 1's input channel.
  bool has_send_to_shift = false;
  for (const auto& t : plan.fragments[0].tasks()) {
    if (t.unit_type == "Send" &&
        t.params.get("label", "").find("/t/Shift/") != std::string::npos) {
      has_send_to_shift = true;
    }
  }
  EXPECT_TRUE(has_send_to_shift);

  // Home sends into stage 0's channel and receives from "run2/out0".
  EXPECT_EQ(plan.home_graph.task("G.in0")->unit_type, "Send");
  EXPECT_NE(plan.home_graph.task("G.in0")->params.get("label", "")
                .find("/t/Scale/"),
            std::string::npos);
}

TEST(PipelinePolicy, DistributedEqualsLocal) {
  TaskGraph g = pipeline_graph();
  GraphRuntime local(g, reg(), RuntimeOptions{});
  local.run(5);
  const auto& local_items = local.unit_as<GrapherUnit>("Grapher")->items();

  PipelinePolicy policy;
  InMemoryMesh mesh(policy.plan(g, "G", 2, "r"));
  mesh.home().run(5);
  const auto& dist_items = mesh.home().unit_as<GrapherUnit>("Grapher")->items();

  ASSERT_EQ(dist_items.size(), local_items.size());
  for (std::size_t i = 0; i < local_items.size(); ++i) {
    EXPECT_EQ(dist_items[i], local_items[i]);
  }
}

TEST(PipelinePolicy, EachStageRunsItsOwnUnit) {
  TaskGraph g = pipeline_graph();
  PipelinePolicy policy;
  InMemoryMesh mesh(policy.plan(g, "G", 2, "r"));
  mesh.home().run(4);
  EXPECT_EQ(mesh.runtimes[1]->firings_of("Scale"), 4u);
  EXPECT_EQ(mesh.runtimes[1]->firings_of("Shift"), 0u);
  EXPECT_EQ(mesh.runtimes[2]->firings_of("Shift"), 4u);
}

TEST(PipelinePolicy, FewerWorkersThanTasksRoundRobins) {
  TaskGraph g = pipeline_graph();
  PipelinePolicy policy;
  DistributionPlan plan = policy.plan(g, "G", 1, "r");
  // Both inner tasks land on the single worker; the inner connection
  // stays local to the fragment.
  ASSERT_EQ(plan.fragments.size(), 1u);
  EXPECT_NE(plan.fragments[0].task("Scale"), nullptr);
  EXPECT_NE(plan.fragments[0].task("Shift"), nullptr);
  bool local_edge = false;
  for (const auto& c : plan.fragments[0].connections()) {
    if (c.from_task == "Scale" && c.to_task == "Shift") local_edge = true;
  }
  EXPECT_TRUE(local_edge);
}

/// Two-input, three-output group [Add -> Scale, Add -> Shift -> Clip] that
/// exposes Shift both directly and through Clip.
TaskGraph multi_port_graph() {
  TaskGraph inner("inner");
  inner.add_task("Add", "Adder");
  inner.add_task("Scale", "Scaler");
  inner.add_task("Shift", "Offset");
  inner.add_task("Clip", "Clipper");
  inner.connect("Add", 0, "Scale", 0);
  inner.connect("Add", 0, "Shift", 0);
  inner.connect("Shift", 0, "Clip", 0);

  TaskGraph g("multi");
  g.add_task("WaveA", "Wave");
  g.add_task("WaveB", "Wave");
  TaskDef& grp = g.add_group("G", std::move(inner), "parallel");
  grp.group_inputs = {GroupPort{"Add", 0}, GroupPort{"Add", 1}};
  grp.group_outputs = {GroupPort{"Scale", 0}, GroupPort{"Clip", 0},
                       GroupPort{"Shift", 0}};
  g.add_task("SinkA", "Grapher");
  g.add_task("SinkB", "Grapher");
  g.add_task("SinkC", "Grapher");
  g.connect("WaveA", 0, "G", 0);
  g.connect("WaveB", 0, "G", 1);
  g.connect("G", 0, "SinkA", 0);
  g.connect("G", 1, "SinkB", 0);
  g.connect("G", 2, "SinkC", 0);
  return g;
}

/// Every label of a plan, home and fragments together.
ChannelLabels plan_labels(const DistributionPlan& plan) {
  ChannelLabels all = channel_labels(plan.home_graph);
  for (const auto& frag : plan.fragments) {
    ChannelLabels f = channel_labels(frag);
    all.inputs.insert(all.inputs.end(), f.inputs.begin(), f.inputs.end());
    all.outputs.insert(all.outputs.end(), f.outputs.begin(), f.outputs.end());
  }
  return all;
}

// The cut is closed: whatever the policy, worker count or port count,
// every channel written has exactly one reader, every channel read has a
// writer, and two deployments (prefixes) never share a channel.
TEST(Policies, ChannelsAreClosedAndPrivateToTheirPrefix) {
  for (const std::string name : {"parallel", "p2p", "replicated"}) {
    const auto policy = make_policy(name);
    for (const TaskGraph& g : {pipeline_graph(), multi_port_graph()}) {
      for (std::size_t workers = 1; workers <= 6; ++workers) {
        SCOPED_TRACE(name + " " + g.name() + " x" + std::to_string(workers));
        if (name == "replicated" && workers < 2) {
          EXPECT_THROW(policy->plan(g, "G", workers, "a"),
                       std::invalid_argument);
          continue;
        }
        const ChannelLabels a = plan_labels(policy->plan(g, "G", workers, "a"));
        ASSERT_FALSE(a.outputs.empty());
        for (const auto& label : a.outputs) {
          EXPECT_EQ(std::count(a.inputs.begin(), a.inputs.end(), label), 1)
              << label;
        }
        for (const auto& label : a.inputs) {
          EXPECT_NE(std::find(a.outputs.begin(), a.outputs.end(), label),
                    a.outputs.end())
              << label;
        }
        const ChannelLabels b = plan_labels(policy->plan(g, "G", workers, "b"));
        for (const auto& label : b.inputs) {
          EXPECT_EQ(std::find(a.inputs.begin(), a.inputs.end(), label),
                    a.inputs.end())
              << label;
        }
      }
    }
  }
}

TEST(Policies, Errors) {
  TaskGraph g = pipeline_graph();
  ParallelPolicy par;
  EXPECT_THROW(par.plan(g, "G", 0, "r"), std::invalid_argument);
  EXPECT_THROW(par.plan(g, "Wave", 2, "r"), std::invalid_argument);
  EXPECT_THROW(par.plan(g, "Ghost", 2, "r"), std::out_of_range);
  EXPECT_THROW(make_policy("bogus"), std::invalid_argument);
  EXPECT_EQ(make_policy("parallel")->name(), "parallel");
  EXPECT_EQ(make_policy("p2p")->name(), "p2p");
}

}  // namespace
}  // namespace cg::core
