#include "core/dist/policy.hpp"

#include <stdexcept>
#include <unordered_map>

namespace cg::core {
namespace {

/// Common checks + group handle.
const TaskDef& checked_group(const TaskGraph& g, const std::string& group_name,
                             std::size_t workers) {
  if (workers == 0) {
    throw std::invalid_argument("distribution plan needs at least 1 worker");
  }
  const TaskDef& group = g.require_task(group_name);
  if (!group.is_group()) {
    throw std::invalid_argument("task '" + group_name + "' is not a group");
  }
  return group;
}

ParamSet with_param(const char* key, std::string value) {
  ParamSet p;
  p.set(key, std::move(value));
  return p;
}

/// The one home channel every producer of group output j sends to.
std::string out_label(const std::string& prefix, std::size_t j) {
  return prefix + "/out" + std::to_string(j);
}

/// Replica w's channel for group input i.
std::string replica_in_label(const std::string& prefix, std::size_t w,
                             std::size_t i) {
  return prefix + "/w" + std::to_string(w) + "/in" + std::to_string(i);
}

/// Home graph: every task except the group, a proxy named "<group>.in<i>"
/// per group input port (from `add_in`) and one named "<group>.out<j>" per
/// output port (from `add_out`), then the outer connections re-wired onto
/// the proxies' port 0.
template <typename AddIn, typename AddOut>
TaskGraph make_home_graph(const TaskGraph& g, const TaskDef& group,
                          AddIn add_in, AddOut add_out) {
  TaskGraph home(g.name());
  for (const auto& t : g.tasks()) {
    if (t.name == group.name) continue;
    home.tasks().push_back(t.clone());
  }
  for (std::size_t i = 0; i < group.group_inputs.size(); ++i) {
    add_in(home, group.name + ".in" + std::to_string(i), i);
  }
  for (std::size_t j = 0; j < group.group_outputs.size(); ++j) {
    add_out(home, group.name + ".out" + std::to_string(j), j);
  }
  for (const auto& c : g.connections()) {
    Connection r = c;
    if (c.to_task == group.name) {
      r.to_task = group.name + ".in" + std::to_string(c.to_port);
      r.to_port = 0;
    }
    if (c.from_task == group.name) {
      r.from_task = group.name + ".out" + std::to_string(c.from_port);
      r.from_port = 0;
    }
    home.connections().push_back(std::move(r));
  }
  return home;
}

/// Input proxy for whole-group replicas: a `type` (Scatter or Broadcast)
/// over every replica's channel for that input.
auto fan_out(const char* type, const std::string& prefix,
             std::size_t replicas) {
  return [type, &prefix, replicas](TaskGraph& home, const std::string& name,
                                   std::size_t i) {
    std::string csv;
    for (std::size_t w = 0; w < replicas; ++w) {
      if (w) csv += ",";
      csv += replica_in_label(prefix, w, i);
    }
    home.add_task(name, type, with_param("labels", std::move(csv)));
  };
}

/// Output proxy for the farm and the pipeline: a Receive on out_label.
auto receive_home(const std::string& prefix) {
  return [&prefix](TaskGraph& home, const std::string& name, std::size_t j) {
    home.add_task(name, "Receive", with_param("label", out_label(prefix, j)));
  };
}

/// A whole-group replica: the inner graph fitted with a Receive on
/// in_label(i) per group input and a Send on out_label(j) per output.
template <typename InLabel, typename OutLabel>
TaskGraph make_replica(const TaskDef& group, std::string name,
                       InLabel in_label, OutLabel out_label) {
  TaskGraph frag = group.group->clone();
  frag.set_name(std::move(name));
  for (std::size_t i = 0; i < group.group_inputs.size(); ++i) {
    const std::string recv = "__recv" + std::to_string(i);
    frag.add_task(recv, "Receive", with_param("label", in_label(i)));
    frag.connect(recv, 0, group.group_inputs[i].inner_task,
                 group.group_inputs[i].inner_port);
  }
  for (std::size_t j = 0; j < group.group_outputs.size(); ++j) {
    const std::string send = "__send" + std::to_string(j);
    frag.add_task(send, "Send", with_param("label", out_label(j)));
    frag.connect(group.group_outputs[j].inner_task,
                 group.group_outputs[j].inner_port, send, 0);
  }
  return frag;
}

}  // namespace

DistributionPlan ParallelPolicy::plan(const TaskGraph& g,
                                      const std::string& group_name,
                                      std::size_t workers,
                                      const std::string& prefix) const {
  const TaskDef& group = checked_group(g, group_name, workers);

  // One replica of the whole group per worker; all replicas funnel into
  // the same home channel.
  DistributionPlan plan;
  for (std::size_t w = 0; w < workers; ++w) {
    plan.fragments.push_back(make_replica(
        group, g.name() + "/" + group_name + "#" + std::to_string(w),
        [&](std::size_t i) { return replica_in_label(prefix, w, i); },
        [&](std::size_t j) { return out_label(prefix, j); }));
  }

  // Home side: scatter each input port round-robin over the replicas.
  plan.home_graph = make_home_graph(g, group,
                                    fan_out("Scatter", prefix, workers),
                                    receive_home(prefix));
  return plan;
}

DistributionPlan PipelinePolicy::plan(const TaskGraph& g,
                                      const std::string& group_name,
                                      std::size_t workers,
                                      const std::string& prefix) const {
  const TaskDef& group = checked_group(g, group_name, workers);
  const TaskGraph& inner = *group.group;

  // Resource slot per inner task, round-robin over the offered workers.
  const std::size_t slots = std::min(workers, inner.tasks().size());
  if (slots == 0) {
    throw std::invalid_argument("pipeline policy: group is empty");
  }

  DistributionPlan plan;
  plan.fragments.reserve(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    TaskGraph frag(g.name() + "/" + group_name + "@stage" +
                   std::to_string(s));
    plan.fragments.push_back(std::move(frag));
  }
  // Which slot hosts each inner task.
  std::unordered_map<std::string, std::size_t> slot_of;
  for (std::size_t i = 0; i < inner.tasks().size(); ++i) {
    const TaskDef& t = inner.tasks()[i];
    const std::size_t s = i % slots;
    slot_of[t.name] = s;
    plan.fragments[s].tasks().push_back(t.clone());
  }

  // The label for data consumed by inner task `name` on `port`.
  auto in_label = [&](const std::string& name, std::size_t port) {
    return prefix + "/t/" + name + "/p" + std::to_string(port);
  };

  // Inner connections: local when both ends share a slot, otherwise a
  // Send on the producer and a Receive on the consumer.
  std::size_t proxy_n = 0;
  for (const auto& c : inner.connections()) {
    const std::size_t sa = slot_of.at(c.from_task);
    const std::size_t sb = slot_of.at(c.to_task);
    if (sa == sb) {
      plan.fragments[sa].connections().push_back(c);
      continue;
    }
    const std::string label = in_label(c.to_task, c.to_port);
    const std::string send_name = "__send" + std::to_string(proxy_n);
    plan.fragments[sa].add_task(send_name, "Send",
                                with_param("label", label));
    plan.fragments[sa].connect(c.from_task, c.from_port, send_name, 0);

    const std::string recv_name = "__recv" + std::to_string(proxy_n);
    plan.fragments[sb].add_task(recv_name, "Receive",
                                with_param("label", label));
    plan.fragments[sb].connect(recv_name, 0, c.to_task, c.to_port);
    ++proxy_n;
  }

  // Group boundary inputs: the consuming fragment advertises the channel.
  for (std::size_t i = 0; i < group.group_inputs.size(); ++i) {
    const GroupPort& gp = group.group_inputs[i];
    const std::size_t s = slot_of.at(gp.inner_task);
    const std::string recv_name = "__gin" + std::to_string(i);
    plan.fragments[s].add_task(
        recv_name, "Receive",
        with_param("label", in_label(gp.inner_task, gp.inner_port)));
    plan.fragments[s].connect(recv_name, 0, gp.inner_task, gp.inner_port);
  }
  // Group boundary outputs: producer sends home.
  for (std::size_t j = 0; j < group.group_outputs.size(); ++j) {
    const GroupPort& gp = group.group_outputs[j];
    const std::size_t s = slot_of.at(gp.inner_task);
    const std::string send_name = "__gout" + std::to_string(j);
    plan.fragments[s].add_task(send_name, "Send",
                               with_param("label", out_label(prefix, j)));
    plan.fragments[s].connect(gp.inner_task, gp.inner_port, send_name, 0);
  }

  // Home side: a plain Send per group input port, targeting the consuming
  // fragment's channel.
  plan.home_graph = make_home_graph(
      g, group,
      [&](TaskGraph& home, const std::string& name, std::size_t i) {
        const GroupPort& gp = group.group_inputs[i];
        home.add_task(
            name, "Send",
            with_param("label", in_label(gp.inner_task, gp.inner_port)));
      },
      receive_home(prefix));
  return plan;
}

DistributionPlan ReplicatedPolicy::plan(const TaskGraph& g,
                                        const std::string& group_name,
                                        std::size_t workers,
                                        const std::string& prefix) const {
  const TaskDef& group = checked_group(g, group_name, workers);
  if (workers < 2) {
    throw std::invalid_argument("replicated policy needs >= 2 workers");
  }
  const std::size_t replicas = std::min(workers, VoteUnit::kMaxVoteInputs);
  // Replica w's output j has its own home channel so the Vote can compare.
  const auto voter_label = [&](std::size_t j, std::size_t w) {
    return out_label(prefix, j) + "/w" + std::to_string(w);
  };

  DistributionPlan plan;
  for (std::size_t w = 0; w < replicas; ++w) {
    plan.fragments.push_back(make_replica(
        group, g.name() + "/" + group_name + "!" + std::to_string(w),
        [&](std::size_t i) { return replica_in_label(prefix, w, i); },
        [&](std::size_t j) { return voter_label(j, w); }));
  }

  // Home graph: Broadcast per input port, per-replica Receives feeding a
  // Vote per output port. Outer connections from the group's output j are
  // rewired to "<group>.out<j>", the Vote's majority port.
  plan.home_graph = make_home_graph(
      g, group, fan_out("Broadcast", prefix, replicas),
      [&](TaskGraph& home, const std::string& vote, std::size_t j) {
        home.add_task(vote, "Vote");
        for (std::size_t w = 0; w < replicas; ++w) {
          const std::string recv = vote + ".r" + std::to_string(w);
          home.add_task(recv, "Receive",
                        with_param("label", voter_label(j, w)));
          home.connect(recv, 0, vote, w);
        }
      });
  return plan;
}

bool is_channel_proxy(const std::string& unit_type) {
  return unit_type == "Send" || unit_type == "Receive" ||
         unit_type == "Scatter" || unit_type == "Broadcast";
}

ChannelLabels channel_labels(const TaskGraph& g) {
  ChannelLabels out;
  for (const auto& t : g.tasks()) {
    if (t.is_group()) {
      ChannelLabels inner = channel_labels(*t.group);
      out.inputs.insert(out.inputs.end(), inner.inputs.begin(),
                        inner.inputs.end());
      out.outputs.insert(out.outputs.end(), inner.outputs.begin(),
                         inner.outputs.end());
    } else if (t.unit_type == "Receive" || t.unit_type == "Send") {
      auto& to = t.unit_type == "Receive" ? out.inputs : out.outputs;
      if (auto l = t.params.get("label", ""); !l.empty()) to.push_back(l);
    } else if (t.unit_type == "Scatter" || t.unit_type == "Broadcast") {
      for (auto& l : split_labels(t.params.get("labels", ""))) {
        out.outputs.push_back(std::move(l));
      }
    }
  }
  return out;
}

std::unique_ptr<DistributionPolicy> make_policy(const std::string& name) {
  if (name == "parallel") return std::make_unique<ParallelPolicy>();
  if (name == "p2p") return std::make_unique<PipelinePolicy>();
  if (name == "replicated") return std::make_unique<ReplicatedPolicy>();
  throw std::invalid_argument("unknown distribution policy: " + name);
}

}  // namespace cg::core
