// ConGrid -- distribution policies (control units).
//
// Paper 3.3: "Each group has a distribution policy which is, in fact,
// implemented as a Triana unit. ... There are two distribution policies
// currently implemented in Triana, parallel and peer to peer. Parallel is
// a farming out mechanism and generally involves no communication between
// hosts. Peer to Peer means distributing the group vertically i.e. each
// unit in the group is distributed onto a separate resource and data is
// passed between them."
//
// A policy is a pure graph rewrite: given a graph, the group to distribute,
// and how many resources are on offer, it produces (a) the rewritten home
// graph with proxy units where the group used to be and (b) one fragment
// per resource, all annotated with unique channel labels (paper 3.4: "each
// group input and output connection is uniquely labelled"). The controller
// then matches fragments to discovered peers and deploys. This module is
// also the one reader of those labels: channel_labels() says which channels
// any graph, home or fragment, reads and writes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/graph/taskgraph.hpp"
#include "core/unit/proxy_units.hpp"

namespace cg::core {

struct DistributionPlan {
  TaskGraph home_graph;
  /// One fragment per remote resource, in deployment order.
  std::vector<TaskGraph> fragments;
};

class DistributionPolicy {
 public:
  virtual ~DistributionPolicy() = default;
  virtual std::string name() const = 0;

  /// Rewrite `g` around `group_name` for `workers` resources.
  /// `label_prefix` must be unique per deployment. Throws
  /// std::invalid_argument when workers == 0 or the task is not a group.
  virtual DistributionPlan plan(const TaskGraph& g,
                                const std::string& group_name,
                                std::size_t workers,
                                const std::string& label_prefix) const = 0;
};

/// Farm: the whole group is replicated on each worker; items arriving at
/// each group input port are scattered round-robin over the replicas;
/// every replica sends its results to the same home-side channel.
class ParallelPolicy final : public DistributionPolicy {
 public:
  std::string name() const override { return "parallel"; }
  DistributionPlan plan(const TaskGraph& g, const std::string& group_name,
                        std::size_t workers,
                        const std::string& label_prefix) const override;
};

/// Vertical pipeline: each inner task goes to its own resource (round-robin
/// when there are fewer workers than tasks); every inner connection becomes
/// a cross-peer channel.
class PipelinePolicy final : public DistributionPolicy {
 public:
  std::string name() const override { return "p2p"; }
  DistributionPlan plan(const TaskGraph& g, const std::string& group_name,
                        std::size_t workers,
                        const std::string& label_prefix) const override;
};

/// Redundant execution: EVERY worker runs the whole group on EVERY item
/// (Broadcast in), and a home-side Vote unit compares the replicas' results
/// per item, emitting the majority. This addresses the paper's 3.5 concern
/// that a volunteer peer may return wrong results undetected ("it is
/// possible for a user to disguise the computational tasks"): with 2f+1
/// replicas, f cheaters are outvoted and exposed through the Vote unit's
/// dissent mask. Workers are capped at VoteUnit::kMaxVoteInputs.
class ReplicatedPolicy final : public DistributionPolicy {
 public:
  std::string name() const override { return "replicated"; }
  DistributionPlan plan(const TaskGraph& g, const std::string& group_name,
                        std::size_t workers,
                        const std::string& label_prefix) const override;
};

/// The data channels at a graph's boundary, in task order (recursing into
/// groups): `inputs` are Receive labels, `outputs` the labels Send,
/// Scatter and Broadcast proxies emit on.
struct ChannelLabels {
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
};
ChannelLabels channel_labels(const TaskGraph& g);

/// True for the unit types that carry a graph's boundary channels (engine
/// infrastructure, never fetched as code modules).
bool is_channel_proxy(const std::string& unit_type);

/// Factory by policy name ("parallel" | "p2p" | "replicated"); throws
/// std::invalid_argument otherwise.
std::unique_ptr<DistributionPolicy> make_policy(const std::string& name);

}  // namespace cg::core
