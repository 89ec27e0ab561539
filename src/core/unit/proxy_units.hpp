// ConGrid -- distribution proxy units.
//
// When a control unit rewrites a task graph for distribution (paper 3.3:
// "Control units reroute input data and dynamically re-wire the task graph
// to create a distributed version that is annotated with the particular
// resources ... and the specific data channels"), the cut connections are
// replaced by Send/Receive proxies. A SendUnit forwards its input to a
// named data channel (a p2p pipe label); a ReceiveUnit is the graph-side
// mouth of such a channel -- the runtime injects arriving payloads at its
// output. Param for both: "label". Which channels a graph reads and writes
// is answered by channel_labels() in core/dist, next to the policies that
// place these proxies.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/unit/registry.hpp"

namespace cg::core {

/// Splits a comma-separated label list, dropping empty entries.
std::vector<std::string> split_labels(const std::string& csv);

/// Graph-boundary egress: input port 0 -> external data channels. Send,
/// Scatter and Broadcast differ only in which of their labels an item goes
/// to; the runtime installs one sender on all three.
class ChannelOut : public Unit {
 public:
  /// Installed by the runtime; receives every item that crosses out.
  using Sender = std::function<void(const std::string& label, DataItem)>;
  void set_sender(Sender s) { sender_ = std::move(s); }

 protected:
  /// Keeps the non-empty `labels`; throws when none is left.
  void set_labels(std::vector<std::string> labels, const char* param);
  /// Forwards `item` on `label`; throws when no sender is installed.
  void send(const std::string& label, const DataItem& item) const;

  std::vector<std::string> labels_;

 private:
  Sender sender_;
};

/// Point-to-point egress: every item goes to channel `label`.
class SendUnit final : public ChannelOut {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void configure(const ParamSet& p) override;
  void process(ProcessContext& ctx) override;
};

/// Round-robin scatter proxy used by the parallel (farm) policy: forwards
/// each input item to the next label in its configured list. Param:
/// "labels" (comma-separated). The round-robin cursor is checkpointable so
/// a migrated farm keeps its distribution pattern.
class ScatterUnit final : public ChannelOut {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void configure(const ParamSet& p) override;
  void process(ProcessContext& ctx) override;
  serial::Bytes save_state() const override;
  void restore_state(const serial::Bytes& state) override;
  void reset() override { next_ = 0; }

 private:
  std::size_t next_ = 0;
};

/// Broadcast proxy used by the replicated policy: forwards each input item
/// to EVERY label in its list (same item to all replicas). Param: "labels"
/// (comma-separated).
class BroadcastUnit final : public ChannelOut {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void configure(const ParamSet& p) override;
  void process(ProcessContext& ctx) override;
};

/// Majority vote over replicated results: up to kMaxVoteInputs inputs (use
/// only as many as there are replicas -- the engine fires the unit when
/// every *connected* port has an item). Emits the plurality item (port 0),
/// an agreement flag (port 1: 1 when a strict majority of arrived inputs
/// agree) and a dissent bitmask (port 2: bit i set when input i differed
/// from the winner) -- the signal a controller feeds into its TrustManager.
class VoteUnit final : public Unit {
 public:
  static constexpr std::size_t kMaxVoteInputs = 5;

  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void process(ProcessContext& ctx) override;
};

/// Graph-boundary ingress: external channel `label` -> output port 0. The
/// unit itself never fires through process(); the runtime routes delivered
/// items from its output connections directly.
class ReceiveUnit final : public Unit {
 public:
  static UnitInfo make_info();
  const UnitInfo& info() const override;
  void configure(const ParamSet& p) override;
  void process(ProcessContext& ctx) override;

  const std::string& label() const { return label_; }

 private:
  std::string label_;
};

}  // namespace cg::core
