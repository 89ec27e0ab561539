#include "core/unit/proxy_units.hpp"

#include <stdexcept>

namespace cg::core {

std::vector<std::string> split_labels(const std::string& csv) {
  std::vector<std::string> labels;
  std::size_t start = 0;
  while (start < csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > start) labels.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return labels;
}

void ChannelOut::set_labels(std::vector<std::string> labels,
                            const char* param) {
  std::erase(labels, std::string());
  if (labels.empty()) {
    throw std::invalid_argument(info().type_name + ": missing " + param);
  }
  labels_ = std::move(labels);
}

void ChannelOut::send(const std::string& label, const DataItem& item) const {
  if (!sender_) {
    throw std::logic_error(info().type_name + " '" + label +
                           "' fired with no channel sender installed");
  }
  sender_(label, item);
}

UnitInfo SendUnit::make_info() {
  UnitInfo i;
  i.type_name = "Send";
  i.concurrency = Concurrency::kSerialOnly;
  i.package = "dist";
  i.description = "Forwards input to a named data channel";
  i.inputs = {PortSpec{"in", kAnyType}};
  return i;
}

const UnitInfo& SendUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void SendUnit::configure(const ParamSet& p) {
  set_labels({p.get("label", "")}, "label");
}

void SendUnit::process(ProcessContext& ctx) {
  send(labels_[0], ctx.input(0));
}

UnitInfo ScatterUnit::make_info() {
  UnitInfo i;
  i.type_name = "Scatter";
  i.concurrency = Concurrency::kSerialOnly;
  i.package = "dist";
  i.description = "Round-robin forward to a list of data channels";
  i.inputs = {PortSpec{"in", kAnyType}};
  return i;
}

const UnitInfo& ScatterUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void ScatterUnit::configure(const ParamSet& p) {
  set_labels(split_labels(p.get("labels", "")), "labels");
}

void ScatterUnit::process(ProcessContext& ctx) {
  send(labels_[next_ % labels_.size()], ctx.input(0));
  next_ = (next_ + 1) % labels_.size();
}

serial::Bytes ScatterUnit::save_state() const {
  serial::Bytes b;
  b.push_back(static_cast<std::uint8_t>(next_));
  return b;
}

void ScatterUnit::restore_state(const serial::Bytes& state) {
  if (!state.empty()) next_ = state[0];
}

UnitInfo BroadcastUnit::make_info() {
  UnitInfo i;
  i.type_name = "Broadcast";
  i.concurrency = Concurrency::kSerialOnly;
  i.package = "dist";
  i.description = "Forward each item to every listed data channel";
  i.inputs = {PortSpec{"in", kAnyType}};
  return i;
}

const UnitInfo& BroadcastUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void BroadcastUnit::configure(const ParamSet& p) {
  set_labels(split_labels(p.get("labels", "")), "labels");
}

void BroadcastUnit::process(ProcessContext& ctx) {
  for (const auto& label : labels_) send(label, ctx.input(0));
}

UnitInfo VoteUnit::make_info() {
  UnitInfo i;
  i.type_name = "Vote";
  i.concurrency = Concurrency::kPure;
  i.package = "dist";
  i.description = "Majority vote over replicated results";
  for (std::size_t k = 0; k < kMaxVoteInputs; ++k) {
    i.inputs.push_back(
        PortSpec{std::string("r").append(std::to_string(k)), kAnyType});
  }
  i.outputs = {PortSpec{"majority", kAnyType},
               PortSpec{"agreement", type_bit(DataType::kInteger)},
               PortSpec{"dissent", type_bit(DataType::kInteger)}};
  return i;
}

const UnitInfo& VoteUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void VoteUnit::process(ProcessContext& ctx) {
  // Collect the arrived replicas (unconnected ports are empty).
  std::vector<std::size_t> arrived;
  for (std::size_t p = 0; p < kMaxVoteInputs; ++p) {
    if (ctx.has_input(p)) arrived.push_back(p);
  }
  if (arrived.empty()) {
    throw std::invalid_argument("Vote fired with no inputs");
  }

  // Plurality by pairwise equality (replica counts are tiny).
  std::size_t winner = arrived[0];
  std::size_t winner_count = 0;
  for (std::size_t cand : arrived) {
    std::size_t count = 0;
    for (std::size_t other : arrived) {
      if (ctx.input(cand) == ctx.input(other)) ++count;
    }
    if (count > winner_count) {
      winner_count = count;
      winner = cand;
    }
  }

  std::int64_t dissent = 0;
  for (std::size_t p : arrived) {
    if (!(ctx.input(p) == ctx.input(winner))) {
      dissent |= (std::int64_t{1} << p);
    }
  }
  const bool majority = winner_count * 2 > arrived.size();
  ctx.emit(0, ctx.input(winner));
  ctx.emit(1, static_cast<std::int64_t>(majority ? 1 : 0));
  ctx.emit(2, dissent);
}

UnitInfo ReceiveUnit::make_info() {
  UnitInfo i;
  i.type_name = "Receive";
  i.package = "dist";
  i.description = "Emits items arriving on a named data channel";
  i.outputs = {PortSpec{"out", kAnyType}};
  // Not a source: it fires only when the runtime delivers external data.
  return i;
}

const UnitInfo& ReceiveUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void ReceiveUnit::configure(const ParamSet& p) {
  label_ = p.get("label", "");
  if (label_.empty()) throw std::invalid_argument("Receive: missing label");
}

void ReceiveUnit::process(ProcessContext&) {
  // Deliveries bypass process(); reaching here means the graph wired a
  // Receive as an ordinary unit, which is a bug in the rewrite.
  throw std::logic_error("Receive '" + label_ + "' must not fire directly");
}

void register_proxy_units(UnitRegistry& r) {
  r.add<SendUnit>();
  r.add<ReceiveUnit>();
  r.add<ScatterUnit>();
  r.add<BroadcastUnit>();
  r.add<VoteUnit>();
}

}  // namespace cg::core
