#include "repo/code_exchange.hpp"

#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace cg::repo {
namespace {

constexpr std::uint8_t kRequest = 1;
constexpr std::uint8_t kResponse = 2;

}  // namespace

void CodeExchange::set_obs(obs::Tracer* tracer, std::string_view node) {
  tracer_ = tracer;
  trace_node_ = node.empty() ? transport_.local().value : std::string(node);
}

std::uint64_t CodeExchange::fetch(const net::Endpoint& owner,
                                  const std::string& name,
                                  const std::string& version,
                                  FetchHandler on_done,
                                  const obs::TraceContext& trace) {
  const std::uint64_t id = next_req_++;
  pending_[id] = std::move(on_done);

  serial::Writer w;
  w.u8(kRequest);
  w.u64(id);
  w.u64(trace.trace_id);
  w.u64(trace.parent_span);
  w.u64(trace.lamport);
  w.string(name);
  w.string(version);

  serial::Frame f;
  f.type = serial::FrameType::kCode;
  f.payload = w.take();
  transport_.send(owner, std::move(f));
  ++stats_.requests_sent;
  return id;
}

void CodeExchange::on_frame(const net::Endpoint& from, serial::Frame frame) {
  serial::Reader r(frame.payload);
  const std::uint8_t kind = r.u8();

  if (kind == kRequest) {
    const std::uint64_t id = r.u64();
    obs::TraceContext trace;
    trace.trace_id = r.u64();
    trace.parent_span = r.u64();
    trace.lamport = r.u64();
    const std::string name = r.string();
    const std::string version = r.string();

    std::optional<ModuleArtifact> a;
    if (repo_) {
      a = version.empty() ? repo_->latest(name) : repo_->get(name, version);
    }
    if (tracer_) {
      tracer_.event(trace_node_, "code.serve", trace,
                    "module=" + name + " found=" + (a ? "1" : "0"));
    }

    serial::Writer w;
    w.u8(kResponse);
    w.u64(id);
    w.boolean(a.has_value());
    if (a) {
      const auto bytes = encode_artifact(*a);
      w.blob(bytes);
      stats_.bytes_served += bytes.size();
      ++stats_.requests_served;
    } else {
      ++stats_.requests_not_found;
    }
    serial::Frame resp;
    resp.type = serial::FrameType::kCode;
    resp.payload = w.take();
    transport_.send(from, std::move(resp));
    return;
  }

  if (kind == kResponse) {
    const std::uint64_t id = r.u64();
    const bool found = r.boolean();
    std::optional<ModuleArtifact> a;
    if (found) {
      const auto bytes = r.blob();
      a = decode_artifact(bytes);
      ++stats_.artifacts_received;
      stats_.bytes_received += bytes.size();
    }
    auto it = pending_.find(id);
    if (it == pending_.end()) return;  // late or duplicate response
    auto handler = std::move(it->second);
    pending_.erase(it);
    handler(std::move(a));
    return;
  }
  // Unknown kind: drop (forward-compatibility).
}

}  // namespace cg::repo
