// ConGrid -- code transfer protocol.
//
// The wire half of on-demand code download: an executing peer fetches a
// module artifact from its owner; the owner answers from its
// ModuleRepository. Rides in kCode frames, which the owning peer routes to
// on_frame next to discovery and pipes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "net/transport.hpp"
#include "obs/trace.hpp"
#include "repo/repository.hpp"

namespace cg::repo {

struct CodeExchangeStats {
  std::uint64_t requests_sent = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t requests_not_found = 0;
  std::uint64_t artifacts_received = 0;
  std::uint64_t bytes_served = 0;
  std::uint64_t bytes_received = 0;  ///< encoded-artifact bytes fetched
};

/// One per peer. Route the peer's kCode frames to it:
///   node.route(serial::FrameType::kCode,
///              [&](auto& f, auto fr) { code.on_frame(f, std::move(fr)); });
class CodeExchange {
 public:
  using FetchHandler = std::function<void(std::optional<ModuleArtifact>)>;

  /// `transport` is used for sending; inbound kCode frames must be fed to
  /// on_frame by whoever owns the transport's handler.
  explicit CodeExchange(net::Transport& transport) : transport_(transport) {}

  /// Serve requests from this repository (nullptr = serve nothing).
  void serve_from(const ModuleRepository* repo) { repo_ = repo; }

  /// Request `name` (at `version`, or the owner's latest when empty) from
  /// `owner`. The handler fires once, with nullopt when the owner does not
  /// have the module. `trace` is the causal context of whatever caused the
  /// fetch (e.g. the deploy span waiting on the module); it travels in the
  /// request -- a fixed 24 bytes, zero-filled when untraced -- and is
  /// echoed in the response, so the owner's serve event joins the trace.
  std::uint64_t fetch(const net::Endpoint& owner, const std::string& name,
                      const std::string& version, FetchHandler on_done,
                      const obs::TraceContext& trace = {});

  /// Bind a tracer: served requests become "code.serve" events on `node`,
  /// stamped with the requester's causal context.
  void set_obs(obs::Tracer* tracer, std::string_view node = {});

  /// Feed one kCode frame.
  void on_frame(const net::Endpoint& from, serial::Frame frame);

  const CodeExchangeStats& stats() const { return stats_; }

 private:
  net::Transport& transport_;
  const ModuleRepository* repo_ = nullptr;
  std::unordered_map<std::uint64_t, FetchHandler> pending_;
  std::uint64_t next_req_ = 1;
  CodeExchangeStats stats_;
  obs::TracerRef tracer_;
  std::string trace_node_;
};

}  // namespace cg::repo
