// ConGrid -- named pipes (the JXTAServe analogue).
//
// The paper, section 3.4: "for each input connection, the remote service
// advertises an input pipe with that connection's unique name. Since the
// local service knows the connection's unique name it locates the pipe with
// that name and binds to it". PipeServe is ConGrid's version of JXTAServe:
// a stable facade that hides the discovery/advertisement machinery from the
// layers above (the Triana service protocol uses only this interface, so
// swapping the discovery substrate never touches the engine -- the paper's
// motivation for JXTAServe).
//
// Input side:  advertise_input(name, handler)  -> pipe advert + dispatch
// Output side: hint_output(name, provider)     -> cached pipe advert
//              bind_output(name, ...)          -> local cache, else
//                                                 discovery -> OutputPipe
//              send(pipe, bytes)               -> kData frame to the binding
//
// Binding is static first, dynamic on failure: a deploy that names where
// its output channels are served (the plan's channel annotations) seeds
// the local cache through hint_output, so bind_output's first step answers
// at once. A label without a hint -- or whose hint was dropped by a rebind
// or a bounce -- falls through to the rendezvous and the expanding ring.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>

#include "p2p/discovery.hpp"
#include "p2p/peer_node.hpp"

namespace cg::p2p {

/// A bound output pipe: where payloads for `name` should be sent.
struct OutputPipe {
  std::string name;
  net::Endpoint target;
  bool bound() const { return !target.empty(); }
};

struct PipeServeStats {
  std::uint64_t payloads_sent = 0;
  std::uint64_t payloads_received = 0;
  std::uint64_t payloads_for_unknown_pipe = 0;
  /// Stale-epoch payloads rejected by a producer fence: counted here,
  /// never delivered (recovery double-fire suppression).
  std::uint64_t payloads_fenced = 0;
  std::uint64_t bytes_sent = 0;
};

class PipeServe {
 public:
  /// Payload handler for an input pipe; `from` is the sending transport
  /// endpoint.
  using PipeHandler =
      std::function<void(const net::Endpoint& from, serial::Bytes payload)>;
  using BindHandler = std::function<void(OutputPipe)>;
  /// Consulted for payloads that match no input pipe (withdrawn after a
  /// lease suspension, or never served here). Return true when the
  /// payload was taken over (e.g. bounced back to its sender); false
  /// counts it as payloads_for_unknown_pipe as before.
  using UnknownPipeHandler = std::function<bool(
      const std::string& pipe, const net::Endpoint& from,
      serial::Bytes payload)>;

  /// The node and scheduler must outlive the PipeServe. PipeServe routes
  /// the node's kData frames to itself (PeerNode::route).
  PipeServe(PeerNode& node, Scheduler scheduler);

  PipeServe(const PipeServe&) = delete;
  PipeServe& operator=(const PipeServe&) = delete;

  // -- input pipes -----------------------------------------------------------
  /// Register a handler and advertise the pipe: always in the local cache,
  /// and pushed to this node's rendezvous when it has one. `epoch` is the
  /// provider's recovery epoch, carried as an advert attribute so a
  /// rebinding sender prefers the newest incarnation over a stale cached
  /// advert of the host it just migrated away from.
  void advertise_input(const std::string& pipe_name, PipeHandler handler,
                       std::uint64_t epoch = 0);

  /// Stop serving an input pipe (payloads for it become "unknown").
  void remove_input(const std::string& pipe_name);

  bool has_input(const std::string& pipe_name) const {
    return inputs_.contains(pipe_name);
  }

  // -- output pipes -----------------------------------------------------------
  /// Record that `pipe_name` is served by `provider` at recovery `epoch`:
  /// the pipe advert a successful discovery would have cached (same kind,
  /// name, provider and "epoch" attribute, the normal advert lifetime).
  /// The next bind_output resolves it from the local cache; dropping the
  /// name from the cache (AdvertisementCache::drop_name) drops the hint.
  void hint_output(const std::string& pipe_name,
                   const net::Endpoint& provider, std::uint64_t epoch = 0);

  /// Resolve `pipe_name` to a provider. Checks the local cache, then the
  /// rendezvous when configured, then expanding-ring floods. Calls
  /// `on_bound` exactly once -- with an unbound OutputPipe on failure.
  void bind_output(const std::string& pipe_name, BindHandler on_bound,
                   ExpandingRingOptions ring = {});

  /// Fire-and-forget payload delivery over a bound pipe, stamped with the
  /// sending job's fencing epoch (0 = unfenced). Throws std::logic_error
  /// if the pipe is unbound.
  void send(const OutputPipe& pipe, serial::Bytes payload,
            std::uint64_t epoch = 0);

  // -- fencing -----------------------------------------------------------------
  /// Reject payloads for `pipe_name` stamped with an epoch below
  /// `min_epoch` (monotonic: a lower fence never replaces a higher one).
  /// `from` scopes the fence to one sending endpoint's value -- essential
  /// for fan-in labels, where many producers share a pipe name and each has
  /// its own epoch; empty `from` fences the label for every sender.
  /// Rejected payloads bump payloads_fenced and are dropped before any
  /// handler runs.
  void fence(const std::string& pipe_name, std::uint64_t min_epoch,
             const std::string& from = {});

  /// Current fence for a pipe as seen by sender `from` (0 = none); the
  /// wildcard and the sender-scoped fence combine as max.
  std::uint64_t fence_of(const std::string& pipe_name,
                         const std::string& from = {}) const;

  // -- plumbing ----------------------------------------------------------------
  /// Install the unknown-pipe hook (the service's bounce path).
  void set_unknown_pipe_handler(UnknownPipeHandler h) {
    unknown_ = std::move(h);
  }

  const PipeServeStats& stats() const { return stats_; }
  PeerNode& node() { return node_; }

 private:
  void on_frame(const net::Endpoint& from, serial::Frame frame);

  PeerNode& node_;
  Scheduler scheduler_;
  std::unordered_map<std::string, PipeHandler> inputs_;
  /// label -> (sender endpoint value, "" = any sender) -> min epoch
  std::unordered_map<std::string,
                     std::unordered_map<std::string, std::uint64_t>>
      fences_;
  UnknownPipeHandler unknown_;
  PipeServeStats stats_;
};

}  // namespace cg::p2p
