// ConGrid -- the Triana controller.
//
// "The Triana controller ... acts as a scheduling manager for the complete
// application being run over a Triana network" (paper 3.2). It sits on top
// of a local TrianaService (every node is both client and server):
//
//   1. discover workers -- peer adverts matching capability constraints;
//   2. plan -- hand the graph's group to its distribution policy, which
//      rewrites it into a home graph plus per-resource fragments;
//   3. deploy -- ship each fragment (XML) to a worker, annotated with
//      where its output channels are served, consumers before producers;
//      the home graph runs as a local job;
//   4. drive -- tick the home job's sources; data flows out over pipes and
//      results return to the home graph's Receive proxies;
//   5. migrate -- checkpoint a fragment off one worker and resume it on
//      another (paper 3.6.2's checkpointing remark).
#pragma once

#include <algorithm>
#include <functional>
#include <memory>

#include "core/dist/policy.hpp"
#include "core/service/service.hpp"
#include "sandbox/trust.hpp"

namespace cg::core {

/// Where one fragment's initial deploy stands. distribute() sends a
/// fragment only once every fragment consuming its outputs has answered
/// (downstream-first), so a held fragment has no job id yet.
enum class FragmentDeploy {
  kHeld,       ///< waiting for its consumers' acks
  kSent,       ///< deploy sent, no ack yet
  kLive,       ///< acked ok: its input pipes are served
  kFailed,     ///< nacked
  kCancelled,  ///< held at shutdown and never sent, or nacked "cancelled"
               ///< by the shutdown's own cancel
};

/// The controller's book-keeping for one distributed deployment.
struct DistributedRun {
  std::string group;
  std::string prefix;               ///< unique channel-label prefix
  std::string home_job;             ///< local job id of the home graph
  std::vector<net::Endpoint> workers;   ///< fragment i runs on workers[i]
  std::vector<std::string> remote_jobs; ///< job id of fragment i
  std::vector<FragmentDeploy> deploy_state;  ///< of fragment i
  std::vector<TaskGraph> fragments;     ///< retained for migration
  std::vector<std::string> errors;
  bool shut_down = false;  ///< TrianaController::shutdown ran
  /// Causal identity of this run: every deploy, fetch, pipe bind and tick
  /// it causes -- on any peer -- carries trace_id; root_span is the open
  /// "run" span (closed by shutdown()). Zero when the home service has no
  /// tracer bound.
  std::uint64_t trace_id = 0;
  std::uint64_t root_span = 0;

  /// Fragment i's deploy was acked ok or nacked.
  bool answered(std::size_t i) const {
    return deploy_state[i] == FragmentDeploy::kLive ||
           deploy_state[i] == FragmentDeploy::kFailed;
  }
  bool all_acked() const {
    for (std::size_t i = 0; i < deploy_state.size(); ++i) {
      if (!answered(i)) return false;
    }
    return true;
  }
  bool deployed_ok() const {
    return std::ranges::all_of(deploy_state, [](FragmentDeploy s) {
      return s == FragmentDeploy::kLive;
    });
  }
};

class TrianaController {
 public:
  /// `home` is this user's own peer (must outlive the controller).
  explicit TrianaController(TrianaService& home) : home_(home) {}

  TrianaService& home() { return home_; }

  /// Optional reputation tracking (paper 3.5's future trust models): when
  /// set, discovery results are ranked best-first and quarantined peers
  /// are dropped; deployment acks and failures feed back into the scores.
  /// The manager must outlive the controller.
  void set_trust_manager(sandbox::TrustManager* trust) { trust_ = trust; }
  sandbox::TrustManager* trust_manager() { return trust_; }

  /// Report a result disagreement attributed to `worker` (e.g. from a
  /// Vote unit's dissent mask under the replicated policy).
  void report_disagreement(const net::Endpoint& worker);

  /// Find up to `want` workers matching `query`: flooding with the given
  /// TTL, or the rendezvous variant at ttl == 0. The callback fires once,
  /// after `timeout_s` on the service's scheduler, with the distinct
  /// provider endpoints found (self excluded).
  void discover_workers(const p2p::Query& query, int ttl, std::size_t want,
                        double timeout_s,
                        std::function<void(std::vector<net::Endpoint>)> done);

  /// Plan + deploy: rewrite `g` around `group_name` using the group's
  /// distribution policy ("parallel" when unset) over the given workers,
  /// deploy each fragment, and start the home graph as a reactive local
  /// job. Acks arrive asynchronously; observe run->all_acked().
  ///
  /// Each deploy carries the plan's channel map (DeployMsg::channels), and
  /// fragments deploy downstream-first: one is sent only after every
  /// fragment consuming its outputs has answered, so each map entry names
  /// a pipe that is already served. Farm and replicated fragments only
  /// talk to home, so they all go out at once. As each fragment acks, the
  /// home service caches where the inputs it sends on are served too.
  /// Throws std::invalid_argument on planning errors (bad group, no
  /// workers).
  std::shared_ptr<DistributedRun> distribute(
      const TaskGraph& g, const std::string& group_name,
      const std::vector<net::Endpoint>& workers);

  /// Fire the home graph's sources `n` times (n streaming iterations).
  void tick(DistributedRun& run, std::uint64_t n = 1);

  /// The home job's runtime (read sinks from here). Nullptr when the home
  /// job failed or is gone.
  GraphRuntime* home_runtime(DistributedRun& run);

  /// Tear down: cancel every remote fragment and the home job.
  void shutdown(DistributedRun& run);

  /// Move fragment `idx` of `run` to `new_worker`: checkpoint it on the
  /// current worker, cancel it there, redeploy with state restored, and
  /// tell every participant to re-resolve the fragment's input channels.
  /// `done(ok)` fires when the new deployment acks (or any step fails).
  void migrate(std::shared_ptr<DistributedRun> run, std::size_t idx,
               const net::Endpoint& new_worker,
               std::function<void(bool)> done);

  /// Make every sender into fragment `idx` re-resolve its input labels:
  /// per label, the home drops its own binding, then every other worker
  /// and `also` (when set) get a RebindMsg stamped with `epoch` (0 =
  /// unfenced). Returns the number of messages sent.
  std::size_t rebind_inputs(const DistributedRun& run, std::size_t idx,
                            std::uint64_t epoch = 0,
                            const net::Endpoint& also = {});

 private:
  struct DeployOrder;

  /// Which fragment serves each channel, and whose answers each fragment's
  /// deploy waits for (its consumers, with cycles cut).
  static std::shared_ptr<const DeployOrder> order_deploys(
      const std::vector<TaskGraph>& fragments, const TaskGraph& home_graph);
  /// Send every held fragment whose consumers have all answered.
  void deploy_ready(const std::shared_ptr<DistributedRun>& run,
                    const std::shared_ptr<const DeployOrder>& order);
  void deploy_fragment(const std::shared_ptr<DistributedRun>& run,
                       const std::shared_ptr<const DeployOrder>& order,
                       std::size_t idx);
  /// Where each of `labels` is served, for the labels whose serving job is
  /// live: the home job, or a fragment that has acked.
  ChannelMap channel_hints(const DistributedRun& run,
                           const DeployOrder& order,
                           const std::vector<std::string>& labels) const;

  TrianaService& home_;
  sandbox::TrustManager* trust_ = nullptr;
  std::uint64_t next_run_ = 1;
};

}  // namespace cg::core
