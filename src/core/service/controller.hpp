// ConGrid -- the Triana controller.
//
// "The Triana controller ... acts as a scheduling manager for the complete
// application being run over a Triana network" (paper 3.2). It sits on top
// of a local TrianaService (every node is both client and server):
//
//   1. discover workers -- peer adverts matching capability constraints;
//   2. plan -- hand the graph's group to its distribution policy, which
//      rewrites it into a home graph plus per-resource fragments;
//   3. deploy -- ship each fragment (XML) to a worker; the home graph runs
//      as a local job;
//   4. drive -- tick the home job's sources; data flows out over pipes and
//      results return to the home graph's Receive proxies;
//   5. migrate -- checkpoint a fragment off one worker and resume it on
//      another (paper 3.6.2's checkpointing remark).
#pragma once

#include <functional>
#include <memory>

#include "core/dist/policy.hpp"
#include "core/service/service.hpp"
#include "sandbox/trust.hpp"

namespace cg::core {

/// The controller's book-keeping for one distributed deployment.
struct DistributedRun {
  std::string group;
  std::string prefix;               ///< unique channel-label prefix
  std::string home_job;             ///< local job id of the home graph
  std::vector<net::Endpoint> workers;   ///< fragment i runs on workers[i]
  std::vector<std::string> remote_jobs; ///< job id of fragment i
  std::vector<TaskGraph> fragments;     ///< retained for migration
  std::size_t acks_ok = 0;
  std::size_t acks_failed = 0;
  std::vector<std::string> errors;
  /// Causal identity of this run: every deploy, fetch, pipe bind and tick
  /// it causes -- on any peer -- carries trace_id; root_span is the open
  /// "run" span (closed by shutdown()). Zero when the home service has no
  /// tracer bound.
  std::uint64_t trace_id = 0;
  std::uint64_t root_span = 0;

  bool all_acked() const {
    return acks_ok + acks_failed == remote_jobs.size();
  }
  bool deployed_ok() const { return all_acked() && acks_failed == 0; }
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
  TrianaService& home_;
  sandbox::TrustManager* trust_ = nullptr;
  std::uint64_t next_run_ = 1;
};

}  // namespace cg::core
