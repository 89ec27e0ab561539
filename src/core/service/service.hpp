// ConGrid -- the Triana service.
//
// "The Triana Service is comprised of three components: a client, a server
// and a command process server" (paper 3.2). One TrianaService object is a
// full peer daemon:
//
//   * the *server* accepts deploy requests (XML task-graph fragments),
//     fetches any module code it is missing from the workflow's owner
//     (on-demand download, cached and pinned for the job's duration),
//     instantiates a GraphRuntime inside a sandbox billed to the owner's
//     virtual account, and wires the fragment's boundary channels to p2p
//     pipes;
//   * the *client* deploys fragments to other services and tracks acks;
//   * the *command process server* answers status / checkpoint / cancel.
//
// The service is transport-agnostic (sim or tcp) and single-
// threaded per peer: all handlers run on whatever thread polls the
// transport.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "cas/store.hpp"
#include "core/engine/runtime.hpp"
#include "core/service/protocol.hpp"
#include "net/reliable.hpp"
#include "obs/obs.hpp"
#include "p2p/pipes.hpp"
#include "repo/code_exchange.hpp"
#include "repo/module_cache.hpp"
#include "sandbox/account.hpp"

namespace cg::core {

struct ServiceConfig {
  std::string peer_id;  ///< defaults to the transport endpoint
  /// Capability attributes advertised in the peer advert (paper section 4:
  /// "simple attributes -- such as CPU capability and available free
  /// memory").
  std::map<std::string, std::string> capabilities = {
      {"cpu_mhz", "2000"}, {"free_mem_mb", "256"}};
  sandbox::Policy sandbox_policy;
  const sandbox::CertifiedLibrary* certified_library = nullptr;
  /// When false, deploys only run if every unit type's module is already
  /// cached or locally owned (no network fetch).
  bool fetch_code_on_demand = true;
  /// Per-job RNG seed base (deterministic runs).
  std::uint64_t rng_seed = 1;
  /// Retry/dedup tuning for the reliable control plane (net/reliable.hpp).
  net::ReliableConfig reliable;
  /// Optional content-addressed store (borrowed; must outlive the service).
  /// When set: the module cache writes through to it and falls back to it
  /// on misses; deploys this peer issues advertise per-module content
  /// digests; and deploys it receives resolve advertised digests against
  /// the store before fetching over the network -- so a restart with the
  /// same CAS directory turns re-deploys into disk hits.
  cas::ContentStore* cas = nullptr;
  /// Memoize pure-unit firings through `cas` (requires it to be set):
  /// units declared kPure whose firing touched neither the RNG nor the
  /// iteration counter have their outputs replayed from the store when the
  /// same unit type + params + input bytes recur -- across jobs, runs and
  /// (via a shared store directory) peers.
  bool memoize_pure_units = false;
  /// Output-channel bind retry: a failed discovery for an output label is
  /// retried up to 10 times, this far apart. Under churn the provider may
  /// be down for a blip -- or dead and mid recovery -- when the flood goes
  /// out; by the next attempt the host is back (or the supervisor has
  /// redeployed the fragment and the retry binds the replacement's
  /// higher-epoch advert). When the retries run out the label parks: its
  /// backlog is kept, the job keeps running, and rebind_channel or a
  /// bounce on the label starts the bind again.
  double bind_retry_s = 2.0;
};

/// Client-side knobs for supervised deployments: the fragment's fencing
/// epoch, a liveness lease, and the standby (deploy-but-don't-run) flag.
struct DeployOptions {
  std::uint64_t epoch = 0;
  double lease_s = 0.0;
  bool standby = false;
};

/// Lifecycle of a job hosted by a TrianaService (fenced recovery):
///
///   deploy(standby) -> kStandby --promote--> kRunning
///   deploy ------------------------------> kRunning
///   kRunning --lease expiry--> kSuspended --resume at its epoch--> kRunning
///   kRunning, kSuspended --failure--> kFailed (final; kept until cancelled)
///
/// A kStandby job has not advertised its inputs yet, a kSuspended one has
/// withdrawn them and bounces payloads sent to them, and a kFailed one
/// keeps them but drops what arrives. Cancelled and fenced jobs leave the
/// service, so they have no state.
enum class JobState { kStandby, kRunning, kSuspended, kFailed };

struct ServiceStats {
  std::uint64_t deploys_received = 0;
  std::uint64_t jobs_started = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_cancelled = 0;
  std::uint64_t modules_fetched = 0;
  /// Deploy-needed modules materialised from the content store (advertised
  /// digest already present locally) instead of fetched from the owner.
  std::uint64_t modules_from_cas = 0;
  std::uint64_t pipe_items_in = 0;
  std::uint64_t pipe_items_out = 0;
  /// Inbound pipe payloads that did not decode as a DataItem: dropped and
  /// counted; the job keeps running.
  std::uint64_t pipe_items_malformed = 0;
  /// Deploys for a job this service already hosts (a retransmitted deploy
  /// that slipped past the reliable layer's dedup window): re-acked, never
  /// re-executed.
  std::uint64_t duplicate_deploys = 0;
  // -- lease / fencing / bounce (fenced recovery) ----------------------------
  std::uint64_t jobs_suspended = 0;   ///< lease expiries (self-suspensions)
  std::uint64_t jobs_resumed = 0;     ///< lease renewals after a suspension
  std::uint64_t jobs_fenced = 0;      ///< stale jobs halted by fence/rebind
  std::uint64_t promotions = 0;       ///< standby jobs promoted to live
  std::uint64_t payloads_bounced = 0; ///< inbound payloads returned to sender
  std::uint64_t binds_retried = 0;    ///< output binds re-issued (churn blips)
  std::uint64_t bounces_resent = 0;   ///< returned payloads re-sent by us
  std::uint64_t bounces_dropped = 0;  ///< returned payloads given up on
};

class TrianaService {
 public:
  /// Everything passed in must outlive the service. The service wraps the
  /// raw transport in a ReliableTransport (controller protocol, code
  /// exchange and discovery all ride it) and routes the peer's kCode frames
  /// to its CodeExchange and kControl frames to itself (PeerNode::route).
  TrianaService(net::Transport& transport, net::Clock clock,
                net::Scheduler scheduler, const UnitRegistry& registry,
                ServiceConfig config = {});

  TrianaService(const TrianaService&) = delete;
  TrianaService& operator=(const TrianaService&) = delete;

  const std::string& id() const { return config_.peer_id; }
  net::Endpoint endpoint() const { return node_.endpoint(); }
  /// Seconds on this service's ambient clock (virtual or wall).
  double now() const { return clock_(); }

  p2p::PeerNode& node() { return node_; }
  const UnitRegistry& registry() const { return registry_; }
  const ServiceConfig& config() const { return config_; }
  p2p::PipeServe& pipes() { return pipes_; }
  repo::CodeExchange& code() { return code_; }
  repo::ModuleCache& module_cache() { return module_cache_; }
  repo::ModuleRepository& local_repo() { return local_repo_; }
  sandbox::VirtualAccount& account() { return account_; }
  const ServiceStats& stats() const { return stats_; }
  /// The reliable layer every control/code/discovery frame rides; exposes
  /// retry/timeout/dedup counters (ReliableStats) to the supervisor and
  /// benches.
  net::ReliableTransport& reliable() { return transport_; }
  const net::ReliableTransport& reliable() const { return transport_; }

  /// Bind this peer's metrics/tracing in one call: "service.*" counters,
  /// deploy latency histograms, plus the underlying reliable transport's
  /// and module cache's instruments, all scoped under `scope` (default:
  /// this peer's id). Deploys become trace spans (received -> started /
  /// failed on the server; sent -> acked on the client).
  void set_obs(obs::Registry& registry, obs::Tracer* tracer = nullptr,
               std::string_view scope = {});

  /// Adopt a run-level causal context: deploys, discovery rounds, module
  /// fetches and pipe binds this peer initiates become children of
  /// (trace_id, parent_span), and the reliable layer stamps every envelope
  /// it originates with trace_id. A service whose trace id is still 0
  /// adopts the context of the first traced deploy it receives, so workers
  /// join the controller's run trace with no extra signalling.
  void join_trace(std::uint64_t trace_id, std::uint64_t parent_span);
  const obs::TraceContext& trace() const { return trace_ctx_; }
  /// The bound tracer handle (null-safe; empty before set_obs).
  obs::TracerRef tracer() const { return obs_.tracer; }

  /// Publish this peer's advert (capabilities) into the local cache and to
  /// the configured rendezvous, making the service discoverable.
  void announce();

  /// Publish a synthetic module artifact for `unit_type` into the local
  /// repository (this peer becomes its owner/served source).
  void publish_module(const std::string& unit_type,
                      const std::string& version = "1.0",
                      std::size_t size_bytes = 8192);

  /// Publish artifacts for every unit type appearing in `g` (recursing
  /// into groups). What workflow owners do before distributing.
  void publish_graph_modules(const TaskGraph& g,
                             std::size_t size_bytes = 8192);

  // -- client side ------------------------------------------------------------
  using AckHandler = std::function<void(const DeployAckMsg&)>;
  using StatusHandler = std::function<void(const StatusMsg&)>;
  using CheckpointHandler = std::function<void(const CheckpointDataMsg&)>;

  /// Deploy a fragment to a remote service. Returns the job id assigned to
  /// the deployment; the handler fires when the ack arrives (never
  /// synchronously). `channels` names where the fragment's output channels
  /// are already served (DeployMsg::channels); unnamed outputs bind through
  /// discovery.
  std::string deploy_remote(const net::Endpoint& target,
                            const TaskGraph& fragment,
                            std::uint64_t iterations, AckHandler on_ack,
                            serial::Bytes checkpoint = {},
                            DeployOptions options = {},
                            ChannelMap channels = {});

  /// Promote a standby job on `target` to live; the handler fires with the
  /// confirming DeployAckMsg (ok=false when the job is unknown there).
  void promote_remote(const net::Endpoint& target, const std::string& job_id,
                      AckHandler on_ack);

  /// The scheduler this service runs timers on (exposed for the
  /// controller's discovery deadlines).
  const net::Scheduler& scheduler() const { return scheduler_; }

  /// Probe a remote job. `epoch` is echoed for staleness filtering;
  /// `lease_s` > 0 renews (or grants) the job's liveness lease -- the
  /// probe doubles as proof the supervisor is alive.
  void request_status(const net::Endpoint& target, const std::string& job_id,
                      StatusHandler on_status, std::uint64_t epoch = 0,
                      double lease_s = 0.0);
  void request_checkpoint(const net::Endpoint& target,
                          const std::string& job_id,
                          CheckpointHandler on_data);
  void cancel_remote(const net::Endpoint& target, const std::string& job_id);
  /// Un-suspend a lease-expired remote job. Only the current supervisor
  /// calls this (the worker never self-resumes off a probe, which may be a
  /// stale retransmission from before a recovery).
  void resume_remote(const net::Endpoint& target, const std::string& job_id,
                     std::uint64_t epoch, double lease_s);

  // -- local jobs --------------------------------------------------------------
  /// Run a graph as a local job owned by this peer (no code fetch). With
  /// iterations > 0 the sources are ticked immediately; a reactive job
  /// (iterations == 0) just sits wired to its pipes. Returns the job id.
  /// Throws std::invalid_argument on a bad graph.
  std::string deploy_local(const TaskGraph& graph, std::uint64_t iterations,
                           serial::Bytes checkpoint = {});

  /// Tick a local reactive/streaming job's sources (drives home graphs).
  void tick_job(const std::string& job_id, std::uint64_t iterations = 1);

  /// Runtime of a job hosted here (nullptr when unknown) -- used to read
  /// sink units out of home graphs and by tests.
  GraphRuntime* job_runtime(const std::string& job_id);

  /// True when the job exists and has failed; error output parameter.
  bool job_failed(const std::string& job_id, std::string* error = nullptr) const;

  std::size_t job_count() const { return jobs_.size(); }

  /// Cancel a job hosted here (settles billing, releases modules/pipes).
  /// A deploy still fetching its modules is dropped instead, and a cancel
  /// for a job not hosted here leaves a tombstone: a deploy for that id
  /// arriving later (it lost the race to its own cancel) is acked
  /// ok=false, "cancelled", and never runs. True when a job or a pending
  /// deploy was cancelled.
  bool cancel_local(const std::string& job_id);

  /// Cache each entry as the pipe advert a discovery would have found
  /// (PipeServe::hint_output), so sends on those labels bind without a
  /// query. Deploys received apply their own map; the controller seeds its
  /// home service the same way as each fragment acks.
  void cache_channel_hints(const ChannelMap& channels);

  /// Drop every job's binding for `label` plus stale pipe adverts, so the
  /// next item sent on it re-resolves (migration support). Also invoked by
  /// inbound kRebind control messages.
  void rebind_channel(const std::string& label);

  /// Cap on the bounce labels (see bounce_labels_) and their count.
  static constexpr std::size_t kMaxBounceLabels = 1024;
  std::size_t bounce_label_count() const { return bounce_labels_.size(); }

  /// The fencing epoch of a job hosted here (0 when unknown/unfenced).
  std::uint64_t job_epoch(const std::string& job_id) const;
  /// Lifecycle state of a job hosted here (nullopt when unknown).
  std::optional<JobState> job_state(const std::string& job_id) const;

 private:
  /// One output label of a job: its binding, the encoded payloads waiting
  /// for one, and how far the bind has got.
  ///
  ///   kUnbound --send or bounce--> kBinding --provider found--> kBound
  ///   kBinding --retries run out--> kParked --rebind or bounce--> kBinding
  ///   kBound --rebind_channel--> kUnbound
  ///   kBound --bounce from its own provider--> kBinding
  ///
  /// Exactly one bind loop runs while kBinding; nothing else starts one.
  struct OutputChannel {
    enum class State { kUnbound, kBinding, kBound, kParked };
    State state = State::kUnbound;
    p2p::OutputPipe pipe;                ///< the binding while kBound
    std::vector<serial::Bytes> backlog;  ///< sent once a bind succeeds
    std::size_t bounced = 0;  ///< backlog payloads that came back to us
  };

  struct Job {
    std::string job_id;
    std::string owner;
    net::Endpoint reply_to;  ///< who deployed (for acks); empty for local
    std::unique_ptr<sandbox::Sandbox> sb;
    std::unique_ptr<GraphRuntime> runtime;
    /// Built dark; only transition() changes it.
    JobState state = JobState::kStandby;
    std::string error;  ///< why the job failed
    bool failed() const { return state == JobState::kFailed; }
    std::vector<std::string> pinned_modules;
    std::vector<std::string> input_labels;  ///< advertised pipes to remove
    std::vector<std::string> output_labels;  ///< labels this job sends on
    std::map<std::string, OutputChannel> outputs;  ///< by output label
    std::uint64_t epoch = 0;      ///< fencing epoch (stamped on all sends)
    double lease_s = 0.0;         ///< liveness lease length (0 = none)
    double lease_deadline = 0.0;  ///< next expiry on the ambient clock
    bool lease_timer_armed = false;  ///< one expiry timer chain per job
    /// The job's causal identity: the deploy's trace, parented by this
    /// service's "deploy" span. Runtime ticks and pipe binds hang off it.
    obs::TraceContext trace;
  };

  /// A deploy waiting for module fetches.
  struct PendingDeploy {
    DeployMsg msg;
    TaskGraph graph;  ///< msg.graph_xml, parsed once on receipt
    net::Endpoint reply_to;  ///< empty for local deploys
    std::size_t fetches_outstanding = 0;
    std::optional<std::string> error;  ///< set once a fetch has failed
    std::vector<std::string> fetched_modules;
    double received_at = 0.0;  ///< for the deploy_start_s histogram
    std::uint64_t span = 0;    ///< open "deploy" trace span
  };

  struct Obs {
    obs::CounterRef deploys_received, duplicate_deploys, jobs_started,
        jobs_failed, jobs_cancelled, modules_fetched, modules_from_cas,
        pipe_items_malformed;
    obs::CounterRef jobs_suspended, jobs_fenced, promotions, payloads_bounced,
        binds_retried;
    obs::HistogramRef deploy_start_s;  ///< server: received -> started
    obs::HistogramRef deploy_rtt_s;    ///< client: sent -> acked
    obs::TracerRef tracer;
  };

  /// What moves a job between JobStates. Cancel and fence are not events
  /// here: they take the job out of jobs_.
  enum class JobEvent { kStart, kPromote, kLeaseExpired, kResume, kFail };

  void handle_control(const net::Endpoint& from, serial::Frame frame);
  void handle_deploy(const net::Endpoint& from, DeployMsg m);
  void maybe_start(const std::string& job_id);
  /// Returns the error on failure (ack already sent), nullopt on success.
  std::optional<std::string> start_job(PendingDeploy pending);
  void fail_deploy(PendingDeploy& pending, const std::string& error);
  void send_ack(const net::Endpoint& to, const std::string& job_id, bool ok,
                const std::string& error);
  /// The one place Job::state changes. Applies `event` per the JobState
  /// diagram and runs the transition's side effects: input adverts and
  /// bounce labels, lease renewal, billing settlement on failure, counters
  /// and job.* trace events. An event with no edge from the current state
  /// changes nothing (a failed job is counted once, keeping its first error).
  /// `error`/`violated` only matter for kFail.
  void transition(Job& job, JobEvent event, const std::string& error = {},
                  bool violated = true);
  void finish_job(Job& job, bool violated);
  void teardown_job(Job& job);
  void on_channel_send(const std::string& job_id, const std::string& label,
                       DataItem item);
  /// Start an output label's one bind loop (kUnbound/kParked -> kBinding).
  void start_output_bind(Job& job, const std::string& label);
  /// One discovery+bind of that loop; an unbound result retries up to
  /// `attempts_left` more times, then parks. `bspan`: the "pipe.bind" span.
  void attempt_output_bind(const std::string& job_id, const std::string& label,
                           int attempts_left, std::uint64_t bspan);
  void run_iterations(Job& job, std::uint64_t iterations);
  /// Tombstones (see tombstones_); tombstoned() drops the expired first.
  void add_tombstone(const std::string& job_id);
  bool tombstoned(const std::string& job_id);
  std::string fresh_job_id();

  // Lease / fencing / bounce (fenced recovery).
  void advertise_job_inputs(Job& job);
  bool label_owned_by_other(const std::string& job_id,
                            const std::string& label) const;
  void renew_lease(Job& job, double lease_s);
  void check_lease(const std::string& job_id);
  /// Halt a zombie job overtaken by a higher-epoch fence/rebind: its input
  /// labels keep bouncing, the job itself is cancelled.
  void fence_halt(const std::string& job_id);
  void handle_fence(const FenceMsg& m);
  void handle_bounce(const net::Endpoint& from, BounceMsg m);
  void handle_promote(const net::Endpoint& from, const PromoteMsg& m);
  void add_bounce_label(const std::string& label);

  net::Clock clock_;
  net::Scheduler scheduler_;
  const UnitRegistry& registry_;
  ServiceConfig config_;

  /// Declared before node_/pipes_/code_: they are built on top of it.
  net::ReliableTransport transport_;

  p2p::PeerNode node_;
  p2p::PipeServe pipes_;
  repo::CodeExchange code_;
  repo::ModuleRepository local_repo_;
  repo::ModuleCache module_cache_;
  sandbox::VirtualAccount account_;

  std::map<std::string, Job> jobs_;
  std::map<std::string, PendingDeploy> pending_;
  /// Job ids cancelled before their deploy ran, oldest first, as (expiry
  /// on the ambient clock, job id). Each is kept for the reliable layer's
  /// deadline_s -- no copy of a deploy sent before its cancel can arrive
  /// later than that -- and at most kMaxTombstones are kept.
  std::deque<std::pair<double, std::string>> tombstones_;
  /// Labels whose payloads are bounced back to the sender while no live
  /// job serves them (suspended or fenced incarnations), oldest first;
  /// prevents silent item loss during recovery. At most kMaxBounceLabels.
  std::deque<std::string> bounce_labels_;
  std::map<std::string, AckHandler> ack_handlers_;      // by job id
  std::map<std::string, StatusHandler> status_handlers_;
  std::map<std::string, CheckpointHandler> ckpt_handlers_;
  std::uint64_t next_job_ = 1;
  ServiceStats stats_;
  Obs obs_;
  obs::Registry* obs_registry_ = nullptr;  ///< rebound onto job runtimes
  std::string obs_scope_;
  obs::TraceContext trace_ctx_;  ///< run-level context (join_trace)
};

}  // namespace cg::core
