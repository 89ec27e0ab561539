// ConGrid -- run supervision: adaptive failure detection, fenced recovery.
//
// The paper's Consumer Grid loses peers without notice ("connection lost,
// user intervenes", 3.6.2) and proposes checkpointing "to migrate
// computation if necessary". The RunSupervisor automates that loop for a
// DistributedRun:
//
//   * every checkpoint_period it captures each fragment's state into a
//     CheckpointStore (latest-wins);
//   * every probe_period it sends a status probe to each fragment's host
//     and scores the host's *suspicion* with a phi-accrual detector
//     (net/failure_detector.hpp) fed by probe-reply inter-arrivals and by
//     liveness piggybacked on ordinary data-plane traffic. phi >= phi_dead
//     declares the host dead; until the detector has history, the legacy
//     missed-probe count (max_missed) decides;
//   * a dead fragment is re-deployed to the next spare, restored from its
//     last checkpoint, and -- when lease fencing is on (lease_s > 0) --
//     given a bumped *recovery epoch*. The supervisor first waits out the
//     zombie's lease (so a partitioned host has provably self-suspended
//     before the replacement exists), then fences the fragment's channels:
//     stale-epoch payloads are dropped at the receiver and the returning
//     zombie is halted, so a host coming back mid-recovery can neither
//     double-fire results nor capture rebinding senders;
//   * a host that is suspected (phi >= phi_suspect) but not yet dead can
//     get a *speculative standby*: its fragment deployed dark from the
//     last checkpoint on a spare, promoted instantly if the host dies,
//     cancelled (spare returned) if suspicion subsides;
//   * failures and recoveries feed the controller's TrustManager when one
//     is installed.
//
// The supervisor is driven entirely by the home service's scheduler, so it
// works identically in simulated and wall-clock time.
#pragma once

#include <memory>
#include <unordered_map>

#include "core/checkpoint/checkpoint.hpp"
#include "core/service/controller.hpp"
#include "net/failure_detector.hpp"
#include "obs/obs.hpp"

namespace cg::core {

struct SupervisorOptions {
  double checkpoint_period_s = 30.0;
  double probe_period_s = 10.0;
  /// Bootstrap rule: probes with no reply before a host is declared dead
  /// while the adaptive detector has too little history (< 2 reply
  /// intervals -- e.g. a worker that was dead from the start).
  int max_missed = 3;

  // -- adaptive (phi-accrual) detection ------------------------------------
  /// Reply inter-arrival window and variance floor (see FailureDetector-
  /// Options); the floor keeps one metronomic link from turning into a
  /// hair trigger.
  std::size_t detector_window = 32;
  double detector_min_std_s = 0.25;
  /// Suspicion threshold: phi at which a host is *suspected* (eligible for
  /// a speculative standby, not yet recovered from).
  double phi_suspect = 3.0;
  /// Conviction threshold: phi at which a host is declared dead. phi = 8
  /// is roughly "the current silence had a one-in-10^8 chance under the
  /// observed reply cadence".
  double phi_dead = 8.0;

  // -- fenced recovery ------------------------------------------------------
  /// Liveness lease granted to fragments via probes (0 = fencing off,
  /// legacy unfenced recovery). With a lease, recovery waits until the
  /// zombie's lease has provably expired (it has self-suspended and is
  /// bouncing inbound payloads) before the replacement is deployed at a
  /// bumped epoch, and fences the fragment's channels afterwards.
  double lease_s = 0.0;

  // -- speculative standby --------------------------------------------------
  /// Deploy a dark standby from the last checkpoint when a host is
  /// suspected; promote on death, cancel when suspicion subsides.
  /// Requires lease_s > 0 (promotion relies on epoch fencing).
  bool speculative_backups = false;

  // -- redeploy robustness --------------------------------------------------
  /// A recovery redeploy (or standby promote) unacknowledged for this long
  /// is abandoned: the possibly-orphaned deploy is cancelled best-effort
  /// and the next spare is tried.
  double redeploy_timeout_s = 15.0;
};

struct SupervisorStats {
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t probes_answered = 0;
  std::uint64_t failures_detected = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t recoveries_failed = 0;  ///< out of spares / all nacked
  /// Recoveries abandoned because the "dead" host showed life during the
  /// lease wait (the next probe round sends it an explicit resume).
  std::uint64_t recoveries_aborted = 0;
  /// Explicit kResume msgs sent to suspended-but-current hosts.
  std::uint64_t resumes_sent = 0;
  std::uint64_t redeploys_nacked = 0;     ///< spare refused; returned to pool
  std::uint64_t redeploys_timed_out = 0;  ///< spare silent; dropped
  std::uint64_t fences_sent = 0;          ///< fence/rebind msgs broadcast
  std::uint64_t speculative_deploys = 0;
  std::uint64_t speculative_promoted = 0;
  std::uint64_t speculative_cancelled = 0;
};

class RunSupervisor : public std::enable_shared_from_this<RunSupervisor> {
 public:
  /// `spares` are workers not currently part of the run; each recovery
  /// consumes one. The controller and run must outlive the supervisor.
  RunSupervisor(TrianaController& controller,
                std::shared_ptr<DistributedRun> run,
                std::vector<net::Endpoint> spares,
                SupervisorOptions options = {});

  /// Bind metrics/tracing: "<scope>.supervisor.*" counters, a per-host
  /// "supervisor.phi.<endpoint>" suspicion gauge, plus a failure-detection
  /// -> recovery-complete latency histogram; each recovery is a trace span
  /// tagged with the fragment's new epoch. Call before start().
  void set_obs(obs::Registry& registry, obs::Tracer* tracer = nullptr,
               std::string_view scope = {});

  /// Begin the periodic loops. Call once; a second call throws
  /// std::logic_error (it would double every timer chain).
  void start();

  /// Stop scheduling further work. In-flight callbacks become no-ops:
  /// after stop() neither stats nor the run are mutated.
  void stop() { run_state_ = RunState::kStopped; }

  const SupervisorStats& stats() const { return stats_; }
  const CheckpointStore& checkpoints() const { return store_; }
  std::size_t spares_left() const { return spares_.size(); }
  /// Current fencing epoch of a fragment (0 until its first recovery).
  std::uint64_t epoch_of(std::size_t idx) const {
    return fragments_[idx].epoch;
  }
  /// True when the fragment is lost for good (recovery exhausted spares);
  /// the run is degraded but the supervisor keeps serving the rest.
  bool degraded(std::size_t idx) const {
    return fragments_[idx].state == Fragment::State::kDegraded;
  }
  /// Current suspicion score for a fragment's host (0 while bootstrapping).
  double phi_of(std::size_t idx) const;

  /// Retry/timeout/dedup counters of the home service's reliable layer --
  /// how hard the control plane is working to keep this run alive.
  const net::ReliableStats& reliable_stats() const;

 private:
  /// One in-flight recovery: consumes spares until one acks, the lease wait
  /// and every redeploy attempt carry this through their callbacks.
  struct Recovery {
    std::size_t idx = 0;
    net::Endpoint dead;          ///< the host being replaced
    double detected_at = 0.0;
    double contact_at_detect = 0.0;  ///< to spot life during the lease wait
    serial::Bytes state;         ///< checkpoint to restore
    std::uint64_t span = 0;      ///< open "supervisor.recover" trace span
    int attempts_left = 0;       ///< spares we may still try
  };

  /// A dark standby for a suspected host.
  struct Standby {
    /// kDeploying: deploy in flight; kReady: acked, promotable.
    enum class State { kNone, kDeploying, kReady };
    State state = State::kNone;
    net::Endpoint host;
    std::string job_id;
    std::uint64_t epoch = 0;
  };

  /// Everything the supervisor tracks about one fragment of the run:
  ///
  ///   kWatched --dead--> kRecovering --replaced, or host alive--> kWatched
  ///                      kRecovering --out of spares--> kDegraded (final)
  ///
  /// Only a kWatched fragment is probed and checkpointed.
  struct Fragment {
    enum class State { kWatched, kRecovering, kDegraded };
    State state = State::kWatched;
    net::PhiAccrualDetector detector;
    int missed = 0;             ///< consecutive unanswered probes (bootstrap)
    double last_contact = 0.0;  ///< last evidence of life
    std::uint64_t epoch = 0;    ///< active fencing epoch
    Standby standby;
  };

  /// kIdle until start(); after stop() every callback is a no-op.
  enum class RunState { kIdle, kStarted, kStopped };

  struct Obs {
    obs::CounterRef checkpoints_taken, probes_sent, probes_answered,
        failures_detected, recoveries, recoveries_failed, fenced_msgs,
        speculative_deploys;
    obs::HistogramRef recovery_s;  ///< detection -> recovery ack
    obs::TracerRef tracer;
    std::string node;
  };

  TrianaService& home() const { return controller_.home(); }
  bool fencing() const { return options_.lease_s > 0.0; }
  bool stopped() const { return run_state_ == RunState::kStopped; }

  void checkpoint_round();
  void probe_round();
  void on_activity(const net::Endpoint& from);
  void rebuild_contact_index();
  void set_phi_gauge(std::size_t idx, double phi);

  void recover(std::size_t idx);
  /// After the zombie's lease has provably expired (no-op wait when
  /// fencing is off): promote the standby if one is ready, else redeploy.
  void begin_replacement(std::shared_ptr<Recovery> rec);
  void attempt_redeploy(std::shared_ptr<Recovery> rec);
  void complete_recovery(std::shared_ptr<Recovery> rec,
                         const net::Endpoint& host, const std::string& job_id,
                         std::uint64_t epoch);
  void fail_recovery(std::shared_ptr<Recovery> rec, const std::string& why);
  /// Tell everyone fragment `idx` moved: rebind its input labels, fence its
  /// output labels at `epoch` (fencing mode), including the dead host so a
  /// returning zombie halts itself.
  void broadcast_refence(std::size_t idx, std::uint64_t epoch,
                         const net::Endpoint& dead);

  void deploy_standby(std::size_t idx);
  void cancel_standby(std::size_t idx);

  TrianaController& controller_;
  std::shared_ptr<DistributedRun> run_;
  std::vector<net::Endpoint> spares_;
  SupervisorOptions options_;
  CheckpointStore store_;
  std::vector<Fragment> fragments_;  ///< parallel to run_->workers
  std::unordered_map<std::string, std::size_t> contact_idx_;  ///< endpoint -> fragment
  std::uint64_t next_epoch_ = 1;
  RunState run_state_ = RunState::kIdle;
  SupervisorStats stats_;
  Obs obs_;
  obs::Registry* registry_ = nullptr;  ///< for lazy per-host phi gauges
  std::string obs_scope_;
  std::unordered_map<std::string, obs::GaugeRef> phi_gauges_;
};

}  // namespace cg::core
