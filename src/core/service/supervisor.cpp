#include "core/service/supervisor.hpp"

#include <algorithm>
#include <stdexcept>

namespace cg::core {
namespace {

std::vector<std::string> receive_labels_of(const TaskGraph& frag) {
  std::vector<std::string> labels;
  for (const auto& t : frag.tasks()) {
    if (t.unit_type == "Receive") labels.push_back(t.params.get("label", ""));
  }
  return labels;
}

/// Fragments emit through Send proxies only (Scatter/Broadcast live in the
/// home graph); these are the labels a fenced recovery must fence.
std::vector<std::string> send_labels_of(const TaskGraph& frag) {
  std::vector<std::string> labels;
  for (const auto& t : frag.tasks()) {
    if (t.unit_type == "Send") labels.push_back(t.params.get("label", ""));
  }
  return labels;
}

std::string fragment_key(std::size_t idx) {
  return "fragment#" + std::to_string(idx);
}

}  // namespace

RunSupervisor::RunSupervisor(TrianaController& controller,
                             std::shared_ptr<DistributedRun> run,
                             std::vector<net::Endpoint> spares,
                             SupervisorOptions options)
    : controller_(controller),
      run_(std::move(run)),
      spares_(std::move(spares)),
      options_(options) {
  net::FailureDetectorOptions d;
  d.window = options_.detector_window;
  d.min_std_s = options_.detector_min_std_s;
  Fragment fresh;
  fresh.detector = net::PhiAccrualDetector(d);
  fragments_.assign(run_->remote_jobs.size(), fresh);
  rebuild_contact_index();
}

const net::ReliableStats& RunSupervisor::reliable_stats() const {
  return controller_.home().reliable().stats();
}

double RunSupervisor::phi_of(std::size_t idx) const {
  const net::PhiAccrualDetector& detector = fragments_[idx].detector;
  if (detector.samples() < 2) return 0.0;
  return detector.phi(controller_.home().now());
}

void RunSupervisor::set_obs(obs::Registry& registry, obs::Tracer* tracer,
                            std::string_view scope) {
  obs_.checkpoints_taken =
      registry.counter(obs::scoped(scope, "supervisor.checkpoints_taken"));
  obs_.probes_sent =
      registry.counter(obs::scoped(scope, "supervisor.probes_sent"));
  obs_.probes_answered =
      registry.counter(obs::scoped(scope, "supervisor.probes_answered"));
  obs_.failures_detected =
      registry.counter(obs::scoped(scope, "supervisor.failures_detected"));
  obs_.recoveries =
      registry.counter(obs::scoped(scope, "supervisor.recoveries"));
  obs_.recoveries_failed =
      registry.counter(obs::scoped(scope, "supervisor.recoveries_failed"));
  obs_.fenced_msgs =
      registry.counter(obs::scoped(scope, "supervisor.fenced_msgs"));
  obs_.speculative_deploys =
      registry.counter(obs::scoped(scope, "supervisor.speculative_deploys"));
  obs_.recovery_s =
      registry.histogram(obs::scoped(scope, "supervisor.recovery_s"));
  obs_.tracer = tracer;
  obs_.node = scope.empty() ? controller_.home().id() : std::string(scope);
  registry_ = &registry;
  obs_scope_ = scope;
}

void RunSupervisor::set_phi_gauge(std::size_t idx, double phi) {
  if (!registry_) return;
  const std::string& host = run_->workers[idx].value;
  auto it = phi_gauges_.find(host);
  if (it == phi_gauges_.end()) {
    it = phi_gauges_
             .emplace(host, registry_->gauge(obs::scoped(
                                obs_scope_, "supervisor.phi." + host)))
             .first;
  }
  it->second.set(phi);
}

void RunSupervisor::rebuild_contact_index() {
  contact_idx_.clear();
  for (std::size_t i = 0; i < run_->workers.size(); ++i) {
    contact_idx_[run_->workers[i].value] = i;
  }
}

void RunSupervisor::start() {
  if (run_state_ != RunState::kIdle) {
    throw std::logic_error(
        "RunSupervisor::start() called twice (would double the timer loops)");
  }
  run_state_ = RunState::kStarted;
  auto self = shared_from_this();
  const double now = home().now();
  for (Fragment& f : fragments_) f.last_contact = now;

  // Piggybacked liveness: ANY frame the home transport receives from a
  // monitored host -- data items, acks, code replies -- is proof of life.
  // Weak capture: the listener outlives the supervisor harmlessly.
  std::weak_ptr<RunSupervisor> weak = self;
  home().reliable().set_activity_listener([weak](const net::Endpoint& from) {
    if (auto locked = weak.lock(); locked && !locked->stopped()) {
      locked->on_activity(from);
    }
  });

  home().scheduler()(options_.checkpoint_period_s,
                     [self] { self->checkpoint_round(); });
  home().scheduler()(options_.probe_period_s, [self] { self->probe_round(); });
}

void RunSupervisor::on_activity(const net::Endpoint& from) {
  auto it = contact_idx_.find(from.value);
  if (it == contact_idx_.end()) return;
  Fragment& f = fragments_[it->second];
  if (f.state == Fragment::State::kDegraded) return;
  const double now = home().now();
  // Evidence only: touch() never pollutes the reply-interval history, so a
  // burst of data frames cannot shrink the window and turn the detector
  // trigger-happy once the burst ends.
  f.detector.touch(now);
  f.last_contact = now;
}

void RunSupervisor::checkpoint_round() {
  if (stopped()) return;
  auto self = shared_from_this();
  for (std::size_t i = 0; i < fragments_.size(); ++i) {
    if (fragments_[i].state != Fragment::State::kWatched) continue;
    controller_.home().request_checkpoint(
        run_->workers[i], run_->remote_jobs[i],
        [self, i](const CheckpointDataMsg& m) {
          if (self->stopped() || !m.ok) return;
          ++self->stats_.checkpoints_taken;
          self->obs_.checkpoints_taken.inc();
          self->store_.put(fragment_key(i), m.state,
                           self->controller_.home().now());
        });
  }
  controller_.home().scheduler()(options_.checkpoint_period_s,
                                 [self] { self->checkpoint_round(); });
}

void RunSupervisor::probe_round() {
  if (stopped()) return;
  auto self = shared_from_this();
  const double now = home().now();
  for (std::size_t i = 0; i < fragments_.size(); ++i) {
    Fragment& f = fragments_[i];
    if (f.state != Fragment::State::kWatched) continue;

    bool dead = false;
    bool suspect = false;
    if (f.detector.samples() >= 2) {
      const double phi = f.detector.phi(now);
      set_phi_gauge(i, phi);
      dead = phi >= options_.phi_dead;
      suspect = phi >= options_.phi_suspect;
    } else {
      // Bootstrap: no reply history to model yet (the host may have been
      // dead from the start) -- fall back to missed-probe counting.
      ++f.missed;
      dead = f.missed > options_.max_missed;
    }

    if (dead) {
      ++stats_.failures_detected;
      obs_.failures_detected.inc();
      recover(i);
      continue;
    }

    if (options_.speculative_backups && fencing()) {
      if (suspect && f.standby.state == Standby::State::kNone) {
        deploy_standby(i);
      } else if (!suspect && f.standby.state == Standby::State::kReady) {
        cancel_standby(i);  // suspicion subsided; hand the spare back
      }
    }

    ++stats_.probes_sent;
    obs_.probes_sent.inc();
    home().request_status(
        run_->workers[i], run_->remote_jobs[i],
        [self, i](const StatusMsg& m) {
          if (self->stopped()) return;
          if (!m.known || m.failed) return;
          // A reply from a previous incarnation (pre-recovery epoch) is
          // not evidence for the CURRENT fragment host.
          Fragment& f = self->fragments_[i];
          if (m.epoch != f.epoch) return;
          const double t = self->home().now();
          f.detector.heartbeat(t);
          f.last_contact = t;
          f.missed = 0;
          ++self->stats_.probes_answered;
          self->obs_.probes_answered.inc();
          // A suspended host answering at OUR epoch is a partition
          // survivor, not a zombie: explicitly resume it. The worker never
          // self-resumes off a probe, because a probe can be a stale
          // retransmission from before a recovery.
          if (m.suspended) {
            ++self->stats_.resumes_sent;
            self->home().resume_remote(self->run_->workers[i],
                                       self->run_->remote_jobs[i],
                                       f.epoch, self->options_.lease_s);
          }
        },
        f.epoch, options_.lease_s);
  }
  home().scheduler()(options_.probe_period_s, [self] { self->probe_round(); });
}

void RunSupervisor::recover(std::size_t idx) {
  Fragment& f = fragments_[idx];
  f.state = Fragment::State::kRecovering;
  const net::Endpoint dead = run_->workers[idx];
  if (auto* trust = controller_.trust_manager()) {
    trust->record(dead.value, sandbox::TrustEvent::kFailure);
  }

  auto rec = std::make_shared<Recovery>();
  rec->idx = idx;
  rec->dead = dead;
  rec->detected_at = home().now();
  rec->contact_at_detect = f.last_contact;
  rec->attempts_left = static_cast<int>(spares_.size()) +
                       (f.standby.state == Standby::State::kReady ? 1 : 0);
  if (auto r = store_.get(fragment_key(idx))) rec->state = r->state;
  rec->span = obs_.tracer.begin_span(
      obs_.node, "supervisor.recover",
      "fragment=" + std::to_string(idx) + " dead=" + dead.value);

  if (rec->attempts_left == 0) {
    fail_recovery(rec, "no spare");
    return;
  }

  if (!fencing()) {
    begin_replacement(rec);
    return;
  }

  // Fenced mode: let the zombie's lease run out first. Its lease deadline
  // is at most last_contact + lease_s (renewals stopped with the probes),
  // so after this wait the host -- if it is alive at all -- has provably
  // self-suspended and is bouncing payloads. The replacement never
  // coexists with a live-and-serving zombie.
  const double wait =
      std::max(0.0, f.last_contact + options_.lease_s - home().now()) +
      0.001;
  auto self = shared_from_this();
  home().scheduler()(wait, [self, rec] {
    if (self->stopped()) return;
    Fragment& f = self->fragments_[rec->idx];
    if (f.last_contact > rec->contact_at_detect) {
      // The host showed life during the wait: partitioned, not dead. It is
      // sitting suspended; the next probe round sees suspended=true and
      // sends it an explicit resume.
      ++self->stats_.recoveries_aborted;
      f.missed = 0;
      f.state = Fragment::State::kWatched;
      self->obs_.tracer.end_span(rec->span, self->obs_.node,
                                 "supervisor.recover", "aborted: host alive");
      return;
    }
    self->begin_replacement(rec);
  });
}

void RunSupervisor::begin_replacement(std::shared_ptr<Recovery> rec) {
  if (stopped()) return;
  Standby& sb = fragments_[rec->idx].standby;
  if (sb.state == Standby::State::kReady) {
    // The speculative standby already holds the checkpoint: promotion is
    // one control round-trip instead of a full redeploy.
    const net::Endpoint host = sb.host;
    const std::string job_id = sb.job_id;
    const std::uint64_t epoch = sb.epoch;
    sb = Standby{};
    auto self = shared_from_this();
    auto done = std::make_shared<bool>(false);
    home().promote_remote(
        host, job_id,
        [self, rec, host, job_id, epoch, done](const DeployAckMsg& ack) {
          if (self->stopped() || *done) return;
          *done = true;
          if (!ack.ok) {
            self->attempt_redeploy(rec);
            return;
          }
          ++self->stats_.speculative_promoted;
          self->complete_recovery(rec, host, job_id, epoch);
        });
    home().scheduler()(options_.redeploy_timeout_s,
                       [self, rec, host, job_id, done] {
                         if (self->stopped() || *done) return;
                         *done = true;
                         // Correlated failure: the standby's host is silent
                         // too. Do not return it to the pool.
                         ++self->stats_.redeploys_timed_out;
                         self->home().cancel_remote(host, job_id);
                         self->attempt_redeploy(rec);
                       });
    return;
  }
  attempt_redeploy(rec);
}

void RunSupervisor::attempt_redeploy(std::shared_ptr<Recovery> rec) {
  if (stopped()) return;
  if (rec->attempts_left <= 0 || spares_.empty()) {
    fail_recovery(rec, spares_.empty() ? "no spare" : "attempts exhausted");
    return;
  }
  --rec->attempts_left;
  const net::Endpoint spare = spares_.back();
  spares_.pop_back();
  const std::uint64_t epoch = fencing() ? next_epoch_++ : 0;

  DeployOptions opt;
  opt.epoch = epoch;
  opt.lease_s = fencing() ? options_.lease_s : 0.0;

  auto self = shared_from_this();
  auto done = std::make_shared<bool>(false);
  const std::string job_id = home().deploy_remote(
      spare, run_->fragments[rec->idx], /*iterations=*/0,
      [self, rec, spare, epoch, done](const DeployAckMsg& ack) {
        if (self->stopped()) return;
        if (*done) {
          // Ack after the timeout gave up on this spare: the deploy may
          // have landed there -- make sure no orphan job keeps running.
          if (ack.ok) self->home().cancel_remote(spare, ack.job_id);
          return;
        }
        *done = true;
        if (!ack.ok) {
          // The spare is alive but refused (missing module, policy).
          // Return it to the END of the line -- not leaked, not retried
          // first -- and try the next one.
          ++self->stats_.redeploys_nacked;
          self->spares_.insert(self->spares_.begin(), spare);
          self->attempt_redeploy(rec);
          return;
        }
        self->complete_recovery(rec, spare, ack.job_id, epoch);
      },
      rec->state, opt);

  home().scheduler()(options_.redeploy_timeout_s,
                     [self, rec, spare, job_id, done] {
                       if (self->stopped() || *done) return;
                       *done = true;
                       // A silent spare is probably dead too: drop it from
                       // the pool and cancel the possibly-orphaned deploy
                       // best-effort.
                       ++self->stats_.redeploys_timed_out;
                       self->home().cancel_remote(spare, job_id);
                       self->attempt_redeploy(rec);
                     });
}

void RunSupervisor::complete_recovery(std::shared_ptr<Recovery> rec,
                                      const net::Endpoint& host,
                                      const std::string& job_id,
                                      std::uint64_t epoch) {
  const std::size_t idx = rec->idx;
  run_->workers[idx] = host;
  run_->remote_jobs[idx] = job_id;
  Fragment& f = fragments_[idx];
  f.epoch = epoch;
  rebuild_contact_index();
  broadcast_refence(idx, epoch, rec->dead);

  // Fresh grace for the new host: the old reply history does not describe
  // it, and a stale evidence clock would re-convict it instantly.
  const double now = home().now();
  f.missed = 0;
  f.detector.reset();
  f.detector.touch(now);
  f.last_contact = now;
  f.state = Fragment::State::kWatched;
  ++stats_.recoveries;
  obs_.recoveries.inc();
  obs_.recovery_s.observe(now - rec->detected_at);
  obs_.tracer.end_span(rec->span, obs_.node, "supervisor.recover",
                       "recovered epoch=" + std::to_string(epoch));
}

void RunSupervisor::fail_recovery(std::shared_ptr<Recovery> rec,
                                  const std::string& why) {
  ++stats_.recoveries_failed;
  obs_.recoveries_failed.inc();
  // Degraded, not wedged: this fragment is lost for good, the rest of the
  // run keeps being supervised and nothing hangs waiting on it.
  fragments_[rec->idx].state = Fragment::State::kDegraded;
  obs_.tracer.end_span(rec->span, obs_.node, "supervisor.recover", why);
}

void RunSupervisor::broadcast_refence(std::size_t idx, std::uint64_t epoch,
                                      const net::Endpoint& dead) {
  auto& transport = home().node().transport();
  const bool fenced = fencing();
  const auto send_fence_msg = [&](const net::Endpoint& to, serial::Frame f) {
    transport.send(to, std::move(f));
    ++stats_.fences_sent;
    obs_.fenced_msgs.inc();
  };

  // Every sender into the moved fragment must re-resolve; with fencing on,
  // the rebind also halts a zombie still ADVERTISING these labels -- and is
  // sent to the dead host itself so a returning partitionee learns its
  // fate without guessing.
  for (const auto& label : receive_labels_of(run_->fragments[idx])) {
    home().rebind_channel(label);
    for (std::size_t j = 0; j < run_->workers.size(); ++j) {
      if (j == idx) continue;
      if (fenced) {
        send_fence_msg(run_->workers[j], encode(RebindMsg{label, epoch}));
      } else {
        transport.send(run_->workers[j], encode(RebindMsg{label}));
      }
    }
    if (fenced) send_fence_msg(dead, encode(RebindMsg{label, epoch}));
  }

  if (!fenced) return;

  // Producer fences on the fragment's output labels, scoped to the dead
  // host: stale-epoch payloads FROM it are dropped (counted, never
  // applied) at every consumer -- the home first, since farm results land
  // there. The scope matters for fan-in labels, which every sibling
  // replica shares at its own epoch: an unscoped fence would halt healthy
  // jobs. The dead host itself is told to halt its zombie sender.
  for (const auto& label : send_labels_of(run_->fragments[idx])) {
    home().pipes().fence(label, epoch, dead.value);
    for (std::size_t j = 0; j < run_->workers.size(); ++j) {
      if (j == idx) continue;
      send_fence_msg(run_->workers[j], encode(FenceMsg{label, epoch, dead.value}));
    }
    send_fence_msg(dead, encode(FenceMsg{label, epoch, dead.value}));
  }
}

void RunSupervisor::deploy_standby(std::size_t idx) {
  if (spares_.empty()) return;
  Standby& sb = fragments_[idx].standby;
  sb = Standby{};
  sb.state = Standby::State::kDeploying;
  sb.host = spares_.back();
  spares_.pop_back();
  sb.epoch = next_epoch_++;
  serial::Bytes state;
  if (auto r = store_.get(fragment_key(idx))) state = r->state;
  ++stats_.speculative_deploys;
  obs_.speculative_deploys.inc();

  DeployOptions opt;
  opt.epoch = sb.epoch;
  opt.standby = true;  // dark: no adverts, no emissions until promoted

  const net::Endpoint host = sb.host;
  auto self = shared_from_this();
  home().deploy_remote(
      host, run_->fragments[idx], /*iterations=*/0,
      [self, idx, host](const DeployAckMsg& ack) {
        if (self->stopped()) return;
        Standby& sb = self->fragments_[idx].standby;
        if (sb.state != Standby::State::kDeploying ||
            sb.host.value != host.value) {
          return;  // superseded
        }
        if (!ack.ok) {
          self->spares_.insert(self->spares_.begin(), host);
          sb = Standby{};
          return;
        }
        sb.state = Standby::State::kReady;
        sb.job_id = ack.job_id;
      },
      std::move(state), opt);
}

void RunSupervisor::cancel_standby(std::size_t idx) {
  Standby& sb = fragments_[idx].standby;
  if (sb.state != Standby::State::kReady) return;
  ++stats_.speculative_cancelled;
  home().cancel_remote(sb.host, sb.job_id);
  spares_.push_back(sb.host);
  sb = Standby{};
}

}  // namespace cg::core
