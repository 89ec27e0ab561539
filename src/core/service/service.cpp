#include "core/service/service.hpp"

#include <algorithm>
#include <set>

#include "core/dist/policy.hpp"
#include "core/graph/taskgraph_xml.hpp"
#include "obs/http_server.hpp"
#include "serial/reader.hpp"

namespace cg::core {
namespace {

constexpr std::size_t kModuleCacheBytes = 64u << 20;
/// Re-resolve attempts for a failed output bind before its label parks
/// (spaced by ServiceConfig::bind_retry_s).
constexpr int kBindRetries = 10;
/// Cap on remembered cancels for jobs not hosted here, so a peer sending
/// cancels for made-up ids cannot grow the table.
constexpr std::size_t kMaxTombstones = 1024;

/// Distinct fetchable unit types in a graph (recursing into groups).
std::set<std::string> module_types(const TaskGraph& g) {
  std::set<std::string> out;
  for (const auto& t : g.tasks()) {
    if (t.is_group()) {
      auto inner = module_types(*t.group);
      out.insert(inner.begin(), inner.end());
    } else if (!is_channel_proxy(t.unit_type)) {
      out.insert(t.unit_type);
    }
  }
  return out;
}

bool contains_label(const auto& labels, const std::string& label) {
  return std::ranges::find(labels, label) != labels.end();
}

/// Deployed live and not failed: the states a supervisor's lease and
/// resume apply to.
bool is_live(JobState s) {
  return s == JobState::kRunning || s == JobState::kSuspended;
}

}  // namespace

TrianaService::TrianaService(net::Transport& transport, net::Clock clock,
                             net::Scheduler scheduler,
                             const UnitRegistry& registry,
                             ServiceConfig config)
    : clock_(std::move(clock)),
      scheduler_(std::move(scheduler)),
      registry_(registry),
      config_(std::move(config)),
      transport_(transport, clock_, scheduler_, config_.reliable),
      node_(transport_, clock_, config_.peer_id),
      pipes_(node_, scheduler_),
      code_(transport_),
      module_cache_(kModuleCacheBytes),
      account_(config_.peer_id.empty() ? transport.local().value
                                       : config_.peer_id,
               config_.sandbox_policy, config_.certified_library) {
  if (config_.peer_id.empty()) config_.peer_id = transport.local().value;
  module_cache_.set_backing_store(config_.cas);
  code_.serve_from(&local_repo_);
  // PeerNode consumes discovery and PipeServe has routed kData; the code
  // protocol and control messages are ours.
  node_.route(serial::FrameType::kCode,
              [this](const net::Endpoint& from, serial::Frame f) {
                code_.on_frame(from, std::move(f));
              });
  node_.route(serial::FrameType::kControl,
              [this](const net::Endpoint& from, serial::Frame f) {
                handle_control(from, std::move(f));
              });
  // Payloads for a label whose job is suspended or fenced go back to their
  // sender instead of vanishing: the sender re-resolves the label and the
  // item lands at the live incarnation.
  pipes_.set_unknown_pipe_handler(
      [this](const std::string& pipe, const net::Endpoint& from,
             serial::Bytes payload) {
        if (!contains_label(bounce_labels_, pipe)) return false;
        ++stats_.payloads_bounced;
        obs_.payloads_bounced.inc();
        transport_.send(from, encode(BounceMsg{pipe, std::move(payload)}));
        return true;
      });
}

void TrianaService::announce() {
  const auto advert = node_.make_peer_advert(config_.capabilities);
  node_.publish_local(advert);
  for (const auto& r : node_.rendezvous()) {
    node_.publish_to(r, {advert});
    break;
  }
}

void TrianaService::publish_module(const std::string& unit_type,
                                   const std::string& version,
                                   std::size_t size_bytes) {
  local_repo_.put(
      repo::make_synthetic_artifact(unit_type, version, size_bytes));
}

void TrianaService::publish_graph_modules(const TaskGraph& g,
                                          std::size_t size_bytes) {
  for (const auto& type : module_types(g)) {
    publish_module(type, "1.0", size_bytes);
  }
}

std::string TrianaService::fresh_job_id() {
  return config_.peer_id + "#" + std::to_string(next_job_++);
}

void TrianaService::set_obs(obs::Registry& registry, obs::Tracer* tracer,
                            std::string_view scope) {
  const std::string s = scope.empty() ? config_.peer_id : std::string(scope);
  obs_.deploys_received =
      registry.counter(obs::scoped(s, "service.deploys_received"));
  obs_.duplicate_deploys =
      registry.counter(obs::scoped(s, "service.duplicate_deploys"));
  obs_.jobs_started =
      registry.counter(obs::scoped(s, "service.jobs_started"));
  obs_.jobs_failed = registry.counter(obs::scoped(s, "service.jobs_failed"));
  obs_.jobs_cancelled =
      registry.counter(obs::scoped(s, "service.jobs_cancelled"));
  obs_.modules_fetched =
      registry.counter(obs::scoped(s, "service.modules_fetched"));
  obs_.modules_from_cas =
      registry.counter(obs::scoped(s, "service.modules_from_cas"));
  obs_.pipe_items_malformed =
      registry.counter(obs::scoped(s, "service.pipe_items_malformed"));
  obs_.jobs_suspended =
      registry.counter(obs::scoped(s, "service.jobs_suspended"));
  obs_.jobs_fenced = registry.counter(obs::scoped(s, "service.jobs_fenced"));
  obs_.promotions = registry.counter(obs::scoped(s, "service.promotions"));
  obs_.payloads_bounced =
      registry.counter(obs::scoped(s, "service.payloads_bounced"));
  obs_.binds_retried =
      registry.counter(obs::scoped(s, "service.binds_retried"));
  obs_.deploy_start_s =
      registry.histogram(obs::scoped(s, "service.deploy_start_s"));
  obs_.deploy_rtt_s =
      registry.histogram(obs::scoped(s, "service.deploy_rtt_s"));
  obs_.tracer = tracer;
  obs_registry_ = &registry;
  obs_scope_ = s;
  transport_.set_obs(registry, tracer, s);
  module_cache_.set_obs(registry, s);
  node_.set_obs(tracer, s);
  code_.set_obs(tracer, s);
  // A store shared between peers keeps the scope of whichever service
  // bound it last; give each peer its own store when per-peer counters
  // matter (the benches do).
  if (config_.cas) config_.cas->set_obs(registry, s);
  // CONGRID_OBS_PORT: the first service bound to a registry exports it on
  // a loopback HTTP server (one per process; later binds reuse it). The
  // registry outlives every service that registered into it in all current
  // stacks, and stop_env_server() exists for ones where it would not.
  obs::HttpServer::from_env(registry, tracer);
}

void TrianaService::join_trace(std::uint64_t trace_id,
                               std::uint64_t parent_span) {
#if CONGRID_OBS_ENABLED
  trace_ctx_ = obs::TraceContext{trace_id, parent_span, 0};
  transport_.set_trace(trace_id);
  node_.set_trace(trace_ctx_);
#else
  (void)trace_id;
  (void)parent_span;
#endif
}

// ---------------------------------------------------------------- client

std::string TrianaService::deploy_remote(const net::Endpoint& target,
                                         const TaskGraph& fragment,
                                         std::uint64_t iterations,
                                         AckHandler on_ack,
                                         serial::Bytes checkpoint,
                                         DeployOptions options,
                                         ChannelMap channels) {
  DeployMsg m;
  m.job_id = fresh_job_id();
  m.owner = config_.peer_id;
  m.owner_endpoint = endpoint();
  m.iterations = iterations;
  m.graph_xml = write_taskgraph(fragment, /*pretty=*/false);
  m.checkpoint = std::move(checkpoint);
  m.epoch = options.epoch;
  m.lease_s = options.lease_s;
  m.standby = options.standby;
  m.channels = std::move(channels);
  // Advertise the content digest of every module we own that the fragment
  // needs: the target can satisfy them from its own store (dedup across
  // names, warm restarts) and can tell a stale cached copy from ours
  // without a round trip. The digest is the one the repository computed
  // at publish; the encoded artifact is stored owner-side only when the
  // store lacks it (first deploy, or evicted since), so identical modules
  // published under different names share bytes without a re-hash per
  // deploy.
  for (const auto& type : module_types(fragment)) {
    if (const auto* e = local_repo_.latest_entry(type)) {
      m.module_hashes[type] = e->digest;
      if (config_.cas && !config_.cas->contains(e->digest)) {
        config_.cas->put(repo::encode_artifact(e->artifact));
      }
    }
  }
  const double sent_at = clock_();
  const std::uint64_t span = obs_.tracer.begin_span(
      config_.peer_id, "deploy.client", trace_ctx_, "job=" + m.job_id);
  m.trace = obs::TraceContext{trace_ctx_.trace_id, span, 0};
  ack_handlers_[m.job_id] = [this, sent_at, span,
                             h = std::move(on_ack)](const DeployAckMsg& a) {
    obs_.deploy_rtt_s.observe(clock_() - sent_at);
    obs_.tracer.end_span(span, config_.peer_id, "deploy.client",
                         a.ok ? "acked" : "nacked");
    if (h) h(a);
  };
  transport_.send(target, encode(m));
  return m.job_id;
}

void TrianaService::promote_remote(const net::Endpoint& target,
                                   const std::string& job_id,
                                   AckHandler on_ack) {
  ack_handlers_[job_id] = std::move(on_ack);
  transport_.send(target, encode(PromoteMsg{job_id}));
}

void TrianaService::request_status(const net::Endpoint& target,
                                   const std::string& job_id,
                                   StatusHandler on_status,
                                   std::uint64_t epoch, double lease_s) {
  status_handlers_[job_id] = std::move(on_status);
  transport_.send(target, encode(StatusRequestMsg{job_id, epoch, lease_s}));
}

void TrianaService::request_checkpoint(const net::Endpoint& target,
                                       const std::string& job_id,
                                       CheckpointHandler on_data) {
  ckpt_handlers_[job_id] = std::move(on_data);
  transport_.send(target, encode(CheckpointRequestMsg{job_id}));
}

void TrianaService::cancel_remote(const net::Endpoint& target,
                                  const std::string& job_id) {
  transport_.send(target, encode(CancelMsg{job_id}));
}

void TrianaService::resume_remote(const net::Endpoint& target,
                                  const std::string& job_id,
                                  std::uint64_t epoch, double lease_s) {
  transport_.send(target, encode(ResumeMsg{job_id, epoch, lease_s}));
}

// ------------------------------------------------------------ local jobs

std::string TrianaService::deploy_local(const TaskGraph& graph,
                                        std::uint64_t iterations,
                                        serial::Bytes checkpoint) {
  DeployMsg m;
  m.job_id = fresh_job_id();
  m.owner = config_.peer_id;
  m.owner_endpoint = endpoint();
  m.iterations = iterations;
  m.checkpoint = std::move(checkpoint);
  m.trace = trace_ctx_;

  PendingDeploy pending;
  pending.msg = std::move(m);
  pending.graph = graph.clone();
  pending.received_at = clock_();
  pending.span = obs_.tracer.begin_span(config_.peer_id, "deploy", trace_ctx_,
                                        "job=" + pending.msg.job_id);
  // Local deploys never fetch: the owner trivially has its own code.
  const std::string job_id = pending.msg.job_id;
  if (auto error = start_job(std::move(pending))) {
    throw std::invalid_argument("local deploy failed: " + *error);
  }
  return job_id;
}

void TrianaService::tick_job(const std::string& job_id,
                             std::uint64_t iterations) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second.failed()) return;
  run_iterations(it->second, iterations);
}

GraphRuntime* TrianaService::job_runtime(const std::string& job_id) {
  auto it = jobs_.find(job_id);
  return it == jobs_.end() ? nullptr : it->second.runtime.get();
}

bool TrianaService::job_failed(const std::string& job_id,
                               std::string* error) const {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return false;
  if (error) *error = it->second.error;
  return it->second.failed();
}

bool TrianaService::cancel_local(const std::string& job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    // Not running here (yet): refuse the deploy whenever it shows up, and
    // drop it now if it is still fetching modules -- its fetch callbacks
    // find no entry and stop.
    add_tombstone(job_id);
    auto pit = pending_.find(job_id);
    if (pit == pending_.end()) return false;
    obs_.tracer.end_span(pit->second.span, config_.peer_id, "deploy",
                         "cancelled");
    send_ack(pit->second.reply_to, job_id, false, "cancelled");
    pending_.erase(pit);
    return true;
  }
  ++stats_.jobs_cancelled;
  obs_.jobs_cancelled.inc();
  finish_job(it->second, /*violated=*/false);
  teardown_job(it->second);
  jobs_.erase(it);
  return true;
}

// ---------------------------------------------------------------- server

void TrianaService::handle_control(const net::Endpoint& from,
                                   serial::Frame frame) {
  switch (control_type(frame)) {
    case ControlType::kDeploy:
      handle_deploy(from, decode_deploy(frame));
      break;
    case ControlType::kDeployAck: {
      auto m = decode_deploy_ack(frame);
      auto it = ack_handlers_.find(m.job_id);
      if (it != ack_handlers_.end()) {
        auto handler = std::move(it->second);
        ack_handlers_.erase(it);
        if (handler) handler(m);
      }
      break;
    }
    case ControlType::kCancel: {
      auto m = decode_cancel(frame);
      cancel_local(m.job_id);
      break;
    }
    case ControlType::kStatusRequest: {
      auto m = decode_status_request(frame);
      StatusMsg s;
      s.job_id = m.job_id;
      auto it = jobs_.find(m.job_id);
      if (it != jobs_.end()) {
        Job& job = it->second;
        // A probe is supervisor contact: renew the lease (and grant one to
        // a job deployed without). A suspended job does NOT self-resume
        // here: the probe may be a stale retransmission from before a
        // recovery (the reliable layer replays it through an outage), and
        // resuming on it would let a replaced zombie execute retransmitted
        // payloads at the old epoch. The reply carries suspended=true; the
        // CURRENT supervisor answers with an explicit kResume.
        if (m.lease_s > 0.0 && is_live(job.state)) renew_lease(job, m.lease_s);
        s.known = true;
        s.running = job.state == JobState::kRunning;
        s.failed = job.failed();
        s.error = job.error;
        s.epoch = job.epoch;
        s.suspended = job.state == JobState::kSuspended;
        if (job.runtime) {
          s.iteration = job.runtime->iteration();
          s.firings = job.runtime->stats().firings;
        }
      }
      transport_.send(from, encode(s));
      break;
    }
    case ControlType::kStatus: {
      auto m = decode_status(frame);
      auto it = status_handlers_.find(m.job_id);
      if (it != status_handlers_.end()) {
        auto handler = std::move(it->second);
        status_handlers_.erase(it);
        if (handler) handler(m);
      }
      break;
    }
    case ControlType::kCheckpointRequest: {
      auto m = decode_checkpoint_request(frame);
      CheckpointDataMsg d;
      d.job_id = m.job_id;
      auto it = jobs_.find(m.job_id);
      if (it != jobs_.end() && it->second.runtime && !it->second.failed()) {
        d.ok = true;
        d.state = it->second.runtime->save_checkpoint();
      }
      transport_.send(from, encode(d));
      break;
    }
    case ControlType::kRebind: {
      auto m = decode_rebind(frame);
      rebind_channel(m.label);
      if (m.epoch > 0) {
        // Consumer-side fence: a local job still advertising this label at
        // a lower epoch is the zombie the migration replaced.
        std::vector<std::string> stale;
        for (const auto& [id, job] : jobs_) {
          if (job.epoch < m.epoch && contains_label(job.input_labels, m.label)) {
            stale.push_back(id);
          }
        }
        for (const auto& id : stale) fence_halt(id);
      }
      break;
    }
    case ControlType::kFence:
      handle_fence(decode_fence(frame));
      break;
    case ControlType::kBounce:
      handle_bounce(from, decode_bounce(frame));
      break;
    case ControlType::kPromote:
      handle_promote(from, decode_promote(frame));
      break;
    case ControlType::kResume: {
      auto m = decode_resume(frame);
      auto it = jobs_.find(m.job_id);
      if (it != jobs_.end()) {
        Job& job = it->second;
        // Epoch-gated: a resume that raced a fence (the job was re-fenced
        // after the supervisor replied) must not revive it.
        if (is_live(job.state) && m.epoch == job.epoch) {
          if (m.lease_s > 0.0) renew_lease(job, m.lease_s);
          transition(job, JobEvent::kResume);
        }
      }
      break;
    }
    case ControlType::kCheckpointData: {
      auto m = decode_checkpoint_data(frame);
      auto it = ckpt_handlers_.find(m.job_id);
      if (it != ckpt_handlers_.end()) {
        auto handler = std::move(it->second);
        ckpt_handlers_.erase(it);
        if (handler) handler(m);
      }
      break;
    }
  }
}

void TrianaService::send_ack(const net::Endpoint& to,
                             const std::string& job_id, bool ok,
                             const std::string& error) {
  if (to.empty()) return;  // local deploy
  DeployAckMsg m;
  m.job_id = job_id;
  m.ok = ok;
  m.error = error;
  transport_.send(to, encode(m));
}

void TrianaService::add_tombstone(const std::string& job_id) {
  // All share one lifetime, so the front is also the first to expire.
  if (tombstones_.size() >= kMaxTombstones) tombstones_.pop_front();
  tombstones_.emplace_back(clock_() + config_.reliable.deadline_s, job_id);
}

bool TrianaService::tombstoned(const std::string& job_id) {
  const double now = clock_();
  while (!tombstones_.empty() && tombstones_.front().first <= now) {
    tombstones_.pop_front();
  }
  return std::ranges::any_of(tombstones_, [&](const auto& t) {
    return t.second == job_id;
  });
}

void TrianaService::handle_deploy(const net::Endpoint& from, DeployMsg m) {
  ++stats_.deploys_received;
  obs_.deploys_received.inc();

  // A worker that is not yet part of any run trace joins the deploy's:
  // its own discovery rounds, fetches and envelopes become children of the
  // controller's run from here on.
  if (m.trace.trace_id != 0 && trace_ctx_.trace_id == 0) {
    join_trace(m.trace.trace_id, m.trace.parent_span);
  }

  // Idempotence guard behind the reliable layer's dedup window: a retried
  // deploy for a job this service already hosts is acknowledged again but
  // never executed twice. A retry for a deploy still fetching modules is
  // dropped -- the in-flight deploy acks when it settles.
  if (jobs_.contains(m.job_id)) {
    ++stats_.duplicate_deploys;
    obs_.duplicate_deploys.inc();
    send_ack(from, m.job_id, true, "");
    return;
  }
  if (pending_.contains(m.job_id)) {
    ++stats_.duplicate_deploys;
    obs_.duplicate_deploys.inc();
    return;
  }
  // The cancel overtook this deploy.
  if (tombstoned(m.job_id)) {
    send_ack(from, m.job_id, false, "cancelled");
    return;
  }

  // Static binding: the plan says where each output channel is served, so
  // the job's first send on it resolves from the local cache.
  cache_channel_hints(m.channels);

  // Parse early so we can enumerate the modules the fragment needs.
  TaskGraph graph;
  try {
    graph = parse_taskgraph(m.graph_xml);
  } catch (const std::exception& e) {
    send_ack(from, m.job_id, false, std::string("bad graph: ") + e.what());
    ++stats_.jobs_failed;
    obs_.jobs_failed.inc();
    return;
  }

  PendingDeploy pending;
  pending.msg = std::move(m);
  pending.graph = std::move(graph);
  pending.reply_to = from;
  pending.received_at = clock_();
  pending.span = obs_.tracer.begin_span(config_.peer_id, "deploy",
                                        pending.msg.trace,
                                        "job=" + pending.msg.job_id);

  // On-demand code download (paper 3.3), content-addressed when the deploy
  // advertises digests: a local copy -- module cache, backing store, or our
  // own repository -- only satisfies a module whose digest matches what the
  // owner currently publishes (the paper's "owner's version wins" rule,
  // checked by content instead of by version string). Without an advertised
  // digest (older controller) any cached copy is trusted as before.
  std::vector<std::string> missing;
  for (const auto& type : module_types(pending.graph)) {
    const auto adv = pending.msg.module_hashes.find(type);
    const bool has_digest = adv != pending.msg.module_hashes.end();
    // Both tiers keep each artifact's digest, so no deploy re-hashes a
    // module it has seen before.
    const auto matches = [&](const std::optional<cas::Digest>& d) {
      return !has_digest || d == adv->second;
    };

    if (module_cache_.lookup(type) && matches(module_cache_.digest(type))) {
      continue;
    }
    if (const auto* owned = local_repo_.latest_entry(type);
        owned && matches(owned->digest)) {
      // We own a current copy; stage it into the cache directly.
      module_cache_.insert(owned->artifact);
      continue;
    }
    // Exact-content lookup: the advertised digest may be resident under a
    // different name, from an earlier run (disk tier), or from a peer that
    // shares the store. Any hit here is network bytes not fetched.
    if (has_digest && config_.cas) {
      if (auto bytes = config_.cas->get(adv->second)) {
        try {
          module_cache_.insert(repo::decode_artifact(*bytes));
          ++stats_.modules_from_cas;
          obs_.modules_from_cas.inc();
          obs_.tracer.event(config_.peer_id, "cas.hit", pending.msg.trace,
                            "module=" + type);
          continue;
        } catch (const serial::DecodeError&) {
          // Digest resolved to bytes that are not an artifact; fetch.
        }
      }
    }
    missing.push_back(type);
  }

  if (!missing.empty() && !config_.fetch_code_on_demand) {
    send_ack(from, pending.msg.job_id, false,
             "module not available and on-demand fetch is disabled: " +
                 missing.front());
    ++stats_.jobs_failed;
    obs_.jobs_failed.inc();
    obs_.tracer.end_span(pending.span, config_.peer_id, "deploy",
                         "failed: fetch disabled");
    return;
  }

  const std::string job_id = pending.msg.job_id;
  pending.fetches_outstanding = missing.size();
  auto it = pending_.emplace(job_id, std::move(pending)).first;

  if (missing.empty()) {
    maybe_start(job_id);
    return;
  }

  const net::Endpoint owner = it->second.msg.owner_endpoint;
  // Each missing module becomes a "cache.fetch" span, child of the deploy
  // span; the request carries that context so the owner's "code.serve"
  // event lands inside it. The critical-path analyzer charges the deploy's
  // wait on these spans to cache-miss stall.
  const obs::TraceContext deploy_ctx{it->second.msg.trace.trace_id,
                                     it->second.span, 0};
  for (const auto& type : missing) {
    const std::uint64_t fspan = obs_.tracer.begin_span(
        config_.peer_id, "cache.fetch", deploy_ctx, "module=" + type);
    code_.fetch(
        owner, type, "",
        [this, job_id, type,
         fspan](std::optional<repo::ModuleArtifact> a) {
          auto pit = pending_.find(job_id);
          if (pit == pending_.end()) return;  // cancelled
          PendingDeploy& p = pit->second;
          --p.fetches_outstanding;
          if (!a) {
            p.error = "owner has no module '" + type + "'";
          } else {
            ++stats_.modules_fetched;
            obs_.modules_fetched.inc();
            if (!module_cache_.insert(*a)) {
              p.error = "module cache cannot hold '" + type + "'";
            } else {
              p.fetched_modules.push_back(type);
            }
          }
          obs_.tracer.end_span(fspan, config_.peer_id, "cache.fetch",
                               a ? "fetched" : "missing");
          maybe_start(job_id);
        },
        obs::TraceContext{deploy_ctx.trace_id, fspan, 0});
  }
}

void TrianaService::maybe_start(const std::string& job_id) {
  auto it = pending_.find(job_id);
  if (it == pending_.end() || it->second.fetches_outstanding > 0) return;
  PendingDeploy pending = std::move(it->second);
  pending_.erase(it);
  if (pending.error) {
    fail_deploy(pending, *pending.error);
    return;
  }
  start_job(std::move(pending));
}

void TrianaService::fail_deploy(PendingDeploy& pending,
                                const std::string& error) {
  ++stats_.jobs_failed;
  obs_.jobs_failed.inc();
  obs_.tracer.end_span(pending.span, config_.peer_id, "deploy",
                       "failed: " + error);
  send_ack(pending.reply_to, pending.msg.job_id, false, error);
}

std::optional<std::string> TrianaService::start_job(PendingDeploy pending) {
  Job job;
  job.job_id = pending.msg.job_id;
  job.owner = pending.msg.owner.empty() ? "anonymous" : pending.msg.owner;
  job.reply_to = pending.reply_to;
  job.pinned_modules = std::move(pending.fetched_modules);
  job.epoch = pending.msg.epoch;
  job.lease_s = pending.msg.lease_s;

  const TaskGraph& graph = pending.graph;
  try {
    // Admission control: certified-library policy checks the artifact
    // digest of every module we are about to execute (paper 3.5's
    // certified software library proposal). Both tiers already keep it.
    job.sb = std::make_unique<sandbox::Sandbox>(account_.open_sandbox());
    for (const auto& type : module_types(graph)) {
      std::optional<cas::Digest> digest;
      if (const auto cached = module_cache_.lookup(type)) {
        digest = module_cache_.digest(type);
        // Absent only when too large to stay resident after a promotion.
        if (!digest) digest = repo::artifact_digest(*cached);
      } else if (const auto* owned = local_repo_.latest_entry(type)) {
        digest = owned->digest;
      }
      if (digest) {
        job.sb->admit_module(type, *digest);
      } else if (config_.certified_library ||
                 config_.sandbox_policy.certified_modules_only) {
        throw sandbox::SandboxViolation("module '" + type +
                                        "' has no artifact to certify");
      }
    }

    RuntimeOptions opt;
    opt.rng_seed = config_.rng_seed ^
                   std::hash<std::string>{}(job.job_id);
    opt.sandbox = job.sb.get();
    if (config_.memoize_pure_units) opt.memo_store = config_.cas;
    job.runtime = std::make_unique<GraphRuntime>(graph, registry_, opt);
    // Job runtimes share the service's scope so runtime.* counters (memo
    // hits/misses among them) accumulate per peer across jobs.
    if (obs_registry_) job.runtime->set_obs(*obs_registry_, obs_scope_);

    if (!pending.msg.checkpoint.empty()) {
      job.runtime->restore_checkpoint(pending.msg.checkpoint);
    }
  } catch (const std::exception& e) {
    fail_deploy(pending, e.what());
    return e.what();
  }

  // Pin fetched modules for the job's lifetime.
  for (const auto& mname : job.pinned_modules) {
    if (module_cache_.contains(mname)) module_cache_.pin(mname);
  }

  // Everything the runtime does for this job -- ticks, wave dispatch --
  // is causally a child of the deploy span that started it.
  job.trace = obs::TraceContext{pending.msg.trace.trace_id, pending.span, 0};
  job.runtime->set_trace(obs_.tracer, config_.peer_id, job.trace,
                         "job=" + job.job_id);

  const std::string job_id = job.job_id;

  // Boundary egress: Send/Scatter emissions go out through p2p pipes.
  job.runtime->set_external_sender(
      [this, job_id](const std::string& label, DataItem item) {
        on_channel_send(job_id, label, std::move(item));
      });

  // Boundary ingress/egress labels. A standby job stays dark: no input
  // adverts (the live incarnation owns the labels) and no lease until a
  // kPromote.
  job.input_labels = job.runtime->receive_labels();
  job.output_labels = channel_labels(graph).outputs;
  auto [jit, _] = jobs_.emplace(job_id, std::move(job));
  Job& stored = jit->second;
  if (!pending.msg.standby) transition(stored, JobEvent::kStart);

  ++stats_.jobs_started;
  obs_.jobs_started.inc();
  obs_.deploy_start_s.observe(clock_() - pending.received_at);
  obs_.tracer.end_span(pending.span, config_.peer_id, "deploy", "started");
  send_ack(stored.reply_to, job_id, true, "");

  if (pending.msg.iterations > 0 && !pending.msg.standby) {
    run_iterations(stored, pending.msg.iterations);
  }
  return std::nullopt;
}

void TrianaService::advertise_job_inputs(Job& job) {
  const std::string job_id = job.job_id;
  for (const auto& label : job.input_labels) {
    std::erase(bounce_labels_, label);  // a live job serves it again
    pipes_.advertise_input(
        label,
        [this, job_id, label](const net::Endpoint&, serial::Bytes payload) {
          auto it = jobs_.find(job_id);
          if (it == jobs_.end() || it->second.failed()) return;
          ++stats_.pipe_items_in;
          // A payload that does not decode is the sender's fault: drop
          // it. A unit that throws on a good item fails the job.
          DataItem item;
          try {
            item = decode_data_item(payload);
          } catch (const serial::DecodeError&) {
            ++stats_.pipe_items_malformed;
            obs_.pipe_items_malformed.inc();
            return;
          }
          try {
            it->second.runtime->deliver(label, std::move(item));
          } catch (const std::exception& e) {
            transition(it->second, JobEvent::kFail, e.what());
          }
        },
        job.epoch);
  }
}

void TrianaService::run_iterations(Job& job, std::uint64_t iterations) {
  try {
    job.runtime->run(iterations);
    // A run burst typically emitted a flurry of small pipe frames; flush
    // the coalescing buffers so downstream stages see them immediately.
    transport_.flush();
  } catch (const std::exception& e) {
    transition(job, JobEvent::kFail, e.what());
  }
}

void TrianaService::on_channel_send(const std::string& job_id,
                                    const std::string& label, DataItem item) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second.failed()) return;
  Job& job = it->second;

  // Outbound traffic counts against the job's sandbox network budget
  // (the owner pays for what their workflow ships off this host).
  if (job.sb) {
    try {
      job.sb->charge_network(item.byte_size());
    } catch (const sandbox::SandboxViolation& e) {
      transition(job, JobEvent::kFail, e.what());
      // Rethrow so the engine run that produced this item stops too.
      throw;
    }
  }

  using State = OutputChannel::State;
  auto oit = job.outputs.find(label);
  if (oit != job.outputs.end() && oit->second.state == State::kBound) {
    ++stats_.pipe_items_out;
    pipes_.send(oit->second.pipe, encode_data_item(item), job.epoch);
    return;
  }

  // Not bound: queue the item; the first one on an unbound label starts
  // the bind, and a bind already running or parked takes it along.
  OutputChannel& out = job.outputs[label];
  out.backlog.push_back(encode_data_item(item));
  if (out.state == State::kUnbound) start_output_bind(job, label);
}

void TrianaService::start_output_bind(Job& job, const std::string& label) {
  job.outputs[label].state = OutputChannel::State::kBinding;
  // The bind is a span under the job's context: its duration is how long
  // the queued items waited for discovery + connection (including retries
  // while the provider is down or mid-recovery).
  const std::uint64_t bspan = obs_.tracer.begin_span(
      config_.peer_id, "pipe.bind", job.trace, "label=" + label);
  attempt_output_bind(job.job_id, label, kBindRetries, bspan);
}

void TrianaService::attempt_output_bind(const std::string& job_id,
                                        const std::string& label,
                                        int attempts_left,
                                        std::uint64_t bspan) {
  pipes_.bind_output(label, [this, job_id, label, attempts_left,
                             bspan](p2p::OutputPipe pipe) {
    auto jit = jobs_.find(job_id);
    if (jit == jobs_.end()) {
      obs_.tracer.end_span(bspan, config_.peer_id, "pipe.bind", "job-gone");
      return;
    }
    Job& j = jit->second;
    OutputChannel& out = j.outputs[label];
    if (pipe.bound()) {
      obs_.tracer.end_span(bspan, config_.peer_id, "pipe.bind", "bound");
      out.state = OutputChannel::State::kBound;
      out.pipe = pipe;
      stats_.pipe_items_out += out.backlog.size();
      stats_.bounces_resent += std::exchange(out.bounced, 0);
      for (auto& payload : std::exchange(out.backlog, {})) {
        pipes_.send(pipe, std::move(payload), j.epoch);
      }
      return;
    }
    // Nobody answered the flood. Under churn that is usually transient:
    // the provider is down for a blip, or dead with its replacement not
    // yet serving. Keep the backlog and ask again -- the supervisor's
    // recovery publishes a fresh advert the retry will find. Once the
    // retries run out the label parks, backlog and all: the job keeps
    // running, and only the controller decides that a run has failed.
    if (attempts_left == 0 || j.failed()) {
      obs_.tracer.end_span(bspan, config_.peer_id, "pipe.bind", "parked");
      out.state = OutputChannel::State::kParked;
      return;
    }
    ++stats_.binds_retried;
    obs_.binds_retried.inc();
    scheduler_(config_.bind_retry_s, [this, job_id, label, attempts_left,
                                      bspan] {
      // A job cancelled or fenced meanwhile needs no flood.
      if (jobs_.contains(job_id)) {
        attempt_output_bind(job_id, label, attempts_left - 1, bspan);
      } else {
        obs_.tracer.end_span(bspan, config_.peer_id, "pipe.bind", "job-gone");
      }
    });
  });
}

void TrianaService::cache_channel_hints(const ChannelMap& channels) {
  for (const auto& [label, hint] : channels) {
    pipes_.hint_output(label, hint.provider, hint.epoch);
  }
}

void TrianaService::rebind_channel(const std::string& label) {
  node_.cache().drop_name(p2p::AdvertKind::kPipe, label);
  for (auto& [id, job] : jobs_) {
    auto it = job.outputs.find(label);
    if (it == job.outputs.end()) continue;
    // A bound label re-resolves on its next send, and a parked one now: a
    // recovery may have put a provider behind it. A running bind already
    // asks afresh on its next attempt.
    if (it->second.state == OutputChannel::State::kBound) {
      it->second.state = OutputChannel::State::kUnbound;
    } else if (it->second.state == OutputChannel::State::kParked &&
               !job.failed()) {
      start_output_bind(job, label);
    }
  }
}

void TrianaService::transition(Job& job, JobEvent event,
                               const std::string& error, bool violated) {
  const auto trace_event = [&](const char* name) {
    obs_.tracer.event(config_.peer_id, name, job.trace,
                      "job=" + job.job_id +
                          " epoch=" + std::to_string(job.epoch));
  };
  switch (event) {
    case JobEvent::kStart:
    case JobEvent::kPromote:
      if (job.state != JobState::kStandby) return;
      job.state = JobState::kRunning;
      if (event == JobEvent::kPromote) {
        ++stats_.promotions;
        obs_.promotions.inc();
        trace_event("job.promote");
      }
      advertise_job_inputs(job);
      if (job.lease_s > 0.0) renew_lease(job, job.lease_s);
      return;
    case JobEvent::kLeaseExpired:
      // No supervisor contact for a whole lease: assume we are the one who
      // is partitioned. Withdraw the input pipes (so senders stop reaching
      // a possibly-stale incarnation) and bounce anything already in
      // flight. Reversible: the current supervisor's explicit resume brings
      // the job back; a fence from a completed recovery halts it.
      if (job.state != JobState::kRunning) return;
      job.state = JobState::kSuspended;
      ++stats_.jobs_suspended;
      obs_.jobs_suspended.inc();
      trace_event("job.suspend");
      for (const auto& label : job.input_labels) {
        if (label_owned_by_other(job.job_id, label)) continue;
        pipes_.remove_input(label);
        add_bounce_label(label);
      }
      return;
    case JobEvent::kResume:
      if (job.state != JobState::kSuspended) return;
      job.state = JobState::kRunning;
      ++stats_.jobs_resumed;
      trace_event("job.resume");
      advertise_job_inputs(job);
      return;
    case JobEvent::kFail:
      // Failure keeps the inputs advertised: payloads for a failed job are
      // dropped by its pipe handler until the owner cancels it.
      if (job.failed()) return;
      job.state = JobState::kFailed;
      job.error = error;
      ++stats_.jobs_failed;
      obs_.jobs_failed.inc();
      finish_job(job, violated);
      return;
  }
}

void TrianaService::finish_job(Job& job, bool violated) {
  if (job.sb) {
    account_.settle(job.owner, *job.sb, violated);
    job.sb.reset();
  }
}

void TrianaService::teardown_job(Job& job) {
  for (const auto& label : job.input_labels) {
    // A replacement job may already serve this label (cancel and redeploy
    // can arrive reordered); removing it would sever the new job's pipe.
    if (!label_owned_by_other(job.job_id, label)) pipes_.remove_input(label);
  }
  for (const auto& mname : job.pinned_modules) module_cache_.unpin(mname);
  for (const auto& [label, out] : job.outputs) {
    stats_.bounces_dropped += out.bounced;
  }
}

bool TrianaService::label_owned_by_other(const std::string& job_id,
                                         const std::string& label) const {
  for (const auto& [id, other] : jobs_) {
    // Standby and suspended jobs do not advertise their inputs.
    if (id == job_id || other.state == JobState::kStandby ||
        other.state == JobState::kSuspended) {
      continue;
    }
    if (contains_label(other.input_labels, label)) return true;
  }
  return false;
}

std::uint64_t TrianaService::job_epoch(const std::string& job_id) const {
  auto it = jobs_.find(job_id);
  return it == jobs_.end() ? 0 : it->second.epoch;
}

std::optional<JobState> TrianaService::job_state(
    const std::string& job_id) const {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second.state;
}

// ------------------------------------------------- lease / fence / bounce

void TrianaService::renew_lease(Job& job, double lease_s) {
  job.lease_s = lease_s;
  job.lease_deadline = clock_() + lease_s;
  if (job.lease_timer_armed) return;  // the live chain sees the new deadline
  job.lease_timer_armed = true;
  const std::string job_id = job.job_id;
  scheduler_(lease_s, [this, job_id] { check_lease(job_id); });
}

void TrianaService::check_lease(const std::string& job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  Job& job = it->second;
  job.lease_timer_armed = false;
  // Only a running job suspends: a standby is dark and unleased until
  // promoted, and suspension and failure are already out of service.
  if (job.state != JobState::kRunning || job.lease_deadline <= 0.0) return;
  const double now = clock_();
  if (now + 1e-9 < job.lease_deadline) {
    // Renewed since this timer was set; re-arm for the current deadline.
    job.lease_timer_armed = true;
    scheduler_(job.lease_deadline - now,
               [this, job_id] { check_lease(job_id); });
    return;
  }
  transition(job, JobEvent::kLeaseExpired);
}

void TrianaService::fence_halt(const std::string& job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  Job& job = it->second;
  ++stats_.jobs_fenced;
  obs_.jobs_fenced.inc();
  obs_.tracer.event(config_.peer_id, "job.fenced", job.trace,
                    "job=" + job.job_id +
                        " epoch=" + std::to_string(job.epoch));
  // The labels stay bouncy after the job is gone: late payloads addressed
  // to the dead incarnation still get handed back to their senders.
  for (const auto& label : job.input_labels) {
    if (!label_owned_by_other(job.job_id, label)) add_bounce_label(label);
  }
  cancel_local(job_id);
}

void TrianaService::handle_fence(const FenceMsg& m) {
  // Producer fence at the pipe layer: stale-epoch payloads for this label
  // FROM the fenced host are counted and dropped from here on. The sender
  // scope is what keeps fan-in labels safe: every replica of a parallel
  // group funnels into the same home label at its own epoch, and only the
  // replaced host's traffic is stale.
  pipes_.fence(m.label, m.epoch, m.target);
  // On the fenced host itself (or everywhere, for an unscoped fence): any
  // job still SENDING on the label at a lower epoch is a zombie
  // incarnation of the re-deployed fragment.
  if (!m.target.empty() && m.target != endpoint().value) return;
  std::vector<std::string> stale;
  for (const auto& [id, job] : jobs_) {
    if (job.epoch < m.epoch && contains_label(job.output_labels, m.label)) {
      stale.push_back(id);
    }
  }
  for (const auto& id : stale) fence_halt(id);
}

void TrianaService::add_bounce_label(const std::string& label) {
  if (contains_label(bounce_labels_, label)) return;
  if (bounce_labels_.size() >= kMaxBounceLabels) bounce_labels_.pop_front();
  bounce_labels_.push_back(label);
}

void TrianaService::handle_bounce(const net::Endpoint& from, BounceMsg m) {
  // A payload we sent was refused (suspended or fenced consumer). It joins
  // the owning job's backlog for the label and rides that label's one bind.
  auto owner = std::ranges::find_if(jobs_, [&](const auto& entry) {
    return !entry.second.failed() &&
           contains_label(entry.second.output_labels, m.label);
  });
  if (owner == jobs_.end()) {
    ++stats_.bounces_dropped;
    return;
  }
  Job& job = owner->second;
  OutputChannel& out = job.outputs[m.label];
  using State = OutputChannel::State;
  if (out.state == State::kBound && out.pipe.target != from) {
    // Already rebound past the host that refused it.
    ++stats_.pipe_items_out;
    ++stats_.bounces_resent;
    pipes_.send(out.pipe, std::move(m.payload), job.epoch);
    return;
  }
  out.backlog.push_back(std::move(m.payload));
  ++out.bounced;
  if (out.state == State::kBound) {
    // Still bound to the refusing host: forget it and its advert, so the
    // bind re-resolves -- the advert cache prefers the highest epoch, so
    // the re-send lands at the replacement.
    node_.cache().drop_name(p2p::AdvertKind::kPipe, m.label);
    out.state = State::kUnbound;
  }
  if (out.state != State::kBinding) start_output_bind(job, m.label);
}

void TrianaService::handle_promote(const net::Endpoint& from,
                                   const PromoteMsg& m) {
  auto it = jobs_.find(m.job_id);
  if (it == jobs_.end() || it->second.failed()) {
    send_ack(from, m.job_id, false, "no such standby job");
    return;
  }
  // Promoting a job that is already live is a no-op, acked all the same.
  transition(it->second, JobEvent::kPromote);
  send_ack(from, m.job_id, true, "");
}

}  // namespace cg::core
