#include "core/service/controller.hpp"

#include <algorithm>
#include <set>

namespace cg::core {

void TrianaController::discover_workers(
    const p2p::Query& query, int ttl, std::size_t want, double timeout_s,
    std::function<void(std::vector<net::Endpoint>)> done) {
  struct Search {
    std::vector<net::Endpoint> found;
    bool finished = false;
  };
  auto state = std::make_shared<Search>();
  auto& node = home_.node();
  const net::Endpoint self = home_.endpoint();

  // The whole round -- flood/rendezvous query, every response straggling
  // in, the deadline -- is one span under the home peer's current context.
  const std::uint64_t dspan = home_.tracer().begin_span(
      home_.id(), "discovery.round", home_.trace(),
      "want=" + std::to_string(want) + " ttl=" + std::to_string(ttl));

  auto on_response = [state, self, want](
                         const std::vector<p2p::Advertisement>& adverts) {
    if (state->finished) return;
    for (const auto& a : adverts) {
      if (a.provider == self) continue;
      if (std::find(state->found.begin(), state->found.end(), a.provider) ==
          state->found.end()) {
        state->found.push_back(a.provider);
        if (state->found.size() >= want) break;
      }
    }
  };

  const std::uint64_t qid =
      ttl > 0 ? node.discover_flood(query, ttl, on_response)
              : node.discover_rendezvous(query, on_response);

  // One deadline: report whatever arrived by then. We deliberately wait
  // the full timeout even when `want` is reached early -- responses keep
  // arriving and the deadline keeps the behaviour deterministic.
  home_.scheduler()(timeout_s,
                    [this, state, qid, dspan, done = std::move(done)]() {
                      if (state->finished) return;
                      state->finished = true;
                      home_.node().cancel(qid);
                      home_.tracer().end_span(
                          dspan, home_.id(), "discovery.round",
                          "found=" + std::to_string(state->found.size()));
                      if (trust_) {
                        // Rank best-first; drop quarantined peers.
                        std::stable_sort(
                            state->found.begin(), state->found.end(),
                            [this](const net::Endpoint& a,
                                   const net::Endpoint& b) {
                              return trust_->score(a.value) >
                                     trust_->score(b.value);
                            });
                        std::erase_if(state->found,
                                      [this](const net::Endpoint& e) {
                                        return trust_->quarantined(e.value);
                                      });
                      }
                      done(std::move(state->found));
                    });
}

std::shared_ptr<DistributedRun> TrianaController::distribute(
    const TaskGraph& g, const std::string& group_name,
    const std::vector<net::Endpoint>& workers) {
  if (workers.empty()) {
    throw std::invalid_argument("distribute: no workers");
  }
  const TaskDef& group = g.require_task(group_name);
  const std::string policy_name =
      group.policy.empty() ? "parallel" : group.policy;
  auto policy = make_policy(policy_name);

  auto run = std::make_shared<DistributedRun>();
  run->group = group_name;
  run->prefix = home_.id() + "/g" + std::to_string(next_run_++);

  // Root of the run's causal trace. The trace id is derived from the run
  // prefix (deterministic across replays of the same seed), unless the
  // home service already joined a trace, which this run then continues.
  if (home_.tracer()) {
    std::uint64_t tid = home_.trace().trace_id;
    if (tid == 0) tid = std::hash<std::string>{}(run->prefix) | 1;
    run->trace_id = tid;
    run->root_span = home_.tracer().begin_span(
        home_.id(), "run",
        obs::TraceContext{tid, home_.trace().parent_span, 0},
        "group=" + group_name +
            " workers=" + std::to_string(workers.size()));
    home_.join_trace(tid, run->root_span);
  }

  DistributionPlan plan =
      policy->plan(g, group_name, workers.size(), run->prefix);

  // Deploy fragments first so their input pipes are advertised by the time
  // home-side sends start binding.
  run->fragments.reserve(plan.fragments.size());
  for (std::size_t i = 0; i < plan.fragments.size(); ++i) {
    const net::Endpoint target = workers[i % workers.size()];
    run->workers.push_back(target);
    run->fragments.push_back(plan.fragments[i].clone());

    auto run_weak = std::weak_ptr<DistributedRun>(run);
    run->remote_jobs.push_back(home_.deploy_remote(
        target, plan.fragments[i], /*iterations=*/0,
        [this, run_weak, target](const DeployAckMsg& ack) {
          auto r = run_weak.lock();
          if (!r) return;
          if (ack.ok) {
            ++r->acks_ok;
          } else {
            ++r->acks_failed;
            r->errors.push_back(ack.error);
          }
          if (trust_) {
            trust_->record(target.value, ack.ok
                                             ? sandbox::TrustEvent::kSuccess
                                             : sandbox::TrustEvent::kFailure);
          }
        }));
  }

  run->home_job = home_.deploy_local(plan.home_graph, /*iterations=*/0);
  return run;
}

void TrianaController::report_disagreement(const net::Endpoint& worker) {
  if (trust_) {
    trust_->record(worker.value, sandbox::TrustEvent::kDisagreement);
  }
}

void TrianaController::tick(DistributedRun& run, std::uint64_t n) {
  home_.tick_job(run.home_job, n);
}

GraphRuntime* TrianaController::home_runtime(DistributedRun& run) {
  return home_.job_runtime(run.home_job);
}

void TrianaController::shutdown(DistributedRun& run) {
  for (std::size_t i = 0; i < run.remote_jobs.size(); ++i) {
    if (!run.remote_jobs[i].empty()) {
      home_.cancel_remote(run.workers[i], run.remote_jobs[i]);
    }
  }
  home_.cancel_local(run.home_job);
  if (run.root_span != 0) {
    home_.tracer().end_span(run.root_span, home_.id(), "run", "shutdown");
    run.root_span = 0;
  }
}

void TrianaController::migrate(std::shared_ptr<DistributedRun> run,
                               std::size_t idx,
                               const net::Endpoint& new_worker,
                               std::function<void(bool)> done) {
  if (idx >= run->fragments.size() || run->remote_jobs[idx].empty()) {
    done(false);
    return;
  }
  const net::Endpoint old_worker = run->workers[idx];
  const std::string old_job = run->remote_jobs[idx];

  home_.request_checkpoint(
      old_worker, old_job,
      [this, run, idx, new_worker, old_worker, old_job,
       done = std::move(done)](const CheckpointDataMsg& ckpt) {
        if (!ckpt.ok) {
          done(false);
          return;
        }
        home_.cancel_remote(old_worker, old_job);

        home_.deploy_remote(
            new_worker, run->fragments[idx], /*iterations=*/0,
            [this, run, idx, new_worker, done](const DeployAckMsg& ack) {
              if (!ack.ok) {
                done(false);
                return;
              }
              run->workers[idx] = new_worker;
              run->remote_jobs[idx] = ack.job_id;

              // Everyone sending into the moved fragment must re-resolve.
              rebind_inputs(*run, idx);
              done(true);
            },
            ckpt.state);
      });
}

std::size_t TrianaController::rebind_inputs(const DistributedRun& run,
                                            std::size_t idx,
                                            std::uint64_t epoch,
                                            const net::Endpoint& also) {
  auto& transport = home_.node().transport();
  std::size_t sent = 0;
  const auto send = [&](const net::Endpoint& to, const std::string& label) {
    transport.send(to, encode(RebindMsg{label, epoch}));
    ++sent;
  };
  for (const auto& label : channel_labels(run.fragments[idx]).inputs) {
    home_.rebind_channel(label);
    for (std::size_t j = 0; j < run.workers.size(); ++j) {
      if (j != idx) send(run.workers[j], label);
    }
    if (!also.empty()) send(also, label);
  }
  return sent;
}

}  // namespace cg::core
