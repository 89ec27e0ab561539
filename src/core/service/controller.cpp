#include "core/service/controller.hpp"

#include <algorithm>
#include <set>

namespace cg::core {

/// The plan's channel wiring, fixed when distribute() runs.
struct TrianaController::DeployOrder {
  std::vector<ChannelLabels> labels;             ///< per fragment
  std::map<std::string, std::size_t> served_by;  ///< input label -> fragment
  std::set<std::string> home_inputs;             ///< served by the home job
  /// Per fragment: its inputs the home job sends on.
  std::vector<std::vector<std::string>> fed_by_home;
  /// Fragment i is sent once every fragment in waits[i] has answered.
  std::vector<std::set<std::size_t>> waits;
};

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

  const std::size_t n = plan.fragments.size();
  for (std::size_t i = 0; i < n; ++i) {
    run->workers.push_back(workers[i % workers.size()]);
    run->fragments.push_back(std::move(plan.fragments[i]));
  }
  run->remote_jobs.assign(n, {});
  run->deploy_state.assign(n, FragmentDeploy::kHeld);

  // Deploy the fragments no other fragment's ack holds back -- every
  // fragment of a farm, the last stage of a pipeline -- then start the
  // home job. Its input pipes are served before this call returns, hence
  // before any deploy naming them can arrive anywhere. The rest go out as
  // their consumers ack.
  deploy_ready(run, order_deploys(run->fragments, plan.home_graph));
  run->home_job = home_.deploy_local(plan.home_graph, /*iterations=*/0);
  return run;
}

std::shared_ptr<const TrianaController::DeployOrder>
TrianaController::order_deploys(const std::vector<TaskGraph>& fragments,
                                const TaskGraph& home_graph) {
  auto order = std::make_shared<DeployOrder>();
  const std::size_t n = fragments.size();
  const ChannelLabels home = channel_labels(home_graph);
  order->home_inputs.insert(home.inputs.begin(), home.inputs.end());
  const std::set<std::string> home_outputs(home.outputs.begin(),
                                           home.outputs.end());
  order->fed_by_home.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    order->labels.push_back(channel_labels(fragments[i]));
    for (const auto& label : order->labels[i].inputs) {
      order->served_by.emplace(label, i);
      if (home_outputs.contains(label)) order->fed_by_home[i].push_back(label);
    }
  }
  order->waits.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& label : order->labels[i].outputs) {
      auto it = order->served_by.find(label);
      if (it != order->served_by.end() && it->second != i) {
        order->waits[i].insert(it->second);
      }
    }
  }
  // A pipeline wrapped round fewer workers than stages can have fragments
  // feeding each other, and a cycle has no downstream end. Mark, round by
  // round, the fragments whose waits are all on marked ones; whatever is
  // left sits on or behind a cycle and drops its waits on the unmarked, so
  // a cycle's members go out together and bind those channels lazily.
  std::vector<bool> ordered(n, false);
  for (bool grew = true; grew;) {
    grew = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!ordered[i] && std::ranges::all_of(order->waits[i],
                                             [&](std::size_t j) {
                                               return ordered[j];
                                             })) {
        ordered[i] = grew = true;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!ordered[i]) {
      std::erase_if(order->waits[i],
                    [&](std::size_t j) { return !ordered[j]; });
    }
  }
  return order;
}

void TrianaController::deploy_ready(
    const std::shared_ptr<DistributedRun>& run,
    const std::shared_ptr<const DeployOrder>& order) {
  for (std::size_t i = 0; i < run->fragments.size(); ++i) {
    if (run->deploy_state[i] == FragmentDeploy::kHeld &&
        std::ranges::all_of(order->waits[i], [&](std::size_t j) {
          return run->answered(j);
        })) {
      deploy_fragment(run, order, i);
    }
  }
}

void TrianaController::deploy_fragment(
    const std::shared_ptr<DistributedRun>& run,
    const std::shared_ptr<const DeployOrder>& order, std::size_t idx) {
  const net::Endpoint target = run->workers[idx];
  auto run_weak = std::weak_ptr<DistributedRun>(run);
  run->deploy_state[idx] = FragmentDeploy::kSent;
  run->remote_jobs[idx] = home_.deploy_remote(
      target, run->fragments[idx], /*iterations=*/0,
      [this, run_weak, order, idx, target](const DeployAckMsg& ack) {
        auto r = run_weak.lock();
        if (!r) return;
        if (!ack.ok && r->shut_down && ack.error == "cancelled") {
          // Our own shutdown's cancel caught the deploy: nobody failed.
          r->deploy_state[idx] = FragmentDeploy::kCancelled;
          return;
        }
        if (ack.ok) {
          r->deploy_state[idx] = FragmentDeploy::kLive;
          // Home's own sends into this fragment bind from the plan too.
          home_.cache_channel_hints(
              channel_hints(*r, *order, order->fed_by_home[idx]));
        } else {
          r->deploy_state[idx] = FragmentDeploy::kFailed;
          r->errors.push_back(ack.error);
        }
        if (trust_) {
          trust_->record(target.value, ack.ok
                                           ? sandbox::TrustEvent::kSuccess
                                           : sandbox::TrustEvent::kFailure);
        }
        deploy_ready(r, order);
      },
      /*checkpoint=*/{}, /*options=*/{},
      channel_hints(*run, *order, order->labels[idx].outputs));
}

ChannelMap TrianaController::channel_hints(
    const DistributedRun& run, const DeployOrder& order,
    const std::vector<std::string>& labels) const {
  ChannelMap out;
  for (const auto& label : labels) {
    if (order.home_inputs.contains(label)) {
      out[label] = ChannelHint{home_.endpoint(), 0};
    } else if (auto it = order.served_by.find(label);
               it != order.served_by.end() &&
               run.deploy_state[it->second] == FragmentDeploy::kLive) {
      out[label] = ChannelHint{run.workers[it->second], 0};
    }
  }
  return out;
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
  run.shut_down = true;
  for (std::size_t i = 0; i < run.remote_jobs.size(); ++i) {
    if (run.deploy_state[i] == FragmentDeploy::kHeld) {
      run.deploy_state[i] = FragmentDeploy::kCancelled;
    } else if (!run.remote_jobs[i].empty()) {
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
