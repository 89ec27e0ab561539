#include "core/engine/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "core/graph/validate.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace cg::core {

GraphRuntime::GraphRuntime(const TaskGraph& graph,
                           const UnitRegistry& registry,
                           RuntimeOptions options)
    : options_(options) {
  TaskGraph flat = flatten(graph);
  validate_or_throw(flat, registry);

  // Instantiate and configure units.
  nodes_.reserve(flat.tasks().size());
  for (const auto& t : flat.tasks()) {
    Node n;
    n.name = t.name;
    n.unit = registry.create(t.unit_type);
    n.info = &registry.info(t.unit_type);
    n.unit->configure(t.params);
    // Per-task deterministic random stream.
    n.rng = dsp::Rng(options_.rng_seed ^
                     std::hash<std::string>{}(t.name));
    n.pending.resize(n.info->inputs.size());
    n.connected.assign(n.info->inputs.size(), false);
    n.routes.resize(n.info->outputs.size());
    n.is_receive = (t.unit_type == "Receive");
    n.serial_only = (n.info->concurrency == Concurrency::kSerialOnly);
    // Memoization applies to kPure units only: no instance state (enforced
    // below) and no external effects, so a firing is a function of (type,
    // params, inputs) -- unless it reads the RNG or the iteration counter,
    // which invoke() detects per firing via the ProcessContext flags.
    if (options_.memo_store && n.info->concurrency == Concurrency::kPure) {
      n.memoizable = true;
      serial::Writer pw;
      pw.string(t.unit_type);
      pw.varint(t.params.raw().size());
      for (const auto& [k, v] : t.params.raw()) {
        pw.string(k);
        pw.string(v);
      }
      n.memo_prefix = pw.take();
    }
    // Enforce the purity half of the threading contract: a unit claiming
    // kPure must not carry serialisable state (the other half -- no
    // external effects -- is what kSerialOnly exists to declare).
    if (n.info->concurrency == Concurrency::kPure &&
        !n.unit->save_state().empty()) {
      throw std::logic_error("unit type '" + t.unit_type +
                             "' declares Concurrency::kPure but serialises "
                             "state; declare it kStateful");
    }

    const std::size_t idx = nodes_.size();
    by_name_[n.name] = idx;
    if (n.info->is_source) sources_.push_back(idx);
    if (n.is_receive) {
      const std::string label = t.params.get("label", "");
      if (receive_by_label_.contains(label)) {
        throw std::invalid_argument("duplicate Receive label: " + label);
      }
      receive_by_label_[label] = idx;
    }
    if (auto* out = dynamic_cast<ChannelOut*>(n.unit.get())) {
      out->set_sender([this](const std::string& label, DataItem item) {
        ++stats_.external_sends;
        stats_.bytes_sent_external += item.byte_size();
        if (!external_sender_) {
          throw std::logic_error(
              "Send unit fired but no external sender is installed (label '" +
              label + "')");
        }
        external_sender_(label, std::move(item));
      });
    }
    nodes_.push_back(std::move(n));
  }

  // Wire routes and connected-input flags.
  for (const auto& c : flat.connections()) {
    const std::size_t from = by_name_.at(c.from_task);
    const std::size_t to = by_name_.at(c.to_task);
    nodes_[from].routes[c.from_port].emplace_back(to, c.to_port);
    nodes_[to].connected[c.to_port] = true;
  }
  queued_.assign(nodes_.size(), false);

  if (options_.max_threads > 0) {
    pool_ = std::make_unique<rm::ThreadPool>(options_.max_threads);
  }
}

void GraphRuntime::set_external_sender(ChannelOut::Sender sender) {
  external_sender_ = std::move(sender);
}

void GraphRuntime::set_obs(obs::Registry& registry, const std::string& scope) {
  wave_width_h_ = registry.histogram(
      obs::scoped(scope, "runtime.wave_width"),
      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
  barrier_stall_h_ = registry.histogram(
      obs::scoped(scope, "runtime.barrier_stall_seconds"),
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0});
  parallelism_g_ = registry.gauge(obs::scoped(scope, "runtime.parallelism"));
  waves_c_ = registry.counter(obs::scoped(scope, "runtime.waves"));
  memo_hits_c_ = registry.counter(obs::scoped(scope, "runtime.memo_hits"));
  memo_misses_c_ =
      registry.counter(obs::scoped(scope, "runtime.memo_misses"));
}

void GraphRuntime::set_trace(obs::TracerRef tracer, std::string node,
                             const obs::TraceContext& ctx, std::string tag) {
  tracer_ = tracer;
  trace_node_ = std::move(node);
  trace_ctx_ = ctx;
  trace_tag_ = tag.empty() ? std::string() : tag + " ";
}

bool GraphRuntime::ready(const Node& n) const {
  if (n.is_receive) return false;  // fed by deliver(), never fires
  bool any_connected = false;
  for (std::size_t p = 0; p < n.connected.size(); ++p) {
    if (!n.connected[p]) continue;
    any_connected = true;
    if (n.pending[p].empty()) return false;
  }
  // A unit with no connected inputs only fires as a source (via tick).
  return any_connected;
}

namespace {

/// Memo value layout: varint emission count, then per emission a varint
/// port and a blob-encoded DataItem -- exactly what invoke() returns.
serial::Bytes encode_emissions(
    const std::vector<std::pair<std::size_t, DataItem>>& emissions) {
  serial::Writer w;
  w.varint(emissions.size());
  for (const auto& [port, item] : emissions) {
    w.varint(port);
    w.blob(encode_data_item(item));
  }
  return w.take();
}

std::vector<std::pair<std::size_t, DataItem>> decode_emissions(
    const serial::Bytes& bytes) {
  serial::Reader r(bytes);
  std::vector<std::pair<std::size_t, DataItem>> out;
  const std::uint64_t count = r.varint();
  // Each emission takes at least two bytes (port varint, blob length), so
  // the count cannot honestly exceed half of what is left; the loop below
  // throws DecodeError on a count that lies.
  out.reserve(std::min<std::uint64_t>(count, r.remaining() / 2));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::size_t port = static_cast<std::size_t>(r.varint());
    out.emplace_back(port, decode_data_item(r.blob()));
  }
  return out;
}

}  // namespace

std::vector<std::pair<std::size_t, DataItem>> GraphRuntime::invoke(
    std::size_t idx) {
  Node& n = nodes_[idx];
  std::vector<DataItem> inputs(n.pending.size());
  for (std::size_t p = 0; p < n.pending.size(); ++p) {
    if (!n.pending[p].empty()) {
      inputs[p] = std::move(n.pending[p].front());
      n.pending[p].pop_front();
    }
  }

  // Memo key: the SHA-256 of unit type + params (pre-encoded prefix) + the
  // exact encoded input bytes, used as the store's ref key as it is. The
  // hashed bytes are those a serial::Writer would produce for (prefix,
  // varint count, blob per input), fed to the hasher piece by piece
  // rather than gathered into one buffer first. Runs on pool threads in
  // wave mode -- the store is thread-safe, the counters atomic, and
  // nothing here touches shared runtime state.
  cas::Digest memo_key;
  if (n.memoizable) {
    cas::Sha256 h;
    const auto varint = [&h](std::uint64_t v) {
      std::uint8_t buf[10];
      std::size_t len = 0;
      for (; v >= 0x80; v >>= 7) {
        buf[len++] = static_cast<std::uint8_t>(v) | 0x80u;
      }
      buf[len++] = static_cast<std::uint8_t>(v);
      h.update(buf, len);
    };
    h.update(n.memo_prefix);
    varint(inputs.size());
    for (const auto& item : inputs) {
      const serial::Bytes encoded = encode_data_item(item);
      varint(encoded.size());
      h.update(encoded);
    }
    memo_key = h.finish();
    if (auto stored = options_.memo_store->get_by_key(memo_key)) {
      try {
        auto emissions = decode_emissions(*stored);
        ++n.firings;
        memo_hits_.fetch_add(1, std::memory_order_relaxed);
        memo_hits_c_.inc();
        return emissions;
      } catch (const serial::DecodeError&) {
        // Key resolved to bytes that are not an emission record (ref
        // collision with another keyspace): recompute below.
      }
    }
  }

  ProcessContext ctx(std::move(inputs), iteration_, &n.rng, options_.sandbox);
  n.unit->process(ctx);
  ++n.firings;
  for (auto& [port, item] : ctx.emissions()) {
    if (port >= n.routes.size()) {
      throw std::logic_error("unit '" + n.name + "' emitted on port " +
                             std::to_string(port) + " which it never declared");
    }
    (void)item;
  }

  if (n.memoizable) {
    memo_misses_.fetch_add(1, std::memory_order_relaxed);
    memo_misses_c_.inc();
    // Only firings that were a pure function of their inputs are stored: a
    // firing that read the RNG depends on (and advances) stream position,
    // and one that read the iteration counter depends on tick number, so
    // replaying either would change later behaviour. Conversely, a stored
    // firing touched neither -- replaying it skips no RNG draws and the
    // streams stay aligned with a recomputing run.
    if (!ctx.rng_used() && !ctx.iteration_used()) {
      options_.memo_store->put_keyed(memo_key, encode_emissions(ctx.emissions()));
    }
  }
  return std::move(ctx.emissions());
}

void GraphRuntime::fire(std::size_t idx) {
  auto emissions = invoke(idx);
  ++stats_.firings;
  for (auto& [port, item] : emissions) {
    route(idx, port, std::move(item));
  }
}

void GraphRuntime::route(std::size_t from_idx, std::size_t port,
                         DataItem item) {
  const auto& targets = nodes_[from_idx].routes[port];
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto [to, to_port] = targets[i];
    // Copy for fan-out; move the last one.
    DataItem payload = (i + 1 == targets.size()) ? std::move(item) : item;
    nodes_[to].pending[to_port].push_back(std::move(payload));
    ++stats_.items_routed;
    if (!queued_[to]) {
      queued_[to] = true;
      worklist_.push_back(to);
    }
  }
}

void GraphRuntime::drain() {
  while (!worklist_.empty()) {
    const std::size_t idx = worklist_.front();
    worklist_.pop_front();
    queued_[idx] = false;
    // Fire as long as it stays ready (several items may be queued).
    while (ready(nodes_[idx])) fire(idx);
  }
}

void GraphRuntime::tick() {
  if (pool_) {
    tick_wave(*pool_);
    return;
  }
  ++iteration_;
  ++stats_.ticks;
  const std::uint64_t span =
      tracer_ ? tracer_.begin_span(
                    trace_node_, "runtime.tick", trace_ctx_,
                    trace_tag_ + "iter=" + std::to_string(iteration_))
              : 0;
  const std::uint64_t fired_before = stats_.firings;
  for (std::size_t idx : sources_) fire(idx);
  drain();
  if (span != 0) {
    tracer_.end_span(span, trace_node_, "runtime.tick",
                     "fired=" + std::to_string(stats_.firings - fired_before));
  }
}

void GraphRuntime::run(std::uint64_t iterations) {
  for (std::uint64_t i = 0; i < iterations; ++i) tick();
}

void GraphRuntime::tick_parallel(rm::ThreadPool& pool) { tick_wave(pool); }

void GraphRuntime::run_parallel(rm::ThreadPool& pool,
                                std::uint64_t iterations) {
  for (std::uint64_t i = 0; i < iterations; ++i) tick_wave(pool);
}

void GraphRuntime::tick_wave(rm::ThreadPool& pool) {
  ++iteration_;
  ++stats_.ticks;
  const std::uint64_t span =
      tracer_ ? tracer_.begin_span(
                    trace_node_, "runtime.tick", trace_ctx_,
                    trace_tag_ + "iter=" + std::to_string(iteration_))
              : 0;

  // Wave 0: the sources (index-ascending by construction). Each later
  // wave is every node made ready by the previous commit.
  std::vector<std::size_t> wave = sources_;
  std::uint64_t waves = 0;
  std::uint64_t fired = 0;
  double stall_s = 0.0;
  while (!wave.empty()) {
    ++waves;
    fired += wave.size();
    wave_width_h_.observe(static_cast<double>(wave.size()));
    stall_s += dispatch_wave(pool, wave);
    collect_next_wave(wave);
  }
  waves_c_.inc(waves);
  if (waves > 0) {
    parallelism_g_.set(static_cast<double>(fired) /
                       static_cast<double>(waves));
  }
  if (span != 0) {
    tracer_.end_span(span, trace_node_, "runtime.tick",
                     "fired=" + std::to_string(fired) +
                         " waves=" + std::to_string(waves) +
                         " barrier_stall_s=" + std::to_string(stall_s));
  }
}

double GraphRuntime::dispatch_wave(rm::ThreadPool& pool,
                                   const std::vector<std::size_t>& wave) {
  const std::size_t n = wave.size();
  std::vector<std::vector<std::pair<std::size_t, DataItem>>> results(n);
  std::vector<std::exception_ptr> errors(n);

  // Parallel-safe members go to the pool in one batch; serial-only
  // members (external side effects: Send/Scatter/Broadcast) fire on this
  // thread while the batch runs, so sender hooks never leave the
  // coordinator. Each slot touches only its own node -- queues were
  // populated by earlier, serial commits.
  std::vector<std::function<void()>> tasks;
  std::vector<std::size_t> serial_slots;
  tasks.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    if (nodes_[wave[w]].serial_only) {
      serial_slots.push_back(w);
      continue;
    }
    tasks.push_back([this, &wave, &results, &errors, w] {
      try {
        results[w] = invoke(wave[w]);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  rm::ThreadPool::Batch batch = pool.submit_batch(std::move(tasks));
  for (std::size_t w : serial_slots) {
    try {
      results[w] = invoke(wave[w]);
    } catch (...) {
      errors[w] = std::current_exception();
    }
  }
  const auto stall_begin = std::chrono::steady_clock::now();
  batch.wait();
  const double stall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    stall_begin)
          .count();
  barrier_stall_h_.observe(stall_s);

  // Deterministic error surfacing: the lowest-index failure wins,
  // independent of which worker lost the race.
  for (const auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }

  // Commit at the barrier in ascending unit-index order (`wave` is
  // sorted). Per-port arrival order matches the serial engine because
  // validation allows one producer per input port; the fixed order
  // additionally pins stats and multi-port interleavings.
  stats_.firings += n;
  for (std::size_t w = 0; w < n; ++w) {
    for (auto& [port, item] : results[w]) {
      route(wave[w], port, std::move(item));
    }
  }
  return stall_s;
}

void GraphRuntime::collect_next_wave(std::vector<std::size_t>& wave) {
  std::vector<std::size_t> next;
  while (!worklist_.empty()) {
    const std::size_t idx = worklist_.front();
    worklist_.pop_front();
    queued_[idx] = false;
    if (ready(nodes_[idx])) next.push_back(idx);
  }
  // A just-fired node with further backlogged items (possible after a
  // checkpoint restore) re-enters the wave so nothing strands.
  for (std::size_t idx : wave) {
    if (ready(nodes_[idx]) &&
        std::find(next.begin(), next.end(), idx) == next.end()) {
      next.push_back(idx);
    }
  }
  std::sort(next.begin(), next.end());
  wave = std::move(next);
}

bool GraphRuntime::deliver(const std::string& label, DataItem item) {
  auto it = receive_by_label_.find(label);
  if (it == receive_by_label_.end()) return false;
  ++stats_.external_deliveries;
  route(it->second, 0, std::move(item));
  drain();
  return true;
}

std::vector<std::string> GraphRuntime::receive_labels() const {
  std::vector<std::string> out;
  out.reserve(receive_by_label_.size());
  for (const auto& [label, idx] : receive_by_label_) out.push_back(label);
  return out;
}

Unit* GraphRuntime::unit(const std::string& task_name) {
  auto it = by_name_.find(task_name);
  return it == by_name_.end() ? nullptr : nodes_[it->second].unit.get();
}

std::uint64_t GraphRuntime::firings_of(const std::string& task_name) const {
  auto it = by_name_.find(task_name);
  return it == by_name_.end() ? 0 : nodes_[it->second].firings;
}

serial::Bytes GraphRuntime::save_checkpoint() const {
  serial::Writer w;
  w.u64(iteration_);
  w.varint(nodes_.size());
  for (const auto& n : nodes_) {
    w.string(n.name);
    w.blob(n.unit->save_state());
    w.varint(n.pending.size());
    for (const auto& q : n.pending) {
      w.varint(q.size());
      for (const auto& item : q) w.blob(encode_data_item(item));
    }
  }
  return w.take();
}

void GraphRuntime::restore_checkpoint(const serial::Bytes& data) {
  serial::Reader r(data);
  iteration_ = r.u64();
  const std::uint64_t count = r.varint();
  if (count != nodes_.size()) {
    throw std::invalid_argument("checkpoint task count mismatch");
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string name = r.string();
    auto it = by_name_.find(name);
    if (it == by_name_.end()) {
      throw std::invalid_argument("checkpoint names unknown task '" + name +
                                  "'");
    }
    Node& n = nodes_[it->second];
    const serial::Bytes state = r.blob();
    n.unit->reset();
    if (!state.empty()) n.unit->restore_state(state);
    const std::uint64_t ports = r.varint();
    if (ports != n.pending.size()) {
      throw std::invalid_argument("checkpoint port count mismatch for '" +
                                  name + "'");
    }
    for (auto& q : n.pending) {
      q.clear();
      const std::uint64_t items = r.varint();
      for (std::uint64_t k = 0; k < items; ++k) {
        q.push_back(decode_data_item(r.blob()));
      }
    }
  }
}

void GraphRuntime::reset() {
  iteration_ = 0;
  stats_ = {};
  worklist_.clear();
  queued_.assign(nodes_.size(), false);
  for (auto& n : nodes_) {
    n.unit->reset();
    n.firings = 0;
    for (auto& q : n.pending) q.clear();
  }
}

}  // namespace cg::core
