#include "stack.hpp"

#include <thread>

#include "apps/galaxy/units.hpp"
#include "apps/gw/units.hpp"
#include "core/unit/builtin.hpp"
#include "dsp/rng.hpp"
#include "net/loopback.hpp"

namespace perfbench {

using namespace cg;

namespace {

/// Decorator between a service and its backend node: times send() and the
/// dispatch of every delivered frame (which contains the whole handler
/// chain -- reliable layer, discovery, pipes, code exchange, control, and
/// the units and sends it triggers, subtracted as nested spans).
class TimedTransport final : public net::Transport {
 public:
  TimedTransport(net::Transport& inner, Tracer& t) : inner_(inner), t_(t) {}

  net::Endpoint local() const override { return inner_.local(); }
  void send(const net::Endpoint& to, serial::Frame frame) override {
    Span s(&t_, t_.send);
    inner_.send(to, std::move(frame));
  }
  void set_handler(net::FrameHandler handler) override {
    inner_.set_handler(
        [this, h = std::move(handler)](const net::Endpoint& from,
                                       serial::Frame f) {
          Span s(&t_, t_.dispatch);
          h(from, std::move(f));
        });
  }
  std::size_t poll() override { return inner_.poll(); }
  void flush() override {
    Span s(&t_, t_.send);
    inner_.flush();
  }

 private:
  net::Transport& inner_;
  Tracer& t_;
};

/// Forwards everything to the real unit; times process().
class TimedUnit final : public core::Unit {
 public:
  TimedUnit(std::unique_ptr<core::Unit> inner, Tracer& t, std::size_t layer)
      : inner_(std::move(inner)), t_(t), layer_(layer) {}

  const core::UnitInfo& info() const override { return inner_->info(); }
  void configure(const core::ParamSet& p) override { inner_->configure(p); }
  void process(core::ProcessContext& ctx) override {
    Span s(&t_, layer_);
    inner_->process(ctx);
  }
  serial::Bytes save_state() const override { return inner_->save_state(); }
  void restore_state(const serial::Bytes& b) override {
    inner_->restore_state(b);
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<core::Unit> inner_;
  Tracer& t_;
  std::size_t layer_;
};

/// Home-graph source: emits whatever the benchmark's generator hands it.
class LedgerSource final : public core::Unit {
 public:
  LedgerSource(Hooks& h, Tracer* t) : h_(h), t_(t) {}
  static core::UnitInfo make_info() {
    core::UnitInfo i;
    i.type_name = "LedgerSource";
    i.package = "perfbench";
    i.description = "Emits the benchmark generator's next input";
    i.outputs = {core::PortSpec{"item", core::kAnyType}};
    i.is_source = true;
    i.concurrency = core::Concurrency::kSerialOnly;
    return i;
  }
  const core::UnitInfo& info() const override {
    static const core::UnitInfo i = make_info();
    return i;
  }
  void process(core::ProcessContext& ctx) override {
    core::DataItem item;
    {
      Span s(t_, t_ ? t_->harness : 0);
      item = h_.next_input();
    }
    ctx.emit(0, std::move(item));
  }

 private:
  Hooks& h_;
  Tracer* t_;
};

/// Home-graph sink: hands each result to the benchmark's checker.
class LedgerSink final : public core::Unit {
 public:
  LedgerSink(Hooks& h, Tracer* t) : h_(h), t_(t) {}
  static core::UnitInfo make_info() {
    core::UnitInfo i;
    i.type_name = "LedgerSink";
    i.package = "perfbench";
    i.description = "Checks and timestamps results for the benchmark";
    i.inputs = {core::PortSpec{"item", core::kAnyType}};
    i.concurrency = core::Concurrency::kSerialOnly;
    return i;
  }
  const core::UnitInfo& info() const override {
    static const core::UnitInfo i = make_info();
    return i;
  }
  void configure(const core::ParamSet& p) override {
    tag_ = static_cast<int>(p.get_int("tag", 0));
  }
  void process(core::ProcessContext& ctx) override {
    Span s(t_, t_ ? t_->harness : 0);
    h_.on_result(tag_, ctx.input(0));
  }

 private:
  Hooks& h_;
  Tracer* t_;
  int tag_ = 0;
};

bool is_proxy(const std::string& type) {
  return type == "Send" || type == "Receive" || type == "Scatter" ||
         type == "Broadcast";
}

}  // namespace

core::UnitRegistry make_registry(Hooks& hooks, Tracer* tracer) {
  core::UnitRegistry r = core::UnitRegistry::with_builtins();
  galaxy::register_galaxy_units(r);
  gw::register_gw_units(r);
  if (tracer != nullptr) {
    // Proxies stay unwrapped: the runtime installs its sender by casting
    // them to their concrete classes.
    auto base = std::make_shared<const core::UnitRegistry>(r);
    for (const std::string& type : base->type_names()) {
      if (is_proxy(type)) continue;
      const std::size_t layer = tracer->ledger.layer("apps." + type);
      r.add(base->info(type), [base, type, tracer, layer] {
        return std::make_unique<TimedUnit>(base->create(type), *tracer, layer);
      });
    }
  }
  r.add(LedgerSource::make_info(),
        [&hooks, tracer] { return std::make_unique<LedgerSource>(hooks, tracer); });
  r.add(LedgerSink::make_info(),
        [&hooks, tracer] { return std::make_unique<LedgerSink>(hooks, tracer); });
  return r;
}

World::World(const WorldOptions& opt, const core::UnitRegistry& registry,
             Tracer* tracer)
    : tracer_(tracer) {
  if (opt.sim) {
    be_ = std::make_unique<net::SimBackend>(opt.link, opt.seed);
  } else {
    be_ = std::make_unique<net::TcpLoopbackBackend>();
  }
  net::Scheduler sched = be_->scheduler();
  if (tracer_ != nullptr) {
    sched = [inner = std::move(sched), t = tracer_](double d,
                                                    std::function<void()> fn) {
      inner(d, [t, fn = std::move(fn)] {
        Span s(t, t->timer);
        fn();
      });
    };
  }

  for (std::size_t i = 0; i <= opt.peers; ++i) {
    net::Transport* tr = &be_->add_node();
    if (tracer_ != nullptr) {
      wraps_.push_back(std::make_unique<TimedTransport>(*tr, *tracer_));
      tr = wraps_.back().get();
    }
    core::ServiceConfig cfg;
    cfg.peer_id = "home";
    if (i > 0) cfg.peer_id = std::string("w").append(std::to_string(i - 1));
    // Case 2 bills modelled 2003-PC seconds and the farms ship hundreds of
    // MB per run: budgets must never fail a job mid-run.
    cfg.sandbox_policy.max_cpu_seconds = 1e12;
    cfg.sandbox_policy.max_network_bytes = 1ull << 60;
    cfg.rng_seed = opt.seed * 1000 + i;
    cfg.reliable.seed = opt.seed * 7919 + i;
    cfg.reliable.batch = opt.batch;
    if (opt.cas_memo) {
      stores_.push_back(std::make_unique<cas::ContentStore>());
      cfg.cas = stores_.back().get();
      cfg.memoize_pure_units = true;
    }
    svcs_.push_back(std::make_unique<core::TrianaService>(
        *tr, be_->clock(), sched, registry, cfg));
  }

  auto link = [this](std::size_t a, std::size_t b) {
    svcs_[a]->node().add_neighbor(svcs_[b]->endpoint());
    svcs_[b]->node().add_neighbor(svcs_[a]->endpoint());
  };
  if (opt.sim) {
    // Volunteer overlay: a ring with two random chords per peer; home
    // knows three peers. Discovery floods over it. The overlay is the same
    // for every seed, so seeds vary inputs and loss, not the hop distances
    // that set discovery and bind times.
    dsp::Rng rng(0x70901091ull);
    const std::size_t n = opt.peers;
    for (std::size_t i = 0; i < n; ++i) {
      link(1 + i, 1 + (i + 1) % n);
      for (int c = 0; c < 2; ++c) {
        const std::size_t j = rng.below(n);
        if (j != i) link(1 + i, 1 + j);
      }
    }
    for (int c = 0; c < 3; ++c) link(0, 1 + rng.below(n));
    for (std::size_t i = 1; i <= n; ++i) svcs_[i]->announce();
  } else {
    for (std::size_t i = 1; i <= opt.peers; ++i) link(0, i);
  }
  ctl_ = std::make_unique<core::TrianaController>(*svcs_.front());
}

std::vector<net::Endpoint> World::peer_endpoints() const {
  std::vector<net::Endpoint> out;
  for (std::size_t i = 1; i < svcs_.size(); ++i) {
    out.push_back(svcs_[i]->endpoint());
  }
  return out;
}

bool World::drive(double deadline, const std::function<bool()>& done) {
  auto* tcp = dynamic_cast<net::TcpLoopbackBackend*>(be_.get());
  if (tcp == nullptr) {
    Span s(tracer_, tracer_ ? tracer_->pump : 0);
    return be_->run_until(deadline, done);
  }
  while (!done()) {
    if (tcp->now() >= deadline) break;
    bool moved = false;
    {
      Span s(tracer_, tracer_ ? tracer_->pump : 0);
      moved = tcp->pump();
    }
    if (!moved) {
      Span s(tracer_, tracer_ ? tracer_->idle : 0);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  return done();
}

Counters World::counters() const {
  Counters c;
  for (const auto& s : svcs_) {
    const auto& rs = s->reliable().stats();
    c.rel_sent += rs.sent;
    c.rel_retx += rs.retransmits;
    c.rel_delivered += rs.delivered;
    c.batches += rs.batches_sent;
    c.coalesced += rs.frames_coalesced;
    const auto& ps = s->node().stats();
    c.queries += ps.queries_initiated;
    c.query_msgs += ps.queries_forwarded + ps.responses_sent;
    const auto& ms = s->module_cache().stats();
    c.cache_hits += ms.hits;
    c.cache_misses += ms.misses;
    c.code_bytes += s->code().stats().bytes_received;
    c.pipe_payloads += s->pipes().stats().payloads_sent;
  }
  for (const auto& st : stores_) {
    const cas::CasStats cs = st->stats();
    c.cas_hits += cs.mem_hits + cs.disk_hits;
    c.cas_misses += cs.misses;
  }
  if (auto* tcp = dynamic_cast<net::TcpLoopbackBackend*>(be_.get())) {
    for (std::size_t i = 0; i < svcs_.size(); ++i) {
      const auto& ts = tcp->tcp(i).stats();
      c.tcp_writev += ts.writev_calls;
      c.tcp_reads += ts.read_calls;
      c.tcp_bytes += ts.bytes_sent;
    }
  } else if (auto* sim = dynamic_cast<net::SimBackend*>(be_.get())) {
    c.sim_msgs += sim->net().stats().messages_sent;
  }
  return c;
}

}  // namespace perfbench
