#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "apps/galaxy/sph.hpp"
#include "apps/gw/search.hpp"
#include "apps/gw/units.hpp"
#include "cas/hash.hpp"
#include "core/graph/taskgraph_xml.hpp"
#include "dsp/rng.hpp"
#include "serial/crc32.hpp"
#include "serial/frame.hpp"
#include "stack.hpp"

namespace perfbench {
namespace {

using namespace cg;
using core::DataItem;
using Rows = std::vector<SpanLedger::Row>;

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
/// setup_s is the median of fresh setups: at least kMinSetups, and more
/// until kSetupBudgetS of wall time has gone into them, so the ms-long
/// setups of most workloads are sampled tens of times.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 41;
constexpr double kSetupBudgetS = 2.0;
/// Open-loop chunk rate of inspiral-stream: about half of the ~24 chunks/s
/// the three-worker farm sustains on one pump thread (41 ms of CPU per
/// chunk on a 4-core x86 box, GCC 12 Release).
constexpr double kInspiralRate = 12.0;
/// Closed-loop windows, from sweeps of items_per_s and p50 latency against
/// the window (perfbench/README.md). galaxy-farm is CPU-bound on the one
/// pump thread from a window of 1 (~300 frames/s at windows 1 to 12), so a
/// larger window adds only queueing latency; 3 gives each worker one frame,
/// as in the paper's Case 1 farm.
constexpr std::size_t kGalaxyWindow = 3;
/// pipeline-chatter: below 16 items in flight the wire batches flush on the
/// 2 ms timer at every hop (~0.6k-1.1k items/s); from 16 they fill the
/// 16 KiB byte limit (~14k items/s). 32 sits at twice the knee, so a codec
/// change of a few bytes per item cannot flip the flush rule.
constexpr std::size_t kPipelineWindow = 32;
/// The paper's Case 2 scale (section 3.6.2, EXPERIMENTS E3).
constexpr double kPaperTemplates = 7500.0;
constexpr double kPaperChunkSamples = 900.0 * 2000.0;
constexpr double kPaperChunkSeconds = 900.0;

template <typename... A>
std::string fmt(const char* f, A... a) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), f, a...);
  return buf;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ------------------------------------------------------------- workloads

/// Everything that differs between workloads. Inputs are generated from
/// the seed and cycled: item `seq` carries inputs[seq % inputs.size()], and
/// expected[k] is the oracle's result for inputs[k], computed in-process
/// through the same public functions with no network.
struct Spec {
  std::string name;
  WorldOptions world;
  core::TaskGraph graph;
  std::string group;
  std::vector<DataItem> inputs;
  std::vector<DataItem> expected;
  std::vector<int> expected_flag;  ///< inspiral: detection flag per input
  std::vector<DataItem> wire;      ///< items crossing a pipe for one item
  std::size_t window = 0;          ///< closed loop: items in flight
  double rate = 0.0;               ///< open loop: items per second
  std::size_t cycle_items = 0;     ///< redeploy: items per deploy cycle
  std::size_t templates = 0;       ///< inspiral: templates per chunk
};

core::ParamSet sink_params(int tag) {
  core::ParamSet p;
  p.set_int("tag", tag);
  return p;
}

/// Case 1: RenderFrame farmed over three workers, frames back to the sink.
Spec galaxy_spec(std::uint64_t seed) {
  Spec s;
  s.name = "galaxy-farm";
  s.group = "Farm";
  s.window = kGalaxyWindow;
  s.world.peers = 3;
  s.world.seed = seed;
  dsp::Rng rng(seed);

  core::ParamSet rp;
  rp.set_int("particles", 2000);
  rp.set_int("frames", 50);
  rp.set_int("grid", 128);
  rp.set_double("azimuth", rng.uniform(0.0, 6.28));
  rp.set_double("elevation", rng.uniform(-0.6, 0.6));
  rp.set_int("seed", static_cast<long long>(rng.below(1u << 30)));

  // The oracle reads the view back from the params, as RenderFrame does.
  galaxy::SimulationSpec sim;
  sim.n_particles = 2000;
  sim.n_frames = 50;
  sim.seed = static_cast<std::uint64_t>(rp.get_int("seed", 42));
  galaxy::View view;
  view.grid = 128;
  view.azimuth_rad = rp.get_double("azimuth", 0.0);
  view.elevation_rad = rp.get_double("elevation", 0.0);

  std::vector<std::int64_t> frames(50);
  std::iota(frames.begin(), frames.end(), 0);
  for (std::size_t i = frames.size() - 1; i > 0; --i) {
    std::swap(frames[i], frames[rng.below(i + 1)]);
  }
  frames.resize(12);
  for (std::int64_t f : frames) {
    s.inputs.emplace_back(f);
    s.expected.emplace_back(galaxy::project_column_density(
        galaxy::snapshot_at(sim, static_cast<std::size_t>(f)), view));
  }
  s.wire = {s.inputs[0], s.expected[0]};

  core::TaskGraph inner("render");
  inner.add_task("Render", "RenderFrame", rp);
  core::TaskGraph g("galaxy");
  g.add_task("Frames", "LedgerSource");
  core::TaskDef& grp = g.add_group("Farm", std::move(inner), "parallel");
  grp.group_inputs = {core::GroupPort{"Render", 0}};
  grp.group_outputs = {core::GroupPort{"Render", 1}};
  g.add_task("Anim", "LedgerSink", sink_params(0));
  g.connect("Frames", 0, "Farm", 0);
  g.connect("Farm", 0, "Anim", 0);
  s.graph = std::move(g);
  return s;
}

/// Case 2: StrainSource chunks matched-filtered by an InspiralFilter farm.
Spec inspiral_spec(std::uint64_t seed) {
  Spec s;
  s.name = "inspiral-stream";
  s.group = "Scan";
  s.rate = kInspiralRate;
  s.templates = 8;
  s.world.peers = 3;
  s.world.seed = seed;

  core::ParamSet sp;
  sp.set_int("samples", 16384);
  sp.set_int("inject_every", 3);
  sp.set_double("inject_amp", 4.0);
  sp.set_double("chirp_mass", 1.5);
  sp.set_double("f_low", 150.0);
  gw::StrainSourceUnit source;
  source.configure(sp);

  gw::BankSpec bank_spec;
  bank_spec.n_templates = s.templates;
  bank_spec.f_low_hz = 150.0;
  const gw::TemplateBank bank(bank_spec);
  dsp::Rng rng(seed);
  for (std::uint64_t k = 0; k < 8; ++k) {
    core::ProcessContext ctx({}, k, &rng, nullptr);
    source.process(ctx);
    DataItem chunk = std::move(ctx.emissions().at(0).second);
    const gw::SearchResult r =
        gw::scan_chunk(chunk.samples().samples, bank, 0, s.templates);
    s.expected.emplace_back(r.best_snr);
    s.expected_flag.push_back(gw::detected(r, 8.0) ? 1 : 0);
    s.inputs.push_back(std::move(chunk));
  }
  s.wire = {s.inputs[0], s.expected[0],
            DataItem(static_cast<std::int64_t>(s.expected_flag[0]))};

  core::TaskGraph inner("scan");
  core::ParamSet fp;
  fp.set_int("n_templates", static_cast<long long>(s.templates));
  fp.set_double("f_low", 150.0);
  fp.set_double("threshold", 8.0);
  inner.add_task("Filter", "InspiralFilter", fp);
  core::TaskGraph g("inspiral");
  g.add_task("Detector", "LedgerSource");
  core::TaskDef& grp = g.add_group("Scan", std::move(inner), "parallel");
  grp.group_inputs = {core::GroupPort{"Filter", 0}};
  grp.group_outputs = {core::GroupPort{"Filter", 0},
                       core::GroupPort{"Filter", 1}};
  g.add_task("Snr", "LedgerSink", sink_params(0));
  g.add_task("Hits", "LedgerSink", sink_params(1));
  g.connect("Detector", 0, "Scan", 0);
  g.connect("Scan", 0, "Snr", 0);
  g.connect("Scan", 1, "Hits", 0);
  s.graph = std::move(g);
  return s;
}

/// The oracle for pipelines: a local GraphRuntime of the same graph.
std::vector<DataItem> local_runtime_oracle(const core::TaskGraph& g,
                                           const std::vector<DataItem>& in) {
  std::size_t cur = 0;
  std::vector<DataItem> out;
  Hooks hooks;
  hooks.next_input = [&] { return in[cur]; };
  hooks.on_result = [&](int, const DataItem& d) { out.push_back(d); };
  const core::UnitRegistry registry = make_registry(hooks, nullptr);
  core::GraphRuntime runtime(g, registry);
  for (cur = 0; cur < in.size(); ++cur) runtime.tick();
  if (out.size() != in.size()) {
    throw std::runtime_error("oracle: local runtime lost items");
  }
  return out;
}

/// Scaler -> MovingAverage -> Offset under the p2p policy, one stage per
/// worker: over loopback TCP (pipeline-chatter) or, redeployed cycle after
/// cycle, over the DSL simulator (redeploy-dsl).
Spec pipeline_spec(std::uint64_t seed, bool redeploy) {
  Spec s;
  s.name = redeploy ? "redeploy-dsl" : "pipeline-chatter";
  s.group = "Pipe";
  s.world.seed = seed;
  if (redeploy) {
    s.world.sim = true;
    s.world.link.loss_probability = 0.01;
    s.world.peers = 30;
    s.world.cas_memo = true;
    s.cycle_items = 4;
  } else {
    s.world.peers = 3;
    s.world.batch = true;
    s.window = kPipelineWindow;
  }
  dsp::Rng rng(seed);

  core::TaskGraph inner("stages");
  core::ParamSet scale;
  scale.set_double("factor", rng.uniform(0.5, 2.0));
  inner.add_task("Scale", "Scaler", scale);
  core::ParamSet smooth;
  smooth.set_int("window", 5);
  inner.add_task("Smooth", "MovingAverage", smooth);
  core::ParamSet shift;
  shift.set_double("offset", rng.uniform(-1.0, 1.0));
  inner.add_task("Shift", "Offset", shift);
  inner.connect("Scale", 0, "Smooth", 0);
  inner.connect("Smooth", 0, "Shift", 0);
  core::TaskGraph g("pipeline");
  g.add_task("Src", "LedgerSource");
  core::TaskDef& grp = g.add_group("Pipe", std::move(inner), "p2p");
  grp.group_inputs = {core::GroupPort{"Scale", 0}};
  grp.group_outputs = {core::GroupPort{"Shift", 0}};
  g.add_task("Out", "LedgerSink", sink_params(0));
  g.connect("Src", 0, "Pipe", 0);
  g.connect("Pipe", 0, "Out", 0);
  s.graph = std::move(g);

  // ~1 KB items: 128 samples each.
  for (std::size_t k = 0; k < (redeploy ? s.cycle_items : 16); ++k) {
    core::SampleSet set;
    set.sample_rate = 128.0;
    for (int i = 0; i < 128; ++i) set.samples.push_back(rng.gaussian());
    s.inputs.emplace_back(std::move(set));
  }
  s.expected = local_runtime_oracle(s.graph, s.inputs);
  // Four hops carry same-size sample sets: in, two inter-stage, out.
  s.wire = {s.inputs[0], s.inputs[0], s.inputs[0], s.expected[0]};
  return s;
}

Spec make_spec(const std::string& name, std::uint64_t seed) {
  if (name == "galaxy-farm") return galaxy_spec(seed);
  if (name == "inspiral-stream") return inspiral_spec(seed);
  if (name == "pipeline-chatter") return pipeline_spec(seed, false);
  if (name == "redeploy-dsl") return pipeline_spec(seed, true);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ------------------------------------------------------------ bookkeeping

/// The benchmark's view of one world: what was emitted when, what came
/// back, and whether it matched the oracle.
struct Probe {
  Probe(const Spec& s, Tracer* t)
      : spec(s), tracer(t), pick(s.world.seed ^ 0x9E3779B97F4A7C15ull) {
    hooks.next_input = [this] { return spec.inputs[current_key]; };
    hooks.on_result = [this](int tag, const DataItem& d) { on_result(tag, d); };
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Emit the next item through the controller; `due` is on the item clock.
  void tick(core::TrianaController& ctl, core::DistributedRun& run,
            double due) {
    const std::uint64_t seq = next_seq++;
    current_key = seq % spec.inputs.size();
    matcher.emit(seq, due, current_key);
    Span s(tracer, tracer ? tracer->tick : 0);
    ctl.tick(run, 1);
  }

  void on_result(int tag, const DataItem& item) {
    if (tag == 1) {  // inspiral detection flags; totals checked at the end
      flags_seen += item.integer();
      ++flag_results;
      return;
    }
    const auto m = matcher.deliver(
        item_clock(), [&](std::size_t k) { return spec.expected[k] == item; });
    if (!m) {
      ++mismatches;
      return;
    }
    ++delivered;
    if (spec.window > 0) freed.push_back(item_clock());
    if (!spec.expected_flag.empty()) {
      flags_expected += spec.expected_flag[m->seq % spec.inputs.size()];
    }
    if (m->seq >= timed_from && m->seq < timed_to) {
      latencies.add(TimedSample{wall_now(), m->latency});
      ++delivered_timed;
    }
  }

  bool settled() const {
    return matcher.outstanding() == 0 &&
           (spec.expected_flag.empty() || flag_results == delivered);
  }
  bool flags_ok() const {
    return spec.expected_flag.empty() ||
           (flag_results == delivered && flags_seen == flags_expected);
  }
  std::uint64_t timed_attempted() const { return timed_to - timed_from; }

  const Spec& spec;
  Tracer* tracer;
  dsp::Rng pick;  ///< redeploy: which volunteers each cycle uses
  Hooks hooks;
  std::function<double()> item_clock;  ///< backend time: wall or virtual
  LatencyMatcher matcher;
  std::uint64_t next_seq = 0;
  std::size_t current_key = 0;
  std::uint64_t timed_from = kNever;
  std::uint64_t timed_to = kNever;
  bool recording = false;
  /// Latency (item clock seconds) at wall delivery time, timed items.
  Reservoir<TimedSample> latencies{100000, spec.world.seed};
  Reservoir<double> lags{100000, spec.world.seed + 1};  ///< seconds
  std::deque<double> freed;        ///< closed loop: slot-free times
  std::uint64_t delivered = 0;
  std::uint64_t delivered_timed = 0;
  std::uint64_t mismatches = 0;
  std::int64_t flags_seen = 0;
  std::int64_t flags_expected = 0;
  std::uint64_t flag_results = 0;
};

/// One world and the bench-side state bound to it, in construction order.
struct Session {
  Session(const Spec& spec, Tracer* tracer)
      : probe(spec, tracer),
        registry(make_registry(probe.hooks, tracer)),
        world(spec.world, registry, tracer) {
    probe.item_clock = [this] { return world.backend().now(); };
    world.home().publish_graph_modules(spec.graph);
  }

  void shutdown() {
    if (run) world.controller().shutdown(*run);
    run.reset();
    world.drive(world.backend().now() + 0.05, [] { return false; });
  }

  Probe probe;
  core::UnitRegistry registry;
  World world;
  std::shared_ptr<core::DistributedRun> run;
};

/// Setup of one world: distribute() -> deployed_ok -> first correct result.
struct Setup {
  double deploy_s = 0.0;
  double bind_s = 0.0;
  double setup_s = 0.0;
  Rows deploy_rows;  ///< traced: ledger rows of the deploy phase
  Rows bind_rows;    ///< traced: ledger rows of the bind phase
};

Rows rows_of(Tracer* t) { return t ? t->ledger.rows() : Rows{}; }

Rows rows_minus(Rows a, const Rows& b) {
  for (std::size_t i = 0; i < b.size() && i < a.size(); ++i) {
    a[i].self_s -= b[i].self_s;
    a[i].count -= b[i].count;
  }
  return a;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

std::string run_errors(const core::DistributedRun& run) {
  return run.errors.empty() ? "" : ": " + run.errors.front();
}

/// Distribute over `workers`, wait for deployed_ok, send one item and wait
/// for its correct result. setup_s runs from `t0`, or from distribute()
/// when `t0` is negative.
Setup deploy_and_first_result(Session& s, Tracer* tracer,
                              const std::vector<net::Endpoint>& workers,
                              double t0) {
  const Spec& spec = s.probe.spec;
  auto& be = s.world.backend();
  auto& ctl = s.world.controller();
  Setup out;
  if (tracer) tracer->ledger.clear_times();
  const double td = wall_now();
  {
    Span span(tracer, tracer ? tracer->controller : 0);
    s.run = ctl.distribute(spec.graph, spec.group, workers);
  }
  s.world.drive(be.now() + 60.0, [&] { return s.run->all_acked(); });
  require(s.run->deployed_ok(), "deploy failed" + run_errors(*s.run));
  const double t1 = wall_now();
  out.deploy_rows = rows_of(tracer);
  const std::uint64_t before = s.probe.delivered;
  s.probe.tick(ctl, *s.run, be.now());
  require(s.world.drive(be.now() + 60.0,
                        [&] { return s.probe.delivered > before; }),
          "no correct first result");
  const double t2 = wall_now();
  out.bind_rows = rows_minus(rows_of(tracer), out.deploy_rows);
  out.deploy_s = t1 - td;
  out.bind_s = t2 - t1;
  out.setup_s = t2 - (t0 >= 0.0 ? t0 : td);
  return out;
}

/// Runtimes of a live run: the home graph's and each fragment's.
template <typename Fn>
void for_each_runtime(Session& s, Fn fn) {
  const core::DistributedRun& run = *s.run;
  if (auto* rt = s.world.home().job_runtime(run.home_job)) fn(*rt);
  for (std::size_t i = 0; i < run.workers.size(); ++i) {
    for (std::size_t j = 0; j < s.world.peers(); ++j) {
      if (s.world.peer(j).endpoint() != run.workers[i]) continue;
      if (auto* rt = s.world.peer(j).job_runtime(run.remote_jobs[i])) fn(*rt);
    }
  }
}

/// What the timed phase of one world measured.
struct Window {
  double wall0 = 0.0;
  double wall1 = 0.0;
  std::uint64_t delivered = 0;  ///< correct results inside the window
  Counters c0, c1;
  Rows rows;                    ///< traced: ledger rows of the window
  std::vector<double> makespans;  ///< redeploy: virtual s per cycle
  std::uint64_t memo_hits = 0;    ///< pure-unit firings replayed
  std::uint64_t firings = 0;      ///< unit firings, RuntimeStats
  Counters end;                 ///< whole world, after the drain

  /// State at the start of each ~1 s slice, and at the end of the window.
  /// Throughput and CPU per item are medians over slices, so a few seconds
  /// of contention from outside the process move them less.
  std::vector<SliceMark> marks;

  void mark(const Probe& p) {
    marks.push_back(SliceMark{wall_now(), cpu_seconds(), p.delivered});
  }
  void maybe_mark(const Probe& p) {
    if (wall_now() >= marks.back().wall + 1.0) mark(p);
  }
};

void open_window(Session& s, Tracer* tracer, Window& w) {
  if (tracer) tracer->ledger.clear_times();
  w.c0 = s.world.counters();
  // Stream runs live through the window; redeploy runs add per cycle.
  if (s.run) {
    for_each_runtime(s, [&](const core::GraphRuntime& rt) {
      w.firings -= rt.stats().firings;
      w.memo_hits -= rt.memo_hits();
    });
  }
  s.probe.timed_from = s.probe.next_seq;
  s.probe.recording = true;
  w.wall0 = wall_now();
  w.mark(s.probe);
}

void close_window(Session& s, Tracer* tracer, Window& w) {
  w.wall1 = wall_now();
  w.c1 = s.world.counters();
  if (s.run) {
    for_each_runtime(s, [&](const core::GraphRuntime& rt) {
      w.firings += rt.stats().firings;
      w.memo_hits += rt.memo_hits();
    });
  }
  w.rows = rows_of(tracer);
  s.probe.timed_to = s.probe.next_seq;
  s.probe.recording = false;
  w.mark(s.probe);
  w.delivered = w.marks.back().delivered - w.marks.front().delivered;
}

/// Warm-up then the timed phase of a streaming workload, then a drain in
/// which late results still count as delivered.
Window stream_window(Session& s, Tracer* tracer, double seconds) {
  Probe& p = s.probe;
  const Spec& spec = p.spec;
  auto& be = s.world.backend();
  auto& ctl = s.world.controller();
  std::optional<OpenLoopSchedule> schedule;
  Window w;
  bool generating = true;
  auto generate = [&] {
    if (!generating) return false;
    if (p.recording) w.maybe_mark(p);
    const double now = be.now();
    if (schedule) {
      while (schedule->due(now)) {
        const double due = schedule->issue();
        if (p.recording) p.lags.add(now - due);
        p.tick(ctl, *s.run, due);
      }
    } else {
      // Closed loop: an item is due when a result frees its slot. The wait
      // until the pump gets back to the generator is the system's, so it
      // counts in the item's latency (and shows as generator lag).
      while (p.matcher.outstanding() < spec.window) {
        double freed_at = now;
        if (!p.freed.empty()) {
          freed_at = p.freed.front();
          p.freed.pop_front();
        }
        if (p.recording) p.lags.add(now - freed_at);
        p.tick(ctl, *s.run, freed_at);
      }
    }
    return false;
  };

  p.freed.clear();
  if (spec.rate > 0.0) schedule.emplace(be.now(), spec.rate);
  s.world.drive(be.now() + 1.0, generate);  // warm-up, untimed
  open_window(s, tracer, w);
  s.world.drive(be.now() + seconds, generate);
  close_window(s, tracer, w);
  generating = false;
  s.world.drive(be.now() + 10.0, [&] { return p.settled(); });
  w.end = s.world.counters();
  return w;
}

/// One redeploy cycle on the simulator: discover three workers, deploy the
/// pipeline, push a few items through, shut down. Throws when any step
/// fails. With `setup`, records the setup figures of this cycle.
void redeploy_cycle(Session& s, Tracer* tracer, Window* w, Setup* setup,
                    double t0) {
  Probe& p = s.probe;
  auto& be = s.world.backend();
  auto& ctl = s.world.controller();
  const double v0 = be.now();

  // Volunteers keep their adverts fresh (they expire after 300 s, and a
  // run simulates far longer than that).
  {
    Span span(tracer, tracer ? tracer->announce : 0);
    for (std::size_t i = 0; i < s.world.peers(); ++i) {
      s.world.peer(i).announce();
    }
  }
  std::optional<std::vector<net::Endpoint>> found;
  p2p::Query q;
  q.kind = p2p::AdvertKind::kPeer;
  {
    Span span(tracer, tracer ? tracer->controller : 0);
    ctl.discover_workers(q, /*ttl=*/4, /*want=*/s.world.peers(),
                         /*timeout_s=*/1.0,
                         [&](std::vector<net::Endpoint> eps) {
                           found = std::move(eps);
                         });
  }
  s.world.drive(be.now() + 30.0, [&] { return found.has_value(); });
  require(found && found->size() >= 3,
          fmt("discovery found %zu workers", found ? found->size() : 0));
  // Each cycle the user picks three of the volunteers that answered, so a
  // run spreads over many worker triples (and cold peers) of the overlay.
  for (std::size_t i = 0; i < 3; ++i) {
    std::swap((*found)[i], (*found)[i + p.pick.below(found->size() - i)]);
  }
  found->resize(3);

  if (setup != nullptr) {
    *setup = deploy_and_first_result(s, tracer, *found, t0);
  } else {
    {
      Span span(tracer, tracer ? tracer->controller : 0);
      s.run = ctl.distribute(p.spec.graph, p.spec.group, *found);
    }
    s.world.drive(be.now() + 60.0, [&] { return s.run->all_acked(); });
    require(s.run->deployed_ok(), "redeploy failed" + run_errors(*s.run));
  }
  const double ready = wall_now();
  const std::size_t todo = p.spec.cycle_items - (setup != nullptr ? 1 : 0);
  for (std::size_t i = 0; i < todo; ++i) {
    if (p.recording) p.lags.add(wall_now() - ready);
    p.tick(ctl, *s.run, be.now());
  }
  require(s.world.drive(be.now() + 120.0,
                        [&] { return p.matcher.outstanding() == 0; }),
          fmt("%zu items of a cycle not delivered", p.matcher.outstanding()));
  if (w != nullptr) {
    w->makespans.push_back(be.now() - v0);
    for_each_runtime(s, [&](const core::GraphRuntime& rt) {
      w->firings += rt.stats().firings;
      w->memo_hits += rt.memo_hits();
    });
  }
  {
    Span span(tracer, tracer ? tracer->controller : 0);
    ctl.shutdown(*s.run);
  }
  s.run.reset();
  s.world.drive(be.now() + 1.0, [] { return false; });  // cancels land
}

Window redeploy_window(Session& s, Tracer* tracer, double seconds) {
  Window w;
  open_window(s, tracer, w);
  while (wall_now() < w.wall0 + seconds) {
    redeploy_cycle(s, tracer, &w, nullptr, 0.0);
    w.maybe_mark(s.probe);
  }
  close_window(s, tracer, w);
  w.end = s.world.counters();
  return w;
}

/// Setup (distribute to first result) then, when `seconds` > 0, the timed
/// phase, on a fresh world.
struct WorldRun {
  Setup setup;
  Window window;
};

WorldRun run_world(Session& s, Tracer* tracer, double seconds, double t0) {
  WorldRun r;
  const Spec& spec = s.probe.spec;
  if (spec.world.sim) {
    redeploy_cycle(s, tracer, nullptr, &r.setup, t0);
    if (seconds > 0.0) {
      r.window = redeploy_window(s, tracer, seconds);
    }
    return r;
  }
  r.setup = deploy_and_first_result(s, tracer, s.world.peer_endpoints(), -1.0);
  if (seconds > 0.0) {
    r.window = stream_window(s, tracer, seconds);
  }
  s.shutdown();
  return r;
}

// ---------------------------------------------------------------- replays

/// Seconds per call of `fn`, repeated for at least `min_s`.
template <typename Fn>
double per_call_s(Fn&& fn, double min_s = 0.05) {
  std::uint64_t n = 0;
  const double t0 = wall_now();
  double t = t0;
  do {
    fn();
    ++n;
    t = wall_now();
  } while (t - t0 < min_s);
  return (t - t0) / static_cast<double>(n);
}

/// The layers' public functions replayed on inputs the run produced.
struct Replays {
  double codec_us = 0.0;       ///< encode+decode of one item's wire items
  double item_bytes = 0.0;     ///< their encoded bytes
  double frame_us = 0.0;       ///< encode_frame + FrameDecoder of the same
  double crc_mb_s = 0.0;
  double sha_mb_s = 0.0;
  double xml_bytes = 0.0;      ///< mean fragment XML size
  double xml_parse_us = 0.0;   ///< mean parse_taskgraph per fragment
};

Replays replay_layers(const Spec& spec,
                      const std::vector<core::TaskGraph>& fragments) {
  Replays r;
  std::vector<serial::Bytes> encoded;
  for (const DataItem& d : spec.wire) {
    encoded.push_back(core::encode_data_item(d));
    r.item_bytes += static_cast<double>(encoded.back().size());
  }
  std::size_t sink = 0;  // keeps results observable
  r.codec_us = 1e6 * per_call_s([&] {
    for (const DataItem& d : spec.wire) {
      sink += core::decode_data_item(core::encode_data_item(d)).byte_size();
    }
  });
  r.frame_us = 1e6 * per_call_s([&] {
    serial::FrameDecoder dec;
    for (const serial::Bytes& b : encoded) {
      dec.feed(serial::encode_frame(serial::Frame{serial::FrameType::kData, b}));
      if (auto f = dec.next()) sink += f->payload.size();
    }
  });
  r.crc_mb_s = r.item_bytes / 1e6 / per_call_s([&] {
    for (const serial::Bytes& b : encoded) sink += serial::crc32(b);
  });
  r.sha_mb_s = r.item_bytes / 1e6 / per_call_s([&] {
    for (const serial::Bytes& b : encoded) sink += cas::sha256(b).bytes[0];
  });
  std::vector<std::string> docs;
  for (const core::TaskGraph& f : fragments) {
    docs.push_back(core::write_taskgraph(f, /*pretty=*/false));
    r.xml_bytes += static_cast<double>(docs.back().size());
  }
  if (!docs.empty()) {
    r.xml_bytes /= static_cast<double>(docs.size());
    r.xml_parse_us = 1e6 / static_cast<double>(docs.size()) * per_call_s([&] {
      for (const std::string& d : docs) {
        sink += core::parse_taskgraph(d).tasks().size();
      }
    });
  }
  if (sink == 0) throw std::runtime_error("replay produced nothing");
  return r;
}

// ---------------------------------------------------------------- reports

double ms(double s) { return 1000.0 * s; }

double row_self(const Rows& rows, const std::string& name) {
  for (const auto& r : rows) {
    if (r.name == name) return r.self_s;
  }
  return 0.0;
}

double apps_self(const Rows& rows) {
  double t = 0.0;
  for (const auto& r : rows) {
    if (r.name.rfind("apps.", 0) == 0) t += r.self_s;
  }
  return t;
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double per(std::uint64_t num, std::uint64_t den) {
  return per(static_cast<double>(num), static_cast<double>(den));
}

/// Self-time ledger: one row per layer plus the unattributed remainder,
/// summing to `wall`.
void print_ledger(std::vector<std::string>& out, const std::string& title,
                  const Rows& rows, double wall) {
  out.push_back(title);
  out.push_back(fmt("  %-26s %12s %8s %10s", "layer", "self ms", "share",
                    "spans"));
  double covered = 0.0;
  for (const auto& r : rows) {
    if (r.count == 0) continue;
    covered += r.self_s;
    out.push_back(fmt("  %-26s %12.3f %7.2f%% %10llu", r.name.c_str(),
                      ms(r.self_s), 100.0 * per(r.self_s, wall),
                      static_cast<unsigned long long>(r.count)));
  }
  out.push_back(fmt("  %-26s %12.3f %7.2f%%", "unattributed",
                    ms(wall - covered), 100.0 * per(wall - covered, wall)));
  out.push_back(fmt("  %-26s %12.3f %7.2f%%", "total (wall)", ms(wall), 100.0));
}

double case2_pcs(double cpu_s_per_chunk, const Spec& spec) {
  const double per_template = cpu_s_per_chunk / static_cast<double>(spec.templates);
  const double samples =
      static_cast<double>(spec.inputs[0].samples().samples.size());
  return per_template * kPaperTemplates * (kPaperChunkSamples / samples) /
         kPaperChunkSeconds;
}

/// End-to-end figures of one measured world.
struct EndToEnd {
  double items_per_s = 0.0;
  double cpu_ms_per_item = 0.0;
  Percentile p50, p90, tail;
  Percentile lag;
};

EndToEnd end_to_end(const Probe& p, const Window& w) {
  EndToEnd e;
  const SliceRates r = slice_rates(w.marks);
  e.items_per_s = r.items_per_s;
  e.cpu_ms_per_item = ms(r.cpu_s_per_item);
  // Latency percentiles per slice, then the median over slices; p99 waits
  // for groups of slices that support it (1,000 samples).
  std::vector<TimedSample> lat_ms;
  for (const TimedSample& l : p.latencies.samples()) {
    lat_ms.push_back(TimedSample{l.at, ms(l.value)});
  }
  std::vector<double> bounds;
  for (const SliceMark& m : w.marks) bounds.push_back(m.wall);
  e.p50 = sliced_percentile(lat_ms, bounds, 0.5, 10);
  e.p90 = sliced_percentile(lat_ms, bounds, 0.9, 100);
  e.tail = sliced_percentile(lat_ms, bounds, 0.99, 1000);
  std::vector<double> lag_ms;
  for (double l : p.lags.samples()) lag_ms.push_back(ms(l));
  e.lag = tail_percentile(lag_ms, 0.99);
  return e;
}

void check(Report& rep, const Probe& p) {
  rep.attempted = p.timed_attempted();
  rep.failed = rep.attempted - std::min(rep.attempted, p.delivered_timed);
  rep.correct = p.mismatches == 0 && rep.failed == 0 && p.flags_ok();
  rep.lines.push_back(fmt(
      "check: %llu timed items, %llu delivered correctly, %llu wrong results,"
      " items_failed_ratio %.6f%s",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(p.delivered_timed),
      static_cast<unsigned long long>(p.mismatches),
      per(rep.failed, rep.attempted),
      p.flags_ok() ? "" : ", detection flags DISAGREE with the oracle"));
}

void add(Report& r, std::string name, double value, std::string unit) {
  r.metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void describe_workload(Report& rep, const Spec& spec) {
  if (spec.world.sim) {
    rep.lines.push_back(fmt(
        "workload %s: DSL simulator, %zu announced peers, loss %.3f, %zu "
        "items per discover/deploy/shutdown cycle",
        spec.name.c_str(), spec.world.peers, spec.world.link.loss_probability,
        spec.cycle_items));
  } else if (spec.rate > 0.0) {
    rep.lines.push_back(fmt("workload %s: loopback TCP, %zu workers, open "
                            "loop at %.1f items/s",
                            spec.name.c_str(), spec.world.peers, spec.rate));
  } else {
    rep.lines.push_back(fmt("workload %s: loopback TCP, %zu workers, closed "
                            "loop with %zu items in flight",
                            spec.name.c_str(), spec.world.peers, spec.window));
  }
}

/// The figures only some workloads have: Case 2's PCs needed to keep up,
/// from CPU per chunk, and the simulated user's wait per redeploy cycle.
void workload_figures(Report& rep, const Spec& spec, double cpu_ms_per_item,
                      const Window& w) {
  if (spec.templates > 0) {
    rep.lines.push_back(fmt(
        "case2_pcs_needed %.2f (%.3f ms CPU per %zu-sample chunk per "
        "template, scaled to %.0f templates x %.0f-sample chunks per %.0f s)",
        case2_pcs(cpu_ms_per_item / 1000.0, spec),
        cpu_ms_per_item / static_cast<double>(spec.templates),
        spec.inputs[0].samples().samples.size(), kPaperTemplates,
        kPaperChunkSamples, kPaperChunkSeconds));
  }
  if (spec.world.sim) {
    rep.lines.push_back(fmt("sim_makespan_s %.4f (median virtual seconds per "
                            "cycle over %zu cycles)",
                            median(w.makespans), w.makespans.size()));
  }
}

Report untraced_report(const Spec& spec, const RunConfig& cfg) {
  Report rep;
  describe_workload(rep, spec);
  std::vector<double> setups;
  const double first = wall_now();
  for (;;) {
    const double t0 = wall_now();
    const bool last =
        setups.size() + 1 >= kMinSetups &&
        (t0 - first >= kSetupBudgetS || setups.size() + 1 >= kMaxSetups);
    Session s(spec, nullptr);
    WorldRun r = run_world(s, nullptr, last ? cfg.seconds : 0.0, t0);
    setups.push_back(r.setup.setup_s);
    if (!last) continue;

    const EndToEnd e = end_to_end(s.probe, r.window);
    check(rep, s.probe);
    const char* clock_note = spec.world.sim ? "virtual (DSL) " : "";
    rep.lines.push_back(fmt("items_per_s %.3f (median over 1 s slices; "
                            "%llu results in %.3f s)",
                            e.items_per_s,
                            static_cast<unsigned long long>(r.window.delivered),
                            r.window.wall1 - r.window.wall0));
    rep.lines.push_back(fmt("item latency %sp50 %.3f ms, p90 %.3f ms, p%.1f "
                            "%.3f ms (medians over time slices) from n=%zu "
                            "items (uniform sample of %llu)",
                            clock_note, e.p50.value, e.p90.value,
                            100.0 * e.tail.q, e.tail.value, e.tail.n,
                            static_cast<unsigned long long>(
                                s.probe.latencies.seen())));
    std::string slices;
    const auto& marks = r.window.marks;
    for (std::size_t k = 1; k < marks.size(); ++k) {
      slices += fmt(" %.1f", per(static_cast<double>(marks[k].delivered -
                                                     marks[k - 1].delivered),
                                 marks[k].wall - marks[k - 1].wall));
    }
    rep.lines.push_back("items/s per slice:" + slices);
    rep.lines.push_back(fmt(
        "cpu_ms_per_item %.4f; setup_s median %.4f of %zu setups (%.4f to "
        "%.4f)",
        e.cpu_ms_per_item, median(setups), setups.size(),
        *std::min_element(setups.begin(), setups.end()),
        *std::max_element(setups.begin(), setups.end())));
    workload_figures(rep, spec, e.cpu_ms_per_item, r.window);
    add(rep, "items_per_s", e.items_per_s, "1/s");
    add(rep, "item_latency_p50_ms", e.p50.value, "ms");
    add(rep, "cpu_ms_per_item", e.cpu_ms_per_item, "ms");
    add(rep, "setup_s", median(setups), "s");
    add(rep, "peak_rss_mb", peak_rss_mb(), "MB");
    return rep;
  }
}

Report traced_report(const Spec& spec, const RunConfig& cfg) {
  Report rep;
  describe_workload(rep, spec);
  const double half = cfg.seconds / 2.0;

  // The same setup and timed phase twice: untraced first, for the
  // tracing-overhead baseline and the CPU figure; then traced.
  double plain_rate = 0.0;
  double plain_cpu_ms = 0.0;
  bool plain_ok = true;
  {
    Session s(spec, nullptr);
    WorldRun r = run_world(s, nullptr, half, wall_now());
    const EndToEnd e = end_to_end(s.probe, r.window);
    plain_rate = e.items_per_s;
    plain_cpu_ms = e.cpu_ms_per_item;
    plain_ok = s.probe.mismatches == 0 && s.probe.flags_ok() &&
               s.probe.delivered_timed == s.probe.timed_attempted();
  }

  Tracer tracer;
  Session s(spec, &tracer);
  WorldRun r = run_world(s, &tracer, half, wall_now());
  const Window& w = r.window;
  const EndToEnd e = end_to_end(s.probe, w);
  check(rep, s.probe);
  rep.correct = rep.correct && plain_ok;
  const double wall = w.wall1 - w.wall0;
  const std::uint64_t items = std::max<std::uint64_t>(w.delivered, 1);
  const Rows& rows = w.rows;
  double covered = 0.0;
  for (const auto& row : rows) covered += row.self_s;

  print_ledger(rep.lines,
               fmt("ledger %s: timed phase %.3f s, %llu results", spec.name.c_str(),
                   wall, static_cast<unsigned long long>(w.delivered)),
               rows, wall);
  print_ledger(rep.lines,
               fmt("setup ledger, deploy phase: distribute -> deployed_ok, "
                   "%.4f s", r.setup.deploy_s),
               r.setup.deploy_rows, r.setup.deploy_s);
  print_ledger(rep.lines,
               fmt("setup ledger, bind phase: deployed_ok -> first result, "
                   "%.4f s", r.setup.bind_s),
               r.setup.bind_rows, r.setup.bind_s);
  for (const auto& row : rows) {
    if (row.name.rfind("apps.", 0) != 0 || row.count == 0) continue;
    const double per_firing = ms(per(row.self_s, static_cast<double>(row.count)));
    rep.lines.push_back(
        fmt("%s: %.4f ms per firing", row.name.c_str(), per_firing));
    if (row.name == "apps.RenderFrame") {
      rep.lines.push_back(
          fmt("apps.galaxy.render_ms_per_frame %.4f", per_firing));
    } else if (row.name == "apps.InspiralFilter") {
      rep.lines.push_back(
          fmt("apps.gw.filter_ms_per_template %.4f",
              per_firing / static_cast<double>(spec.templates)));
    }
  }

  // The runs are shut down by now; the same plan gives the same fragments.
  const core::DistributionPlan plan =
      core::make_policy(spec.graph.require_task(spec.group).policy)
          ->plan(spec.graph, spec.group, 3, "home/g1");
  const Replays rp = replay_layers(spec, plan.fragments);
  rep.lines.push_back(fmt(
      "replays: codec %.3f us/item over %.0f B, frame %.3f us/item, crc32 "
      "%.1f MB/s, sha256 %.1f MB/s, fragment XML %.0f B parsed in %.2f us",
      rp.codec_us, rp.item_bytes, rp.frame_us, rp.crc_mb_s, rp.sha_mb_s,
      rp.xml_bytes, rp.xml_parse_us));

  const Counters d0 = w.c0;
  const Counters d1 = w.c1;
  const auto delta = [&](std::uint64_t Counters::*f) {
    return static_cast<double>(d1.*f - d0.*f);
  };
  const double pcs =
      spec.templates > 0 ? case2_pcs(plain_cpu_ms / 1000.0, spec) : 0.0;
  workload_figures(rep, spec, plain_cpu_ms, w);
  rep.lines.push_back(fmt("tracing overhead: traced %.3f vs untraced %.3f "
                          "items/s",
                          e.items_per_s, plain_rate));

  add(rep, "apps.unit_ms_per_item", ms(apps_self(rows)) / items, "ms");
  add(rep, "apps.unit_share", per(apps_self(rows), wall), "ratio");
  add(rep, "apps.gw.case2_pcs_needed", pcs, "pcs");
  add(rep, "core.tick_self_share", per(row_self(rows, "core.tick"), wall),
      "ratio");
  add(rep, "core.types.codec_us_per_item", rp.codec_us, "us");
  add(rep, "core.types.item_bytes", rp.item_bytes, "B");
  add(rep, "serial.frame_us_per_item", rp.frame_us, "us");
  add(rep, "serial.crc_mb_per_s", rp.crc_mb_s, "MB/s");
  add(rep, "net.send_share", per(row_self(rows, "net.send"), wall), "ratio");
  add(rep, "net.dispatch_self_share", per(row_self(rows, "net.dispatch"), wall),
      "ratio");
  add(rep, "net.timer_share", per(row_self(rows, "net.timer"), wall), "ratio");
  add(rep, "net.pump_self_share", per(row_self(rows, "net.pump"), wall),
      "ratio");
  add(rep, "core.runtime.firings_per_item",
      static_cast<double>(w.firings) / static_cast<double>(items), "count");
  add(rep, "p2p.pipes.payloads_per_item",
      delta(&Counters::pipe_payloads) / static_cast<double>(items), "count");
  add(rep, "net.reliable.envelopes_per_item",
      delta(&Counters::rel_sent) / static_cast<double>(items), "count");
  add(rep, "net.reliable.frames_per_batch",
      per(delta(&Counters::coalesced), delta(&Counters::batches)), "count");
  add(rep, "net.reliable.retransmits", delta(&Counters::rel_retx), "count");
  add(rep, "net.reliable.useful_ratio",
      per(delta(&Counters::rel_delivered),
          delta(&Counters::rel_sent) + delta(&Counters::rel_retx)),
      "ratio");
  add(rep, "net.tcp.writev_per_item",
      delta(&Counters::tcp_writev) / static_cast<double>(items), "count");
  add(rep, "net.tcp.reads_per_item",
      delta(&Counters::tcp_reads) / static_cast<double>(items), "count");
  add(rep, "net.tcp.bytes_per_item",
      delta(&Counters::tcp_bytes) / static_cast<double>(items), "B");
  add(rep, "net.sim.messages_per_item",
      delta(&Counters::sim_msgs) / static_cast<double>(items), "count");
  add(rep, "core.service.deploy_s", r.setup.deploy_s, "s");
  add(rep, "p2p.bind_s", r.setup.bind_s, "s");
  add(rep, "p2p.discovery.msgs_per_query",
      per(w.end.query_msgs, w.end.queries), "count");
  add(rep, "xml.fragment_bytes", rp.xml_bytes, "B");
  add(rep, "xml.fragment_parse_us", rp.xml_parse_us, "us");
  add(rep, "repo.code_bytes_fetched", static_cast<double>(w.end.code_bytes),
      "B");
  add(rep, "repo.cache_hit_ratio",
      per(w.end.cache_hits, w.end.cache_hits + w.end.cache_misses), "ratio");
  add(rep, "cas.hit_ratio",
      per(w.end.cas_hits, w.end.cas_hits + w.end.cas_misses), "ratio");
  add(rep, "cas.memo_hits", static_cast<double>(w.memo_hits), "count");
  add(rep, "cas.hash_mb_per_s", rp.sha_mb_s, "MB/s");
  add(rep, "bench.idle_share", per(row_self(rows, "bench.idle"), wall),
      "ratio");
  add(rep, "bench.harness_share", per(row_self(rows, "bench.harness"), wall),
      "ratio");
  add(rep, "bench.unattributed_share", per(wall - covered, wall), "ratio");
  add(rep, "bench.tracing_overhead", 1.0 - per(e.items_per_s, plain_rate),
      "ratio");
  add(rep, "bench.generator_lag_p99_ms", e.lag.value, "ms");
  return rep;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "galaxy-farm", "inspiral-stream", "pipeline-chatter", "redeploy-dsl"};
  return names;
}

Report run_workload(const RunConfig& cfg) {
  const Spec spec = make_spec(cfg.workload, cfg.seed);
  return cfg.trace ? traced_report(spec, cfg) : untraced_report(spec, cfg);
}

}  // namespace perfbench
