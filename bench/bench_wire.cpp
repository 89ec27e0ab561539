// E13 -- wire throughput and deploy latency: simulator vs real loopback TCP.
//
// The NetworkBackend seam promises that the service stack behaves the same
// over the discrete-event simulator and over real sockets; this bench
// quantifies what the real wire costs and what envelope batching buys back.
// Two measurements per backend:
//
//   * messages/sec -- a windowed stream of small control envelopes between
//     two ReliableTransports (window 64, effectively-once delivery). On TCP
//     this is run unbatched (one frame per envelope, one per ack) and
//     batched (kBatch coalescing at the reliable layer), because small-
//     envelope chatter is exactly the workload where per-frame overhead
//     dominates. The bench FAILS (exit 1) if batched TCP does not deliver
//     at least 2x the unbatched rate.
//   * deploy latency -- wall milliseconds from TrianaController::distribute
//     of a one-fragment farm to deployed_ok over a home + worker pair
//     (code fetch, pipe resolution and the ack round trip included).
//
// All rates are wall-clock: for the simulator that measures how fast the
// harness pumps simulated traffic (its virtual clock is free), which is the
// number CI cares about when budgeting sim-based chaos suites.
//
// Machine-readable output: --json PATH writes BENCH_wire.json with one row
// per scenario (sim / tcp / tcp-batched); CI gates msgs_per_s against the
// conservative floors in bench/baselines/wire.json. --trace PATH reruns the
// batched TCP stream with a Tracer bound and exports the causal JSONL for
// congrid-trace --validate.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/service/supervisor.hpp"
#include "core/unit/builtin.hpp"
#include "harness.hpp"
#include "net/backend.hpp"
#include "net/loopback.hpp"
#include "obs/obs.hpp"

using namespace cg;

namespace {

int g_messages = 4000;        ///< --messages N (CI smoke uses a smaller N)
constexpr int kWindow = 64;   ///< envelopes in flight

double wall_s() {
  using namespace std::chrono;
  return duration_cast<duration<double>>(
             steady_clock::now().time_since_epoch())
      .count();
}

serial::Frame indexed_frame(int i) {
  serial::Frame f;
  f.type = serial::FrameType::kControl;
  f.payload = {static_cast<std::uint8_t>(i & 0xff),
               static_cast<std::uint8_t>((i >> 8) & 0xff),
               static_cast<std::uint8_t>((i >> 16) & 0xff)};
  return f;
}

net::ReliableConfig wire_reliable(bool batch) {
  net::ReliableConfig cfg;
  cfg.rto_initial_s = 0.06;
  cfg.rto_max_s = 0.5;
  cfg.deadline_s = 30.0;
  cfg.max_retries = 30;
  if (batch) {
    cfg.batch = true;
    cfg.batch_max_frames = 64;
    cfg.batch_flush_s = 0.0005;
  }
  return cfg;
}

struct Row {
  std::string scenario;   ///< sim | tcp | tcp-batched
  double msgs_per_s = 0;  ///< wall-clock delivery rate, windowed stream
  double wall_s = 0;      ///< stream wall time
  double deploy_ms = 0;   ///< distribute -> deployed_ok, wall ms
  std::uint64_t retransmits = 0;
  std::uint64_t batches_on_wire = 0;
  bool completed = false;
};

/// Windowed small-envelope stream a -> b; returns wall seconds, or < 0 if
/// the stream did not complete inside the budget.
double run_stream(net::NetworkBackend& be, bool batch, Row& row,
                  obs::Registry* registry = nullptr,
                  obs::Tracer* tracer = nullptr) {
  auto& ta = be.add_node();
  auto& tb = be.add_node();
  net::ReliableTransport a(ta, be.clock(), be.scheduler(),
                           wire_reliable(batch));
  net::ReliableTransport b(tb, be.clock(), be.scheduler(),
                           wire_reliable(batch));
  if (registry != nullptr) {
    // Scope by scenario so sim / tcp / tcp-batched keep separate counters
    // in BENCH_wire.json and on a live /metrics scrape.
    a.set_obs(*registry, tracer, "wire." + row.scenario + ".a");
    b.set_obs(*registry, tracer, "wire." + row.scenario + ".b");
    if (tracer != nullptr) a.set_trace(0xe13c0ffeeULL);
  }

  int got = 0;
  b.set_handler([&](const net::Endpoint&, serial::Frame) { ++got; });
  const net::Endpoint peer = b.local();

  int sent = 0;
  const double t0 = wall_s();
  // The refill runs inside the pump predicate: every loop iteration tops
  // the window back up, so the stream is continuous without a timer per
  // message.
  const bool done = be.run_until(be.now() + 120.0, [&] {
    while (sent < g_messages && sent - got < kWindow) {
      a.send(peer, indexed_frame(sent));
      ++sent;
    }
    return got >= g_messages;
  });
  const double elapsed = wall_s() - t0;
  // Let the tail acks drain (outside the timed window) so envelope spans
  // close before a tracer export.
  be.run_until(be.now() + 0.05);

  row.completed = done;
  row.retransmits = a.stats().retransmits;
  row.batches_on_wire = a.stats().batches_sent + b.stats().batches_sent;
  row.wall_s = elapsed;
  row.msgs_per_s = done && elapsed > 0 ? g_messages / elapsed : 0.0;
  return done ? elapsed : -1.0;
}

core::UnitRegistry& reg() {
  static core::UnitRegistry r = core::UnitRegistry::with_builtins();
  return r;
}

core::TaskGraph deploy_graph() {
  core::TaskGraph inner("inner");
  core::ParamSet sp;
  sp.set_double("factor", 2.0);
  inner.add_task("Scale", "Scaler", sp);
  core::TaskGraph g("wire");
  core::ParamSet wp;
  wp.set_int("samples", 64);
  g.add_task("Wave", "Wave", wp);
  core::TaskDef& grp = g.add_group("G", std::move(inner), "parallel");
  grp.group_inputs = {core::GroupPort{"Scale", 0}};
  grp.group_outputs = {core::GroupPort{"Scale", 0}};
  g.add_task("Sink", "Grapher");
  g.connect("Wave", 0, "G", 0);
  g.connect("G", 0, "Sink", 0);
  return g;
}

/// Full-stack deploy over `be`: home + one worker, one fragment. Returns
/// wall ms to deployed_ok, or < 0 on failure.
double run_deploy(net::NetworkBackend& be, bool batch) {
  const net::ReliableConfig rel = wire_reliable(batch);
  core::ServiceConfig hc;
  hc.peer_id = "home";
  hc.reliable = rel;
  hc.bind_retry_s = 0.2;
  auto home = std::make_unique<core::TrianaService>(be.add_node(), be.clock(),
                                                    be.scheduler(), reg(), hc);
  core::ServiceConfig wc;
  wc.peer_id = "w0";
  wc.reliable = rel;
  wc.bind_retry_s = 0.2;
  auto worker = std::make_unique<core::TrianaService>(
      be.add_node(), be.clock(), be.scheduler(), reg(), wc);
  home->node().add_neighbor(worker->endpoint());
  worker->node().add_neighbor(home->endpoint());

  core::TaskGraph g = deploy_graph();
  home->publish_graph_modules(g);
  core::TrianaController ctl(*home);
  const double t0 = wall_s();
  auto run = ctl.distribute(g, "G",
                            std::vector<net::Endpoint>{worker->endpoint()});
  const bool ok =
      be.run_until(be.now() + 30.0, [&] { return run->deployed_ok(); });
  return ok ? (wall_s() - t0) * 1000.0 : -1.0;
}

Row run_scenario(const std::string& name, obs::Registry* registry) {
  Row row;
  row.scenario = name;
  const bool batch = name == "tcp-batched";
  auto backend = [&]() -> std::unique_ptr<net::NetworkBackend> {
    if (name == "sim") {
      return std::make_unique<net::SimBackend>(net::LinkParams{}, 7);
    }
    return std::make_unique<net::TcpLoopbackBackend>();
  };
  if (run_stream(*backend(), batch, row, registry) < 0) return row;
  row.deploy_ms = run_deploy(*backend(), batch);
  row.completed = row.completed && row.deploy_ms >= 0;
  return row;
}

std::string rows_json(const std::vector<Row>& rows) {
  return bench::json_rows(rows, [](std::string& out, const Row& r) {
    out += "\"scenario\":\"" + r.scenario + "\"";
    out += ",\"msgs_per_s\":" + obs::json_number(r.msgs_per_s);
    out += ",\"wall_s\":" + obs::json_number(r.wall_s);
    out += ",\"deploy_ms\":" + obs::json_number(r.deploy_ms);
    out += ",\"retransmits\":" + std::to_string(r.retransmits);
    out += ",\"batches_on_wire\":" + std::to_string(r.batches_on_wire);
    out += ",\"completed\":" + std::string(r.completed ? "true" : "false");
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench b("bench_wire");
  b.flags.add("--messages", g_messages, 1);
  b.json_flag();
  b.trace_flag();
  b.obs_flags();
  if (!b.flags.parse(argc, argv)) return 2;

  std::printf("E13: wire throughput and deploy latency, sim vs loopback TCP\n");
  std::printf("%d small envelopes, window %d, reliable effectively-once\n\n",
              g_messages, kWindow);
  std::printf("%-12s %-12s %-10s %-11s %-8s %-10s\n", "scenario", "msgs/s",
              "wall s", "deploy ms", "retx", "batches");

  obs::Registry registry;
  bench::ObsServer server(b, registry);
  if (!server.start()) return 1;

  std::vector<Row> rows;
  for (const char* name : {"sim", "tcp", "tcp-batched"}) {
    Row r = run_scenario(name, &registry);
    rows.push_back(r);
    std::printf("%-12s %-12.0f %-10.3f %-11.2f %-8llu %-10llu\n",
                r.scenario.c_str(), r.msgs_per_s, r.wall_s, r.deploy_ms,
                static_cast<unsigned long long>(r.retransmits),
                static_cast<unsigned long long>(r.batches_on_wire));
    if (!r.completed) {
      std::fprintf(stderr, "bench_wire: scenario %s did not complete\n",
                   r.scenario.c_str());
      return 1;
    }
  }

  const Row& tcp = rows[1];
  const Row& batched = rows[2];
  const double speedup =
      tcp.msgs_per_s > 0 ? batched.msgs_per_s / tcp.msgs_per_s : 0.0;
  std::printf(
      "\nBatching speedup on TCP: %.2fx (batched %f msgs/s over %llu kBatch "
      "frames vs %f unbatched)\n",
      speedup, batched.msgs_per_s,
      static_cast<unsigned long long>(batched.batches_on_wire),
      tcp.msgs_per_s);
  if (batched.batches_on_wire == 0) {
    std::fprintf(stderr, "bench_wire: FAIL -- batched run sent no kBatch "
                         "frames; coalescing is not engaging\n");
    return 1;
  }
  if (speedup < 2.0) {
    std::fprintf(stderr,
                 "bench_wire: FAIL -- batched TCP is %.2fx unbatched, "
                 "expected >= 2x on the small-envelope workload\n",
                 speedup);
    return 1;
  }

  if (!b.write_json("{\"bench\":\"wire\",\"messages\":" +
                    std::to_string(g_messages) +
                    ",\"batch_speedup\":" + obs::json_number(speedup) +
                    ",\"rows\":" + rows_json(rows) + ",\"metrics\":" +
                    registry.snapshot().to_json(/*pretty=*/false) + "}")) {
    return 1;
  }

  // --trace: rerun the batched TCP stream with a tracer bound; the
  // envelope spans pair across the two peers into one causal DAG for
  // congrid-trace --validate.
  if (b.tracing()) {
    obs::Registry trace_registry;
    obs::Tracer tracer(1 << 16);
    net::TcpLoopbackBackend be;
    Row traced;
    traced.scenario = "tcp-batched-traced";
    if (run_stream(be, true, traced, &trace_registry, &tracer) < 0) {
      std::fprintf(stderr, "bench_wire: traced rerun did not complete\n");
      return 1;
    }
    if (!b.write_trace(tracer)) return 1;
  }

  server.linger();
  return 0;
}
