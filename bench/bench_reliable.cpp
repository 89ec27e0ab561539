// E10 -- reliable control plane under lossy consumer links.
//
// Paper (3.6.2): volunteer peers sit behind consumer DSL/cable links and
// "may become unavailable without notice". A fire-and-forget control plane
// loses deploys, acks and cancels in proportion to the frame loss rate;
// ReliableTransport buys effectively-once delivery with retransmissions.
//
// Setup: two peers on a simulated DSL link; a FaultInjector imposes a swept
// frame-loss probability (applied independently to data, envelopes and
// acks). The sender pushes kMessages control frames, paced so retry storms
// from one message do not starve the next. Reported per loss point: raw
// (unreliable) delivery rate for the same fault stream, reliable delivery
// rate, retransmissions per message, duplicate envelopes suppressed at the
// receiver, expiries, and mean delivery latency.
//
// Machine-readable output: --json PATH writes a BENCH_reliable.json
// artifact holding the table rows plus the full obs metrics snapshot
// (per-loss-point scopes: "loss05.a.reliable.retransmits", ...). CI's
// bench-smoke job runs this with --messages 40 and validates the JSON.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "net/fault.hpp"
#include "net/reliable.hpp"
#include "net/sim_network.hpp"
#include "obs/obs.hpp"

using namespace cg;

namespace {

int g_messages = 200;            ///< --messages N (CI smoke uses a small N)
constexpr double kPaceS = 0.25;  ///< gap between sends (virtual seconds)

serial::Frame indexed_frame(int i) {
  serial::Frame f;
  f.type = serial::FrameType::kControl;
  f.payload = {static_cast<std::uint8_t>(i & 0xff),
               static_cast<std::uint8_t>((i >> 8) & 0xff)};
  return f;
}

int frame_index(const serial::Frame& f) {
  return static_cast<int>(f.payload[0]) | (static_cast<int>(f.payload[1]) << 8);
}

struct Row {
  double loss = 0;
  double raw_delivered = 0;       ///< fraction, fire-and-forget baseline
  double reliable_delivered = 0;  ///< fraction
  double retx_per_msg = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t expired = 0;
  double mean_latency_ms = 0;  ///< send -> unique delivery, successes only
};

/// Scope label for one loss point: 0.05 -> "loss05".
std::string loss_scope(double loss) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "loss%02d", static_cast<int>(loss * 100 + 0.5));
  return buf;
}

/// Fire-and-forget baseline: same link, same fault plan, plain transports.
double run_raw(double loss, std::uint64_t seed) {
  net::SimNetwork net({}, seed);
  auto& a = net.add_node();
  auto& b = net.add_node();

  net::FaultPlan plan;
  plan.default_link.drop = loss;
  net.arm_faults(plan, seed);

  int got = 0;
  b.set_handler([&](const net::Endpoint&, serial::Frame) { ++got; });
  for (int i = 0; i < g_messages; ++i) {
    net.schedule(i * kPaceS, [&, i] { a.send(b.local(), indexed_frame(i)); });
  }
  net.run_all();
  return static_cast<double>(got) / g_messages;
}

Row run_reliable(double loss, std::uint64_t seed, obs::Registry& registry,
                 obs::Tracer* tracer = nullptr) {
  net::SimNetwork net({}, seed);
  auto& ta = net.add_node();
  auto& tb = net.add_node();
  auto clock = net.clock();
  auto sched = net.scheduler();

  net::ReliableConfig cfg;
  cfg.seed = seed;
  net::ReliableTransport a(ta, clock, sched, cfg);
  net::ReliableTransport b(tb, clock, sched, cfg);

  const std::string scope = loss_scope(loss);
  net.set_obs(registry, tracer, scope);
  a.set_obs(registry, tracer, scope + ".a");
  b.set_obs(registry, tracer, scope + ".b");
  // Traced pass: stamp every envelope with a fixed trace id so
  // congrid-trace can pair the two peers' events into one causal DAG.
  if (tracer != nullptr) a.set_trace(0xe10c0ffee | 1);

  net::FaultPlan plan;
  plan.default_link.drop = loss;
  net.arm_faults(plan, seed);

  std::vector<double> sent_at(g_messages, 0.0);
  int got = 0;
  double latency_sum = 0;
  b.set_handler([&](const net::Endpoint&, serial::Frame f) {
    ++got;
    latency_sum += net.now() - sent_at[frame_index(f)];
  });
  for (int i = 0; i < g_messages; ++i) {
    net.schedule(i * kPaceS, [&, i] {
      sent_at[i] = net.now();
      a.send(b.local(), indexed_frame(i));
    });
  }
  net.run_all();

  Row r;
  r.loss = loss;
  r.reliable_delivered = static_cast<double>(got) / g_messages;
  r.retx_per_msg =
      static_cast<double>(a.stats().retransmits) / g_messages;
  r.dup_suppressed = b.stats().duplicates_suppressed;
  r.expired = a.stats().expired;
  r.mean_latency_ms = got ? latency_sum / got * 1000.0 : 0.0;
  return r;
}

std::string rows_json(const std::vector<Row>& rows) {
  return bench::json_rows(rows, [](std::string& out, const Row& r) {
    out += "\"loss\":" + obs::json_number(r.loss);
    out += ",\"raw_delivered\":" + obs::json_number(r.raw_delivered);
    out += ",\"reliable_delivered\":" + obs::json_number(r.reliable_delivered);
    out += ",\"retx_per_msg\":" + obs::json_number(r.retx_per_msg);
    out += ",\"dup_suppressed\":" + std::to_string(r.dup_suppressed);
    out += ",\"expired\":" + std::to_string(r.expired);
    out += ",\"mean_latency_ms\":" + obs::json_number(r.mean_latency_ms);
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench b("bench_reliable");
  b.flags.add("--messages", g_messages, 1);
  b.json_flag();
  b.trace_flag();
  if (!b.flags.parse(argc, argv)) return 2;

  std::printf("E10: reliable delivery vs frame loss (paper section 3.6.2)\n");
  std::printf("DSL link, %d control messages, loss applied to every frame "
              "(envelopes and acks alike)\n\n",
              g_messages);
  std::printf("%-8s %-10s %-10s %-10s %-10s %-9s %-12s\n", "loss", "raw",
              "reliable", "retx/msg", "dup-supp", "expired", "latency ms");

  obs::Registry registry;
  std::vector<Row> rows;
  for (double loss : {0.0, 0.05, 0.10, 0.20, 0.30}) {
    Row r = run_reliable(loss, 7, registry);
    r.raw_delivered = run_raw(loss, 7);
    rows.push_back(r);
    std::printf("%-8.2f %-10.3f %-10.3f %-10.2f %-10llu %-9llu %-12.1f\n",
                r.loss, r.raw_delivered, r.reliable_delivered, r.retx_per_msg,
                static_cast<unsigned long long>(r.dup_suppressed),
                static_cast<unsigned long long>(r.expired), r.mean_latency_ms);
  }
  std::printf(
      "\nShape check: raw delivery decays linearly with loss while the "
      "reliable rate stays at 1.0 (until loss overwhelms the retry budget); "
      "the price is retransmissions growing roughly 1/(1-loss)^2 -- both "
      "the envelope and its ack must survive -- plus tail latency from "
      "exponential backoff. Duplicates suppressed > 0 proves lost acks were "
      "retried without re-delivery.\n");

  if (!b.write_json("{\"bench\":\"reliable\",\"messages\":" +
                    std::to_string(g_messages) +
                    ",\"rows\":" + rows_json(rows) + ",\"metrics\":" +
                    registry.snapshot().to_json(/*pretty=*/false) + "}")) {
    return 1;
  }

  // --trace: rerun the 10% loss point with a tracer bound and export the
  // causal JSONL (feed it to congrid-trace). A separate registry keeps the
  // traced rerun out of the sweep's metric snapshot.
  if (b.tracing()) {
    obs::Registry trace_registry;
    obs::Tracer tracer(1 << 16);
    (void)run_reliable(0.10, 7, trace_registry, &tracer);
    if (!b.write_trace(tracer)) return 1;
  }
  return 0;
}
