// Observability layer: metrics registry, JSON export, event tracer, and
// the instrumentation wired through the network / reliable / cache / churn
// / service layers. Counter-value assertions are gated on
// CONGRID_OBS_ENABLED so the suite also passes (trivially) when built with
// -DCONGRID_OBS=OFF -- the point of that configuration is that call sites
// compile and run with zero observable effect.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "churn/availability.hpp"
#include "core/service/controller.hpp"
#include "core/unit/builtin.hpp"
#include "net/fault.hpp"
#include "net/reliable.hpp"
#include "net/sim_network.hpp"
#include "obs/obs.hpp"
#include "repo/module_cache.hpp"
#include "repo/repository.hpp"

namespace cg {
namespace {

// ------------------------------------------------------------ metrics core

TEST(Metrics, CounterAndGaugeBasics) {
  obs::Registry reg;
  auto& c = reg.counter("c");
  c.inc();
  c.inc(4);
  auto& g = reg.gauge("g");
  g.set(2.5);
  g.add(-1.0);
#if CONGRID_OBS_ENABLED
  EXPECT_EQ(c.value(), 5u);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  // Same name resolves to the same instrument.
  reg.counter("c").inc();
  EXPECT_EQ(c.value(), 6u);
#else
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
#endif
}

TEST(Metrics, HistogramBucketsAndQuantiles) {
  obs::Histogram h({1.0, 2.0, 4.0});
  for (double v : {0.5, 0.5, 1.5, 3.0, 10.0}) h.observe(v);
  const obs::HistogramData d = h.snapshot();
#if CONGRID_OBS_ENABLED
  EXPECT_EQ(d.count, 5u);
  ASSERT_EQ(d.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(d.counts[0], 2u);     // <= 1.0
  EXPECT_EQ(d.counts[1], 1u);     // <= 2.0
  EXPECT_EQ(d.counts[2], 1u);     // <= 4.0
  EXPECT_EQ(d.counts[3], 1u);     // overflow
  EXPECT_DOUBLE_EQ(d.min, 0.5);
  EXPECT_DOUBLE_EQ(d.max, 10.0);
  EXPECT_DOUBLE_EQ(d.mean(), 15.5 / 5.0);
  // p50 falls in the first bucket, p99 past the last bound.
  EXPECT_LE(d.quantile(0.5), 2.0);
  EXPECT_GE(d.quantile(0.99), 4.0);
#else
  EXPECT_EQ(d.count, 0u);
#endif
}

TEST(Metrics, ScopedNames) {
  EXPECT_EQ(obs::scoped("peer1", "reliable.sent"), "peer1.reliable.sent");
  EXPECT_EQ(obs::scoped("", "reliable.sent"), "reliable.sent");
}

TEST(Metrics, SnapshotLookupAndJsonAlwaysValid) {
  obs::Registry reg;
  reg.counter("a.count").inc(3);
  reg.gauge("a.level").set(7.25);
  reg.histogram("a.lat").observe(0.5);
  const obs::MetricsSnapshot snap = reg.snapshot();
#if CONGRID_OBS_ENABLED
  EXPECT_EQ(snap.counter("a.count"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauge("a.level"), 7.25);
  ASSERT_NE(snap.histogram("a.lat"), nullptr);
  EXPECT_EQ(snap.histogram("a.lat")->count, 1u);
#endif
  // Unknown names read as zero/null, never throw.
  EXPECT_EQ(snap.counter("nope"), 0u);
  EXPECT_EQ(snap.histogram("nope"), nullptr);
  // Export must be valid JSON in every mode, pretty or compact.
  EXPECT_TRUE(obs::json_valid(snap.to_json(/*pretty=*/true)));
  EXPECT_TRUE(obs::json_valid(snap.to_json(/*pretty=*/false)));
}

TEST(Metrics, SnapshotQuantileHelperAgreesWithDirectExtraction) {
  // Fixture for the two extraction paths that used to coexist: benches
  // finding the HistogramData by hand vs the snapshot-level helper the
  // HTTP plane and bench_churn_campaign now share. They must agree bit
  // for bit, and unknown/empty names must read as 0 rather than throw.
  obs::Registry reg;
  auto& h = reg.histogram("sup.recovery_s", {1.0, 2.0, 4.0, 8.0});
  for (double v : {0.5, 1.5, 1.5, 3.0, 3.5, 5.0, 7.0, 12.0}) h.observe(v);
  const obs::MetricsSnapshot snap = reg.snapshot();
#if CONGRID_OBS_ENABLED
  const auto it = snap.histograms.find("sup.recovery_s");
  ASSERT_NE(it, snap.histograms.end());
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(snap.histogram_quantile("sup.recovery_s", q),
                     it->second.quantile(q))
        << "q=" << q;
  }
  EXPECT_GT(snap.histogram_quantile("sup.recovery_s", 0.95), 0.0);
  // The JSON export carries the same quantiles (p50/p95/p99 keys).
  const std::string json = snap.to_json(/*pretty=*/false);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
#endif
  EXPECT_DOUBLE_EQ(snap.histogram_quantile("nope", 0.95), 0.0);
}

// -------------------------------------------------------------- validator

TEST(Json, ValidatorAcceptsRealJson) {
  EXPECT_TRUE(obs::json_valid("{}"));
  EXPECT_TRUE(obs::json_valid("[]"));
  EXPECT_TRUE(obs::json_valid("  {\"a\": [1, 2.5, -3e-2], \"b\": "
                              "{\"c\": \"x\\\"y\\u0041\", \"d\": null}} "));
  EXPECT_TRUE(obs::json_valid("true"));
  EXPECT_TRUE(obs::json_valid("-0.5"));
}

TEST(Json, ValidatorRejectsMalformed) {
  EXPECT_FALSE(obs::json_valid(""));
  EXPECT_FALSE(obs::json_valid("{"));
  EXPECT_FALSE(obs::json_valid("{\"a\":}"));
  EXPECT_FALSE(obs::json_valid("{\"a\":1,}"));
  EXPECT_FALSE(obs::json_valid("[1 2]"));
  EXPECT_FALSE(obs::json_valid("{\"a\":1} trailing"));
  EXPECT_FALSE(obs::json_valid("\"unterminated"));
  EXPECT_FALSE(obs::json_valid("01"));
  EXPECT_FALSE(obs::json_valid("nul"));
}

TEST(Json, NumberNeverEmitsNonFinite) {
  EXPECT_TRUE(obs::json_valid(obs::json_number(1.0 / 3.0)));
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(obs::json_number(std::nan("")), "0");
}

TEST(Json, QuoteEscapesControlCharsAndQuotes) {
  EXPECT_EQ(obs::json_quote("plain"), "\"plain\"");
  EXPECT_EQ(obs::json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(obs::json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(obs::json_quote("\n\t\r"), "\"\\n\\t\\r\"");
  // Control characters without shorthand escapes use \u00XX.
  EXPECT_EQ(obs::json_quote(std::string(1, '\x01')), "\"\\u0001\"");
  EXPECT_EQ(obs::json_quote(std::string(1, '\x1f')), "\"\\u001f\"");
  // NUL embedded mid-string must not truncate the output.
  const std::string nul = std::string("a") + '\0' + "b";
  EXPECT_EQ(obs::json_quote(nul), "\"a\\u0000b\"");
  for (const char* s : {"plain", "a\"b", "a\\b", "\n\t\r", "\x01", "\x7f"}) {
    EXPECT_TRUE(obs::json_valid(obs::json_quote(s))) << s;
  }
}

TEST(Json, QuotePassesValidUtf8Through) {
  // 2-, 3- and 4-byte sequences: é, €, 🌍 -- copied verbatim, still valid.
  const std::string s = "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x8c\x8d";
  EXPECT_EQ(obs::json_quote(s), "\"" + s + "\"");
  EXPECT_TRUE(obs::json_valid(obs::json_quote(s)));
}

TEST(Json, QuoteReplacesInvalidUtf8WithReplacementChar) {
  const std::string fffd = "\xef\xbf\xbd";  // U+FFFD
  // Lone continuation byte, overlong-start byte with no continuation, and
  // a truncated 3-byte sequence: each becomes one replacement character
  // instead of leaking broken bytes into the JSON document.
  EXPECT_EQ(obs::json_quote("\x80"), "\"" + fffd + "\"");
  EXPECT_EQ(obs::json_quote("a\xc3"), "\"a" + fffd + "\"");
  EXPECT_EQ(obs::json_quote("a\xe2\x82"), "\"a" + fffd + "\"");
  // Valid neighbours survive an invalid byte between them.
  EXPECT_EQ(obs::json_quote("x\xffy"), "\"x" + fffd + "y\"");
  for (const char* s : {"\x80", "a\xc3", "a\xe2\x82", "x\xffy", "\xfe\xff"}) {
    EXPECT_TRUE(obs::json_valid(obs::json_quote(s)));
  }
}

// ----------------------------------------------------------------- tracer

TEST(Tracer, SpansPairAndClockApplies) {
  obs::Tracer tr(64);
  double now = 1.5;
  tr.set_clock([&now] { return now; });
  const std::uint64_t span = tr.begin_span("home", "deploy", "job=j1");
  now = 3.5;
  tr.end_span(span, "home", "deploy", "acked");
  tr.event("sim:2", "net.node_down");
  const auto evs = tr.events();
#if CONGRID_OBS_ENABLED
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].kind, obs::EventKind::kSpanBegin);
  EXPECT_EQ(evs[1].kind, obs::EventKind::kSpanEnd);
  EXPECT_NE(span, 0u);
  EXPECT_EQ(evs[0].span, evs[1].span);
  EXPECT_DOUBLE_EQ(evs[0].t, 1.5);
  EXPECT_DOUBLE_EQ(evs[1].t, 3.5);
  EXPECT_EQ(evs[2].node, "sim:2");
  // Ending span 0 (a disabled begin) must be a no-op, not an event.
  tr.end_span(0, "home", "deploy");
  EXPECT_EQ(tr.events().size(), 3u);
#else
  EXPECT_TRUE(evs.empty());
  EXPECT_EQ(span, 0u);
#endif
}

TEST(Tracer, RingWrapsAndCountsDrops) {
  obs::Tracer tr(4);
  for (int i = 0; i < 10; ++i) {
    tr.event("n", std::string("e").append(std::to_string(i)));
  }
#if CONGRID_OBS_ENABLED
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.capacity(), 4u);
  EXPECT_EQ(tr.dropped(), 6u);
  const auto evs = tr.events();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest-first and only the newest survive.
  EXPECT_EQ(evs.front().name, "e6");
  EXPECT_EQ(evs.back().name, "e9");
  tr.clear();
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_EQ(tr.dropped(), 0u);
#else
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_EQ(tr.dropped(), 0u);
#endif
}

TEST(Tracer, JsonlLinesAreEachValidJson) {
  obs::Tracer tr(16);
  tr.event("sim:1", "net.node_up", "weird \"detail\"\nwith newline");
  const std::uint64_t s = tr.begin_span("home", "deploy");
  tr.end_span(s, "home", "deploy", "acked");
  const std::string jsonl = tr.to_jsonl();
#if CONGRID_OBS_ENABLED
  std::istringstream in(jsonl);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(obs::json_valid(line)) << line;
    if (lines == 1) {
      // Header first: identifies the format and carries the ring counters
      // congrid-trace uses to detect incomplete captures.
      EXPECT_NE(line.find("\"congrid_trace\""), std::string::npos);
      EXPECT_NE(line.find("\"events\":3"), std::string::npos);
      EXPECT_NE(line.find("\"dropped\":0"), std::string::npos);
    }
  }
  EXPECT_EQ(lines, 4);  // header + 3 events
#else
  EXPECT_TRUE(jsonl.empty());
#endif
}

TEST(Tracer, JsonlHeaderReportsRingOverwrites) {
  obs::Tracer tr(4);
  for (int i = 0; i < 9; ++i) {
    tr.event("n", std::string("e").append(std::to_string(i)));
  }
  const std::string jsonl = tr.to_jsonl();
#if CONGRID_OBS_ENABLED
  const std::string header = jsonl.substr(0, jsonl.find('\n'));
  EXPECT_TRUE(obs::json_valid(header)) << header;
  // 9 events through a 4-slot ring: 5 overwritten, 4 retained. The
  // analyzer reads this to warn that span pairing may be incomplete.
  EXPECT_NE(header.find("\"dropped\":5"), std::string::npos) << header;
  EXPECT_NE(header.find("\"events\":4"), std::string::npos) << header;
  EXPECT_NE(header.find("\"capacity\":4"), std::string::npos) << header;
#else
  EXPECT_TRUE(jsonl.empty());
#endif
}

TEST(Tracer, RingOverwritesExportedAsGauge) {
  obs::Registry reg;
  obs::Tracer tr(4);
  tr.set_obs(reg, "t");
  for (int i = 0; i < 9; ++i) {
    tr.event("n", std::string("e").append(std::to_string(i)));
  }
  obs::MetricsSnapshot snap = reg.snapshot();
#if CONGRID_OBS_ENABLED
  // Both shapes of the same fact: the counter accumulates per overwrite,
  // the gauge mirrors dropped() so a live scrape reads it directly.
  EXPECT_EQ(snap.counter("t.trace.dropped_events"), 5u);
  EXPECT_DOUBLE_EQ(snap.gauge("t.trace.ring_overwrites"), 5.0);
  tr.clear();
  snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.gauge("t.trace.ring_overwrites"), 0.0);
#else
  EXPECT_EQ(snap.counter("t.trace.dropped_events"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauge("t.trace.ring_overwrites"), 0.0);
#endif
}

// --------------------------------------------- reliable transport + network

struct LossyPair {
  explicit LossyPair(double drop, std::uint64_t seed = 11) : net({}, seed) {
    auto clock = net.clock();
    auto sched = net.scheduler();
    a = std::make_unique<net::ReliableTransport>(net.add_node(), clock, sched,
                                                 net::ReliableConfig{});
    b = std::make_unique<net::ReliableTransport>(net.add_node(), clock, sched,
                                                 net::ReliableConfig{});
    net.set_obs(registry, &tracer);
    a->set_obs(registry, &tracer, "a");
    b->set_obs(registry, &tracer, "b");
    net::FaultPlan plan;
    plan.default_link.drop = drop;
    if (drop > 0) net.arm_faults(plan, seed ^ 0x5eedu);
  }

  void send_burst(int n) {
    b->set_handler([](const net::Endpoint&, serial::Frame) {});
    for (int i = 0; i < n; ++i) {
      net.schedule(i * 0.25, [this] {
        serial::Frame f;
        f.type = serial::FrameType::kControl;
        f.payload = {1, 2, 3};
        a->send(b->local(), f);
      });
    }
    net.run_all();
  }

  net::SimNetwork net;
  obs::Registry registry;
  obs::Tracer tracer{1 << 12};
  std::unique_ptr<net::ReliableTransport> a, b;
};

TEST(ObsReliable, LossyLinkShowsRetransmitsAndDedup) {
  LossyPair pair(0.10);
  pair.send_burst(60);
  const obs::MetricsSnapshot snap = pair.registry.snapshot();
#if CONGRID_OBS_ENABLED
  // Counters mirror the transport's own stats exactly.
  EXPECT_EQ(snap.counter("a.reliable.retransmits"),
            pair.a->stats().retransmits);
  EXPECT_EQ(snap.counter("b.reliable.dedup_hits"),
            pair.b->stats().duplicates_suppressed);
  EXPECT_EQ(snap.counter("a.reliable.sent"), 60u);
  // At 10% frame loss some envelope or ack must have died.
  EXPECT_GT(snap.counter("a.reliable.retransmits"), 0u);
  EXPECT_GT(snap.counter("b.reliable.dedup_hits"), 0u);
  EXPECT_EQ(snap.counter("b.reliable.delivered"), 60u);
  // Every retransmit implies a backoff wait was observed.
  ASSERT_NE(snap.histogram("a.reliable.backoff_wait_s"), nullptr);
  EXPECT_GE(snap.histogram("a.reliable.backoff_wait_s")->count,
            snap.counter("a.reliable.retransmits"));
  // Ack latency recorded for every acked envelope.
  ASSERT_NE(snap.histogram("a.reliable.ack_latency_s"), nullptr);
  EXPECT_EQ(snap.histogram("a.reliable.ack_latency_s")->count,
            snap.counter("a.reliable.acked"));
  // The trace saw the retry storm too.
  bool saw_retx = false;
  for (const auto& ev : pair.tracer.events()) {
    if (ev.name == "reliable.retx") saw_retx = true;
  }
  EXPECT_TRUE(saw_retx);
#else
  EXPECT_EQ(snap.counter("a.reliable.retransmits"), 0u);
  EXPECT_TRUE(snap.to_json(false) ==
              "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
#endif
}

TEST(ObsReliable, LossFreeLinkShowsZeroRetransmits) {
  LossyPair pair(0.0);
  pair.send_burst(60);
  const obs::MetricsSnapshot snap = pair.registry.snapshot();
  EXPECT_EQ(snap.counter("a.reliable.retransmits"), 0u);
  EXPECT_EQ(snap.counter("b.reliable.dedup_hits"), 0u);
  EXPECT_EQ(snap.counter("a.reliable.expired"), 0u);
#if CONGRID_OBS_ENABLED
  EXPECT_EQ(snap.counter("a.reliable.sent"), 60u);
  EXPECT_EQ(snap.counter("a.reliable.acked"), 60u);
  EXPECT_EQ(snap.counter("b.reliable.delivered"), 60u);
#endif
}

TEST(ObsNetwork, FrameCountersMirrorSimStats) {
  net::SimNetwork net({}, 3);
  obs::Registry reg;
  net.set_obs(reg, nullptr, "net0");
  auto& a = net.add_node();
  auto& b = net.add_node();
  net::FaultPlan plan;
  plan.default_link.drop = 0.3;
  net.arm_faults(plan, 99);

  int got = 0;
  b.set_handler([&](const net::Endpoint&, serial::Frame) { ++got; });
  for (int i = 0; i < 100; ++i) {
    serial::Frame f;
    f.type = serial::FrameType::kControl;
    f.payload = {42};
    a.send(b.local(), f);
  }
  net.run_all();

  const obs::MetricsSnapshot snap = reg.snapshot();
#if CONGRID_OBS_ENABLED
  EXPECT_EQ(snap.counter("net0.net.frames_sent"), net.stats().messages_sent);
  EXPECT_EQ(snap.counter("net0.net.frames_delivered"),
            net.stats().messages_delivered);
  EXPECT_EQ(snap.counter("net0.net.frames_dropped"),
            net.stats().messages_dropped);
  EXPECT_EQ(snap.counter("net0.net.frames_sent"), 100u);
  EXPECT_GT(snap.counter("net0.net.frames_dropped"), 0u);
  EXPECT_EQ(snap.counter("net0.net.frames_delivered"),
            static_cast<std::uint64_t>(got));
  // Per-link delay histogram saw every delivered frame.
  ASSERT_NE(snap.histogram("net0.net.link_delay_s"), nullptr);
  EXPECT_EQ(snap.histogram("net0.net.link_delay_s")->count,
            net.stats().messages_delivered);
#else
  EXPECT_EQ(snap.counter("net0.net.frames_sent"), 0u);
#endif
}

// ------------------------------------------------------------ module cache

TEST(ObsCache, CountersMatchCacheStats) {
  repo::ModuleRepository repo;
  for (int i = 0; i < 6; ++i) {
    repo.put(repo::make_synthetic_artifact(
        std::string("m").append(std::to_string(i)), "1.0", 1024));
  }
  obs::Registry reg;
  repo::ModuleCache cache(3 * 1024);  // room for 3 modules -> evictions
  cache.set_obs(reg, "w0");
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 6; ++i) {
      const std::string name = std::string("m").append(std::to_string(i));
      if (!cache.lookup(name)) cache.insert(*repo.latest(name));
    }
  }
  [[maybe_unused]] const auto& s = cache.stats();  // read only with OBS on
  const obs::MetricsSnapshot snap = reg.snapshot();
#if CONGRID_OBS_ENABLED
  EXPECT_EQ(snap.counter("w0.cache.hits"), s.hits);
  EXPECT_EQ(snap.counter("w0.cache.misses"), s.misses);
  EXPECT_EQ(snap.counter("w0.cache.insertions"), s.insertions);
  EXPECT_EQ(snap.counter("w0.cache.evictions"), s.evictions);
  EXPECT_EQ(snap.counter("w0.cache.bytes_fetched"), s.bytes_fetched);
  EXPECT_GT(s.evictions, 0u);  // working set 6 > capacity 3
  EXPECT_GT(s.misses, 0u);
  // Gauge tracks residency and never exceeds the budget.
  EXPECT_GT(snap.gauge("w0.cache.resident_bytes"), 0.0);
  EXPECT_LE(snap.gauge("w0.cache.resident_bytes"), 3.0 * 1024);
#else
  EXPECT_EQ(snap.counter("w0.cache.hits"), 0u);
#endif
}

// ------------------------------------------------------------------ churn

TEST(ObsChurn, TraceTransitionsAreCounted) {
  net::SimNetwork net({}, 5);
  net.add_node();  // node 0
  obs::Registry reg;
  obs::Tracer tracer(256);
  net.set_obs(reg, &tracer);
  // Two availability intervals: up at 1..3 and 5..7 (down otherwise).
  churn::Trace trace{{1.0, 3.0}, {5.0, 7.0}};
  net::FaultPlan plan;
  plan.crashes = churn::crash_windows(0, trace);
  net.arm_faults(plan, 1);
  net.run_all();
  const obs::MetricsSnapshot snap = reg.snapshot();
#if CONGRID_OBS_ENABLED
  // Down at 0, 3 and 7; up at 1 and 5.
  EXPECT_EQ(snap.counter("net.node_up"), 2u);
  EXPECT_EQ(snap.counter("net.node_down"), 3u);
  int ups = 0, downs = 0;
  for (const auto& ev : tracer.events()) {
    if (ev.name == "net.node_up") ++ups;
    if (ev.name == "net.node_down") ++downs;
  }
  EXPECT_EQ(ups, 2);
  EXPECT_EQ(downs, 3);
#else
  EXPECT_EQ(snap.counter("net.node_up"), 0u);
#endif
}

// -------------------------------------------------------- service lifecycle

TEST(ObsService, RemoteDeployRecordsLifecycle) {
  using namespace cg::core;
  static UnitRegistry ureg = UnitRegistry::with_builtins();
  net::SimNetwork net({}, 1);
  auto clock = net.clock();
  auto sched = net.scheduler();
  ServiceConfig hc;
  hc.peer_id = "home";
  TrianaService home(net.add_node(), clock, sched, ureg, hc);
  ServiceConfig wc;
  wc.peer_id = "w0";
  TrianaService worker(net.add_node(), clock, sched, ureg, wc);
  home.node().add_neighbor(worker.endpoint());
  worker.node().add_neighbor(home.endpoint());

  obs::Registry reg;
  obs::Tracer tracer(1 << 12);
  home.set_obs(reg, &tracer);    // scope defaults to peer_id "home"
  worker.set_obs(reg, &tracer);  // "w0"

  TaskGraph g("remote");
  g.add_task("Wave", "Wave");
  g.add_task("Sink", "NullSink");
  g.connect("Wave", 0, "Sink", 0);
  home.publish_graph_modules(g, 4096);

  bool acked = false;
  home.deploy_remote(worker.endpoint(), g, 3,
                     [&](const DeployAckMsg& a) { acked = a.ok; });
  net.run_all();
  ASSERT_TRUE(acked);

  const obs::MetricsSnapshot snap = reg.snapshot();
#if CONGRID_OBS_ENABLED
  EXPECT_EQ(snap.counter("w0.service.deploys_received"), 1u);
  EXPECT_EQ(snap.counter("w0.service.jobs_started"), 1u);
  EXPECT_EQ(snap.counter("w0.service.modules_fetched"),
            worker.stats().modules_fetched);
  EXPECT_GT(snap.counter("w0.service.modules_fetched"), 0u);
  // Client-side RTT and server-side time-to-start both observed once.
  ASSERT_NE(snap.histogram("home.service.deploy_rtt_s"), nullptr);
  EXPECT_EQ(snap.histogram("home.service.deploy_rtt_s")->count, 1u);
  ASSERT_NE(snap.histogram("w0.service.deploy_start_s"), nullptr);
  EXPECT_EQ(snap.histogram("w0.service.deploy_start_s")->count, 1u);
  // Trace holds a paired client span plus the worker-side deploy span.
  int begins = 0, ends = 0;
  for (const auto& ev : tracer.events()) {
    if (ev.name == "deploy.client") {
      if (ev.kind == obs::EventKind::kSpanBegin) ++begins;
      if (ev.kind == obs::EventKind::kSpanEnd) ++ends;
    }
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
  // The whole instrumented run still exports as one valid JSON object.
  EXPECT_TRUE(obs::json_valid(snap.to_json(false)));
#else
  EXPECT_EQ(snap.counter("w0.service.deploys_received"), 0u);
#endif
}

}  // namespace
}  // namespace cg
