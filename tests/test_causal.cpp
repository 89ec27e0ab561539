// Causal-trace analysis tests (obs::causal + the congrid-trace core).
//
// Two layers:
//
//   * unit tests drive the parser/validator/critical-path code on
//     hand-built JSONL with known timings, so every attribution number is
//     checked against arithmetic done by hand;
//   * acceptance tests run the real service stack (home + 3 workers,
//     p2p pipeline policy) over SimNetwork twice with the same seed --
//     loss-free and at 10% frame loss -- and require that the analyzer
//     reconstructs the SAME application-level causal DAG from both runs,
//     that retransmit stall shows up only in the lossy one, and that
//     binding a tracer changes no output bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/service/controller.hpp"
#include "core/unit/builtin.hpp"
#include "net/fault.hpp"
#include "net/sim_network.hpp"
#include "obs/causal.hpp"
#include "obs/obs.hpp"

namespace cg::core {
namespace {

using obs::causal::Report;
using obs::causal::Trace;
using obs::causal::detail_get;

// ---------------------------------------------------------------------------
// Unit layer: hand-built JSONL.

TEST(CausalDetail, DetailGetParsesSpaceSeparatedTokens) {
  EXPECT_EQ(detail_get("seq=42 conn=a>b type=data", "seq"), "42");
  EXPECT_EQ(detail_get("seq=42 conn=a>b type=data", "conn"), "a>b");
  EXPECT_EQ(detail_get("seq=42 conn=a>b type=data", "type"), "data");
  EXPECT_EQ(detail_get("seq=42 conn=a>b type=data", "missing"), "");
  EXPECT_EQ(detail_get("", "seq"), "");
  // Keys must match whole tokens, not suffixes.
  EXPECT_EQ(detail_get("xseq=1 seq=2", "seq"), "2");
}

TEST(CausalParse, MalformedLineThrowsWithLineNumber) {
  Trace t;
  try {
    t.add_jsonl("{\"congrid_trace\":1,\"events\":0,\"dropped\":0}\nnot json\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(CausalParse, HeaderDroppedCountAccumulatesAcrossFiles) {
  Trace t;
  t.add_jsonl("{\"congrid_trace\":1,\"events\":0,\"dropped\":3}\n");
  t.add_jsonl("{\"congrid_trace\":1,\"events\":0,\"dropped\":4}\n");
  t.finish();
  EXPECT_EQ(t.dropped(), 7u);
  const Report r = t.analyze();
  ASSERT_FALSE(r.warnings.empty());
  EXPECT_NE(r.warnings[0].find("overwritten"), std::string::npos);
}

/// Two nodes, one retransmitted transfer, one compute span. Timeline:
///   t=0.0  A begins reliable.msg seq=1 (first transmission)
///   t=1.0  A retransmits (try=1)
///   t=1.2  B receives the unique copy
///   t=1.4  A's span ends (ack arrived back at A)
///   t=1.2..2.0  B runs a runtime.tick span (the work the data fed)
/// Expected critical path, oldest first:
///   retx_stall [0.0,1.0] + link [1.0,1.2] + compute [1.2,2.0].
std::string retx_fixture() {
  return
      "{\"congrid_trace\":1,\"events\":6,\"dropped\":0,\"capacity\":64}\n"
      "{\"t\":0.0,\"kind\":\"begin\",\"span\":1,\"node\":\"A\",\"name\":"
      "\"reliable.msg\",\"detail\":\"seq=1 conn=a>b type=data\",\"trace\":"
      "\"00000000000000aa\",\"parent\":0,\"lc\":1}\n"
      "{\"t\":1.0,\"kind\":\"event\",\"span\":0,\"node\":\"A\",\"name\":"
      "\"reliable.retx\",\"detail\":\"seq=1 conn=a>b try=1\",\"trace\":"
      "\"00000000000000aa\",\"parent\":0,\"lc\":2}\n"
      "{\"t\":1.2,\"kind\":\"event\",\"span\":0,\"node\":\"B\",\"name\":"
      "\"reliable.recv\",\"detail\":\"seq=1 conn=a>b type=data\",\"trace\":"
      "\"00000000000000aa\",\"parent\":0,\"lc\":3}\n"
      "{\"t\":1.2,\"kind\":\"begin\",\"span\":2,\"node\":\"B\",\"name\":"
      "\"runtime.tick\",\"detail\":\"iter=0\",\"trace\":"
      "\"00000000000000aa\",\"parent\":0,\"lc\":3}\n"
      "{\"t\":1.4,\"kind\":\"end\",\"span\":1,\"node\":\"A\",\"name\":"
      "\"reliable.msg\",\"detail\":\"acked retx=1\"}\n"
      "{\"t\":2.0,\"kind\":\"end\",\"span\":2,\"node\":\"B\",\"name\":"
      "\"runtime.tick\",\"detail\":\"fired=1 waves=1 barrier_stall_s="
      "0.100000\"}\n";
}

TEST(CausalPairing, TransferPairsBySeqAndConnWithRetxFolded) {
  Trace t;
  t.add_jsonl(retx_fixture());
  t.finish();
  ASSERT_EQ(t.transfers().size(), 1u);
  const auto& x = t.transfers()[0];
  EXPECT_EQ(x.conn, "a>b");
  EXPECT_EQ(x.type, "data");
  EXPECT_EQ(x.seq, 1u);
  EXPECT_EQ(x.src, "A");  // event node names, not transport addresses
  EXPECT_EQ(x.dst, "B");
  EXPECT_TRUE(x.delivered);
  EXPECT_EQ(x.retx, 1);
  EXPECT_DOUBLE_EQ(x.send_t, 0.0);
  EXPECT_DOUBLE_EQ(x.last_tx_t, 1.0);
  EXPECT_DOUBLE_EQ(x.recv_t, 1.2);
  EXPECT_EQ(x.send_lamport, 1u);
  EXPECT_EQ(x.recv_lamport, 3u);
  EXPECT_TRUE(t.validate().empty());
}

TEST(CausalPath, AttributionSplitsRetxLinkComputeAndBarrier) {
  Trace t;
  t.add_jsonl(retx_fixture());
  t.finish();
  const Report r = t.analyze();
  EXPECT_TRUE(r.ok());
  ASSERT_EQ(r.critical_path.size(), 3u);
  EXPECT_EQ(r.critical_path[0].category, "retx_stall");
  EXPECT_EQ(r.critical_path[1].category, "link");
  EXPECT_EQ(r.critical_path[2].category, "compute");
  EXPECT_NEAR(r.attribution.at("retx_stall"), 1.0, 1e-9);
  EXPECT_NEAR(r.attribution.at("link"), 0.2, 1e-9);
  // The engine reported 0.1 s of barrier stall inside the 0.8 s tick.
  EXPECT_NEAR(r.attribution.at("compute"), 0.7, 1e-9);
  EXPECT_NEAR(r.attribution.at("barrier_stall"), 0.1, 1e-9);
}

TEST(CausalValidate, RecvBeforeSendIsAnError) {
  Trace t;
  t.add_jsonl(
      "{\"congrid_trace\":1,\"events\":2,\"dropped\":0}\n"
      "{\"t\":5.0,\"kind\":\"begin\",\"span\":1,\"node\":\"A\",\"name\":"
      "\"reliable.msg\",\"detail\":\"seq=9 conn=a>b type=control\"}\n"
      "{\"t\":1.0,\"kind\":\"event\",\"span\":0,\"node\":\"B\",\"name\":"
      "\"reliable.recv\",\"detail\":\"seq=9 conn=a>b type=control\"}\n");
  t.finish();
  const auto errors = t.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("recv before send"), std::string::npos);
}

TEST(CausalValidate, UnpairedSpanIsAnErrorUnlessRingDropped) {
  const std::string begin_only =
      "{\"t\":0.0,\"kind\":\"begin\",\"span\":7,\"node\":\"A\",\"name\":"
      "\"cache.fetch\",\"detail\":\"module=Scaler\"}\n";
  {
    Trace t;
    t.add_jsonl("{\"congrid_trace\":1,\"events\":1,\"dropped\":0}\n" +
                begin_only);
    t.finish();
    const auto errors = t.validate();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("unpaired span begin"), std::string::npos);
  }
  {
    // Same trace but the header admits ring overwrites: the matching end
    // may simply be gone, so the error downgrades to an analyze() warning.
    Trace t;
    t.add_jsonl("{\"congrid_trace\":1,\"events\":1,\"dropped\":5}\n" +
                begin_only);
    t.finish();
    EXPECT_TRUE(t.validate().empty());
    const Report r = t.analyze();
    EXPECT_TRUE(r.ok());
    EXPECT_GE(r.warnings.size(), 2u);  // dropped summary + open span
  }
}

TEST(CausalValidate, InFlightReliableMsgSpanIsNotAnError) {
  Trace t;
  t.add_jsonl(
      "{\"congrid_trace\":1,\"events\":1,\"dropped\":0}\n"
      "{\"t\":0.0,\"kind\":\"begin\",\"span\":3,\"node\":\"A\",\"name\":"
      "\"reliable.msg\",\"detail\":\"seq=2 conn=a>b type=control\"}\n");
  t.finish();
  EXPECT_TRUE(t.validate().empty());  // ack simply hadn't landed at export
}

TEST(CausalValidate, ParentCycleIsAnError) {
  Trace t;
  t.add_jsonl(
      "{\"congrid_trace\":1,\"events\":4,\"dropped\":0}\n"
      "{\"t\":0.0,\"kind\":\"begin\",\"span\":1,\"node\":\"A\",\"name\":"
      "\"x\",\"detail\":\"\",\"trace\":\"0000000000000001\",\"parent\":2}\n"
      "{\"t\":0.1,\"kind\":\"begin\",\"span\":2,\"node\":\"A\",\"name\":"
      "\"y\",\"detail\":\"\",\"trace\":\"0000000000000001\",\"parent\":1}\n"
      "{\"t\":0.2,\"kind\":\"end\",\"span\":1,\"node\":\"A\",\"name\":\"x\"}"
      "\n"
      "{\"t\":0.3,\"kind\":\"end\",\"span\":2,\"node\":\"A\",\"name\":\"y\"}"
      "\n");
  t.finish();
  const auto errors = t.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("parent cycle"), std::string::npos);
}

TEST(CausalReport, JsonOutputIsValidAndMarkdownHasTables) {
  Trace t;
  t.add_jsonl(retx_fixture());
  t.finish();
  const Report r = t.analyze();
  EXPECT_TRUE(obs::json_valid(r.to_json()));
  const std::string md = r.to_markdown();
  EXPECT_NE(md.find("congrid-trace report"), std::string::npos);
  EXPECT_NE(md.find("| category |"), std::string::npos);
  EXPECT_NE(md.find("retx_stall"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Acceptance layer: the real stack, loss-free vs 10% loss, same seed.

UnitRegistry& reg() {
  static UnitRegistry r = UnitRegistry::with_builtins();
  return r;
}

/// Wave -> p2p pipeline group (Scale -> Smooth -> Shift) -> Grapher sink:
/// the vertical distribution from paper 3.3, one stage per worker, data
/// hopping peer to peer.
TaskGraph pipeline_graph() {
  TaskGraph inner("stages");
  ParamSet p1;
  p1.set_double("factor", 2.0);
  inner.add_task("Scale", "Scaler", p1);
  ParamSet p2;
  p2.set_int("window", 5);
  inner.add_task("Smooth", "MovingAverage", p2);
  ParamSet p3;
  p3.set_double("offset", -1.0);
  inner.add_task("Shift", "Offset", p3);
  inner.connect("Scale", 0, "Smooth", 0);
  inner.connect("Smooth", 0, "Shift", 0);

  TaskGraph g("causal");
  ParamSet wp;
  wp.set_int("samples", 128);
  g.add_task("Wave", "Wave", wp);
  TaskDef& grp = g.add_group("G", std::move(inner), "p2p");
  grp.group_inputs = {GroupPort{"Scale", 0}};
  grp.group_outputs = {GroupPort{"Shift", 0}};
  g.add_task("Sink", "Grapher");
  g.connect("Wave", 0, "G", 0);
  g.connect("G", 0, "Sink", 0);
  return g;
}

constexpr int kItems = 8;

struct GridOutcome {
  std::vector<std::vector<double>> items;  ///< sorted sink payloads
  std::string jsonl;                       ///< merged trace export
  std::uint64_t retransmits = 0;           ///< reliable-layer total
};

/// One full deploy -> stream -> shutdown cycle. `loss` arms a drop rate
/// on every link; `traced` binds a Tracer to the network, home and workers.
GridOutcome run_grid(std::uint64_t seed, double loss, bool traced) {
  net::SimNetwork net({}, seed);
  auto clock = net.clock();
  auto sched = net.scheduler();

  // Generous retry pacing so the LOSS-FREE run never retransmits (the
  // default first-RTO can fire before a slow code frame's ack returns,
  // which would put spurious retx noise in the oracle trace).
  net::ReliableConfig rel;
  rel.rto_initial_s = 3.0;
  rel.rto_max_s = 6.0;
  rel.deadline_s = 120.0;
  rel.max_retries = 12;

  ServiceConfig hc;
  hc.peer_id = "home";
  hc.reliable = rel;
  TrianaService home(net.add_node(), clock, sched, reg(), hc);
  std::vector<std::unique_ptr<TrianaService>> workers;
  std::vector<net::Endpoint> eps;
  for (int i = 0; i < 3; ++i) {
    ServiceConfig cfg;
    cfg.peer_id = "w" + std::to_string(i);
    cfg.reliable = rel;
    workers.push_back(std::make_unique<TrianaService>(net.add_node(), clock,
                                                      sched, reg(), cfg));
    home.node().add_neighbor(workers.back()->endpoint());
    workers.back()->node().add_neighbor(home.endpoint());
    eps.push_back(workers.back()->endpoint());
  }

  obs::Registry registry;
  obs::Tracer tracer(1 << 16);
  if (traced) {
    net.set_obs(registry, &tracer, "net");
    home.set_obs(registry, &tracer, "home");
    for (std::size_t i = 0; i < workers.size(); ++i) {
      workers[i]->set_obs(registry, &tracer, "w" + std::to_string(i));
    }
  }

  net::FaultPlan plan;
  plan.default_link.drop = loss;
  if (loss > 0) net.arm_faults(plan, seed ^ 0xCAFEu);

  TaskGraph g = pipeline_graph();
  home.publish_graph_modules(g, 16 * 1024);

  TrianaController ctl(home);
  auto run = ctl.distribute(g, "G", eps);
  net.run_until(30.0);
  EXPECT_TRUE(run->deployed_ok())
      << (run->errors.empty() ? "missing acks" : run->errors[0]);

  ctl.tick(*run, kItems);
  net.run_until(240.0);

  GridOutcome out;
  auto* sink = ctl.home_runtime(*run)->unit_as<GrapherUnit>("Sink");
  for (const auto& item : sink->items()) {
    out.items.push_back(item.samples().samples);
  }
  std::sort(out.items.begin(), out.items.end());
  out.retransmits = home.reliable().stats().retransmits;
  for (const auto& w : workers) {
    out.retransmits += w->reliable().stats().retransmits;
  }
  ctl.shutdown(*run);
  net.run_until(300.0);
  out.jsonl = tracer.to_jsonl();
  return out;
}

TEST(CausalAcceptance, TracingChangesNoOutputBit) {
  // Same seed and fault plan, tracer bound vs not: the sink must see the
  // exact same payload multiset. The fixed-size TraceContext wire slot
  // keeps frame sizes (and so SimNetwork timing) identical either way.
  GridOutcome traced = run_grid(2026, 0.10, /*traced=*/true);
  GridOutcome bare = run_grid(2026, 0.10, /*traced=*/false);
  ASSERT_EQ(traced.items.size(), static_cast<std::size_t>(kItems));
  EXPECT_EQ(traced.items, bare.items);
  EXPECT_EQ(traced.retransmits, bare.retransmits);
}

#if CONGRID_OBS_ENABLED

TEST(CausalAcceptance, LossyRunYieldsSameCausalDagAsLossFree) {
  GridOutcome clean = run_grid(2026, 0.0, /*traced=*/true);
  GridOutcome lossy = run_grid(2026, 0.10, /*traced=*/true);

  // The runs really diverged at the wire level...
  EXPECT_EQ(clean.retransmits, 0u);
  EXPECT_GT(lossy.retransmits, 0u);
  // ...yet produced identical results (the reliable layer's job)...
  ASSERT_EQ(clean.items.size(), static_cast<std::size_t>(kItems));
  EXPECT_EQ(clean.items, lossy.items);

  Trace ct, lt;
  ct.add_jsonl(clean.jsonl);
  ct.finish();
  lt.add_jsonl(lossy.jsonl);
  lt.finish();

  // ...and the analyzer reconstructs the SAME application-level causal
  // DAG from both exports: loss moves events in time and adds
  // retransmissions, but it must not invent or lose causal structure.
  EXPECT_TRUE(ct.validate().empty());
  EXPECT_TRUE(lt.validate().empty());
  const auto cs = ct.signature();
  const auto ls = lt.signature();
  ASSERT_FALSE(cs.empty());
  EXPECT_EQ(cs, ls);
}

TEST(CausalAcceptance, RetxStallAttributedOnlyInLossyRun) {
  GridOutcome clean = run_grid(2026, 0.0, /*traced=*/true);
  GridOutcome lossy = run_grid(2026, 0.10, /*traced=*/true);

  Trace ct, lt;
  ct.add_jsonl(clean.jsonl);
  ct.finish();
  lt.add_jsonl(lossy.jsonl);
  lt.finish();

  // No transfer in the clean run was retransmitted at all, so no stall
  // can be attributed anywhere, critical path included.
  for (const auto& x : ct.transfers()) EXPECT_EQ(x.retx, 0);
  const Report cr = ct.analyze();
  auto it = cr.attribution.find("retx_stall");
  if (it != cr.attribution.end()) {
    EXPECT_DOUBLE_EQ(it->second, 0.0);
  }

  // The lossy run retransmitted on the wire and the analyzer saw it.
  int lossy_retx = 0;
  for (const auto& x : lt.transfers()) lossy_retx += x.retx;
  EXPECT_GT(lossy_retx, 0);
  const Report lr = lt.analyze();
  EXPECT_TRUE(lr.ok());
  EXPECT_GT(lr.attribution.at("retx_stall"), 0.0);
}

TEST(CausalAcceptance, ExportCarriesOneTraceIdAcrossAllPeers) {
  GridOutcome traced = run_grid(2026, 0.0, /*traced=*/true);
  Trace t;
  t.add_jsonl(traced.jsonl);
  t.finish();
  // Every span of the run (deploys, fetches, binds, ticks) carries the
  // same nonzero trace id: one per-run trace spanning all four peers.
  std::uint64_t tid = 0;
  std::size_t traced_spans = 0;
  for (const auto& s : t.spans()) {
    if (s.trace == 0) continue;
    if (tid == 0) tid = s.trace;
    EXPECT_EQ(s.trace, tid);
    ++traced_spans;
  }
  EXPECT_NE(tid, 0u);
  EXPECT_GT(traced_spans, 10u);
  // All four obs nodes contributed spans to that one trace.
  std::vector<std::string> nodes;
  for (const auto& s : t.spans()) {
    if (s.trace == tid && !s.node.empty()) nodes.push_back(s.node);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  EXPECT_GE(nodes.size(), 4u);
}

#else  // !CONGRID_OBS_ENABLED

TEST(CausalAcceptance, ObsOffExportsNothingButRunsIdentically) {
  GridOutcome traced = run_grid(2026, 0.10, /*traced=*/true);
  EXPECT_TRUE(traced.jsonl.empty());
  ASSERT_EQ(traced.items.size(), static_cast<std::size_t>(kItems));
}

#endif  // CONGRID_OBS_ENABLED

}  // namespace
}  // namespace cg::core
