// Tests for the paper's future-work features implemented in ConGrid:
// trust/reputation, virtual peer groups, redundant execution (Broadcast /
// Vote / replicated policy), and WSDL-style service descriptions.
#include <gtest/gtest.h>

#include "core/graph/validate.hpp"
#include "core/service/controller.hpp"
#include "core/service/describe.hpp"
#include "core/unit/builtin.hpp"
#include "net/sim_network.hpp"
#include "sandbox/trust.hpp"
#include "xml/parse.hpp"
#include "xml/write.hpp"

namespace cg {
namespace {

// ------------------------------------------------------------------ trust

TEST(Trust, UnknownPeersStartAtInitial) {
  sandbox::TrustManager tm;
  EXPECT_DOUBLE_EQ(tm.score("stranger"), 0.5);
  EXPECT_FALSE(tm.quarantined("stranger"));
  EXPECT_EQ(tm.observations("stranger"), 0u);
}

TEST(Trust, BuildsSlowlyCollapsesQuickly) {
  sandbox::TrustManager tm;
  for (int i = 0; i < 20; ++i) {
    tm.record("good", sandbox::TrustEvent::kSuccess);
  }
  const double built = tm.score("good");
  EXPECT_GT(built, 0.7);

  tm.record("good", sandbox::TrustEvent::kViolation);
  EXPECT_LT(tm.score("good"), built * 0.6);  // one breach halves it
}

TEST(Trust, ViolationsQuarantine) {
  sandbox::TrustManager tm;
  for (int i = 0; i < 3; ++i) {
    tm.record("mallory", sandbox::TrustEvent::kViolation);
  }
  EXPECT_TRUE(tm.quarantined("mallory"));
}

TEST(Trust, ForgettingAllowsRedemption) {
  sandbox::TrustManager tm;
  for (int i = 0; i < 3; ++i) {
    tm.record("reformed", sandbox::TrustEvent::kViolation);
  }
  const double low = tm.score("reformed");
  for (int i = 0; i < 60; ++i) {
    tm.record("reformed", sandbox::TrustEvent::kSuccess);
  }
  EXPECT_GT(tm.score("reformed"), low);
  EXPECT_FALSE(tm.quarantined("reformed"));
}

TEST(Trust, ScoresStayInUnitInterval) {
  sandbox::TrustManager tm;
  for (int i = 0; i < 500; ++i) {
    tm.record("a", sandbox::TrustEvent::kSuccess);
    tm.record("b", sandbox::TrustEvent::kViolation);
  }
  EXPECT_LE(tm.score("a"), 1.0);
  EXPECT_GE(tm.score("b"), 0.0);
}

TEST(Trust, RankedOrdersBestFirst) {
  sandbox::TrustManager tm;
  tm.record("good", sandbox::TrustEvent::kSuccess);
  tm.record("bad", sandbox::TrustEvent::kViolation);
  auto order = tm.ranked({"bad", "unknown", "good"});
  EXPECT_EQ(order[0], "good");
  EXPECT_EQ(order[1], "unknown");
  EXPECT_EQ(order[2], "bad");
}

// ------------------------------------------------------------ peer groups

TEST(PeerGroups, CsvContains) {
  EXPECT_TRUE(p2p::csv_contains("astro,bio", "astro"));
  EXPECT_TRUE(p2p::csv_contains("astro,bio", "bio"));
  EXPECT_FALSE(p2p::csv_contains("astro,bio", "astr"));
  EXPECT_FALSE(p2p::csv_contains("astrophysics", "astro"));
  EXPECT_FALSE(p2p::csv_contains("", "astro"));
}

TEST(PeerGroups, QueryRequiresMembership) {
  p2p::Advertisement a;
  a.kind = p2p::AdvertKind::kPeer;
  a.id = "p";
  a.provider = net::Endpoint{"sim:0"};
  a.expires_at = 100;
  a.attrs[p2p::kGroupsAttr] = "gw-search,render-farm";

  p2p::Query q;
  q.kind = p2p::AdvertKind::kPeer;
  q.require_groups = {"gw-search"};
  EXPECT_TRUE(q.matches(a));
  q.require_groups = {"gw-search", "render-farm"};
  EXPECT_TRUE(q.matches(a));
  q.require_groups = {"db-hosting"};
  EXPECT_FALSE(q.matches(a));

  a.attrs.erase(p2p::kGroupsAttr);
  q.require_groups = {"gw-search"};
  EXPECT_FALSE(q.matches(a));
}

TEST(PeerGroups, QueryXmlRoundTripsGroups) {
  p2p::Query q;
  q.kind = p2p::AdvertKind::kPeer;
  q.require_groups = {"astro", "idle-night"};
  auto back = p2p::Query::from_xml(q.to_xml());
  EXPECT_EQ(back, q);
}

TEST(PeerGroups, NodeMembershipFlowsIntoAdverts) {
  net::SimNetwork net({}, 1);
  auto& t = net.add_node();
  p2p::PeerNode node(t, net.clock());
  node.join_group("gw-search");
  node.join_group("render-farm");
  node.join_group("gw-search");  // idempotent
  EXPECT_EQ(node.groups().size(), 2u);

  auto advert = node.make_peer_advert({{"cpu_mhz", "2000"}});
  EXPECT_EQ(advert.attrs.at(p2p::kGroupsAttr), "gw-search,render-farm");

  node.leave_group("gw-search");
  advert = node.make_peer_advert({});
  EXPECT_EQ(advert.attrs.at(p2p::kGroupsAttr), "render-farm");
}

TEST(PeerGroups, GroupScopedDiscovery) {
  net::SimNetwork net({}, 1);
  std::vector<std::unique_ptr<p2p::PeerNode>> nodes;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(std::make_unique<p2p::PeerNode>(
        net.add_node(), net.clock(), "n" + std::to_string(i)));
  }
  nodes[0]->add_neighbor(nodes[1]->endpoint());
  nodes[1]->add_neighbor(nodes[0]->endpoint());
  nodes[1]->add_neighbor(nodes[2]->endpoint());
  nodes[2]->add_neighbor(nodes[1]->endpoint());

  nodes[1]->join_group("astro");
  nodes[1]->publish_local(nodes[1]->make_peer_advert({}));
  nodes[2]->publish_local(nodes[2]->make_peer_advert({}));  // no group

  p2p::Query q;
  q.kind = p2p::AdvertKind::kPeer;
  q.require_groups = {"astro"};
  std::vector<p2p::Advertisement> found;
  nodes[0]->discover_flood(q, 3, [&](const auto& ads) {
    found.insert(found.end(), ads.begin(), ads.end());
  });
  net.run_all();
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].name, "n1");
}

// --------------------------------------------- redundancy: broadcast/vote

core::UnitRegistry& reg() {
  static core::UnitRegistry r = core::UnitRegistry::with_builtins();
  return r;
}

TEST(Vote, UnanimousAgreement) {
  auto unit = reg().create("Vote");
  dsp::Rng rng(1);
  core::ProcessContext ctx(
      {core::DataItem(7.0), core::DataItem(7.0), core::DataItem(7.0)}, 1,
      &rng, nullptr);
  unit->process(ctx);
  EXPECT_DOUBLE_EQ(ctx.emissions()[0].second.scalar(), 7.0);
  EXPECT_EQ(ctx.emissions()[1].second.integer(), 1);
  EXPECT_EQ(ctx.emissions()[2].second.integer(), 0);
}

TEST(Vote, MajorityOutvotesOneCheat) {
  auto unit = reg().create("Vote");
  dsp::Rng rng(1);
  core::ProcessContext ctx(
      {core::DataItem(7.0), core::DataItem(666.0), core::DataItem(7.0)}, 1,
      &rng, nullptr);
  unit->process(ctx);
  EXPECT_DOUBLE_EQ(ctx.emissions()[0].second.scalar(), 7.0);
  EXPECT_EQ(ctx.emissions()[1].second.integer(), 1);
  EXPECT_EQ(ctx.emissions()[2].second.integer(), 0b010);  // input 1 dissented
}

TEST(Vote, TwoWaySplitHasNoMajority) {
  auto unit = reg().create("Vote");
  dsp::Rng rng(1);
  core::ProcessContext ctx({core::DataItem(1.0), core::DataItem(2.0)}, 1,
                           &rng, nullptr);
  unit->process(ctx);
  EXPECT_EQ(ctx.emissions()[1].second.integer(), 0);
}

TEST(Vote, WorksOnComplexPayloads) {
  auto unit = reg().create("Vote");
  dsp::Rng rng(1);
  core::SampleSet good{10.0, {1, 2, 3}};
  core::SampleSet bad{10.0, {1, 2, 4}};
  core::ProcessContext ctx(
      {core::DataItem(good), core::DataItem(good), core::DataItem(bad)}, 1,
      &rng, nullptr);
  unit->process(ctx);
  EXPECT_EQ(ctx.emissions()[0].second.samples(), good);
  EXPECT_EQ(ctx.emissions()[2].second.integer(), 0b100);
}

TEST(Broadcast, SendsToEveryLabel) {
  core::BroadcastUnit b;
  core::ParamSet p;
  p.set("labels", "x,y,z");
  b.configure(p);
  std::vector<std::string> sent;
  b.set_sender([&](const std::string& l, core::DataItem) {
    sent.push_back(l);
  });
  dsp::Rng rng(1);
  core::ProcessContext ctx({core::DataItem(1.0)}, 1, &rng, nullptr);
  b.process(ctx);
  EXPECT_EQ(sent, (std::vector<std::string>{"x", "y", "z"}));
}

// ------------------------------------------------------ replicated policy

TEST(ReplicatedPolicy, EndToEndOverSimGrid) {
  net::SimNetwork net({}, 1);
  auto clock = net.clock();
  auto sched = net.scheduler();

  core::ServiceConfig hc;
  hc.peer_id = "home";
  core::TrianaService home(net.add_node(), clock, sched, reg(), hc);
  std::vector<std::unique_ptr<core::TrianaService>> ws;
  std::vector<net::Endpoint> eps;
  for (int i = 0; i < 3; ++i) {
    core::ServiceConfig cfg;
    cfg.peer_id = "w" + std::to_string(i);
    ws.push_back(std::make_unique<core::TrianaService>(net.add_node(), clock,
                                                       sched, reg(), cfg));
    home.node().add_neighbor(ws.back()->endpoint());
    ws.back()->node().add_neighbor(home.endpoint());
    eps.push_back(ws.back()->endpoint());
  }

  // Deterministic group: Scaler x2 replicated on 3 peers.
  core::TaskGraph inner("inner");
  core::ParamSet sp;
  sp.set_double("factor", 2.0);
  inner.add_task("Scale", "Scaler", sp);
  core::TaskGraph g("rep");
  core::ParamSet cp;
  cp.set_double("value", 21.0);
  g.add_task("Const", "Constant", cp);
  core::TaskDef& grp = g.add_group("G", std::move(inner), "replicated");
  grp.group_inputs = {core::GroupPort{"Scale", 0}};
  grp.group_outputs = {core::GroupPort{"Scale", 0}};
  g.add_task("Result", "Grapher");
  g.add_task("Agree", "StatSink");
  g.connect("Const", 0, "G", 0);
  g.connect("G", 0, "Result", 0);
  home.publish_graph_modules(g);

  core::TrianaController ctl(home);
  auto run = ctl.distribute(g, "G", eps);
  net.run_all();
  ASSERT_TRUE(run->deployed_ok())
      << (run->errors.empty() ? "" : run->errors[0]);
  ASSERT_EQ(run->remote_jobs.size(), 3u);  // full replication

  ctl.tick(*run, 5);
  net.run_all();

  auto* result = ctl.home_runtime(*run)->unit_as<core::GrapherUnit>("Result");
  ASSERT_EQ(result->items().size(), 5u);
  for (const auto& item : result->items()) {
    EXPECT_DOUBLE_EQ(item.scalar(), 42.0);
  }
  // Every worker processed every item (replication, not farming).
  for (std::size_t i = 0; i < ws.size(); ++i) {
    EXPECT_EQ(ws[i]->job_runtime(run->remote_jobs[i])->firings_of("Scale"),
              5u);
  }
}

TEST(ReplicatedPolicy, PlanValidatesAndCaps) {
  core::TaskGraph inner("inner");
  inner.add_task("Scale", "Scaler");
  core::TaskGraph g("rep");
  g.add_task("Const", "Constant");
  core::TaskDef& grp = g.add_group("G", std::move(inner), "replicated");
  grp.group_inputs = {core::GroupPort{"Scale", 0}};
  grp.group_outputs = {core::GroupPort{"Scale", 0}};
  g.add_task("Sink", "NullSink");
  g.connect("Const", 0, "G", 0);
  g.connect("G", 0, "Sink", 0);

  core::ReplicatedPolicy policy;
  EXPECT_THROW(policy.plan(g, "G", 1, "p"), std::invalid_argument);

  auto plan = policy.plan(g, "G", 9, "p");  // capped at Vote arity
  EXPECT_EQ(plan.fragments.size(), core::VoteUnit::kMaxVoteInputs);
  EXPECT_TRUE(core::validate(plan.home_graph, reg()).ok())
      << core::validate(plan.home_graph, reg()).to_string();
  for (const auto& f : plan.fragments) {
    EXPECT_TRUE(core::validate(f, reg()).ok());
  }
  EXPECT_EQ(core::make_policy("replicated")->name(), "replicated");
}

// -------------------------------------------------- controller trust wiring

TEST(ControllerTrust, AcksFeedScoresAndDiscoveryRanks) {
  net::SimNetwork net({}, 1);
  auto clock = net.clock();
  auto sched = net.scheduler();
  core::ServiceConfig hc;
  hc.peer_id = "home";
  core::TrianaService home(net.add_node(), clock, sched, reg(), hc);
  core::ServiceConfig wc;
  wc.peer_id = "worker";
  core::TrianaService worker(net.add_node(), clock, sched, reg(), wc);
  home.node().add_neighbor(worker.endpoint());
  worker.node().add_neighbor(home.endpoint());
  worker.announce();

  sandbox::TrustManager trust;
  core::TrianaController ctl(home);
  ctl.set_trust_manager(&trust);

  core::TaskGraph inner("i");
  inner.add_task("Scale", "Scaler");
  core::TaskGraph g("t");
  g.add_task("Const", "Constant");
  auto& grp = g.add_group("G", std::move(inner), "parallel");
  grp.group_inputs = {core::GroupPort{"Scale", 0}};
  grp.group_outputs = {core::GroupPort{"Scale", 0}};
  g.add_task("Sink", "NullSink");
  g.connect("Const", 0, "G", 0);
  g.connect("G", 0, "Sink", 0);
  home.publish_graph_modules(g);

  auto run = ctl.distribute(g, "G", {worker.endpoint()});
  net.run_all();
  ASSERT_TRUE(run->deployed_ok());
  EXPECT_GT(trust.score(worker.endpoint().value), 0.5);

  // Quarantined workers disappear from discovery results.
  for (int i = 0; i < 5; ++i) {
    trust.record(worker.endpoint().value, sandbox::TrustEvent::kViolation);
  }
  p2p::Query q;
  q.kind = p2p::AdvertKind::kPeer;
  std::vector<net::Endpoint> found{net::Endpoint{"sentinel"}};
  ctl.discover_workers(q, 2, 4, 1.0, [&](std::vector<net::Endpoint> eps) {
    found = std::move(eps);
  });
  net.run_all();
  EXPECT_TRUE(found.empty());

  ctl.report_disagreement(worker.endpoint());
  EXPECT_TRUE(trust.quarantined(worker.endpoint().value));
}

// ---------------------------------------------------- service description

TEST(Describe, UnitPortTypeListsPortsAndTypes) {
  const auto pt = core::describe_unit_port_type(core::FftUnit::make_info());
  EXPECT_EQ(pt.name(), "portType");
  EXPECT_EQ(pt.require_attr("name"), "FFT");
  const xml::Node& op = pt.require_child("operation");
  ASSERT_EQ(op.children("input").size(), 1u);
  EXPECT_EQ(op.children("input")[0]->require_attr("type"), "sample-set");
  EXPECT_EQ(op.children("output")[0]->require_attr("type"), "spectrum");
}

TEST(Describe, ServiceDocumentIsCompleteAndParses) {
  net::SimNetwork net({}, 1);
  auto clock = net.clock();
  auto sched = net.scheduler();
  core::ServiceConfig cfg;
  cfg.peer_id = "describe-me";
  cfg.capabilities = {{"cpu_mhz", "1500"}};
  core::TrianaService svc(net.add_node(), clock, sched, reg(), cfg);

  const std::string doc = core::service_description_document(svc);
  const xml::Node root = xml::parse(doc);
  EXPECT_EQ(root.name(), "definitions");
  EXPECT_EQ(root.require_attr("name"), "describe-me");
  const xml::Node& s = root.require_child("service");
  EXPECT_EQ(s.require_child("port").require_attr("location"),
            svc.endpoint().value);
  // One portType per registered unit + the control portType.
  EXPECT_EQ(root.children("portType").size(), reg().size() + 1);
  // Control operations present.
  bool has_deploy = false;
  for (const xml::Node* pt : root.children("portType")) {
    if (pt->attr_or("name", "") != "TrianaControl") continue;
    for (const xml::Node* op : pt->children("operation")) {
      if (op->attr_or("name", "") == "deploy") has_deploy = true;
    }
  }
  EXPECT_TRUE(has_deploy);
}

}  // namespace
}  // namespace cg
