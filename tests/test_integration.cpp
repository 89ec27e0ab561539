// Integration tests off the simulator: the full service stack over real TCP
// sockets on loopback, (a) with one thread per peer -- true concurrency --
// and (b) with every peer pumped from one thread.
// These prove the stack is genuinely transport-agnostic (the paper's
// middleware-independence constraint) and not merely sim-shaped.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/service/controller.hpp"
#include "core/unit/builtin.hpp"
#include "net/loopback.hpp"
#include "net/tcp.hpp"
#include "net/time.hpp"

namespace cg::core {
namespace {

UnitRegistry& reg() {
  static UnitRegistry r = UnitRegistry::with_builtins();
  return r;
}

/// Wall-clock timers for services confined to one thread: that thread's
/// loop fires whatever is due.
struct WallTimers {
  explicit WallTimers(net::Clock c) : clock(std::move(c)) {}
  net::Scheduler scheduler() {
    return [this](double d, std::function<void()> fn) {
      queue.push(clock() + d, std::move(fn));
    };
  }
  void poll() { queue.run_due(clock()); }

  net::Clock clock;
  net::EventQueue queue;
};

TaskGraph farm_graph() {
  TaskGraph inner("inner");
  ParamSet sp;
  sp.set_double("factor", 3.0);
  inner.add_task("Scale", "Scaler", sp);
  TaskGraph g("threads");
  ParamSet wp;
  wp.set_int("samples", 128);
  g.add_task("Wave", "Wave", wp);
  TaskDef& grp = g.add_group("G", std::move(inner), "parallel");
  grp.group_inputs = {GroupPort{"Scale", 0}};
  grp.group_outputs = {GroupPort{"Scale", 0}};
  g.add_task("Sink", "Grapher");
  g.connect("Wave", 0, "G", 0);
  g.connect("G", 0, "Sink", 0);
  return g;
}

TEST(IntegrationThreads, FarmAcrossRealThreadsOverTcp) {
  net::Clock clock = net::steady_clock_seconds();

  net::TcpTransport home_t(0), w0_t(0), w1_t(0);

  WallTimers home_timers(clock), w0_timers(clock), w1_timers(clock);

  ServiceConfig hc;
  hc.peer_id = "home";
  TrianaService home(home_t, clock, home_timers.scheduler(), reg(), hc);
  ServiceConfig c0;
  c0.peer_id = "w0";
  TrianaService w0(w0_t, clock, w0_timers.scheduler(), reg(), c0);
  ServiceConfig c1;
  c1.peer_id = "w1";
  TrianaService w1(w1_t, clock, w1_timers.scheduler(), reg(), c1);

  home.node().add_neighbor(w0.endpoint());
  home.node().add_neighbor(w1.endpoint());
  w0.node().add_neighbor(home.endpoint());
  w1.node().add_neighbor(home.endpoint());

  TaskGraph g = farm_graph();
  home.publish_graph_modules(g);

  // One polling thread per worker peer (each service is confined to it).
  std::atomic<bool> stop{false};
  std::thread t0([&] {
    while (!stop.load()) {
      w0_t.poll_wait(1);
      w0_timers.poll();
    }
  });
  std::thread t1([&] {
    while (!stop.load()) {
      w1_t.poll_wait(1);
      w1_timers.poll();
    }
  });

  // The controller runs on this thread and polls the home transport.
  TrianaController ctl(home);
  auto run = ctl.distribute(g, "G", {w0.endpoint(), w1.endpoint()});

  auto pump_home = [&](auto pred) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pred() && std::chrono::steady_clock::now() < deadline) {
      home_t.poll_wait(1);
      home_timers.poll();
    }
  };

  pump_home([&] { return run->all_acked(); });
  ASSERT_TRUE(run->deployed_ok())
      << (run->errors.empty() ? "no acks" : run->errors[0]);

  const int kItems = 10;
  ctl.tick(*run, kItems);
  auto* grapher = ctl.home_runtime(*run)->unit_as<GrapherUnit>("Sink");
  pump_home([&] { return grapher->items().size() >= kItems; });

  stop.store(true);
  t0.join();
  t1.join();

  ASSERT_EQ(grapher->items().size(), static_cast<std::size_t>(kItems));
  for (const auto& item : grapher->items()) {
    EXPECT_EQ(item.type(), DataType::kSampleSet);
  }
}

TEST(IntegrationTcp, DeployRunAndStatusOverRealSockets) {
  net::TcpLoopbackBackend be;
  ServiceConfig hc;
  hc.peer_id = "home";
  TrianaService home(be.add_node(), be.clock(), be.scheduler(), reg(), hc);
  ServiceConfig wc;
  wc.peer_id = "worker";
  TrianaService worker(be.add_node(), be.clock(), be.scheduler(), reg(), wc);
  home.node().add_neighbor(worker.endpoint());
  worker.node().add_neighbor(home.endpoint());

  TaskGraph g("tcpjob");
  ParamSet wp;
  wp.set_int("samples", 64);
  g.add_task("Wave", "Wave", wp);
  g.add_task("Sink", "NullSink");
  g.connect("Wave", 0, "Sink", 0);
  home.publish_graph_modules(g, 4096);

  auto pump = [&](const std::function<bool()>& pred) {
    be.run_until(be.now() + 20.0, pred);
  };

  DeployAckMsg ack;
  bool acked = false;
  home.deploy_remote(worker.endpoint(), g, /*iterations=*/5,
                     [&](const DeployAckMsg& a) {
                       ack = a;
                       acked = true;
                     });
  pump([&] { return acked; });
  ASSERT_TRUE(acked);
  ASSERT_TRUE(ack.ok) << ack.error;
  EXPECT_EQ(worker.stats().modules_fetched, 2u);  // over real sockets

  StatusMsg status;
  bool got_status = false;
  home.request_status(worker.endpoint(), ack.job_id, [&](const StatusMsg& s) {
    status = s;
    got_status = true;
  });
  pump([&] { return got_status; });
  ASSERT_TRUE(got_status);
  EXPECT_TRUE(status.known);
  EXPECT_EQ(status.iteration, 5u);

  // Checkpoint over TCP, too.
  CheckpointDataMsg ckpt;
  bool got_ckpt = false;
  home.request_checkpoint(worker.endpoint(), ack.job_id,
                          [&](const CheckpointDataMsg& m) {
                            ckpt = m;
                            got_ckpt = true;
                          });
  pump([&] { return got_ckpt; });
  ASSERT_TRUE(got_ckpt);
  EXPECT_TRUE(ckpt.ok);
  EXPECT_FALSE(ckpt.state.empty());

  home.cancel_remote(worker.endpoint(), ack.job_id);
  pump([&] { return worker.job_count() == 0; });
  EXPECT_EQ(worker.job_count(), 0u);
}

}  // namespace
}  // namespace cg::core
