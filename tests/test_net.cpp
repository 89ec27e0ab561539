// Tests for the cg_net substrate: the discrete-event simulator's clock,
// link model, determinism and churn behaviour; and the real TCP transport
// on loopback.
#include <gtest/gtest.h>


#include "net/fault.hpp"
#include "net/sim_network.hpp"
#include "net/tcp.hpp"

namespace cg::net {
namespace {

serial::Frame text_frame(const std::string& s,
                         serial::FrameType t = serial::FrameType::kControl) {
  serial::Frame f;
  f.type = t;
  f.payload = serial::to_bytes(s);
  return f;
}

// ---------------------------------------------------------------- simulator

TEST(Sim, DeliversWithLatency) {
  LinkParams p;
  p.base_latency_s = 0.050;
  p.jitter_s = 0.0;
  SimNetwork net(p, 1);
  auto& a = net.add_node();
  auto& b = net.add_node();

  std::string got;
  double at = -1.0;
  b.set_handler([&](const Endpoint& from, serial::Frame f) {
    got = serial::to_string(f.payload);
    at = net.now();
    EXPECT_EQ(from, a.local());
  });

  a.send(b.local(), text_frame("ping"));
  net.run_all();
  EXPECT_EQ(got, "ping");
  EXPECT_NEAR(at, 0.050, 1e-12);
}

TEST(Sim, BandwidthTermAppliesToLargeFrames) {
  LinkParams p;
  p.base_latency_s = 0.010;
  p.jitter_s = 0.0;
  p.bandwidth_Bps = 100000.0;
  SimNetwork net(p, 1);
  auto& a = net.add_node();
  auto& b = net.add_node();

  double at = -1.0;
  b.set_handler([&](const Endpoint&, serial::Frame) { at = net.now(); });

  serial::Frame big;
  big.type = serial::FrameType::kData;
  big.payload.assign(100000, 0xAB);
  a.send(b.local(), std::move(big));
  net.run_all();
  // ~0.01 latency + ~1.0 s serialisation of 100 kB at 100 kB/s.
  EXPECT_NEAR(at, 0.010 + 1.00013, 0.01);
}

TEST(Sim, SmallFramesSkipBandwidthTerm) {
  LinkParams p;
  p.base_latency_s = 0.010;
  p.jitter_s = 0.0;
  p.bandwidth_Bps = 10.0;  // absurdly slow: would take forever if charged
  SimNetwork net(p, 1);
  auto& a = net.add_node();
  auto& b = net.add_node();
  double at = -1.0;
  b.set_handler([&](const Endpoint&, serial::Frame) { at = net.now(); });
  a.send(b.local(), text_frame("x"));
  net.run_all();
  EXPECT_NEAR(at, 0.010, 1e-9);
}

TEST(Sim, FifoAmongSimultaneousEvents) {
  LinkParams p;
  p.base_latency_s = 0.010;
  p.jitter_s = 0.0;
  SimNetwork net(p, 1);
  auto& a = net.add_node();
  auto& b = net.add_node();
  std::vector<std::string> order;
  b.set_handler([&](const Endpoint&, serial::Frame f) {
    order.push_back(serial::to_string(f.payload));
  });
  a.send(b.local(), text_frame("first"));
  a.send(b.local(), text_frame("second"));
  a.send(b.local(), text_frame("third"));
  net.run_all();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "first");
  EXPECT_EQ(order[1], "second");
  EXPECT_EQ(order[2], "third");
}

TEST(Sim, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    LinkParams p;
    p.jitter_s = 0.020;
    SimNetwork net(p, seed);
    auto& a = net.add_node();
    auto& b = net.add_node();
    std::vector<double> times;
    b.set_handler([&](const Endpoint&, serial::Frame) {
      times.push_back(net.now());
    });
    for (int i = 0; i < 20; ++i) a.send(b.local(), text_frame("m"));
    net.run_all();
    return times;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(Sim, DownNodeDropsInbound) {
  SimNetwork net({}, 1);
  auto& a = net.add_node();
  auto& b = net.add_node();
  int got = 0;
  b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });

  net.set_up(b.id(), false);
  a.send(b.local(), text_frame("lost"));
  net.run_all();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net.stats().messages_to_down_node, 1u);

  net.set_up(b.id(), true);
  a.send(b.local(), text_frame("ok"));
  net.run_all();
  EXPECT_EQ(got, 1);
}

TEST(Sim, DownSenderCannotTransmit) {
  SimNetwork net({}, 1);
  auto& a = net.add_node();
  auto& b = net.add_node();
  int got = 0;
  b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });
  net.set_up(a.id(), false);
  a.send(b.local(), text_frame("x"));
  net.run_all();
  EXPECT_EQ(got, 0);
}

TEST(Sim, LossModelDropsApproximatelyTheConfiguredFraction) {
  LinkParams p;
  p.loss_probability = 0.3;
  SimNetwork net(p, 7);
  auto& a = net.add_node();
  auto& b = net.add_node();
  int got = 0;
  b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });
  const int n = 5000;
  for (int i = 0; i < n; ++i) a.send(b.local(), text_frame("m"));
  net.run_all();
  EXPECT_NEAR(static_cast<double>(got) / n, 0.7, 0.03);
  EXPECT_EQ(net.stats().messages_dropped + net.stats().messages_delivered,
            static_cast<std::uint64_t>(n));
}

TEST(Sim, ScheduleRunsCallbacksInTimeOrder) {
  SimNetwork net({}, 1);
  std::vector<int> order;
  net.schedule(0.3, [&] { order.push_back(3); });
  net.schedule(0.1, [&] { order.push_back(1); });
  net.schedule(0.2, [&] { order.push_back(2); });
  net.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_NEAR(net.now(), 0.3, 1e-12);
}

TEST(Sim, RunUntilStopsAtBoundaryAndAdvancesClock) {
  SimNetwork net({}, 1);
  int fired = 0;
  net.schedule(1.0, [&] { ++fired; });
  net.schedule(2.0, [&] { ++fired; });
  net.run_until(1.5);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(net.now(), 1.5);
  net.run_until(2.5);
  EXPECT_EQ(fired, 2);
}

TEST(Sim, NegativeDelayThrows) {
  SimNetwork net({}, 1);
  EXPECT_THROW(net.schedule(-0.1, [] {}), std::invalid_argument);
}

TEST(Sim, HandlerMaySendMoreMessages) {
  LinkParams p;
  p.jitter_s = 0.0;
  SimNetwork net(p, 1);
  auto& a = net.add_node();
  auto& b = net.add_node();
  int a_got = 0;
  a.set_handler([&](const Endpoint&, serial::Frame) { ++a_got; });
  b.set_handler([&](const Endpoint& from, serial::Frame f) {
    b.send(from, std::move(f));  // echo
  });
  a.send(b.local(), text_frame("ping"));
  net.run_all();
  EXPECT_EQ(a_got, 1);
}

TEST(Sim, UnknownNodeThrows) {
  SimNetwork net({}, 1);
  auto& a = net.add_node();
  EXPECT_THROW(a.send(sim_endpoint(99), text_frame("x")), std::out_of_range);
  EXPECT_THROW(a.send(Endpoint{"tcp:127.0.0.1:1"}, text_frame("x")),
               std::invalid_argument);
}

TEST(Sim, LatencyFnOverridesLinkModel) {
  SimNetwork net({}, 1);
  auto& a = net.add_node();
  auto& b = net.add_node();
  net.set_latency_fn([](std::uint32_t, std::uint32_t) { return 7.0; });
  double at = -1;
  b.set_handler([&](const Endpoint&, serial::Frame) { at = net.now(); });
  a.send(b.local(), text_frame("x"));
  net.run_all();
  EXPECT_NEAR(at, 7.0, 1e-12);
}

TEST(Sim, StatsCountBytes) {
  SimNetwork net({}, 1);
  auto& a = net.add_node();
  auto& b = net.add_node();
  b.set_handler([](const Endpoint&, serial::Frame) {});
  a.send(b.local(), text_frame("hello"));
  net.run_all();
  EXPECT_EQ(net.stats().messages_sent, 1u);
  EXPECT_EQ(net.stats().bytes_sent,
            serial::kFrameHeaderSize + 5 + serial::kFrameTrailerSize);
}

TEST(Sim, RunAllBoundsRunawayEventLoops) {
  SimNetwork net({}, 1);
  // A self-rescheduling event never terminates; run_all's cap must.
  std::function<void()> loop = [&] { net.schedule(0.001, loop); };
  net.schedule(0.0, loop);
  EXPECT_EQ(net.run_all(1000), 1000u);
}

// ----------------------------------------------------------- fault injection

TEST(Fault, HookDropsFrames) {
  SimNetwork net({}, 1);
  auto& a = net.add_node();
  auto& b = net.add_node();
  int got = 0;
  b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });

  FaultPlan plan;
  plan.default_link.drop = 1.0;
  FaultInjector inj(net, plan, 7);
  inj.arm();

  for (int i = 0; i < 5; ++i) a.send(b.local(), text_frame("m"));
  net.run_all();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(inj.stats().dropped, 5u);
  EXPECT_EQ(net.stats().messages_dropped, 5u);
}

TEST(Fault, HookDuplicatesFrames) {
  SimNetwork net({}, 1);
  auto& a = net.add_node();
  auto& b = net.add_node();
  int got = 0;
  b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });

  FaultPlan plan;
  plan.default_link.duplicate = 1.0;
  FaultInjector inj(net, plan, 7);
  inj.arm();

  a.send(b.local(), text_frame("twin"));
  net.run_all();
  EXPECT_EQ(got, 2);
  EXPECT_EQ(inj.stats().duplicated, 1u);
  EXPECT_EQ(net.stats().messages_duplicated, 1u);
}

TEST(Fault, CorruptedFrameIsRejectedAndCounted) {
  SimNetwork net({}, 1);
  auto& a = net.add_node();
  auto& b = net.add_node();
  int got = 0;
  b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });

  FaultPlan plan;
  plan.default_link.corrupt = 1.0;
  FaultInjector inj(net, plan, 7);
  inj.arm();

  a.send(b.local(), text_frame("fragile payload"));
  net.run_all();
  EXPECT_EQ(got, 0);  // never handed to the application
  EXPECT_EQ(inj.stats().corrupted, 1u);
  EXPECT_EQ(net.stats().messages_corrupt_rejected, 1u);
  EXPECT_EQ(net.stats().messages_delivered, 0u);
}

TEST(Fault, DelayReordersFrames) {
  LinkParams p;
  p.jitter_s = 0.0;
  SimNetwork net(p, 1);
  auto& a = net.add_node();
  auto& b = net.add_node();
  std::vector<std::string> order;
  b.set_handler([&](const Endpoint&, serial::Frame f) {
    order.push_back(serial::to_string(f.payload));
  });

  // Delay only the first frame submitted; the second overtakes it.
  bool first = true;
  net.set_fault_fn([&](std::uint32_t, std::uint32_t, const serial::Frame&) {
    FaultAction act;
    if (first) {
      first = false;
      act.extra_delay_s = 1.0;
    }
    return act;
  });

  a.send(b.local(), text_frame("slow"));
  a.send(b.local(), text_frame("fast"));
  net.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"fast", "slow"}));
}

TEST(Fault, PerLinkOverridesDefault) {
  SimNetwork net({}, 1);
  auto& a = net.add_node();
  auto& b = net.add_node();
  auto& c = net.add_node();
  int b_got = 0, c_got = 0;
  b.set_handler([&](const Endpoint&, serial::Frame) { ++b_got; });
  c.set_handler([&](const Endpoint&, serial::Frame) { ++c_got; });

  FaultPlan plan;  // clean by default; the a->b link loses everything
  plan.per_link[{0, 1}] = LinkFaults{.drop = 1.0};
  FaultInjector inj(net, plan, 7);
  inj.arm();

  a.send(b.local(), text_frame("m"));
  a.send(c.local(), text_frame("m"));
  net.run_all();
  EXPECT_EQ(b_got, 0);
  EXPECT_EQ(c_got, 1);
}

TEST(Fault, CrashWindowTakesNodeDownAndBack) {
  SimNetwork net({}, 1);
  auto& a = net.add_node();
  auto& b = net.add_node();
  int got = 0;
  b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });

  FaultPlan plan;
  plan.crashes.push_back(CrashWindow{.node = 1, .at_s = 1.0,
                                     .duration_s = 2.0});
  FaultInjector inj(net, plan, 7);
  inj.arm();

  net.schedule(1.5, [&] { a.send(b.local(), text_frame("into-void")); });
  net.schedule(4.0, [&] { a.send(b.local(), text_frame("after")); });
  net.run_all();

  EXPECT_EQ(got, 1);  // only the post-restart frame lands
  EXPECT_EQ(inj.stats().crashes_opened, 1u);
  EXPECT_EQ(inj.stats().crashes_closed, 1u);
  EXPECT_TRUE(net.is_up(1));  // restarted
}

TEST(Fault, DeterministicForSeedAndPlan) {
  auto run = [] {
    LinkParams p;
    p.jitter_s = 0.015;
    SimNetwork net(p, 11);
    auto& a = net.add_node();
    auto& b = net.add_node();
    int got = 0;
    b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });

    FaultPlan plan;
    plan.default_link = LinkFaults{.drop = 0.2, .duplicate = 0.1,
                                   .corrupt = 0.05, .delay = 0.3};
    FaultInjector inj(net, plan, 23);
    inj.arm();
    for (int i = 0; i < 500; ++i) a.send(b.local(), text_frame("m"));
    net.run_all();
    return std::make_pair(inj.stats(), net.stats());
  };
  auto [f1, n1] = run();
  auto [f2, n2] = run();
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(n1, n2);
  EXPECT_GT(f1.dropped, 0u);
  EXPECT_GT(f1.duplicated, 0u);
  EXPECT_GT(f1.corrupted, 0u);
  EXPECT_GT(f1.delayed, 0u);
  EXPECT_EQ(n1.messages_corrupt_rejected + n1.messages_delivered +
                n1.messages_dropped + n1.messages_to_down_node,
            n1.messages_sent + n1.messages_duplicated);
}

// --------------------------------------------------------------------- tcp

void pump(TcpTransport& a, TcpTransport& b, int target, int& counter) {
  // Drive both reactors until `counter` reaches target or we give up.
  for (int spins = 0; spins < 20000 && counter < target; ++spins) {
    a.poll_wait(1);
    b.poll_wait(1);
  }
}

TEST(Tcp, LoopbackRoundTrip) {
  TcpTransport a(0), b(0);
  int got = 0;
  std::string body;
  Endpoint from_seen;
  b.set_handler([&](const Endpoint& from, serial::Frame f) {
    ++got;
    body = serial::to_string(f.payload);
    from_seen = from;
  });
  a.send(b.local(), text_frame("over tcp"));
  pump(a, b, 1, got);
  ASSERT_EQ(got, 1);
  EXPECT_EQ(body, "over tcp");
  // The HELLO protocol labels the frame with a's listening endpoint.
  EXPECT_EQ(from_seen, a.local());
}

TEST(Tcp, ReplyUsesLearnedEndpoint) {
  TcpTransport a(0), b(0);
  int a_got = 0;
  a.set_handler([&](const Endpoint&, serial::Frame) { ++a_got; });
  b.set_handler([&](const Endpoint& from, serial::Frame f) {
    b.send(from, std::move(f));  // echo back over a fresh connection
  });
  a.send(b.local(), text_frame("ping"));
  pump(a, b, 1, a_got);
  EXPECT_EQ(a_got, 1);
}

TEST(Tcp, ManyFramesInOrder) {
  TcpTransport a(0), b(0);
  std::vector<int> seen;
  int got = 0;
  b.set_handler([&](const Endpoint&, serial::Frame f) {
    seen.push_back(static_cast<int>(f.payload[0]));
    ++got;
  });
  for (int i = 0; i < 200; ++i) {
    serial::Frame f;
    f.type = serial::FrameType::kData;
    f.payload = {static_cast<std::uint8_t>(i)};
    a.send(b.local(), std::move(f));
  }
  pump(a, b, 200, got);
  ASSERT_EQ(got, 200);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(seen[i], i % 256);
}

TEST(Tcp, LargePayloadCrossesIntact) {
  TcpTransport a(0), b(0);
  serial::Frame f;
  f.type = serial::FrameType::kData;
  f.payload.resize(1 << 20);
  for (std::size_t i = 0; i < f.payload.size(); ++i) {
    f.payload[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  auto expected = f.payload;
  int got = 0;
  serial::Bytes received;
  b.set_handler([&](const Endpoint&, serial::Frame fr) {
    received = std::move(fr.payload);
    ++got;
  });
  a.send(b.local(), std::move(f));
  pump(a, b, 1, got);
  ASSERT_EQ(got, 1);
  EXPECT_EQ(received, expected);
}

TEST(Tcp, EphemeralPortIsReported) {
  TcpTransport t(0);
  EXPECT_NE(t.local().value.find("tcp:127.0.0.1:"), std::string::npos);
  EXPECT_NE(t.local().value, "tcp:127.0.0.1:0");
}

TEST(Tcp, SendToDeadPortDoesNotCrash) {
  TcpTransport a(0);
  // Nothing listens on this endpoint; connect will fail asynchronously.
  a.send(tcp_endpoint("127.0.0.1", 1), text_frame("x"));
  for (int i = 0; i < 50; ++i) a.poll_wait(1);
  SUCCEED();
}

TEST(Tcp, BidirectionalTrafficOnIndependentConnections) {
  TcpTransport a(0), b(0);
  int a_got = 0, b_got = 0;
  a.set_handler([&](const Endpoint&, serial::Frame) { ++a_got; });
  b.set_handler([&](const Endpoint&, serial::Frame) { ++b_got; });
  for (int i = 0; i < 50; ++i) {
    a.send(b.local(), text_frame("a->b"));
    b.send(a.local(), text_frame("b->a"));
  }
  for (int spins = 0; spins < 20000 && (a_got < 50 || b_got < 50); ++spins) {
    a.poll_wait(1);
    b.poll_wait(1);
  }
  EXPECT_EQ(a_got, 50);
  EXPECT_EQ(b_got, 50);
}

}  // namespace
}  // namespace cg::net
