// Wire-batching and TCP output-path tests: coalescing thresholds and flush
// ticks in ReliableTransport, the oversized-frame bypass, batching over a
// real socket, the partial-write/no-interleaving guarantee under a tiny
// SO_SNDBUF, a cross-thread TCP ping-pong (the TSan canary for the
// per-connection buffers), and a service that survives malformed frames
// from a socket peer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/service/service.hpp"
#include "core/unit/builtin.hpp"
#include "net/loopback.hpp"
#include "net/reliable.hpp"
#include "net/sim_network.hpp"
#include "net/tcp.hpp"
#include "p2p/messages.hpp"
#include "serial/writer.hpp"

namespace cg::net {
namespace {

serial::Frame text_frame(const std::string& s,
                         serial::FrameType t = serial::FrameType::kControl) {
  serial::Frame f;
  f.type = t;
  f.payload = serial::to_bytes(s);
  return f;
}

/// Records every frame the layer above pushes down, delivers nothing.
struct CaptureTransport final : Transport {
  Endpoint ep{"cap:0"};
  std::vector<std::pair<Endpoint, serial::Frame>> sent;
  FrameHandler handler;

  Endpoint local() const override { return ep; }
  void send(const Endpoint& to, serial::Frame f) override {
    sent.emplace_back(to, std::move(f));
  }
  void set_handler(FrameHandler h) override { handler = std::move(h); }
  std::size_t poll() override { return 0; }
};

// The WireBatch tests crank time by hand with a node-less SimNetwork, so
// flush ticks fire exactly when a test's run_until says so.
ReliableConfig batching_config() {
  ReliableConfig cfg;
  cfg.batch = true;
  cfg.batch_max_frames = 4;
  cfg.batch_max_bytes = 1 << 20;  // count threshold rules these tests
  cfg.batch_flush_s = 0.010;
  cfg.batch_bypass_bytes = 256;
  return cfg;
}

TEST(WireBatch, CoalescesUpToCountThresholdIntoOneFrame) {
  CaptureTransport cap;
  SimNetwork sim;
  ReliableTransport rel(cap, sim.clock(), sim.scheduler(), batching_config());

  const Endpoint dst{"cap:peer"};
  // Heartbeats ride passthrough: no envelope/ack machinery in the way.
  for (int i = 0; i < 4; ++i) {
    rel.send(dst, text_frame("hb" + std::to_string(i),
                             serial::FrameType::kHeartbeat));
  }

  // The 4th send hit batch_max_frames: exactly one kBatch on the wire.
  ASSERT_EQ(cap.sent.size(), 1u);
  EXPECT_EQ(cap.sent[0].second.type, serial::FrameType::kBatch);
  auto subs = serial::decode_batch(cap.sent[0].second);
  ASSERT_EQ(subs.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(serial::to_string(subs[i].payload), "hb" + std::to_string(i));
  }
  EXPECT_EQ(rel.stats().batches_sent, 1u);
  EXPECT_EQ(rel.stats().frames_coalesced, 4u);
}

TEST(WireBatch, FlushTimerSendsAPartialBatch) {
  CaptureTransport cap;
  SimNetwork sim;
  ReliableTransport rel(cap, sim.clock(), sim.scheduler(), batching_config());

  const Endpoint dst{"cap:peer"};
  rel.send(dst, text_frame("a", serial::FrameType::kHeartbeat));
  rel.send(dst, text_frame("b", serial::FrameType::kHeartbeat));
  EXPECT_TRUE(cap.sent.empty());  // below both thresholds: still buffered

  sim.run_until(0.011);  // past batch_flush_s
  ASSERT_EQ(cap.sent.size(), 1u);
  EXPECT_EQ(cap.sent[0].second.type, serial::FrameType::kBatch);
  EXPECT_EQ(serial::decode_batch(cap.sent[0].second).size(), 2u);
}

TEST(WireBatch, SingleBufferedFrameFlushesUnwrapped) {
  CaptureTransport cap;
  SimNetwork sim;
  ReliableTransport rel(cap, sim.clock(), sim.scheduler(), batching_config());

  rel.send(Endpoint{"cap:peer"},
           text_frame("solo", serial::FrameType::kHeartbeat));
  sim.run_until(0.011);
  ASSERT_EQ(cap.sent.size(), 1u);
  // One frame gains nothing from batch framing; it goes out as itself.
  EXPECT_EQ(cap.sent[0].second.type, serial::FrameType::kHeartbeat);
  EXPECT_EQ(serial::to_string(cap.sent[0].second.payload), "solo");
}

TEST(WireBatch, OversizedFrameBypassesAfterFlushingSmallOnes) {
  CaptureTransport cap;
  SimNetwork sim;
  ReliableTransport rel(cap, sim.clock(), sim.scheduler(), batching_config());

  const Endpoint dst{"cap:peer"};
  rel.send(dst, text_frame("small1", serial::FrameType::kHeartbeat));
  rel.send(dst, text_frame("small2", serial::FrameType::kHeartbeat));
  serial::Frame big;
  big.type = serial::FrameType::kHeartbeat;
  big.payload.assign(512, 0x42);  // >= batch_bypass_bytes
  rel.send(dst, big);

  // Order on the wire: the buffered smalls first (as one batch), then the
  // big frame standalone -- per-destination order is never violated.
  ASSERT_EQ(cap.sent.size(), 2u);
  EXPECT_EQ(cap.sent[0].second.type, serial::FrameType::kBatch);
  EXPECT_EQ(serial::decode_batch(cap.sent[0].second).size(), 2u);
  EXPECT_EQ(cap.sent[1].second.type, serial::FrameType::kHeartbeat);
  EXPECT_EQ(cap.sent[1].second.payload.size(), 512u);
  EXPECT_EQ(rel.stats().batch_bypassed, 1u);
}

TEST(WireBatch, DestinationsBatchIndependently) {
  CaptureTransport cap;
  SimNetwork sim;
  ReliableTransport rel(cap, sim.clock(), sim.scheduler(), batching_config());

  for (int i = 0; i < 3; ++i) {
    rel.send(Endpoint{"cap:p1"}, text_frame("x", serial::FrameType::kHeartbeat));
  }
  rel.send(Endpoint{"cap:p2"}, text_frame("y", serial::FrameType::kHeartbeat));
  EXPECT_TRUE(cap.sent.empty());  // neither destination hit its threshold

  rel.flush();
  ASSERT_EQ(cap.sent.size(), 2u);  // one flush per destination
}

TEST(WireBatch, ExplicitFlushBeatsTheTimer) {
  CaptureTransport cap;
  SimNetwork sim;
  ReliableTransport rel(cap, sim.clock(), sim.scheduler(), batching_config());

  const Endpoint dst{"cap:peer"};
  rel.send(dst, text_frame("a", serial::FrameType::kHeartbeat));
  rel.send(dst, text_frame("b", serial::FrameType::kHeartbeat));
  rel.flush();
  ASSERT_EQ(cap.sent.size(), 1u);
  EXPECT_EQ(cap.sent[0].second.type, serial::FrameType::kBatch);

  // The still-pending flush timer finds an empty buffer: no extra frame.
  sim.run_until(1.0);
  EXPECT_EQ(cap.sent.size(), 1u);
}

TEST(WireBatch, OffByDefaultSendsEveryFrameAlone) {
  CaptureTransport cap;
  SimNetwork sim;
  ReliableTransport rel(cap, sim.clock(), sim.scheduler(), ReliableConfig{});

  for (int i = 0; i < 8; ++i) {
    rel.send(Endpoint{"cap:peer"},
             text_frame("hb", serial::FrameType::kHeartbeat));
  }
  EXPECT_EQ(cap.sent.size(), 8u);
  EXPECT_EQ(rel.stats().batches_sent, 0u);
}

// Reliable envelopes, their acks and retransmissions all ride the
// coalescer; delivery and dedup semantics are unchanged over the sim.
TEST(WireBatch, ReliableDeliveryIsExactlyOnceWithBatchingOn) {
  ReliableConfig cfg;
  cfg.batch = true;
  cfg.batch_max_frames = 8;
  cfg.batch_flush_s = 0.005;

  SimNetwork net({}, 99);
  SimTransport& ta = net.add_node();
  SimTransport& tb = net.add_node();
  ReliableTransport a(ta, net.clock(), net.scheduler(), cfg);
  ReliableTransport b(tb, net.clock(), net.scheduler(), cfg);

  std::vector<std::string> got;
  b.set_handler([&](const Endpoint&, serial::Frame f) {
    got.push_back(serial::to_string(f.payload));
  });

  constexpr int kMsgs = 40;
  for (int i = 0; i < kMsgs; ++i) {
    a.send(tb.local(), text_frame(std::string("m").append(std::to_string(i))));
  }
  net.run_until(60.0);

  // Whole batches may reorder in flight (independent link jitter), but the
  // multiset of delivered messages is exact and duplicate-free.
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kMsgs));
  std::vector<std::string> want;
  for (int i = 0; i < kMsgs; ++i) {
    want.push_back(std::string("m").append(std::to_string(i)));
  }
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(a.stats().acked, static_cast<std::uint64_t>(kMsgs));
  EXPECT_EQ(a.stats().expired, 0u);
  EXPECT_GT(a.stats().batches_sent, 0u);
  EXPECT_GT(a.stats().frames_coalesced, 0u);
  EXPECT_GT(b.stats().batches_received, 0u);
  // The receiver's acks coalesced on the way back too.
  EXPECT_GT(b.stats().batches_sent, 0u);
}

// ------------------------------------------------------------ real sockets

/// Pump two loopback transports until `done` or the wall budget runs out.
template <typename Pred>
bool pump_until(TcpTransport& a, TcpTransport& b, Pred done,
                double budget_s = 20.0) {
  const Clock clk = steady_clock_seconds();
  while (!done()) {
    if (clk() > budget_s) return false;
    a.poll_wait(1);
    b.poll_wait(0);
  }
  return true;
}

// The SO_SNDBUF regression: with a kernel send buffer far smaller than the
// frames, every frame needs several writev rounds. A short write must park
// the remainder at the queue head -- never splice the next frame in early.
// Byte-perfect payloads on the receive side prove no interleaving.
TEST(TcpWire, PartialWritesNeverInterleaveFrames) {
  TcpTransport a;
  TcpTransport b;
  // Tiny SEND buffer on the sender forces short writes. The receiver keeps
  // its default rcvbuf: shrinking it below the loopback MSS (~64 KB) would
  // trigger TCP silly-window avoidance and throttle the link to the
  // persist-timer probe rate instead of exercising the writev path.
  a.set_socket_buffer_bytes(4096);

  std::vector<serial::Frame> got;
  b.set_handler([&](const Endpoint&, serial::Frame f) {
    got.push_back(std::move(f));
  });

  constexpr int kFrames = 24;
  constexpr std::size_t kPayload = 64 * 1024;
  for (int i = 0; i < kFrames; ++i) {
    serial::Frame f;
    f.type = serial::FrameType::kData;
    f.payload.resize(kPayload);
    for (std::size_t j = 0; j < kPayload; ++j) {
      // Per-frame pattern: any cross-frame byte swap breaks the check.
      f.payload[j] = static_cast<std::uint8_t>((i * 131 + j * 7) & 0xFF);
    }
    a.send(b.local(), std::move(f));
  }

  ASSERT_TRUE(pump_until(a, b, [&] {
    return got.size() == static_cast<std::size_t>(kFrames);
  })) << "received " << got.size() << " of " << kFrames;

  for (int i = 0; i < kFrames; ++i) {
    ASSERT_EQ(got[i].payload.size(), kPayload) << "frame " << i;
    for (std::size_t j = 0; j < kPayload; ++j) {
      ASSERT_EQ(got[i].payload[j],
                static_cast<std::uint8_t>((i * 131 + j * 7) & 0xFF))
          << "frame " << i << " byte " << j;
    }
  }
  // The tiny buffer really did force the partial-write path.
  EXPECT_GT(a.stats().partial_writes, 0u);
  EXPECT_GT(a.stats().writev_calls, static_cast<std::uint64_t>(kFrames));
}

// Batching over a real socket: one kBatch frame crosses the kernel instead
// of dozens of tiny ones, and everything still arrives exactly once.
TEST(TcpWire, BatchedEnvelopesCrossARealSocket) {
  TcpLoopbackBackend be;
  Transport& ta = be.add_node();
  Transport& tb = be.add_node();

  ReliableConfig cfg;
  cfg.rto_initial_s = 0.2;
  cfg.batch = true;
  cfg.batch_max_frames = 16;
  cfg.batch_flush_s = 0.002;
  ReliableTransport a(ta, be.clock(), be.scheduler(), cfg);
  ReliableTransport b(tb, be.clock(), be.scheduler(), cfg);

  std::size_t delivered = 0;
  b.set_handler([&](const Endpoint&, serial::Frame) { ++delivered; });

  constexpr int kMsgs = 200;
  for (int i = 0; i < kMsgs; ++i) {
    a.send(tb.local(), text_frame(std::string("m").append(std::to_string(i))));
  }
  a.flush();

  ASSERT_TRUE(be.run_until(20.0, [&] {
    return delivered == static_cast<std::size_t>(kMsgs) &&
           a.stats().acked == static_cast<std::uint64_t>(kMsgs);
  })) << "delivered " << delivered << ", acked " << a.stats().acked;

  EXPECT_EQ(b.stats().delivered, static_cast<std::uint64_t>(kMsgs));
  EXPECT_GT(a.stats().batches_sent, 0u);
  EXPECT_GT(b.stats().batches_received, 0u);
  // The whole point: far fewer frames hit the socket than messages sent.
  EXPECT_LT(be.tcp(0).stats().frames_sent,
            static_cast<std::uint64_t>(kMsgs) / 2);
}

// TSan canary: two transports on two threads, full-duplex traffic. Each
// transport (and its coalescing buffers) is confined to its own thread;
// the only shared state is the kernel's.
TEST(TcpWire, CrossThreadPingPongIsRaceFree) {
  TcpTransport a;
  TcpTransport b;
  const Endpoint eb = b.local();

  constexpr int kRounds = 100;
  std::atomic<int> a_got{0};
  std::atomic<int> b_got{0};

  // Handlers installed before the threads exist (happens-before via thread
  // creation); afterwards each transport is touched only by its own thread.
  a.set_handler([&](const Endpoint&, serial::Frame) {
    a_got.fetch_add(1, std::memory_order_relaxed);
  });
  b.set_handler([&](const Endpoint& from, serial::Frame) {
    b_got.fetch_add(1, std::memory_order_relaxed);
    b.send(from, text_frame("pong"));
  });

  std::thread ta([&] {
    for (int i = 0; i < kRounds; ++i) a.send(eb, text_frame("ping"));
    const Clock clk = steady_clock_seconds();
    while (a_got.load(std::memory_order_relaxed) < kRounds && clk() < 20.0) {
      a.poll_wait(1);
    }
  });
  std::thread tb([&] {
    const Clock clk = steady_clock_seconds();
    while (b_got.load(std::memory_order_relaxed) < kRounds && clk() < 20.0) {
      b.poll_wait(1);
    }
    b.flush();
    // Drain the tail so the last pongs reach the wire before teardown.
    const Clock tail = steady_clock_seconds();
    while (tail() < 0.2) b.poll_wait(1);
  });
  ta.join();
  tb.join();

  EXPECT_EQ(b_got.load(), kRounds);
  EXPECT_EQ(a_got.load(), kRounds);
}

// Every byte from a socket is hostile: a peer that sends undecodable
// control, discovery, code or data frames -- truncated, with broken XML,
// or with an element count that lies; bare or inside a reliable envelope
// -- gets them dropped and counted, and the service keeps serving. Before
// the decoders reported XML failures as DecodeError, bounded their
// reserves by the bytes left, and the reliable layer caught DecodeError
// from the layer above, each of these unwound out of the pump.
TEST(TcpWire, MalformedFramesAreDroppedAndTheServiceKeepsServing) {
  TcpLoopbackBackend be;
  auto clock = be.clock();
  auto sched = be.scheduler();
  static core::UnitRegistry reg = core::UnitRegistry::with_builtins();
  core::ServiceConfig hc;
  hc.peer_id = "home";
  core::TrianaService home(be.add_node(), clock, sched, reg, hc);
  core::ServiceConfig wc;
  wc.peer_id = "worker";
  core::TrianaService worker(be.add_node(), clock, sched, reg, wc);
  Transport& rogue = be.add_node();
  ReliableTransport rogue_reliable(rogue, clock, sched, ReliableConfig{});

  // A length prefix claiming 4 GiB with nothing behind it.
  const serial::Bytes truncated{0xFF, 0xFF, 0xFF, 0xFF, 0x0F};
  const auto control = [](std::string_view header) {
    serial::Writer w;
    w.string(header);
    w.blob(serial::Bytes{});
    return w.take();
  };
  serial::Writer query;  // well-framed query whose XML body is cut short
  query.u8(static_cast<std::uint8_t>(p2p::DiscoveryMsgType::kQuery));
  for (int i = 0; i < 4; ++i) query.u64(0);
  query.string("rogue:0");
  query.u8(3);
  query.string("<query");
  serial::Writer response;  // claims 2^62 adverts and carries none
  response.u8(static_cast<std::uint8_t>(p2p::DiscoveryMsgType::kResponse));
  for (int i = 0; i < 4; ++i) response.u64(0);
  response.varint(std::uint64_t{1} << 62);
  const std::vector<std::pair<serial::FrameType, serial::Bytes>> cases = {
      {serial::FrameType::kControl, truncated},
      {serial::FrameType::kControl, control("<deploy job='j'")},
      {serial::FrameType::kControl, control("<deploy/>")},
      {serial::FrameType::kDiscovery, serial::Bytes{1, 0xFF, 0xFF}},  // query
      {serial::FrameType::kDiscovery, query.take()},
      {serial::FrameType::kDiscovery, response.take()},
      {serial::FrameType::kCode, serial::Bytes{1, 0xFF, 0xFF}},  // request
      {serial::FrameType::kData, truncated},
  };
  for (const auto& [type, payload] : cases) {
    serial::Frame f;
    f.type = type;
    f.payload = payload;
    rogue.send(worker.endpoint(), f);           // bare
    rogue_reliable.send(worker.endpoint(), f);  // wrapped
  }
  const std::uint64_t want = 2 * cases.size();
  ASSERT_TRUE(be.run_until(be.now() + 10.0, [&] {
    return worker.reliable().stats().malformed_dropped == want &&
           rogue_reliable.stats().acked == cases.size();
  })) << "dropped " << worker.reliable().stats().malformed_dropped;

  core::TaskGraph simple("after-rogue");
  simple.add_task("Wave", "Wave");
  simple.add_task("Sink", "NullSink");
  simple.connect("Wave", 0, "Sink", 0);
  home.publish_graph_modules(simple, 1024);
  bool acked = false;
  core::DeployAckMsg got;
  home.deploy_remote(worker.endpoint(), simple, 1,
                     [&](const core::DeployAckMsg& a) {
                       acked = true;
                       got = a;
                     });
  ASSERT_TRUE(be.run_until(be.now() + 10.0, [&] { return acked; }));
  EXPECT_TRUE(got.ok) << got.error;
  EXPECT_EQ(worker.reliable().stats().malformed_dropped, want);
}

}  // namespace
}  // namespace cg::net
