// Tests for the reliable request/reply layer: ack/retransmit/backoff
// behaviour, receiver-side duplicate suppression, expiry reporting, the
// passthrough policy, and determinism of the whole machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "dsp/rng.hpp"
#include "net/fault.hpp"
#include "net/reliable.hpp"
#include "net/sim_network.hpp"

namespace cg::net {
namespace {

serial::Frame text_frame(const std::string& s,
                         serial::FrameType t = serial::FrameType::kControl) {
  serial::Frame f;
  f.type = t;
  f.payload = serial::to_bytes(s);
  return f;
}

/// Two reliable endpoints over one SimNetwork (node 0 = a, node 1 = b).
struct ReliablePair {
  explicit ReliablePair(LinkParams p = {}, std::uint64_t seed = 1,
                        ReliableConfig cfg = {})
      : net(p, seed),
        ta(net.add_node()),
        tb(net.add_node()),
        a(ta, net.clock(), net.scheduler(), cfg),
        b(tb, net.clock(), net.scheduler(), cfg) {}

  SimNetwork net;
  SimTransport& ta;
  SimTransport& tb;
  ReliableTransport a;
  ReliableTransport b;
};

TEST(Reliable, CleanLinkDeliversOnceAndAcks) {
  ReliablePair pair;
  std::vector<std::string> got;
  pair.b.set_handler([&](const Endpoint& from, serial::Frame f) {
    EXPECT_EQ(from, pair.ta.local());
    EXPECT_EQ(f.type, serial::FrameType::kControl);
    got.push_back(serial::to_string(f.payload));
  });

  pair.a.send(pair.tb.local(), text_frame("deploy"));
  pair.net.run_until(60.0);

  EXPECT_EQ(got, (std::vector<std::string>{"deploy"}));
  EXPECT_EQ(pair.a.stats().sent, 1u);
  EXPECT_EQ(pair.a.stats().acked, 1u);
  EXPECT_EQ(pair.a.stats().retransmits, 0u);
  EXPECT_EQ(pair.a.stats().expired, 0u);
  EXPECT_EQ(pair.a.in_flight(), 0u);
  EXPECT_EQ(pair.b.stats().delivered, 1u);
  EXPECT_EQ(pair.b.stats().acks_sent, 1u);
  EXPECT_EQ(pair.b.stats().duplicates_suppressed, 0u);
}

TEST(Reliable, RetransmitsUntilDelivered) {
  ReliablePair pair;
  // Drop the first two reliable envelopes on the wire; retransmissions get
  // through.
  int reliable_seen = 0;
  pair.net.set_fault_fn([&](std::uint32_t, std::uint32_t,
                            const serial::Frame& f) {
    FaultAction act;
    if (f.type == serial::FrameType::kReliable && reliable_seen++ < 2) {
      act.drop = true;
    }
    return act;
  });

  int got = 0;
  pair.b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });
  pair.a.send(pair.tb.local(), text_frame("try-try-again"));
  pair.net.run_until(60.0);

  EXPECT_EQ(got, 1);
  EXPECT_EQ(pair.a.stats().retransmits, 2u);
  EXPECT_EQ(pair.a.stats().acked, 1u);
  EXPECT_EQ(pair.b.stats().delivered, 1u);
  EXPECT_EQ(pair.a.in_flight(), 0u);
}

TEST(Reliable, BackoffGrowsTheRetryInterval) {
  ReliableConfig cfg;
  cfg.jitter_frac = 0.0;  // exact intervals
  ReliablePair exact({}, 1, cfg);
  // Record when each copy of the envelope hits the wire; never deliver, so
  // the full retry ladder is observable.
  std::vector<double> at;
  exact.net.set_fault_fn([&](std::uint32_t, std::uint32_t,
                             const serial::Frame& f) {
    FaultAction act;
    if (f.type == serial::FrameType::kReliable) {
      at.push_back(exact.net.now());
      act.drop = true;
    }
    return act;
  });
  exact.a.send(exact.tb.local(), text_frame("x"));
  exact.net.run_until(120.0);

  ASSERT_GE(at.size(), 4u);
  const double gap1 = at[1] - at[0];
  const double gap2 = at[2] - at[1];
  const double gap3 = at[3] - at[2];
  EXPECT_NEAR(gap1, exact.a.config().rto_initial_s, 1e-9);
  EXPECT_NEAR(gap2, gap1 * kRtoBackoff, 1e-9);
  EXPECT_NEAR(gap3, gap2 * kRtoBackoff, 1e-9);
}

TEST(Reliable, DuplicatedEnvelopeIsSuppressedAndReAcked) {
  ReliablePair pair;
  // Deliver every reliable envelope twice.
  pair.net.set_fault_fn([](std::uint32_t, std::uint32_t,
                           const serial::Frame& f) {
    FaultAction act;
    if (f.type == serial::FrameType::kReliable) act.duplicates = 1;
    return act;
  });

  int got = 0;
  pair.b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });
  pair.a.send(pair.tb.local(), text_frame("once-only"));
  pair.net.run_until(60.0);

  EXPECT_EQ(got, 1);  // the application saw it exactly once
  EXPECT_EQ(pair.b.stats().delivered, 1u);
  EXPECT_EQ(pair.b.stats().duplicates_suppressed, 1u);
  EXPECT_EQ(pair.b.stats().acks_sent, 2u);  // both copies acked
  EXPECT_EQ(pair.a.stats().acked, 1u);      // extra ack ignored
  EXPECT_EQ(pair.a.in_flight(), 0u);
}

TEST(Reliable, LostAckProvokesRetransmitNotDuplicateDelivery) {
  ReliablePair pair;
  int acks_seen = 0;
  pair.net.set_fault_fn([&](std::uint32_t, std::uint32_t,
                            const serial::Frame& f) {
    FaultAction act;
    if (f.type == serial::FrameType::kAck && acks_seen++ == 0) {
      act.drop = true;  // lose only the first ack
    }
    return act;
  });

  int got = 0;
  pair.b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });
  pair.a.send(pair.tb.local(), text_frame("ack-me-twice"));
  pair.net.run_until(60.0);

  EXPECT_EQ(got, 1);
  EXPECT_GE(pair.a.stats().retransmits, 1u);
  EXPECT_EQ(pair.a.stats().acked, 1u);
  EXPECT_EQ(pair.b.stats().duplicates_suppressed,
            pair.a.stats().retransmits);
}

TEST(Reliable, ExpiryFiresDropHandlerWithOriginalFrame) {
  ReliableConfig cfg;
  cfg.deadline_s = 3.0;
  cfg.max_retries = 2;
  ReliablePair pair({}, 1, cfg);
  pair.net.set_up(1, false);  // receiver is gone for good

  int dropped = 0;
  pair.a.set_drop_handler([&](const Endpoint& to, const serial::Frame& f) {
    ++dropped;
    EXPECT_EQ(to, pair.tb.local());
    EXPECT_EQ(f.type, serial::FrameType::kControl);
    EXPECT_EQ(serial::to_string(f.payload), "doomed");
  });

  pair.a.send(pair.tb.local(), text_frame("doomed"));
  pair.net.run_until(120.0);

  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(pair.a.stats().expired, 1u);
  EXPECT_EQ(pair.a.stats().acked, 0u);
  EXPECT_EQ(pair.a.in_flight(), 0u);
}

TEST(Reliable, HeartbeatsPassThroughByDefault) {
  ReliablePair pair;
  std::vector<serial::FrameType> got;
  pair.b.set_handler([&](const Endpoint&, serial::Frame f) {
    got.push_back(f.type);
  });

  pair.a.send(pair.tb.local(),
              text_frame("alive", serial::FrameType::kHeartbeat));
  pair.a.send(pair.tb.local(), text_frame("cmd"));
  pair.net.run_until(60.0);

  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(pair.a.stats().passthrough_sent, 1u);
  EXPECT_EQ(pair.a.stats().sent, 1u);
  EXPECT_EQ(pair.b.stats().passthrough_delivered, 1u);
  EXPECT_EQ(pair.b.stats().delivered, 1u);
}

TEST(Reliable, DedupWindowEvictsOldestIds) {
  ReliableConfig cfg;
  cfg.dedup_window = 4;
  ReliablePair pair({}, 1, cfg);
  int got = 0;
  pair.b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });

  for (int i = 0; i < 10; ++i) {
    pair.a.send(pair.tb.local(),
                text_frame(std::string("m").append(std::to_string(i))));
  }
  pair.net.run_until(60.0);
  EXPECT_EQ(got, 10);  // eviction never suppresses fresh ids
  EXPECT_EQ(pair.b.stats().duplicates_suppressed, 0u);
}

TEST(Reliable, PerDestinationIdsAreContiguous) {
  // One sender, two receivers, sends interleaved: each receiver's envelopes
  // are numbered 1..n with no gaps, so its window can be a bitmap.
  SimNetwork net({}, 1);
  SimTransport& ta = net.add_node();
  SimTransport& tb = net.add_node();
  SimTransport& tc = net.add_node();
  ReliableTransport a(ta, net.clock(), net.scheduler());
  ReliableTransport b(tb, net.clock(), net.scheduler());
  ReliableTransport c(tc, net.clock(), net.scheduler());
  std::map<std::uint32_t, std::vector<std::uint64_t>> ids_to;
  net.set_fault_fn([&](std::uint32_t, std::uint32_t to,
                       const serial::Frame& f) {
    if (f.type == serial::FrameType::kReliable) {
      ids_to[to].push_back(serial::decode_envelope(f).msg_id);
    }
    return FaultAction{};
  });

  for (int i = 0; i < 10; ++i) {
    a.send(tb.local(), text_frame(std::string("b").append(std::to_string(i))));
    if (i % 3 == 0) {
      a.send(tc.local(),
             text_frame(std::string("c").append(std::to_string(i))));
    }
  }
  net.run_until(60.0);

  EXPECT_EQ(ids_to[1],
            (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(ids_to[2], (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(b.stats().delivered, 10u);
  EXPECT_EQ(c.stats().delivered, 4u);
  EXPECT_EQ(a.stats().acked, 14u);
}

TEST(Reliable, ReorderBeyondTheWindowIsDeliveredOnce) {
  ReliableConfig cfg;
  cfg.dedup_window = 64;
  ReliablePair pair({}, 1, cfg);
  constexpr std::uint64_t kLast = 72;
  // Hold id 2 back (every copy dropped) until the other 71 ids have landed
  // and pushed it below the window; then let exactly one copy through.
  // Deliver the last id twice, inside the window.
  bool id2_passed = false;
  pair.net.set_fault_fn([&](std::uint32_t, std::uint32_t,
                            const serial::Frame& f) {
    FaultAction act;
    if (f.type != serial::FrameType::kReliable) return act;
    const std::uint64_t id = serial::decode_envelope(f).msg_id;
    if (id == 2) {
      act.drop = id2_passed || pair.net.now() < 3.0;
      if (!act.drop) id2_passed = true;
    }
    if (id == kLast) act.duplicates = 1;
    return act;
  });

  std::map<std::string, int> got;
  std::uint64_t delivered_before_id2 = 0;
  pair.b.set_handler([&](const Endpoint&, serial::Frame f) {
    const std::string s = serial::to_string(f.payload);
    if (s == "m1") delivered_before_id2 = pair.b.stats().delivered - 1;
    ++got[s];
  });
  for (std::uint64_t i = 0; i < kLast; ++i) {
    pair.a.send(pair.tb.local(),
                text_frame(std::string("m").append(std::to_string(i))));
  }
  pair.net.run_until(60.0);

  ASSERT_EQ(got.size(), kLast);
  for (const auto& [payload, n] : got) EXPECT_EQ(n, 1) << payload;
  EXPECT_GT(delivered_before_id2, cfg.dedup_window);  // landed below it
  EXPECT_EQ(pair.b.stats().delivered, kLast);
  EXPECT_EQ(pair.b.stats().duplicates_suppressed, 1u);
  EXPECT_EQ(pair.a.in_flight(), 0u);
  EXPECT_EQ(pair.a.stats().expired, 0u);
}

TEST(Reliable, CorruptionBehavesLikeLoss) {
  ReliablePair pair;
  int reliable_seen = 0;
  pair.net.set_fault_fn([&](std::uint32_t, std::uint32_t,
                            const serial::Frame& f) {
    FaultAction act;
    if (f.type == serial::FrameType::kReliable && reliable_seen++ == 0) {
      act.corrupt = true;  // first copy arrives mangled
    }
    return act;
  });

  int got = 0;
  pair.b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });
  pair.a.send(pair.tb.local(), text_frame("integrity"));
  pair.net.run_until(60.0);

  EXPECT_EQ(got, 1);
  EXPECT_EQ(pair.net.stats().messages_corrupt_rejected, 1u);
  EXPECT_GE(pair.a.stats().retransmits, 1u);
  EXPECT_EQ(pair.b.stats().delivered, 1u);
}

TEST(Reliable, DeterministicStatsUnderLossySeed) {
  auto run = [] {
    LinkParams p;
    p.loss_probability = 0.3;
    ReliablePair pair(p, 99);
    int got = 0;
    pair.b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });
    for (int i = 0; i < 50; ++i) {
      pair.a.send(pair.tb.local(),
                  text_frame(std::string("m").append(std::to_string(i))));
    }
    pair.net.run_until(300.0);
    EXPECT_EQ(got, 50);
    return std::make_pair(pair.a.stats(), pair.b.stats());
  };
  auto [a1, b1] = run();
  auto [a2, b2] = run();
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(b1, b2);
  EXPECT_GT(a1.retransmits, 0u);  // 30% loss must have caused retries
}

// -- the one retransmit timer ------------------------------------------------
//
// These drive a ReliableTransport by hand: a fake inner transport records
// what goes on the wire, and a fake scheduler holds every callback until the
// test moves its clock, so the number of queued timers is observable.

/// Inner transport that records sends; the test injects frames by calling
/// `deliver`.
struct RecordingTransport final : Transport {
  struct Sent {
    double at;
    Endpoint to;
    serial::Frame frame;
  };
  explicit RecordingTransport(const double& now) : now(now) {}
  Endpoint local() const override { return Endpoint{"fake:a"}; }
  void send(const Endpoint& to, serial::Frame frame) override {
    sent.push_back({now, to, std::move(frame)});
  }
  void set_handler(FrameHandler h) override { handler = std::move(h); }
  std::size_t poll() override { return 0; }
  void deliver(const Endpoint& from, serial::Frame f) {
    handler(from, std::move(f));
  }

  const double& now;
  FrameHandler handler;
  std::vector<Sent> sent;
};

/// Scheduler whose callbacks wait in a queue until `advance_to` reaches
/// them; equal times run in the order they were scheduled.
struct CountingScheduler {
  Clock clock() {
    return [this] { return now; };
  }
  Scheduler sched() {
    return [this](double d, std::function<void()> fn) {
      ++scheduled;
      queue.push(now + d, std::move(fn));
    };
  }
  void advance_to(double t) { queue.run_until(t, now); }

  double now = 0.0;
  std::size_t scheduled = 0;
  EventQueue queue;
};

struct TimerRig {
  explicit TimerRig(ReliableConfig cfg = {})
      : inner(sched.now), rel(inner, sched.clock(), sched.sched(), cfg) {}

  /// Ack the envelope most recently put on the wire.
  void ack_last() {
    const auto env = serial::decode_envelope(inner.sent.back().frame);
    inner.deliver(peer, serial::encode_ack(env.msg_id));
  }

  Endpoint peer{"fake:b"};
  CountingScheduler sched;
  RecordingTransport inner;
  ReliableTransport rel;
};

TEST(ReliableTimer, AckedSendsLeaveAtMostOneQueuedCallback) {
  TimerRig rig;
  std::size_t most_queued = 0;
  // 10,000 sends 100 us apart, each acked at once: one second of traffic,
  // so the timer fires, finds nothing pending and is re-armed by a later
  // send. One timer per message would leave ~6,000 queued at the peak.
  for (int i = 0; i < 10000; ++i) {
    rig.sched.advance_to(i * 1e-4);
    rig.rel.send(rig.peer,
                 text_frame(std::string("m").append(std::to_string(i))));
    rig.ack_last();
    most_queued = std::max(most_queued, rig.sched.queue.size());
  }
  EXPECT_EQ(rig.rel.in_flight(), 0u);
  EXPECT_EQ(rig.rel.stats().acked, 10000u);
  EXPECT_LE(rig.sched.queue.size(), 1u);
  EXPECT_LE(most_queued, 1u);
  EXPECT_LE(rig.sched.scheduled, 4u);
  EXPECT_EQ(rig.rel.stats().retransmits, 0u);
  EXPECT_EQ(rig.inner.sent.size(), 10000u);
}

TEST(ReliableTimer, UnackedMessagesRetryAtTheirOwnInstantsThenExpire) {
  // Messages sent a few ms apart, never acked: a later send can draw a
  // shorter jitter and fall due before an earlier one. Every copy must
  // still leave at its own instant, as if each message had its own timer,
  // and each expiry must hand back the caller's frame byte for byte.
  ReliableConfig cfg;  // default RTO, backoff, jitter, deadline, budget
  TimerRig rig(cfg);
  constexpr int kMsgs = 40;
  constexpr double kGap = 0.0073;
  // Binary payloads, one of them 128 KB: the stored envelope is the only
  // copy, so the drop handler's frame is rebuilt from it.
  dsp::Rng bytes(5);
  std::vector<serial::Frame> originals(kMsgs);
  for (int i = 0; i < kMsgs; ++i) {
    originals[i].type = serial::FrameType::kData;
    originals[i].payload.resize(i == 7 ? 128 * 1024 : 16 + i);
    for (auto& b : originals[i].payload) {
      b = static_cast<std::uint8_t>(bytes.below(256));
    }
  }
  std::vector<std::pair<double, serial::Frame>> drops;
  rig.rel.set_drop_handler([&](const Endpoint& to, const serial::Frame& f) {
    EXPECT_EQ(to, rig.peer);
    drops.emplace_back(rig.sched.now, f);
  });
  for (int i = 0; i < kMsgs; ++i) {
    rig.sched.advance_to(i * kGap);
    rig.rel.send(rig.peer, originals[i]);
  }
  rig.sched.advance_to(120.0);

  // Reference model: one timer per message, jitter drawn at each send and
  // at each retransmit in time order (ties do not occur with these gaps).
  dsp::Rng rng(cfg.seed);
  auto jittered = [&](double d) {
    return d * (1.0 + cfg.jitter_frac * (2.0 * rng.uniform() - 1.0));
  };
  struct Msg {
    double first = 0, rto = 0;
    int retries = 0;
    std::vector<double> tx;  // wire instants: first send, then retries
    double dropped_at = -1;
  };
  std::vector<Msg> msgs(kMsgs);
  std::multimap<double, int> timers;
  int next_send = 0;
  while (next_send < kMsgs || !timers.empty()) {
    if (next_send < kMsgs &&
        (timers.empty() || next_send * kGap < timers.begin()->first)) {
      Msg& m = msgs[next_send];
      m.first = next_send * kGap;
      m.rto = cfg.rto_initial_s;
      m.tx.push_back(m.first);
      timers.emplace(m.first + jittered(m.rto), next_send++);
      continue;
    }
    const auto [now, i] = *timers.begin();
    timers.erase(timers.begin());
    Msg& m = msgs[i];
    if (now - m.first >= cfg.deadline_s || m.retries >= cfg.max_retries) {
      m.dropped_at = now;
      continue;
    }
    ++m.retries;
    m.tx.push_back(now);
    m.rto = std::min(m.rto * kRtoBackoff, cfg.rto_max_s);
    timers.emplace(now + jittered(m.rto), i);
  }
  ASSERT_GE(msgs[0].tx.size(), 4u);

  // Envelope ids run 1..kMsgs in send order.
  std::vector<std::vector<double>> got(kMsgs);
  for (const auto& s : rig.inner.sent) {
    const auto env = serial::decode_envelope(s.frame);
    ASSERT_GE(env.msg_id, 1u);
    ASSERT_LE(env.msg_id, static_cast<std::uint64_t>(kMsgs));
    EXPECT_EQ(env.inner.payload, originals[env.msg_id - 1].payload);
    got[env.msg_id - 1].push_back(s.at);
  }
  for (int i = 0; i < kMsgs; ++i) {
    ASSERT_EQ(got[i].size(), msgs[i].tx.size()) << "message " << i;
    for (std::size_t k = 0; k < got[i].size(); ++k) {
      EXPECT_DOUBLE_EQ(got[i][k], msgs[i].tx[k])
          << "message " << i << " copy " << k;
    }
  }

  ASSERT_EQ(drops.size(), static_cast<std::size_t>(kMsgs));
  for (const auto& [at, frame] : drops) {
    const auto it = std::find_if(
        originals.begin(), originals.end(),
        [&](const serial::Frame& o) { return o.payload == frame.payload; });
    ASSERT_NE(it, originals.end());
    EXPECT_EQ(frame.type, it->type);
    EXPECT_DOUBLE_EQ(at, msgs[it - originals.begin()].dropped_at);
  }
  EXPECT_EQ(rig.rel.stats().expired, static_cast<std::uint64_t>(kMsgs));
  EXPECT_EQ(rig.rel.in_flight(), 0u);
  EXPECT_TRUE(rig.sched.queue.empty());
}

TEST(ReliableTimer, DropHandlerMaySendFromInsideTheTimer) {
  ReliableConfig cfg;
  cfg.max_retries = 1;
  cfg.deadline_s = 100.0;
  TimerRig rig(cfg);
  // Every expiry resends the frame once more (marked "again:"), so the
  // handler re-enters send() while the timer is still walking due
  // messages; two messages share each expiry pass.
  std::vector<std::string> dropped;
  rig.rel.set_drop_handler([&](const Endpoint& to, const serial::Frame& f) {
    const std::string body = serial::to_string(f.payload);
    dropped.push_back(body);
    if (body.rfind("again:", 0) != 0) {
      rig.rel.send(to, text_frame("again:" + body));
    }
    EXPECT_LE(rig.sched.queue.size(), 1u);
  });
  rig.rel.send(rig.peer, text_frame("x"));
  rig.rel.send(rig.peer, text_frame("y"));
  std::size_t most_queued = 0;
  for (double t = 0.0; t < 60.0; t += 0.01) {
    rig.sched.advance_to(t);
    most_queued = std::max(most_queued, rig.sched.queue.size());
  }
  // Jitter decides which of a pair expires first.
  std::sort(dropped.begin(), dropped.end());
  EXPECT_EQ(dropped, (std::vector<std::string>{"again:x", "again:y", "x",
                                               "y"}));
  EXPECT_EQ(rig.rel.stats().sent, 4u);
  EXPECT_EQ(rig.rel.stats().retransmits, 4u);
  EXPECT_EQ(rig.rel.stats().expired, 4u);
  EXPECT_EQ(rig.rel.in_flight(), 0u);
  EXPECT_LE(most_queued, 1u);
  EXPECT_TRUE(rig.sched.queue.empty());

  // An ack for a resent message still settles it mid-ladder.
  rig.rel.send(rig.peer, text_frame("z"));
  rig.sched.advance_to(rig.sched.now + 0.7);  // one retransmit
  rig.ack_last();
  rig.sched.advance_to(rig.sched.now + 30.0);
  EXPECT_EQ(rig.rel.stats().acked, 1u);
  EXPECT_EQ(rig.rel.stats().expired, 4u);
  EXPECT_EQ(rig.rel.in_flight(), 0u);
}

TEST(Reliable, AckFromAnotherPeerDoesNotSettle) {
  // Both destinations hold an id-1 message; an ack settles only the one
  // sent to the acking peer.
  TimerRig rig;
  const Endpoint other{"fake:c"};
  rig.rel.send(rig.peer, text_frame("to-b"));
  rig.rel.send(other, text_frame("to-c"));
  ASSERT_EQ(rig.inner.sent.size(), 2u);
  for (const auto& s : rig.inner.sent) {
    EXPECT_EQ(serial::decode_envelope(s.frame).msg_id, 1u);
  }

  rig.inner.deliver(other, serial::encode_ack(1));
  EXPECT_EQ(rig.rel.in_flight(), 1u);
  EXPECT_EQ(rig.rel.stats().acked, 1u);
  rig.inner.deliver(Endpoint{"fake:stranger"}, serial::encode_ack(1));
  rig.inner.deliver(other, serial::encode_ack(1));  // duplicate ack
  EXPECT_EQ(rig.rel.in_flight(), 1u);
  EXPECT_EQ(rig.rel.stats().acked, 1u);

  rig.inner.deliver(rig.peer, serial::encode_ack(1));
  EXPECT_EQ(rig.rel.in_flight(), 0u);
  EXPECT_EQ(rig.rel.stats().acked, 2u);
}

TEST(Reliable, IdSkippedByAJumpIsDeliveredWhenItArrivesInsideTheWindow) {
  // Envelopes injected by hand: ids 1..70 bar 66. When 67 slid the window
  // past 66, 66's slot still held id 2's bit; it must have been cleared.
  ReliableConfig cfg;
  cfg.dedup_window = 64;
  TimerRig rig(cfg);
  std::vector<std::uint64_t> got;
  rig.rel.set_handler([&](const Endpoint&, serial::Frame f) {
    got.push_back(std::stoull(serial::to_string(f.payload)));
  });
  const auto inject = [&](std::uint64_t id) {
    rig.inner.deliver(rig.peer, serial::encode_envelope(
                                    id, text_frame(std::to_string(id))));
  };
  for (std::uint64_t id = 1; id <= 70; ++id) {
    if (id != 66) inject(id);
  }
  inject(66);  // late, inside the window: new
  inject(66);  // now a duplicate
  inject(3);   // 67 ids below the top: below the window, delivered
  EXPECT_EQ(got.size(), 71u);
  EXPECT_EQ(got[69], 66u);
  EXPECT_EQ(got[70], 3u);
  EXPECT_EQ(rig.rel.stats().duplicates_suppressed, 1u);
  EXPECT_EQ(rig.rel.stats().acks_sent, 72u);
}

TEST(ReliableTimer, RejectsConfigWhoseFirstRetryCouldBeImmediate) {
  CountingScheduler sched;
  RecordingTransport inner(sched.now);
  ReliableConfig zero_rto;
  zero_rto.rto_initial_s = 0.0;
  EXPECT_THROW(
      ReliableTransport(inner, sched.clock(), sched.sched(), zero_rto),
      std::invalid_argument);
  ReliableConfig full_jitter;
  full_jitter.jitter_frac = 1.0;
  EXPECT_THROW(
      ReliableTransport(inner, sched.clock(), sched.sched(), full_jitter),
      std::invalid_argument);
}

}  // namespace
}  // namespace cg::net
