// P2P discovery and pipes over real TCP sockets.
//
// Three peers on 127.0.0.1 (ephemeral ports), wired as a line overlay.
// Peer C advertises capabilities and an input pipe; peer A discovers C by
// attribute query through flooding (via B), binds the pipe by its unique
// name, and streams data to it -- the JXTA-style interaction of paper 3.4,
// but on the from-scratch epoll transport instead of the simulator. The
// loopback backend owns the sockets and the timer queue and pumps both.
#include <cstdio>

#include "net/loopback.hpp"
#include "p2p/pipes.hpp"

using namespace cg;

int main() {
  net::TcpLoopbackBackend world;
  net::Transport& ta = world.add_node();
  net::Transport& tb = world.add_node();
  net::Transport& tc = world.add_node();
  p2p::PeerNode a(ta, world.clock(), "alice");
  p2p::PeerNode b(tb, world.clock(), "bob");
  p2p::PeerNode c(tc, world.clock(), "carol");
  std::printf("alice @ %s\nbob   @ %s\ncarol @ %s\n", ta.local().value.c_str(),
              tb.local().value.c_str(), tc.local().value.c_str());

  // Line overlay: alice -- bob -- carol.
  a.add_neighbor(tb.local());
  b.add_neighbor(ta.local());
  b.add_neighbor(tc.local());
  c.add_neighbor(tb.local());

  p2p::PipeServe pipes_a(a, world.scheduler());
  p2p::PipeServe pipes_c(c, world.scheduler());

  // Carol: publish capabilities + serve an input pipe.
  c.publish_local(c.make_peer_advert({{"cpu_mhz", "1800"},
                                      {"free_mem_mb", "512"}}));
  int received = 0;
  pipes_c.advertise_input("results-channel",
                          [&](const net::Endpoint& from, serial::Bytes b) {
                            ++received;
                            std::printf("carol received \"%s\" from %s\n",
                                        serial::to_string(b).c_str(),
                                        from.value.c_str());
                          });

  auto pump = [&](const std::function<bool()>& done) {
    world.run_until(world.now() + 2.0, done);
  };

  // Alice: find a peer with >= 1 GHz by flooding through bob.
  p2p::Query q;
  q.kind = p2p::AdvertKind::kPeer;
  q.require_min["cpu_mhz"] = 1000.0;
  bool found = false;
  a.discover_flood(q, /*ttl=*/3, [&](const std::vector<p2p::Advertisement>& ads) {
    for (const auto& ad : ads) {
      std::printf("alice discovered %s at %s (cpu_mhz=%s)\n", ad.name.c_str(),
                  ad.provider.value.c_str(),
                  ad.attrs.at("cpu_mhz").c_str());
      found = true;
    }
  });
  pump([&] { return found; });
  if (!found) {
    std::fprintf(stderr, "discovery failed\n");
    return 1;
  }

  // Alice: bind carol's pipe by its unique name and stream to it.
  p2p::OutputPipe pipe;
  pipes_a.bind_output("results-channel",
                      [&](p2p::OutputPipe p) { pipe = std::move(p); });
  pump([&] { return pipe.bound(); });
  if (!pipe.bound()) {
    std::fprintf(stderr, "pipe bind failed\n");
    return 1;
  }
  std::printf("alice bound pipe 'results-channel' -> %s\n",
              pipe.target.value.c_str());

  for (int i = 0; i < 3; ++i) {
    pipes_a.send(pipe, serial::to_bytes("payload #" + std::to_string(i)));
  }
  pump([&] { return received == 3; });

  std::printf("delivered %d/3 payloads over TCP\n", received);
  return received == 3 ? 0 : 1;
}
