// Obs HTTP plane: routing, Prometheus exposition, the sampler window, and
// the real-socket server (fragmented requests, oversized rejection,
// concurrent scrapes during metric mutation -- this suite is in the TSan
// tier). Socket-positive tests are gated on CONGRID_OBS_ENABLED; the
// compiled-out configuration instead asserts the acceptance criterion
// directly: start() refuses and nothing ever listens.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "obs/http_server.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace cg {
namespace {

using obs::HttpServer;
using obs::HttpServerOptions;
using obs::Registry;
using obs::Sampler;
using obs::Tracer;

// ------------------------------------------------------------ test client

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read until the server closes (every response is Connection: close).
std::string recv_to_eof(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

/// One whole-request round trip; "" on connect failure. This helper and
/// the three below are used only by tests compiled with the obs layer on.
[[maybe_unused]] std::string http_get(std::uint16_t port,
                                      const std::string& target,
                                      const std::string& extra_headers = "") {
  const int fd = connect_loopback(port);
  if (fd < 0) return "";
  const std::string req = "GET " + target + " HTTP/1.1\r\nHost: t\r\n" +
                          extra_headers + "\r\n";
  std::string out;
  if (send_all(fd, req)) out = recv_to_eof(fd);
  ::close(fd);
  return out;
}

[[maybe_unused]] std::string status_line(const std::string& response) {
  return response.substr(0, response.find("\r\n"));
}

[[maybe_unused]] std::string body_of(const std::string& response) {
  const auto pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

/// A registry with one of each instrument kind, known values.
[[maybe_unused]] void populate(Registry& reg) {
  reg.counter("net.sim.delivered").inc(120);
  reg.counter("weird name\"x").inc(1);  // exercises sanitiser + label escape
  reg.gauge("peers.up").set(7.5);
  auto& h = reg.histogram("deploy.lat_s", {0.1, 1.0, 10.0});
  for (double v : {0.05, 0.5, 0.5, 2.0, 20.0}) h.observe(v);
}

// --------------------------------------------------- routing (no sockets)

TEST(ObsHttpRespond, HealthzOkAndUnknownPath404) {
  Registry reg;
  HttpServer server(reg);
#if CONGRID_OBS_ENABLED
  const std::string ok = server.respond("GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_line(ok), "HTTP/1.1 200 OK");
  EXPECT_EQ(body_of(ok), "ok\n");
  const std::string miss = server.respond("GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_line(miss), "HTTP/1.1 404 Not Found");
  // Query strings are stripped before routing.
  const std::string q = server.respond("GET /healthz?x=1 HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_line(q), "HTTP/1.1 200 OK");
#else
  EXPECT_EQ(server.respond("GET /healthz HTTP/1.1\r\n\r\n"), "");
#endif
}

TEST(ObsHttpRespond, NonGetIs405AndGarbageIs400) {
#if CONGRID_OBS_ENABLED
  Registry reg;
  HttpServer server(reg);
  const std::string post =
      server.respond("POST /metrics HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_line(post), "HTTP/1.1 405 Method Not Allowed");
  const std::string garbage = server.respond("garbage\r\n\r\n");
  EXPECT_EQ(status_line(garbage), "HTTP/1.1 400 Bad Request");
#endif
}

TEST(ObsHttpRespond, ContentNegotiationOnMetrics) {
#if CONGRID_OBS_ENABLED
  Registry reg;
  populate(reg);
  HttpServer server(reg);
  const std::string prom = server.respond("GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(prom.find("text/plain; version=0.0.4"), std::string::npos);
  const std::string json = server.respond(
      "GET /metrics HTTP/1.1\r\nAccept: application/json\r\n\r\n");
  EXPECT_NE(json.find("application/json"), std::string::npos);
  EXPECT_TRUE(obs::json_valid(body_of(json)));
  // Header names match case-insensitively.
  const std::string json2 = server.respond(
      "GET /metrics HTTP/1.1\r\naccept: application/json\r\n\r\n");
  EXPECT_TRUE(obs::json_valid(body_of(json2)));
  const std::string alias =
      server.respond("GET /metrics.json HTTP/1.1\r\n\r\n");
  EXPECT_TRUE(obs::json_valid(body_of(alias)));
#endif
}

TEST(ObsHttpRespond, DashboardIsServedAtRoot) {
#if CONGRID_OBS_ENABLED
  Registry reg;
  HttpServer server(reg);
  const std::string root = server.respond("GET / HTTP/1.1\r\n\r\n");
  EXPECT_NE(root.find("text/html"), std::string::npos);
  EXPECT_NE(body_of(root).find("ConGrid live obs"), std::string::npos);
  EXPECT_EQ(body_of(root), HttpServer::dashboard_html());
#endif
}

TEST(ObsHttpRespond, TraceServesJsonlWhenTracerBound) {
#if CONGRID_OBS_ENABLED
  Registry reg;
  HttpServer no_tracer(reg);
  EXPECT_EQ(status_line(no_tracer.respond("GET /trace HTTP/1.1\r\n\r\n")),
            "HTTP/1.1 404 Not Found");

  Tracer tracer(16);
  tracer.event("home", "deploy", "k=v");
  HttpServer server(reg, &tracer);
  const std::string resp = server.respond("GET /trace HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_line(resp), "HTTP/1.1 200 OK");
  const std::string body = body_of(resp);
  // Every line is one standalone JSON value; first is the ring header.
  std::size_t lines = 0, start = 0;
  while (start < body.size()) {
    std::size_t end = body.find('\n', start);
    if (end == std::string::npos) end = body.size();
    EXPECT_TRUE(obs::json_valid(body.substr(start, end - start)))
        << body.substr(start, end - start);
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 2u);  // header + one event
  EXPECT_NE(body.find("\"congrid_trace\":1"), std::string::npos);
#endif
}

// --------------------------------------------------- Prometheus exposition

TEST(ObsHttpProm, NameSanitisation) {
  EXPECT_EQ(obs::prometheus_name("home.reliable.sent"),
            "congrid_home_reliable_sent");
  EXPECT_EQ(obs::prometheus_name("e12.calm/phi8.net"),
            "congrid_e12_calm_phi8_net");
}

TEST(ObsHttpProm, OutputValidLineByLine) {
#if CONGRID_OBS_ENABLED
  Registry reg;
  populate(reg);
  const std::string text = obs::to_prometheus(reg.snapshot());
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');

  // Exposition grammar, the subset this encoder emits: TYPE comments and
  // `name{labels} value` samples.
  const std::regex type_re(
      R"(# TYPE congrid_[A-Za-z0-9_:]+ (counter|gauge|histogram))");
  const std::regex sample_re(
      R"(congrid_[A-Za-z0-9_:]+\{[^{}]*\} )"
      R"(-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)");
  std::size_t samples = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    if (!std::regex_match(line, type_re)) {
      EXPECT_TRUE(std::regex_match(line, sample_re)) << "bad line: " << line;
      ++samples;
    }
    start = end + 1;
  }
  EXPECT_GT(samples, 0u);

  // Known values survive the mapping, original name kept as a label.
  EXPECT_NE(
      text.find(
          "congrid_net_sim_delivered{name=\"net.sim.delivered\"} 120"),
      std::string::npos);
  EXPECT_NE(text.find("congrid_weird_name_x{name=\"weird name\\\"x\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE congrid_deploy_lat_s histogram"),
            std::string::npos);
  // Buckets are cumulative and end at +Inf == _count.
  EXPECT_NE(text.find("le=\"+Inf\"} 5"), std::string::npos);
  EXPECT_NE(text.find("congrid_deploy_lat_s_count{name=\"deploy.lat_s\"} 5"),
            std::string::npos);
#endif
}

// --------------------------------------------------------------- sampler

TEST(ObsSampler, WindowRatesAndEviction) {
  Registry reg;
  auto& c = reg.counter("msgs");
  Sampler s(reg, Sampler::Options{1.0, 4});
  s.sample(0.0);
  c.inc(100);
  s.sample(10.0);
#if CONGRID_OBS_ENABLED
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.span_s(), 10.0);
  EXPECT_DOUBLE_EQ(s.rate("msgs"), 10.0);
  EXPECT_DOUBLE_EQ(s.rate("unknown"), 0.0);
  // Counters that appear mid-window rate against an implicit zero.
  reg.counter("late").inc(30);
  s.sample(20.0);
  EXPECT_DOUBLE_EQ(s.rate("late"), 1.5);
  // Eviction: window holds the newest 4 samples.
  s.sample(30.0);
  s.sample(40.0);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s.span_s(), 30.0);
  EXPECT_DOUBLE_EQ(s.latest_t(), 40.0);
#else
  EXPECT_EQ(s.size(), 0u);
  EXPECT_DOUBLE_EQ(s.rate("msgs"), 0.0);
#endif
}

TEST(ObsSampler, MaybeSampleEnforcesPeriod) {
  Registry reg;
  Sampler s(reg, Sampler::Options{5.0, 8});
#if CONGRID_OBS_ENABLED
  EXPECT_TRUE(s.maybe_sample(0.0));
  EXPECT_FALSE(s.maybe_sample(2.0));
  EXPECT_FALSE(s.maybe_sample(4.999));
  EXPECT_TRUE(s.maybe_sample(5.0));
  EXPECT_EQ(s.size(), 2u);
#else
  EXPECT_FALSE(s.maybe_sample(0.0));
#endif
}

// ------------------------------------------------------------ real sockets

#if CONGRID_OBS_ENABLED

TEST(ObsHttpServer, ServesOverRealSocketOnEphemeralPort) {
  Registry reg;
  populate(reg);
  HttpServer server(reg);
  ASSERT_TRUE(server.start());
  ASSERT_NE(server.port(), 0);
  EXPECT_EQ(server.url(),
            "http://127.0.0.1:" + std::to_string(server.port()) + "/");

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_EQ(status_line(health), "HTTP/1.1 200 OK");
  EXPECT_EQ(body_of(health), "ok\n");

  const std::string prom = http_get(server.port(), "/metrics");
  EXPECT_NE(body_of(prom).find("congrid_net_sim_delivered"),
            std::string::npos);

  const std::string json =
      http_get(server.port(), "/metrics", "Accept: application/json\r\n");
  EXPECT_TRUE(obs::json_valid(body_of(json)));

  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
  EXPECT_LT(connect_loopback(server.port()), 0);
}

TEST(ObsHttpServer, FragmentedRequestIsReassembled) {
  Registry reg;
  HttpServer server(reg);
  ASSERT_TRUE(server.start());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  // The request arrives in four pieces, split mid-request-line and
  // mid-header, with pauses longer than several pump wakeups.
  for (std::string_view piece :
       {"GET /hea", "lthz HTT", "P/1.1\r\nHost: ", "t\r\n\r\n"}) {
    ASSERT_TRUE(send_all(fd, piece));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  const std::string resp = recv_to_eof(fd);
  ::close(fd);
  EXPECT_EQ(status_line(resp), "HTTP/1.1 200 OK");
  EXPECT_EQ(body_of(resp), "ok\n");
  server.stop();
}

TEST(ObsHttpServer, OversizedRequestGets431) {
  Registry reg;
  HttpServerOptions opt;
  opt.max_request_bytes = 512;
  HttpServer server(reg, nullptr, opt);
  ASSERT_TRUE(server.start());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  // Never-terminating header flood, well past the limit.
  const std::string flood =
      "GET / HTTP/1.1\r\nX-Junk: " + std::string(4096, 'a');
  (void)send_all(fd, flood);  // may be cut short by the server's close
  const std::string resp = recv_to_eof(fd);
  ::close(fd);
  EXPECT_EQ(status_line(resp),
            "HTTP/1.1 431 Request Header Fields Too Large");
  server.stop();
}

TEST(ObsHttpServer, ConcurrentScrapesDuringMetricMutation) {
  Registry reg;
  auto& c = reg.counter("hot.counter");
  auto& h = reg.histogram("hot.lat_s", {0.1, 1.0});
  Tracer tracer(256);
  HttpServerOptions opt;
  opt.sample_period_s = 0.01;  // force sampling during the test
  HttpServer server(reg, &tracer, opt);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    while (!stop.load()) {
      c.inc();
      h.observe(0.5);
      tracer.event("t", "tick");
    }
  });

  const char* targets[] = {"/metrics", "/metrics.json", "/trace", "/"};
  std::vector<std::thread> scrapers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        const std::string resp = http_get(server.port(), targets[t]);
        if (status_line(resp) != "HTTP/1.1 200 OK") failures.fetch_add(1);
      }
    });
  }
  for (auto& th : scrapers) th.join();
  stop.store(true);
  mutator.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(server.sampler().size(), 0u);
  server.stop();
}

TEST(ObsHttpServer, StartIsIdempotentAndPortConflictFails) {
  Registry reg;
  HttpServer server(reg);
  ASSERT_TRUE(server.start());
  EXPECT_TRUE(server.start());  // already running: true, same port
  const std::uint16_t port = server.port();

  HttpServerOptions opt;
  opt.port = port;
  HttpServer rival(reg, nullptr, opt);
  EXPECT_FALSE(rival.start());  // port taken
  EXPECT_FALSE(rival.running());
  server.stop();
}

TEST(ObsHttpEnv, FromEnvHonoursPortVariable) {
  HttpServer::stop_env_server();
  Registry reg;
  ::setenv("CONGRID_OBS_PORT", "0", 1);
  HttpServer* server = HttpServer::from_env(reg);
  ASSERT_NE(server, nullptr);
  EXPECT_TRUE(server->running());
  const std::string health = http_get(server->port(), "/healthz");
  EXPECT_EQ(body_of(health), "ok\n");
  // Attempted once: later calls return the same server.
  Registry other;
  EXPECT_EQ(HttpServer::from_env(other), server);
  HttpServer::stop_env_server();
  ::unsetenv("CONGRID_OBS_PORT");

  // Unset variable: no server.
  EXPECT_EQ(HttpServer::from_env(reg), nullptr);
  HttpServer::stop_env_server();
}

#else  // CONGRID_OBS_ENABLED == 0

// The acceptance criterion for -DCONGRID_OBS=OFF: the server never opens a
// socket, whatever it is asked.
TEST(ObsHttpServer, CompiledOutNeverListens) {
  Registry reg;
  HttpServer server(reg);
  EXPECT_FALSE(server.start());
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
  EXPECT_EQ(server.url(), "");
  EXPECT_EQ(server.respond("GET /healthz HTTP/1.1\r\n\r\n"), "");

  ::setenv("CONGRID_OBS_PORT", "0", 1);
  EXPECT_EQ(HttpServer::from_env(reg), nullptr);
  ::unsetenv("CONGRID_OBS_PORT");
  HttpServer::stop_env_server();
}

#endif  // CONGRID_OBS_ENABLED

}  // namespace
}  // namespace cg
