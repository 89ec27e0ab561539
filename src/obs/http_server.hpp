// ConGrid -- embedded HTTP server: the live view of a running process.
//
// Every obs artifact before this was post-hoc: metrics and trace rings
// were dumped to JSON/JSONL after a run ended, so a 220-second churn
// campaign was a black box while it actually ran. This server makes the
// obs state of a live process scrapeable:
//
//   GET /healthz       "ok" -- liveness probe for scripts and CI
//   GET /metrics       Prometheus text exposition (format 0.0.4); answers
//                      JSON instead when the Accept header asks for
//                      application/json
//   GET /metrics.json  snapshot + sampler window rates as one JSON object
//   GET /trace         the most recent ring-buffer spans as JSONL (the
//                      same format Tracer::to_jsonl exports post-hoc)
//   GET /              a single-file HTML dashboard that polls
//                      /metrics.json and renders counter rates, gauges
//                      and histogram quantiles live
//
// Design: one loopback listener (127.0.0.1 only -- never a routable
// interface), one epoll pump thread, bounded request buffers (oversized
// requests get 431 and the connection is closed), Connection: close on
// every response. The pump thread also drives the Sampler, so rates are
// available without any cooperation from the instrumented code. The
// reactor reuses the non-blocking listener helpers proven by
// TcpTransport (net/socket_util.hpp).
//
// Off by default: nothing listens unless start() is called explicitly
// (benches' --obs-port) or CONGRID_OBS_PORT is set (from_env, used by the
// service stack). With CONGRID_OBS off every method is a no-op, start()
// returns false, and no socket is ever opened -- the acceptance test for
// the compiled-out mode asserts exactly that.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

#if CONGRID_OBS_ENABLED
#include <atomic>
#include <thread>
#include <unordered_map>
#endif

namespace cg::obs {

struct HttpServerOptions {
  std::uint16_t port = 0;  ///< 0 picks an ephemeral port (read back: port())
  /// Requests larger than this (headers included) are answered with 431
  /// and the connection is closed -- the server never buffers unboundedly.
  std::size_t max_request_bytes = 8192;
  double sample_period_s = 1.0;  ///< sampler cadence on the pump thread
};

class HttpServer {
 public:
  /// `registry` (and `tracer`, when given) must outlive the server --
  /// stop() or destroy the server before they go away. The constructor
  /// does not open a socket; start() does.
  explicit HttpServer(Registry& registry, Tracer* tracer = nullptr,
                      HttpServerOptions opt = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Bind 127.0.0.1:<port>, start the pump thread. Returns false (and
  /// stays stopped) if the port is taken, on any socket error, or always
  /// under -DCONGRID_OBS=OFF. Idempotent while running.
  bool start();
  /// Stop the pump thread and close the listener and every connection.
  /// Safe to call twice; the destructor calls it.
  void stop();
  bool running() const;

  /// Actual bound port (useful with port 0); 0 when not running.
  std::uint16_t port() const;
  /// "http://127.0.0.1:<port>/"; "" when not running.
  std::string url() const;

  /// The sliding-window snapshotter the pump thread drives; tests may
  /// call sample() on it directly.
  Sampler& sampler() { return sampler_; }
  const Sampler& sampler() const { return sampler_; }

  /// Pure request -> response mapping: takes one complete HTTP/1.1
  /// request (request line + headers), returns the full response bytes.
  /// The socket loop calls this; tests can validate routing and payloads
  /// without opening a socket. "" under -DCONGRID_OBS=OFF.
  std::string respond(std::string_view raw_request) const;

  /// The embedded single-file dashboard served at "/".
  static std::string_view dashboard_html();

  /// Honour the CONGRID_OBS_PORT environment knob: on the first call with
  /// the variable set to a port number, start a process-wide server on
  /// that port bound to `registry`/`tracer` and return it; later calls
  /// return the same server (whatever registry they pass). Returns
  /// nullptr when the variable is unset/invalid, the bind fails, or obs
  /// is compiled out. The caller's registry must then live until process
  /// exit or stop_env_server().
  static HttpServer* from_env(Registry& registry, Tracer* tracer = nullptr);
  /// Stop and discard the from_env server (for tests and orderly
  /// shutdown paths).
  static void stop_env_server();

 private:
  Registry& registry_;
  Tracer* tracer_ = nullptr;
  HttpServerOptions opt_;
  Sampler sampler_;

#if CONGRID_OBS_ENABLED
  struct Conn {
    std::string in;
    std::string out;
    std::size_t out_pos = 0;
    bool responded = false;  ///< request handled, draining out
    bool fin_sent = false;   ///< response written, waiting for client EOF
  };

  void pump_loop();
  void accept_ready();
  void conn_readable(int fd);
  bool conn_flush(int fd);  ///< false if the connection was closed
  void close_conn(int fd);
  std::string metrics_json() const;

  mutable std::mutex mu_;  ///< guards listener/thread lifecycle state
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::thread pump_;
  std::unordered_map<int, Conn> conns_;  ///< pump-thread only
#endif
};

}  // namespace cg::obs
