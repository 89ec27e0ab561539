#include "obs/http_server.hpp"

#if CONGRID_OBS_ENABLED
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#endif

#include <cstdlib>
#include <memory>
#include <mutex>

#include "obs/json.hpp"
#include "obs/prometheus.hpp"

#if CONGRID_OBS_ENABLED
#include "net/socket_util.hpp"
#endif

namespace cg::obs {

namespace {

// The dashboard is one self-contained file: no external assets, works from
// a `curl -O` as well as from the live endpoint. It polls /metrics.json
// and renders counter rates (with per-row sparklines from client-side
// history), gauge values and histogram quantiles. Light/dark follow the
// browser; all series marks use one blue so identity is carried by the row
// label, never by hue alone.
constexpr std::string_view kDashboardHtml = R"HTML(<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>ConGrid live obs</title>
<style>
  :root {
    color-scheme: light dark;
    --surface: #fcfcfb; --surface-2: #f1f0ee;
    --ink: #0b0b0b; --ink-2: #52514e; --line: #dddcd8;
    --series: #2a78d6; --good: #008300; --bad: #e34948;
  }
  @media (prefers-color-scheme: dark) {
    :root {
      --surface: #1a1a19; --surface-2: #242422;
      --ink: #ffffff; --ink-2: #c3c2b7; --line: #3a3936;
      --series: #3987e5; --good: #30b030; --bad: #e66767;
    }
  }
  body { margin: 0; background: var(--surface); color: var(--ink);
         font: 14px/1.45 system-ui, sans-serif; }
  main { max-width: 1080px; margin: 0 auto; padding: 16px 20px 48px; }
  header { display: flex; align-items: baseline; gap: 12px; flex-wrap: wrap; }
  h1 { font-size: 18px; margin: 8px 0; }
  h2 { font-size: 14px; margin: 24px 0 8px; color: var(--ink-2);
       text-transform: uppercase; letter-spacing: .04em; }
  #status { color: var(--ink-2); font-size: 13px; }
  #status.err { color: var(--bad); }
  .tiles { display: flex; gap: 12px; flex-wrap: wrap; margin-top: 8px; }
  .tile { background: var(--surface-2); border-radius: 8px;
          padding: 10px 14px; min-width: 150px; }
  .tile .v { font-size: 22px; font-variant-numeric: tabular-nums; }
  .tile .k { color: var(--ink-2); font-size: 12px; overflow-wrap: anywhere; }
  input { background: var(--surface-2); color: var(--ink); width: 280px;
          border: 1px solid var(--line); border-radius: 6px;
          padding: 6px 10px; margin: 10px 0 2px; font: inherit; }
  table { border-collapse: collapse; width: 100%; }
  th, td { text-align: left; padding: 4px 10px 4px 0;
           border-bottom: 1px solid var(--line);
           font-variant-numeric: tabular-nums; }
  th { color: var(--ink-2); font-weight: 500; font-size: 12px; }
  td.num, th.num { text-align: right; }
  td.name { overflow-wrap: anywhere; color: var(--ink); }
  svg.spark { display: block; }
  svg.spark polyline { fill: none; stroke: var(--series); stroke-width: 2;
                       stroke-linejoin: round; stroke-linecap: round; }
</style>
</head>
<body>
<main>
  <header>
    <h1>ConGrid live obs</h1>
    <span id="status">connecting&hellip;</span>
  </header>
  <div class="tiles" id="tiles"></div>
  <input id="filter" type="search" placeholder="filter metrics&hellip;"
         aria-label="filter metrics">
  <h2>Counters</h2>
  <table><thead><tr><th>name</th><th class="num">total</th>
    <th class="num">rate/s</th><th>last 2 min</th></tr></thead>
    <tbody id="counters"></tbody></table>
  <h2>Gauges</h2>
  <table><thead><tr><th>name</th><th class="num">value</th></tr></thead>
    <tbody id="gauges"></tbody></table>
  <h2>Histograms</h2>
  <table><thead><tr><th>name</th><th class="num">count</th>
    <th class="num">mean</th><th class="num">p50</th><th class="num">p95</th>
    <th class="num">p99</th></tr></thead>
    <tbody id="hists"></tbody></table>
</main>
<script>
"use strict";
const hist = new Map();          // counter name -> recent rates
const HLEN = 60;                 // ~2 min of 2 s polls
const fmt = v => !isFinite(v) ? "-" :
  Math.abs(v) >= 100 ? v.toFixed(0) :
  Math.abs(v) >= 1 ? v.toFixed(2) : v.toPrecision(3);
const esc = s => s.replace(/[&<>"]/g,
  c => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));
function spark(vals) {
  if (vals.length < 2) return "";
  const max = Math.max(...vals, 1e-9);
  const pts = vals.map((v, i) =>
    `${(i / (HLEN - 1) * 118 + 1).toFixed(1)},` +
    `${(22 - v / max * 20).toFixed(1)}`).join(" ");
  return `<svg class="spark" width="120" height="24" role="img">` +
    `<title>peak ${fmt(max)}/s</title><polyline points="${pts}"/></svg>`;
}
function render(d) {
  const q = document.getElementById("filter").value.toLowerCase();
  const hit = n => n.toLowerCase().includes(q);
  const rates = d.rates || {};
  const names = Object.keys(d.metrics.counters);
  for (const n of names) {
    if (!hist.has(n)) hist.set(n, []);
    const h = hist.get(n);
    h.push(rates[n] || 0);
    if (h.length > HLEN) h.shift();
  }
  const top = names.filter(n => (rates[n] || 0) > 0)
    .sort((a, b) => rates[b] - rates[a]).slice(0, 4);
  document.getElementById("tiles").innerHTML = top.map(n =>
    `<div class="tile"><div class="v">${fmt(rates[n])}/s</div>` +
    `<div class="k">${esc(n)}</div></div>`).join("") ||
    `<div class="tile"><div class="v">idle</div>` +
    `<div class="k">no counter moved in the window</div></div>`;
  document.getElementById("counters").innerHTML = names.filter(hit)
    .sort((a, b) => (rates[b] || 0) - (rates[a] || 0) || a.localeCompare(b))
    .map(n => `<tr><td class="name">${esc(n)}</td>` +
      `<td class="num">${d.metrics.counters[n]}</td>` +
      `<td class="num">${fmt(rates[n] || 0)}</td>` +
      `<td>${spark(hist.get(n))}</td></tr>`).join("");
  document.getElementById("gauges").innerHTML =
    Object.entries(d.metrics.gauges).filter(([n]) => hit(n))
    .map(([n, v]) => `<tr><td class="name">${esc(n)}</td>` +
      `<td class="num">${fmt(v)}</td></tr>`).join("");
  document.getElementById("hists").innerHTML =
    Object.entries(d.metrics.histograms).filter(([n]) => hit(n))
    .map(([n, h]) => `<tr><td class="name">${esc(n)}</td>` +
      `<td class="num">${h.count}</td><td class="num">${fmt(h.mean)}</td>` +
      `<td class="num">${fmt(h.p50)}</td><td class="num">${fmt(h.p95)}</td>` +
      `<td class="num">${fmt(h.p99)}</td></tr>`).join("");
  document.getElementById("status").textContent =
    `window ${fmt(d.window_s)} s / ${d.samples} samples - ` +
    `${new Date(d.ts * 1000).toLocaleTimeString()}`;
  document.getElementById("status").className = "";
}
async function tick() {
  try {
    const r = await fetch("/metrics.json", {cache: "no-store"});
    render(await r.json());
  } catch (e) {
    const st = document.getElementById("status");
    st.textContent = "scrape failed: " + e;
    st.className = "err";
  }
}
tick();
setInterval(tick, 2000);
document.getElementById("filter").addEventListener("input", tick);
</script>
</body>
</html>
)HTML";

#if CONGRID_OBS_ENABLED

double mono_s() {
  using namespace std::chrono;
  return duration_cast<duration<double>>(
             steady_clock::now().time_since_epoch())
      .count();
}

double wall_s() {
  using namespace std::chrono;
  return duration_cast<duration<double>>(
             system_clock::now().time_since_epoch())
      .count();
}

std::string http_response(int code, const char* reason,
                          std::string_view content_type,
                          std::string_view body) {
  std::string r = "HTTP/1.1 " + std::to_string(code) + " " + reason + "\r\n";
  r += "Content-Type: ";
  r += content_type;
  r += "\r\nContent-Length: " + std::to_string(body.size());
  r += "\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n";
  r += body;
  return r;
}

std::string too_large_response() {
  return http_response(431, "Request Header Fields Too Large",
                       "text/plain; charset=utf-8",
                       "request exceeds the configured limit\n");
}

/// Value of header `name` (case-insensitive) in a raw request, or "".
std::string_view header_value(std::string_view raw, std::string_view name) {
  std::size_t pos = raw.find("\r\n");
  while (pos != std::string_view::npos && pos + 2 < raw.size()) {
    const std::size_t eol = raw.find("\r\n", pos + 2);
    if (eol == std::string_view::npos) break;
    std::string_view line = raw.substr(pos + 2, eol - pos - 2);
    if (line.empty()) break;  // end of headers
    const std::size_t colon = line.find(':');
    if (colon != std::string_view::npos && colon == name.size()) {
      bool match = true;
      for (std::size_t i = 0; i < name.size(); ++i) {
        const char a = line[i];
        const char b = name[i];
        if ((a | 0x20) != (b | 0x20)) {
          match = false;
          break;
        }
      }
      if (match) {
        std::string_view v = line.substr(colon + 1);
        while (!v.empty() && (v.front() == ' ' || v.front() == '\t')) {
          v.remove_prefix(1);
        }
        return v;
      }
    }
    pos = eol;
  }
  return {};
}

#endif  // CONGRID_OBS_ENABLED

}  // namespace

std::string_view HttpServer::dashboard_html() { return kDashboardHtml; }

HttpServer::HttpServer(Registry& registry, Tracer* tracer,
                       HttpServerOptions opt)
    : registry_(registry),
      tracer_(tracer),
      opt_(opt),
      sampler_(registry, Sampler::Options{.period_s = opt.sample_period_s}) {}

HttpServer::~HttpServer() { stop(); }

#if CONGRID_OBS_ENABLED

bool HttpServer::start() {
  std::lock_guard lock(mu_);
  if (running_.load()) return true;
  net::Listener l;
  try {
    l = net::make_loopback_listener(opt_.port);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "congrid-obs: cannot listen on 127.0.0.1:%u (%s)\n",
                 static_cast<unsigned>(opt_.port), e.what());
    return false;
  }
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    ::close(l.fd);
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = l.fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, l.fd, &ev) < 0) {
    ::close(l.fd);
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return false;
  }
  listen_fd_ = l.fd;
  bound_port_ = l.port;
  stop_.store(false);
  running_.store(true);
  pump_ = std::thread([this] { pump_loop(); });
  return true;
}

void HttpServer::stop() {
  std::lock_guard lock(mu_);
  if (!running_.load()) return;
  stop_.store(true);
  if (pump_.joinable()) pump_.join();
  for (auto& [fd, c] : conns_) {
    (void)c;
    ::close(fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  listen_fd_ = -1;
  epoll_fd_ = -1;
  bound_port_ = 0;
  running_.store(false);
}

bool HttpServer::running() const { return running_.load(); }

std::uint16_t HttpServer::port() const {
  std::lock_guard lock(mu_);
  return bound_port_;
}

std::string HttpServer::url() const {
  const std::uint16_t p = port();
  if (p == 0) return "";
  return "http://127.0.0.1:" + std::to_string(p) + "/";
}

void HttpServer::pump_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    sampler_.maybe_sample(mono_s());
    epoll_event evs[16];
    const int n = epoll_wait(epoll_fd_, evs, 16, /*timeout_ms=*/100);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd gone: only stop() does that, bail out
    }
    for (int i = 0; i < n; ++i) {
      const int fd = evs[i].data.fd;
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      if (evs[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        conn_readable(fd);
      }
      if ((evs[i].events & EPOLLOUT) != 0 && conns_.count(fd) != 0) {
        conn_flush(fd);
      }
    }
  }
}

void HttpServer::accept_ready() {
  for (;;) {
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: try again next wake
    // Bounded connection table: a scrape plane never needs more, and the
    // bound keeps an accept() flood from growing server state.
    if (conns_.size() >= 64) {
      ::close(fd);
      continue;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, Conn{});
  }
}

void HttpServer::conn_readable(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  char buf[2048];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      if (c.responded) continue;  // drain and discard trailing bytes
      c.in.append(buf, static_cast<std::size_t>(n));
      if (c.in.size() > opt_.max_request_bytes) {
        c.out = too_large_response();
        c.responded = true;
      } else if (c.in.find("\r\n\r\n") != std::string::npos) {
        c.out = respond(c.in);
        c.responded = true;
      }
      if (c.responded) {
        // Keep EPOLLIN so late request bytes are drained (not RST) while
        // the response goes out.
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.fd = fd;
        epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
        conn_flush(fd);
        return;
      }
      continue;
    }
    if (n == 0) {
      // EOF: either the graceful close handshake completed (we sent our
      // FIN after the response, the client answered) or the request never
      // completed. Done either way.
      close_conn(fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    close_conn(fd);
    return;
  }
}

bool HttpServer::conn_flush(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return false;
  Conn& c = it->second;
  if (!c.responded) return true;
  while (c.out_pos < c.out.size()) {
    const ssize_t n =
        ::write(fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos);
    if (n > 0) {
      c.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    close_conn(fd);
    return false;
  }
  // Response fully written. Connection: close, but gracefully: shut down
  // our write side and wait for the client's EOF instead of closing with
  // request bytes possibly unread -- an immediate close() there turns into
  // an RST that can destroy the in-flight response (the 431 path would be
  // unreliable exactly when it matters).
  if (!c.fin_sent) {
    ::shutdown(fd, SHUT_WR);
    c.fin_sent = true;
    epoll_event ev{};
    ev.events = EPOLLIN;  // drop EPOLLOUT: nothing left to write
    ev.data.fd = fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  }
  return true;
}

void HttpServer::close_conn(int fd) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(fd);
}

std::string HttpServer::metrics_json() const {
  const MetricsSnapshot snap = registry_.snapshot();
  const auto rates = sampler_.counter_rates();
  std::string out = "{\"ts\":" + json_number(wall_s());
  out += ",\"window_s\":" + json_number(sampler_.span_s());
  out += ",\"samples\":" + std::to_string(sampler_.size());
  out += ",\"rates\":{";
  std::size_t i = 0;
  for (const auto& [name, r] : rates) {
    if (i++) out += ',';
    out += json_quote(name) + ":" + json_number(r);
  }
  out += "},\"metrics\":" + snap.to_json(/*pretty=*/false) + "}";
  return out;
}

std::string HttpServer::respond(std::string_view raw_request) const {
  const std::size_t eol = raw_request.find("\r\n");
  const std::string_view line =
      eol == std::string_view::npos ? raw_request : raw_request.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return http_response(400, "Bad Request", "text/plain; charset=utf-8",
                         "malformed request line\n");
  }
  const std::string_view method = line.substr(0, sp1);
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t q = target.find('?');
  if (q != std::string_view::npos) target = target.substr(0, q);

  if (method != "GET" && method != "HEAD") {
    return http_response(405, "Method Not Allowed",
                         "text/plain; charset=utf-8",
                         "only GET is supported\n");
  }

  if (target == "/healthz") {
    return http_response(200, "OK", "text/plain; charset=utf-8", "ok\n");
  }
  if (target == "/") {
    return http_response(200, "OK", "text/html; charset=utf-8",
                         kDashboardHtml);
  }
  if (target == "/metrics.json" ||
      (target == "/metrics" &&
       header_value(raw_request, "Accept").find("application/json") !=
           std::string_view::npos)) {
    return http_response(200, "OK", "application/json", metrics_json());
  }
  if (target == "/metrics") {
    return http_response(200, "OK",
                         "text/plain; version=0.0.4; charset=utf-8",
                         to_prometheus(registry_.snapshot()));
  }
  if (target == "/trace") {
    if (tracer_ == nullptr) {
      return http_response(404, "Not Found", "text/plain; charset=utf-8",
                           "no tracer bound\n");
    }
    return http_response(200, "OK", "application/x-ndjson",
                         tracer_->to_jsonl());
  }
  return http_response(404, "Not Found", "text/plain; charset=utf-8",
                       "unknown path\n");
}

#else  // CONGRID_OBS_ENABLED == 0

bool HttpServer::start() { return false; }
void HttpServer::stop() {}
bool HttpServer::running() const { return false; }
std::uint16_t HttpServer::port() const { return 0; }
std::string HttpServer::url() const { return ""; }
std::string HttpServer::respond(std::string_view) const { return ""; }

#endif  // CONGRID_OBS_ENABLED

namespace {

std::mutex g_env_server_mu;
std::unique_ptr<HttpServer> g_env_server;
bool g_env_attempted = false;

}  // namespace

HttpServer* HttpServer::from_env(Registry& registry, Tracer* tracer) {
#if CONGRID_OBS_ENABLED
  std::lock_guard lock(g_env_server_mu);
  if (g_env_attempted) return g_env_server.get();
  g_env_attempted = true;
  const char* v = std::getenv("CONGRID_OBS_PORT");
  if (v == nullptr || *v == '\0') return nullptr;
  const long port = std::strtol(v, nullptr, 10);
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "congrid-obs: ignoring CONGRID_OBS_PORT=%s\n", v);
    return nullptr;
  }
  HttpServerOptions opt;
  opt.port = static_cast<std::uint16_t>(port);
  auto server = std::make_unique<HttpServer>(registry, tracer, opt);
  if (!server->start()) return nullptr;
  std::fprintf(stderr, "congrid-obs: serving live metrics on %s\n",
               server->url().c_str());
  g_env_server = std::move(server);
  return g_env_server.get();
#else
  (void)registry;
  (void)tracer;
  return nullptr;
#endif
}

void HttpServer::stop_env_server() {
  std::lock_guard lock(g_env_server_mu);
  g_env_server.reset();
  g_env_attempted = false;
}

}  // namespace cg::obs
