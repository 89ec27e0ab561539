#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <limits>
#include <thread>

#include "obs/json.hpp"

namespace cg::bench {
namespace {

/// Whole-string parse of a value in [min, max]: no sign on unsigned types,
/// no leading space, no trailing junk, no empty string, no NaN or infinity.
template <typename T>
bool parse_in(const std::string& s, T min, T max, T& out) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || ptr != end) return false;
  if (!(v >= min && v <= max)) return false;
  out = v;
  return true;
}

template <typename T>
std::string integer_range(T min, T max) {
  const std::string lo = std::to_string(min);
  const std::string hi = std::to_string(max);
  if (max == std::numeric_limits<T>::max()) return "an integer >= " + lo;
  return "an integer in [" + lo + ", " + hi + "]";
}

bool parse_list(const std::string& s, std::vector<unsigned>& out) {
  std::vector<unsigned> list;
  for (std::size_t from = 0;;) {
    const std::size_t comma = s.find(',', from);
    unsigned v = 0;
    const std::string item = s.substr(from, comma - from);
    if (!parse_in(item, 0u, UINT_MAX, v)) return false;
    list.push_back(v);
    if (comma == std::string::npos) break;
    from = comma + 1;
  }
  out = std::move(list);
  return true;
}

bool write_text(const std::string& program, const std::string& path,
                const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "%s: cannot open %s\n", program.c_str(), path.c_str());
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

obs::HttpServerOptions server_options(const Bench& bench) {
  obs::HttpServerOptions opt;
  opt.port = static_cast<std::uint16_t>(std::max(bench.obs_port, 0));
  return opt;
}

}  // namespace

void Flags::add(const std::string& name, int& out, int min, int max,
                const std::string& meta) {
  auto set = [&out, min, max](const std::string& s) {
    return parse_in(s, min, max, out);
  };
  flags_.push_back({name, meta, set, integer_range(min, max)});
}

void Flags::add(const std::string& name, std::size_t& out, std::size_t min,
                const std::string& meta) {
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  auto set = [&out, min, max](const std::string& s) {
    return parse_in(s, min, max, out);
  };
  flags_.push_back({name, meta, set, integer_range(min, max)});
}

void Flags::add(const std::string& name, double& out, const std::string& meta) {
  const double max = std::numeric_limits<double>::max();
  auto set = [&out, max](const std::string& s) {
    return parse_in(s, -max, max, out);
  };
  flags_.push_back({name, meta, set, "a number"});
}

void Flags::add(const std::string& name, std::string& out,
                const std::string& meta) {
  auto set = [&out](const std::string& s) {
    out = s;
    return true;
  };
  flags_.push_back({name, meta, set, "a value"});
}

void Flags::add(const std::string& name, std::vector<unsigned>& out,
                const std::string& meta) {
  auto set = [&out](const std::string& s) { return parse_list(s, out); };
  const std::string expects = "a comma-separated list of unsigned integers";
  flags_.push_back({name, meta, set, expects});
}

void Flags::add_switch(const std::string& name, bool& out) {
  auto set = [&out](const std::string&) {
    out = true;
    return true;
  };
  flags_.push_back({name, "", set, ""});
}

bool Flags::parse(int argc, const char* const* argv) {
  error_.clear();
  for (int i = 1; i < argc && error_.empty(); ++i) {
    const std::string arg = argv[i];
    const Flag* flag = nullptr;
    for (const Flag& f : flags_) {
      if (f.name == arg) flag = &f;
    }
    if (flag == nullptr) {
      error_ = "unknown flag '" + arg + "'";
    } else if (flag->meta.empty()) {
      flag->set("");
    } else if (i + 1 >= argc) {
      error_ = arg + " needs a value";
    } else if (!flag->set(argv[++i])) {
      error_ = arg + " expects " + flag->expects + ", got '" + argv[i] + "'";
    }
  }
  if (error_.empty()) return true;
  std::fprintf(stderr, "%s: %s\n%s\n", program_.c_str(), error_.c_str(),
               usage().c_str());
  return false;
}

std::string Flags::usage() const {
  std::string out = "usage: " + program_;
  for (const Flag& f : flags_) {
    out += " [" + f.name;
    if (!f.meta.empty()) out += " " + f.meta;
    out += "]";
  }
  return out;
}

void Bench::obs_flags() {
  flags.add("--obs-port", obs_port, -1, 65535, "PORT");
  flags.add("--obs-linger", obs_linger, "SECONDS");
}

bool Bench::write_json(const std::string& body) const {
  if (json_path.empty()) return true;
  if (!obs::json_valid(body)) {
    std::fprintf(stderr, "%s: refusing to write invalid JSON\n",
                 flags.program().c_str());
    return false;
  }
  if (!write_text(flags.program(), json_path, body)) return false;
  std::printf("\nwrote %s\n", json_path.c_str());
  return true;
}

bool Bench::write_trace(const obs::Tracer& tracer) const {
  const std::string jsonl = tracer.to_jsonl();
  if (jsonl.empty()) {
    std::printf("\ntracing compiled out (CONGRID_OBS=OFF); %s not written\n",
                trace_path.c_str());
    return true;
  }
  if (!write_text(flags.program(), trace_path, jsonl)) return false;
  std::printf("\nwrote %s\n", trace_path.c_str());
  return true;
}

ObsServer::ObsServer(const Bench& bench, obs::Registry& registry,
                     obs::Tracer* tracer)
    : bench_(bench), server_(registry, tracer, server_options(bench)) {}

bool ObsServer::start() {
  if (bench_.obs_port < 0) return true;
  if (!server_.start()) {
    std::fprintf(stderr, "%s: --obs-port %d: bind failed or obs compiled out\n",
                 bench_.flags.program().c_str(), bench_.obs_port);
    return false;
  }
  std::printf("obs: live metrics at %s (/metrics, /metrics.json, /trace)\n\n",
              server_.url().c_str());
  return true;
}

void ObsServer::linger() {
  if (server_.running() && bench_.obs_linger > 0) {
    std::printf("obs: lingering %.0f s at %s\n", bench_.obs_linger,
                server_.url().c_str());
    std::fflush(stdout);
    const std::chrono::duration<double> linger(bench_.obs_linger);
    std::this_thread::sleep_for(linger);
  }
  server_.stop();
}

bool wave_sweep(const std::string& program, std::vector<unsigned> threads,
                const char* rate_label, double work, const WaveRun& run,
                std::vector<WaveRow>& rows) {
  if (threads.empty() || threads[0] != 0) {
    threads.insert(threads.begin(), 0);  // serial row anchors the speedup
  }
  std::printf("%-8s %-12s %-14s %-10s %-18s\n", "threads", "seconds",
              rate_label, "speedup", "checksum");
  for (unsigned t : threads) {
    WaveRow row = run(t);
    row.threads = t;
    row.throughput = work / row.seconds;
    row.speedup = rows.empty() ? 1.0 : rows[0].seconds / row.seconds;
    rows.push_back(row);
    std::printf("%-8u %-12.3f %-14.1f %-10.2f %-18.6f\n", row.threads,
                row.seconds, row.throughput, row.speedup, row.checksum);
    if (row.checksum != rows[0].checksum) {
      std::fprintf(stderr, "%s: DETERMINISM VIOLATION at %u threads\n",
                   program.c_str(), row.threads);
      return false;
    }
  }
  return true;
}

std::string wave_rows_json(const std::vector<WaveRow>& rows) {
  return json_rows(rows, [](std::string& out, const WaveRow& r) {
    out += "\"threads\":" + std::to_string(r.threads);
    out += ",\"seconds\":" + obs::json_number(r.seconds);
    out += ",\"throughput\":" + obs::json_number(r.throughput);
    out += ",\"speedup\":" + obs::json_number(r.speedup);
    out += ",\"checksum\":" + obs::json_number(r.checksum);
  });
}

}  // namespace cg::bench
