// ConGrid -- the shared experiment-bench harness.
//
// Every flag-taking experiment main (E2..E6, E9..E13) goes through this
// one façade instead of its own argv loop and output helpers:
//
//   * Flags: typed flag registration (bounded int, size_t, double, string,
//     comma-separated unsigned list, bare switch). The usage line is
//     generated from the registrations; parse() reports a status instead
//     of exiting, so the parser is unit-tested (tests/test_bench_harness).
//   * Bench: the outputs every bench writes the same way -- --json (checked
//     with obs::json_valid, then written) and --trace (the tracer's JSONL,
//     or a note when tracing is compiled out).
//   * ObsServer: --obs-port / --obs-linger, the live HTTP view of a run.
//   * json_rows: the "rows" array of every BENCH_*.json.
//   * wave_sweep: the deterministic wave-scheduler thread sweep E2 and E3
//     share -- serial anchor row, speedup, checksum equality, JSON rows.
//
// Exit codes are the benches' contract with CI: 2 for a usage error, 1 for
// a failed run, 0 otherwise.
#pragma once

#include <climits>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/http_server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cg::bench {

class Flags {
 public:
  explicit Flags(std::string program) : program_(std::move(program)) {}

  /// Integer flag accepting [min, max].
  void add(const std::string& name, int& out, int min, int max = INT_MAX,
           const std::string& meta = "N");
  /// Unsigned size flag accepting values >= min (a leading '-' is an error,
  /// never a wrap to SIZE_MAX).
  void add(const std::string& name, std::size_t& out, std::size_t min,
           const std::string& meta = "N");
  /// Finite floating-point flag.
  void add(const std::string& name, double& out, const std::string& meta);
  void add(const std::string& name, std::string& out,
           const std::string& meta = "PATH");
  /// Comma-separated unsigned list, e.g. "0,1,2,4".
  void add(const std::string& name, std::vector<unsigned>& out,
           const std::string& meta);
  /// Bare switch: present sets `out` to true.
  void add_switch(const std::string& name, bool& out);

  /// Parse argv[1..argc). On an unknown flag, a missing value or a value
  /// that is not a number in range, prints the problem and the usage line
  /// to stderr and returns false; error() keeps the problem text.
  bool parse(int argc, const char* const* argv);
  std::string usage() const;
  const std::string& error() const { return error_; }
  const std::string& program() const { return program_; }

 private:
  /// Stores a flag's value; false when the text is not a valid value.
  using Setter = std::function<bool(const std::string&)>;
  struct Flag {
    std::string name;
    /// Placeholder in the usage line; empty for a bare switch.
    std::string meta;
    Setter set;
    /// What a rejected value should have been, for the error message.
    std::string expects;
  };
  std::string program_;
  std::vector<Flag> flags_;
  std::string error_;
};

/// One experiment main's command line plus its --json / --trace outputs.
class Bench {
 public:
  explicit Bench(const std::string& program) : flags(program) {}

  void json_flag() { flags.add("--json", json_path); }
  void trace_flag() { flags.add("--trace", trace_path); }
  void obs_flags();
  bool tracing() const { return !trace_path.empty(); }

  /// --json: refuse an invalid body, else write it. True when written or
  /// when --json was not given.
  bool write_json(const std::string& body) const;
  /// --trace: write the tracer's JSONL, or print that tracing is compiled
  /// out. False only on a write failure.
  bool write_trace(const obs::Tracer& tracer) const;

  Flags flags;
  std::string json_path;
  std::string trace_path;
  int obs_port = -1;  ///< -1: no server; 0: ephemeral port
  double obs_linger = 0;
};

/// --obs-port / --obs-linger: serves `registry` (and `tracer`, when given)
/// over loopback HTTP. Declare it after the registry and tracer it serves.
class ObsServer {
 public:
  ObsServer(const Bench& bench, obs::Registry& registry,
            obs::Tracer* tracer = nullptr);

  /// Starts the server when --obs-port was given. False (reason printed)
  /// only when the port could not be bound or obs is compiled out.
  bool start();
  bool running() const { return server_.running(); }
  /// Keeps answering scrapes for --obs-linger seconds, then stops, so a
  /// scraper that raced the end of the run still gets the final numbers.
  void linger();

 private:
  const Bench& bench_;
  obs::HttpServer server_;
};

/// `rows` as a JSON array of objects; `fields(out, row)` appends one row's
/// members to `out`, without the braces.
template <typename Row, typename Fields>
std::string json_rows(const std::vector<Row>& rows, Fields fields) {
  std::string out = "[";
  for (const Row& row : rows) {
    out += out.size() > 1 ? ",{" : "{";
    fields(out, row);
    out += '}';
  }
  return out + "]";
}

struct WaveRow {
  unsigned threads = 0;
  double seconds = 0;
  double throughput = 0;  ///< work units per second
  double speedup = 0;     ///< vs the threads=0 serial row
  double checksum = 0;    ///< sink digest; must match across rows
};

/// One timed run at a thread count: its seconds and checksum.
using WaveRun = std::function<WaveRow(unsigned threads)>;

/// The wave-scheduler sweep: runs `run` at every thread count in `threads`
/// (a serial 0 row is put first when missing, to anchor the speedup),
/// prints one table row each with throughput = work / seconds, and stops
/// with false on the first checksum that differs from the serial row.
bool wave_sweep(const std::string& program, std::vector<unsigned> threads,
                const char* rate_label, double work, const WaveRun& run,
                std::vector<WaveRow>& rows);

/// The sweep rows as the JSON array CI's bench_compare.py reads.
std::string wave_rows_json(const std::vector<WaveRow>& rows);

}  // namespace cg::bench
