// E9 -- idle-cycle harvesting yield (paper 3.7).
//
// "users would altruistically make their computers CPU and RAM available
// ... when their workstation is idle i.e. when the screen saver turns on"
// (the Condor / SETI@home model). For each availability model we sample
// 1,000 peers over a week and report: raw availability, mean idle-session
// length, and the fraction of wall-clock that converts into *finished*
// tasks of various lengths without checkpointing -- long tasks waste the
// tail of every session, which is exactly why the paper needs either small
// work units or the E8 checkpointing.
//
// --json PATH writes the table as machine-readable rows keyed "model".
#include <cstdio>
#include <string>

#include "churn/availability.hpp"
#include "dsp/stats.hpp"
#include "harness.hpp"
#include "obs/json.hpp"

using namespace cg;

int main(int argc, char** argv) {
  bench::Bench b("bench_availability");
  b.json_flag();
  if (!b.flags.parse(argc, argv)) return 2;

  std::printf("E9: volunteer availability models, 1000 peers x 1 week\n\n");
  std::printf("%-28s %-10s %-12s | usable fraction for task length\n",
              "model", "avail", "session h");
  std::printf("%-28s %-10s %-12s %-9s %-9s %-9s\n", "", "", "", "10 min",
              "1 h", "5 h");

  const double week = 7 * 86400.0;
  const int kPeers = 1000;
  const double tasks_s[] = {600.0, 3600.0, 5 * 3600.0};

  churn::AlwaysOnModel always;
  churn::PoissonChurnModel stable(12 * 3600.0, 3600.0);
  churn::PoissonChurnModel flaky(3600.0, 1800.0);
  churn::DiurnalIdleModel office;  // defaults: busy 9-18
  churn::DiurnalIdleModel::Options heavy_opts;
  heavy_opts.p_idle_work_hours = 0.05;
  heavy_opts.p_idle_off_hours = 0.70;
  heavy_opts.mean_interrupt_gap_s = 3600.0;
  churn::DiurnalIdleModel heavy_use(heavy_opts);

  struct Row {
    const char* name;
    const churn::AvailabilityModel* model;
  };
  const Row rows[] = {
      {"dedicated (always on)", &always},
      {"stable DSL (12h/1h)", &stable},
      {"flaky DSL (1h/30m)", &flaky},
      {"office screensaver", &office},
      {"heavily used desktop", &heavy_use},
  };

  std::string rows_json = "[";
  bool first = true;
  for (const Row& row : rows) {
    dsp::Rng rng(2026);
    dsp::RunningStats avail, session;
    dsp::RunningStats usable[3];
    for (int p = 0; p < kPeers; ++p) {
      const auto trace = row.model->sample(week, rng);
      avail.add(churn::availability_fraction(trace, week));
      session.add(churn::mean_session_length(trace) / 3600.0);
      for (int t = 0; t < 3; ++t) {
        const auto done = churn::completed_tasks(trace, week, tasks_s[t]);
        usable[t].add(static_cast<double>(done) * tasks_s[t] / week);
      }
    }
    std::printf("%-28s %-10.2f %-12.1f %-9.2f %-9.2f %-9.2f\n", row.name,
                avail.mean(), session.mean(), usable[0].mean(),
                usable[1].mean(), usable[2].mean());
    if (!first) rows_json += ',';
    first = false;
    rows_json += "{\"model\":" + obs::json_quote(row.name);
    rows_json += ",\"availability\":" + obs::json_number(avail.mean());
    rows_json += ",\"session_h\":" + obs::json_number(session.mean());
    rows_json += ",\"usable_10min\":" + obs::json_number(usable[0].mean());
    rows_json += ",\"usable_1h\":" + obs::json_number(usable[1].mean());
    rows_json += ",\"usable_5h\":" + obs::json_number(usable[2].mean());
    rows_json += "}";
  }
  rows_json += "]";

  std::printf(
      "\nShape check (paper 3.7): volunteer populations deliver a large "
      "but discounted fraction of their nominal CPU; the discount grows "
      "sharply with task length because partial sessions are wasted -- the "
      "SETI@home design point (small work units) and the motivation for "
      "checkpointing (E8).\n");

  return b.write_json("{\"bench\":\"availability\",\"peers\":" +
                      std::to_string(kPeers) + ",\"rows\":" + rows_json +
                      "}")
             ? 0
             : 1;
}
