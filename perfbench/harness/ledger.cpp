#include "ledger.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

/// 1-based nearest rank of quantile q among n samples. The epsilon keeps
/// q * n that is an integer in exact arithmetic from rounding up a rank.
std::size_t nearest_rank(double q, std::size_t n) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1,
                                 n);
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(q, v.size()) - 1];
}

Percentile tail_percentile(std::vector<double> v, double want,
                           std::size_t min_beyond) {
  Percentile p;
  p.n = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::size_t rank = nearest_rank(want, n);
  if (n > min_beyond) rank = std::min(rank, n - min_beyond);
  rank = std::max(rank, nearest_rank(0.5, n));
  p.value = v[rank - 1];
  p.q = static_cast<double>(rank) / static_cast<double>(n);
  return p;
}

Percentile sliced_percentile(std::vector<TimedSample> samples,
                             const std::vector<double>& bounds, double q,
                             std::size_t min_samples) {
  std::sort(samples.begin(), samples.end(),
            [](const TimedSample& a, const TimedSample& b) {
              return a.at < b.at;
            });
  std::vector<double> all;
  all.reserve(samples.size());
  for (const TimedSample& s : samples) all.push_back(s.value);

  std::vector<Percentile> groups;
  std::vector<double> group;
  auto it = samples.begin();
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    for (; it != samples.end() && it->at < bounds[i + 1]; ++it) {
      if (it->at >= bounds[i]) group.push_back(it->value);
    }
    if (group.size() >= min_samples) {
      groups.push_back(tail_percentile(std::move(group), q));
      group.clear();
    }
  }
  if (groups.size() < 2) return tail_percentile(std::move(all), q);
  std::sort(groups.begin(), groups.end(),
            [](const Percentile& a, const Percentile& b) {
              return a.value < b.value;
            });
  Percentile mid = groups[(groups.size() - 1) / 2];
  mid.n = all.size();
  return mid;
}

SliceRates slice_rates(const std::vector<SliceMark>& marks,
                       double min_slice_s) {
  struct Busy {
    double cpu_s;
    double items;
  };
  std::vector<double> rates;
  std::vector<Busy> busy;
  double carried_cpu = 0.0;
  for (std::size_t i = 1; i < marks.size(); ++i) {
    const SliceMark& a = marks[i - 1];
    const SliceMark& b = marks[i];
    if (b.wall - a.wall < min_slice_s) continue;
    const auto n = static_cast<double>(b.delivered - a.delivered);
    rates.push_back(n / (b.wall - a.wall));
    if (n == 0.0) {
      carried_cpu += b.cpu - a.cpu;
      continue;
    }
    busy.push_back(Busy{b.cpu - a.cpu + carried_cpu, n});
    carried_cpu = 0.0;
  }
  if (rates.empty() && marks.size() >= 2 &&
      marks.back().wall > marks.front().wall) {
    const SliceMark& a = marks.front();
    const SliceMark& b = marks.back();
    const auto n = static_cast<double>(b.delivered - a.delivered);
    rates.push_back(n / (b.wall - a.wall));
    if (n > 0.0) busy.push_back(Busy{b.cpu - a.cpu, n});
  }
  if (!busy.empty()) busy.back().cpu_s += carried_cpu;
  std::vector<double> cpu;
  for (const Busy& s : busy) cpu.push_back(s.cpu_s / s.items);
  return SliceRates{quantile(std::move(rates), 0.5),
                    quantile(std::move(cpu), 0.5)};
}

void LatencyMatcher::emit(std::uint64_t seq, double due_at, std::size_t key) {
  open_.push_back(Open{seq, due_at, key});
}

std::size_t SpanLedger::layer(const std::string& name) {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].name == name) return i;
  }
  rows_.push_back(Row{name, 0.0, 0});
  return rows_.size() - 1;
}

void SpanLedger::begin(std::size_t layer, double t) {
  stack_.push_back(Open{layer, t, 0.0});
}

void SpanLedger::end(double t) {
  const Open o = stack_.back();
  stack_.pop_back();
  const double dur = t - o.start;
  Row& r = rows_[o.layer];
  r.self_s += dur - o.child_s;
  ++r.count;
  if (!stack_.empty()) stack_.back().child_s += dur;
}

double SpanLedger::self_total() const {
  double s = 0.0;
  for (const Row& r : rows_) s += r.self_s;
  return s;
}

void SpanLedger::clear_times() {
  for (Row& r : rows_) {
    r.self_s = 0.0;
    r.count = 0;
  }
}

}  // namespace perfbench
