#include "perfbench/arith.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/base/rng.h"

namespace imkbench {

size_t SamplesBeyond(size_t n, double q) {
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(n, rank);
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0 || SamplesBeyond(n, q) < kMinBeyondTail) {
    return std::nullopt;
  }
  const size_t rank = std::max<size_t>(1, n - SamplesBeyond(n, q));
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank - 1), samples.end());
  return samples[rank - 1];
}

uint64_t DeriveSeed(uint64_t base, uint64_t index) {
  uint64_t z = base + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z != 0 ? z : 1;  // 0 would ask the program for host entropy
}

void AssignParents(std::vector<FoldSpan>* spans) {
  std::vector<FoldSpan>& s = *spans;
  for (size_t i = 0; i < s.size(); ++i) {
    s[i].parent = -1;
    for (size_t j = 0; j < s.size(); ++j) {
      if (i == j || s[j].start_ns > s[i].start_ns || s[j].end_ns() < s[i].end_ns()) {
        continue;
      }
      const bool same_interval = s[j].dur_ns == s[i].dur_ns;
      if (same_interval && s[j].depth >= s[i].depth) {
        continue;  // an identical interval nests under the shallower span only
      }
      const int p = s[i].parent;
      if (p < 0 || s[j].dur_ns < s[p].dur_ns ||
          (s[j].dur_ns == s[p].dur_ns && s[j].depth > s[p].depth)) {
        s[i].parent = static_cast<int>(j);
      }
    }
  }
}

std::vector<uint64_t> SelfTimes(const std::vector<FoldSpan>& spans) {
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<uint64_t, uint64_t>> kids;
    for (const FoldSpan& child : spans) {
      if (child.parent == static_cast<int>(i)) {
        kids.emplace_back(std::max(child.start_ns, spans[i].start_ns),
                          std::min(child.end_ns(), spans[i].end_ns()));
      }
    }
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t reach = spans[i].start_ns;
    for (const auto& [lo, hi] : kids) {
      const uint64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    self[i] = spans[i].dur_ns - std::min(covered, spans[i].dur_ns);
  }
  return self;
}

std::vector<double> ArrivalSchedule(uint64_t seed, double rate, double seconds) {
  const auto n = static_cast<size_t>(std::llround(rate * seconds));
  imk::Rng rng(DeriveSeed(seed, 0x5ced));
  std::vector<double> due(n);
  for (double& t : due) {
    t = rng.NextDouble() * seconds;
  }
  std::sort(due.begin(), due.end());
  return due;
}

bool BacklogGrew(const std::vector<uint32_t>& backlog, uint32_t servers) {
  const size_t quarter = backlog.size() / 4;
  if (quarter == 0) {
    return false;
  }
  const auto mean = [&](size_t from) {
    return std::accumulate(backlog.begin() + static_cast<long>(from),
                           backlog.begin() + static_cast<long>(from + quarter), 0.0) /
           static_cast<double>(quarter);
  };
  const double first = mean(0);
  const double last = mean(backlog.size() - quarter);
  return last > first + servers && last > 2.0 * first;
}

std::string SelfTest() {
  // Percentile rule: p90 of 1..100 is 90 with 10 beyond; 99 samples leave
  // only 9 beyond, so no p90.
  std::vector<double> hundred(100);
  std::iota(hundred.begin(), hundred.end(), 1.0);
  if (Percentile(hundred, 0.9) != std::optional<double>(90.0)) {
    return "percentile: p90 of 1..100 must be 90";
  }
  if (Percentile(std::vector<double>(hundred.begin(), hundred.end() - 1), 0.9).has_value()) {
    return "percentile: p90 of 99 samples must be withheld";
  }
  std::vector<double> twenty(hundred.begin(), hundred.begin() + 20);
  if (Percentile(twenty, 0.5) != std::optional<double>(10.0) ||
      Percentile(std::vector<double>(twenty.begin(), twenty.end() - 1), 0.5).has_value()) {
    return "percentile: median needs 10 samples beyond it";
  }

  if (Median({3, 1, 2}) != 2.0 || Median({4, 1, 3, 2}) != 2.5 || Median({}) != 0.0) {
    return "median: of {3,1,2} must be 2, of {4,1,3,2} 2.5, of nothing 0";
  }

  // Fold: launch [0,100) holds A [10,40) (with A1 [10,20)) and B [40,90),
  // and B carries a derived child over its whole interval.
  std::vector<FoldSpan> spans = {{"launch", 0, 100, 0},  {"A", 10, 30, 1}, {"A1", 10, 10, 2},
                                 {"B", 40, 50, 1},       {"B.derived", 40, 50, 2}};
  AssignParents(&spans);
  const std::vector<int> want_parent = {-1, 0, 1, 0, 3};
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != want_parent[i]) {
      return "fold: wrong parent for " + spans[i].name;
    }
  }
  const std::vector<uint64_t> self = SelfTimes(spans);
  const std::vector<uint64_t> want_self = {20, 20, 10, 0, 50};
  if (self != want_self) {
    return "fold: wrong self times";
  }
  if (std::accumulate(self.begin(), self.end(), uint64_t{0}) != spans[0].dur_ns) {
    return "fold: self times must sum to the root";
  }

  // Arrival schedule: reproducible, seed-sensitive, exact count, Poisson
  // spacing (mean 1/rate, coefficient of variation ~1).
  const std::vector<double> a = ArrivalSchedule(7, 20.0, 100.0);
  if (a != ArrivalSchedule(7, 20.0, 100.0) || a == ArrivalSchedule(8, 20.0, 100.0)) {
    return "schedule: must be reproducible per seed and differ across seeds";
  }
  if (a.size() != 2000 || a.front() < 0.0 || a.back() >= 100.0 ||
      !std::is_sorted(a.begin(), a.end())) {
    return "schedule: wrong count or range";
  }
  double sum = 0;
  double sum_sq = 0;
  for (size_t i = 1; i < a.size(); ++i) {
    const double gap = a[i] - a[i - 1];
    sum += gap;
    sum_sq += gap * gap;
  }
  const double gaps = static_cast<double>(a.size() - 1);
  const double mean = sum / gaps;
  const double cv = std::sqrt(sum_sq / gaps - mean * mean) / mean;
  if (std::fabs(mean - 0.05) > 0.005 || cv < 0.85 || cv > 1.15) {
    return "schedule: inter-arrival gaps are not Poisson-shaped";
  }

  // Backlog: a flat queue is within capacity, a growing one is not.
  std::vector<uint32_t> flat(200, 1);
  std::vector<uint32_t> growing(200);
  std::iota(growing.begin(), growing.end(), 0u);
  if (BacklogGrew(flat, 2) || !BacklogGrew(growing, 2)) {
    return "backlog: growth rule misclassifies";
  }
  return "";
}

}  // namespace imkbench
