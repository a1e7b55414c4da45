// The benchmark's own arithmetic: percentiles under the tail rule, the span
// fold to self time, the seeded open-loop arrival schedule and the backlog
// test. Kept free of the program under test so SelfTest() can check it on
// synthetic inputs before every run.
#ifndef IMKBENCH_ARITH_H_
#define IMKBENCH_ARITH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace imkbench {

// A tail percentile is reported only when at least this many samples lie
// beyond it (so p90 needs >= 100 samples).
inline constexpr size_t kMinBeyondTail = 10;

// Nearest-rank q-quantile (q in (0, 1]) of `samples`, or nullopt when fewer
// than kMinBeyondTail samples lie beyond it.
std::optional<double> Percentile(std::vector<double> samples, double q);

// Median of `samples` (mean of the middle two for an even count), or 0 when
// empty. Used for small sample sets that the tail rule would withhold.
double Median(std::vector<double> samples);

// Samples that lie beyond the nearest-rank q-quantile of n samples.
size_t SamplesBeyond(size_t n, double q);

// splitmix64 finalizer over (base, index): the per-operation seed stream.
uint64_t DeriveSeed(uint64_t base, uint64_t index);

// One span of a launch, for the self-time fold. `parent` is filled by
// AssignParents (-1 = root).
struct FoldSpan {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t depth = 0;
  int parent = -1;
  uint64_t end_ns() const { return start_ns + dur_ns; }
};

// Parent of each span = the shortest other span whose interval contains it
// (ties on an identical interval go to the shallower span).
void AssignParents(std::vector<FoldSpan>* spans);

// Self time of each span: its duration minus the union of its children's
// intervals (clipped to the span). Requires AssignParents first.
std::vector<uint64_t> SelfTimes(const std::vector<FoldSpan>& spans);

// Open-loop arrival schedule: seconds-from-start due times of a Poisson
// process of `rate` per second over [0, seconds), conditioned on exactly
// round(rate * seconds) arrivals (sorted uniform order statistics), so every
// seed offers the same load. Deterministic in `seed`.
std::vector<double> ArrivalSchedule(uint64_t seed, double rate, double seconds);

// Over-capacity test for an open-loop run: `backlog` holds the queue length
// seen at each arrival, in arrival order. The run is over capacity when the
// mean backlog of the last quarter exceeds that of the first quarter by more
// than `servers` and by more than a factor of two.
bool BacklogGrew(const std::vector<uint32_t>& backlog, uint32_t servers);

// Runs every check above on synthetic inputs. Returns "" when all pass, else
// a description of the first failure.
std::string SelfTest();

}  // namespace imkbench

#endif  // IMKBENCH_ARITH_H_
