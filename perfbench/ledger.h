// Metrics out of measured windows: the end-to-end set (untraced window) and
// the per-layer ledger (traced window), including the self-time fold of the
// benchmark's spans and the Chrome trace export.
#ifndef IMKBENCH_LEDGER_H_
#define IMKBENCH_LEDGER_H_

#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/workloads.h"

namespace imkbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;  // operations behind the value (0 = a counter)
};

// Percentile under the tail rule, or 0 with *withheld set when too few
// samples lie beyond it.
double PercentileOr0(const std::vector<double>& samples, double q, bool* withheld);

// Operations a phase completed and verified, per second of its window.
double AchievedRate(const PhaseResult& phase);

// Wall-clock figures of an untraced window: achieved rate, latency p50/p90
// and peak RSS. They follow the host's load, so they are printed and
// reported per layer but gate nothing.
std::vector<Metric> WallClock(const PhaseResult& phase);

// Per-layer metrics of the traced window `traced`, with `untraced` the same
// seed's untraced window (for the tracing overhead). Prints the ledger table
// to `out` and, when `trace_path` is not empty, writes the Chrome trace
// there. Returns "" or a description of a closure failure.
std::string BuildLedger(const Fixture& fixture, const PhaseResult& untraced,
                        const PhaseResult& traced, const std::string& trace_path,
                        std::vector<Metric>* metrics, FILE* out);

}  // namespace imkbench

#endif  // IMKBENCH_LEDGER_H_
