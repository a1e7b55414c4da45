// The reference probe: a fixed piece of work, independent of the program
// under test, that the benchmark runs between operations on the same
// threads. Its CPU time says how fast the host is running the benchmark at
// that moment, so the gated metrics can be given at a reference speed (see
// README.md, "End-to-end metrics").
#ifndef IMKBENCH_REFERENCE_H_
#define IMKBENCH_REFERENCE_H_

#include <cstdint>
#include <vector>

namespace imkbench {

// The reference speed is the speed at which one probe takes this much CPU
// time.
inline constexpr double kProbeReferenceMs = 5.0;

// CPU time of the calling thread, in ns.
uint64_t ThreadCpuNs();

// Runs the probe once on the calling thread and returns its CPU time in ns.
// Like a boot, it maps fresh memory, faults pages in, walks them at random
// and runs a small interpreter loop. Aborts if the memory cannot be mapped.
uint64_t RunProbe();

// Median of `probe_ns`, in ms; 0 when empty.
double MedianProbeMs(const std::vector<uint64_t>& probe_ns);

// A CPU time measured next to probes whose median was `probe_ms`, at
// reference speed: cpu * kProbeReferenceMs / probe_ms (0 without probes).
double AtReference(double cpu, double probe_ms);

}  // namespace imkbench

#endif  // IMKBENCH_REFERENCE_H_
