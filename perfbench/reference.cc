#include "perfbench/reference.h"

#include <sys/mman.h>
#include <time.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>

#include "perfbench/arith.h"

namespace imkbench {
namespace {

constexpr size_t kArenaBytes = 8u << 20;
constexpr size_t kPageBytes = 4096;
constexpr int kWalkSteps = 40000;
constexpr int kInterpSteps = 200000;

uint64_t Next(uint64_t* x) {
  *x ^= *x << 13;
  *x ^= *x >> 7;
  *x ^= *x << 17;
  return *x;
}

}  // namespace

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t RunProbe() {
  const uint64_t start = ThreadCpuNs();
  void* mapped = mmap(nullptr, kArenaBytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) {
    // Without the probe no time can be scaled; a run must not print one.
    std::perror("reference probe: mmap");
    std::abort();
  }
  auto* arena = static_cast<uint64_t*>(mapped);
  const size_t words = kArenaBytes / sizeof(uint64_t);
  // Fault every page in, as a guest's first writes do.
  for (size_t w = 0; w < words; w += kPageBytes / sizeof(uint64_t)) {
    arena[w] = w;
  }
  // Dependent random accesses across the arena: TLB and cache misses.
  uint64_t x = 0x9e3779b97f4a7c15ull;
  uint64_t at = 0;
  for (int i = 0; i < kWalkSteps; ++i) {
    at = (arena[at] + Next(&x)) % words;
    arena[at] += static_cast<uint64_t>(i);
  }
  // A byte-code dispatch loop over a table in the arena, like an
  // interpreter's fetch and dispatch.
  const auto* code = reinterpret_cast<const uint8_t*>(arena);
  uint64_t acc = at;
  size_t pc = 0;
  for (int i = 0; i < kInterpSteps; ++i) {
    switch ((code[pc] ^ static_cast<uint8_t>(acc)) & 7) {
      case 0: acc += 3; break;
      case 1: acc *= 5; break;
      case 2: acc ^= acc >> 3; break;
      case 3: acc -= pc; break;
      case 4: acc = acc * 3 + 1; break;
      case 5: acc += code[(pc * 7) & 65535]; break;
      case 6: acc ^= 0x55; break;
      default: acc += acc << 1; break;
    }
    pc = (pc + 1 + (acc & 3)) & 65535;
  }
  arena[0] = acc;
  munmap(mapped, kArenaBytes);
  return ThreadCpuNs() - start;
}

double MedianProbeMs(const std::vector<uint64_t>& probe_ns) {
  return Median(std::vector<double>(probe_ns.begin(), probe_ns.end())) / 1e6;
}

double AtReference(double cpu, double probe_ms) {
  return probe_ms > 0 ? cpu * kProbeReferenceMs / probe_ms : 0;
}

}  // namespace imkbench
