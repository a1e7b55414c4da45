// imkbench: the repo's benchmark. One invocation runs one workload
// for one seed and prints every metric by name with its unit and sample
// count; the last stdout line is the machine-readable result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the same seed twice from identical set-ups, untraced then traced,
// and reports the per-layer ledger.
//
//   imkbench --workload fleet-boot-kaslr --seed 1 --seconds 20 --trace 0
//            [--churn-rate 6] [--trace-dir DIR]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/arith.h"
#include "perfbench/ledger.h"
#include "perfbench/reference.h"
#include "perfbench/workloads.h"

#ifndef IMKBENCH_BUILD_TYPE
#define IMKBENCH_BUILD_TYPE "unknown"
#endif

namespace imkbench {
namespace {

// Set-ups per --trace 0 run; setup_s is their median, scaled to reference
// speed by the probes run before and after each set-up.
constexpr int kSetupRuns = 5;
constexpr int kSetupProbes = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  double churn_rate = 0;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else if (key == "--churn-rate") {
      args->churn_rate = std::strtod(value, nullptr);
    } else if (key == "--trace-dir") {
      args->trace_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

// *cpu_s is the process CPU time the set-up used (see CpuSeconds()).
std::unique_ptr<Fixture> SetUpTimed(const BenchConfig& config, double* cpu_s) {
  std::string error;
  const double cpu_before = CpuSeconds();
  std::unique_ptr<Fixture> fixture = Fixture::Create(config, &error);
  *cpu_s = CpuSeconds() - cpu_before;
  if (fixture == nullptr) {
    std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
  }
  return fixture;
}

// Prints the run's failures and checks; returns false on any violation.
bool Gate(const char* what, Fixture& fixture, const PhaseResult& phase) {
  bool ok = true;
  size_t shown = 0;
  for (const OpRecord& r : phase.ops) {
    if (!r.ok && shown++ < 5) {
      std::printf("FAIL %s op %llu (seed %llu): %s\n", what,
                  static_cast<unsigned long long>(r.index),
                  static_cast<unsigned long long>(r.seed), r.error.c_str());
    }
    ok = ok && r.ok;
  }
  const std::string check = fixture.CheckOutsideWindow(phase);
  if (!check.empty()) {
    std::printf("FAIL %s: %s\n", what, check.c_str());
    ok = false;
  }
  return ok;
}

double CpuMsPerOk(const PhaseResult& phase) {
  const auto ok = std::count_if(phase.ops.begin(), phase.ops.end(),
                                [](const OpRecord& r) { return r.ok; });
  return phase.cpu_s * 1e3 / static_cast<double>(std::max<std::ptrdiff_t>(ok, 1));
}

// The gated metrics: CPU times at reference speed (see reference.h) and the
// per-VM resident size. Each operation is scaled by its worker's latest
// probes, the process CPU time by the window's. `setup_s` is already at
// reference speed.
std::vector<Metric> EndToEnd(const PhaseResult& phase, double setup_s, bool* withheld) {
  std::vector<double> ref_ms;
  double resident = 0;
  for (const OpRecord& r : phase.ops) {
    ref_ms.push_back(AtReference(static_cast<double>(r.cpu_ns) / 1e6, r.probe_ms));
    resident += static_cast<double>(r.resident_bytes);
  }
  const size_t n = phase.ops.size();
  return {
      {"op_ref_ms.p50", PercentileOr0(ref_ms, 0.5, withheld), "ms", n},
      {"op_ref_ms.p90", PercentileOr0(ref_ms, 0.9, withheld), "ms", n},
      {"cpu_ref_ms_per_op", AtReference(CpuMsPerOk(phase), MedianProbeMs(phase.probe_ns)), "ms",
       n},
      {"resident_mib_per_vm", resident / static_cast<double>(std::max<size_t>(n, 1)) / 1048576.0,
       "MiB", n},
      {"setup_s", setup_s, "s", kSetupRuns},
  };
}

// The same CPU times as measured on this host, and the probes' median;
// printed, not gated.
std::vector<Metric> Measured(const PhaseResult& phase) {
  std::vector<double> cpu_ms;
  for (const OpRecord& r : phase.ops) {
    cpu_ms.push_back(static_cast<double>(r.cpu_ns) / 1e6);
  }
  bool withheld = false;
  return {
      {"op_cpu_ms.p50", PercentileOr0(cpu_ms, 0.5, &withheld), "ms", cpu_ms.size()},
      {"op_cpu_ms.p90", PercentileOr0(cpu_ms, 0.9, &withheld), "ms", cpu_ms.size()},
      {"cpu_ms_per_op", CpuMsPerOk(phase), "ms", cpu_ms.size()},
      {"probe_ms", MedianProbeMs(phase.probe_ns), "ms", phase.probe_ns.size()},
  };
}

// The workload-specific name of a per-operation metric: "op" becomes
// "boot" or "launch", "ops" becomes "boots" or "launches".
std::string DisplayName(Workload workload, const std::string& name) {
  const bool launch = workload == Workload::kFleetLaunch;
  const std::string op = launch ? "launch" : "boot";
  if (name.rfind("ops_", 0) == 0) {
    return (launch ? "launches" : "boots") + name.substr(3);
  }
  if (name.rfind("op_", 0) == 0) {
    return op + name.substr(2);
  }
  if (name.size() > 3 && name.compare(name.size() - 3, 3, "_op") == 0) {
    return name.substr(0, name.size() - 2) + op;
  }
  return name;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  BenchConfig config;
  if (!ParseArgs(argc, argv, &args) || !ParseWorkload(args.workload, &config.workload)) {
    std::fprintf(stderr,
                 "usage: imkbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--churn-rate R] [--trace-dir DIR]\n");
    return 2;
  }
  const std::string self_test = SelfTest();
  if (!self_test.empty()) {
    std::fprintf(stderr, "self-test failed: %s\n", self_test.c_str());
    return 3;
  }
  config.seed = args.seed;
  config.seconds = args.seconds;
  config.churn_rate = args.churn_rate;
  config.nproc = std::max(1u, std::thread::hardware_concurrency());
  const Workload workload = config.workload;
  if (workload == Workload::kChurn && !(config.churn_rate > 0)) {
    std::fprintf(stderr, "churn needs a positive --churn-rate\n");
    return 2;
  }
  std::printf("imkbench %s: seed %llu, %.0f s window, trace %d\n", WorkloadName(workload),
              static_cast<unsigned long long>(config.seed), config.seconds, args.trace);

  std::vector<Metric> metrics;
  std::vector<const PhaseResult*> phases;
  bool correct = true;
  double setup_s = 0;
  PhaseResult untraced;
  PhaseResult traced;
  std::unique_ptr<Fixture> fixture;
  if (args.trace == 0) {
    std::vector<double> setups;
    std::vector<uint64_t> probes;
    for (int k = 0; k < kSetupRuns; ++k) {
      fixture.reset();
      for (int p = 0; p < kSetupProbes; ++p) {
        probes.push_back(RunProbe());
      }
      fixture = SetUpTimed(config, &setup_s);
      if (fixture == nullptr) {
        return 1;
      }
      for (int p = 0; p < kSetupProbes; ++p) {
        probes.push_back(RunProbe());
      }
      setups.push_back(setup_s);
    }
    setup_s = AtReference(Median(setups), MedianProbeMs(probes));
    untraced = fixture->Run(false);
    phases = {&untraced};
  } else {
    // Identical set-ups per window, so the traced window neither inherits
    // nor donates cache state and the same seeds give the same layouts.
    fixture = SetUpTimed(config, &setup_s);
    if (fixture == nullptr) {
      return 1;
    }
    untraced = fixture->Run(false);
    correct = Gate("untraced", *fixture, untraced) && correct;
    fixture.reset();
    fixture = SetUpTimed(config, &setup_s);
    if (fixture == nullptr) {
      return 1;
    }
    traced = fixture->Run(true);
    phases = {&untraced, &traced};
  }
  const PhaseResult& measured = args.trace == 0 ? untraced : traced;
  correct = Gate(args.trace == 0 ? "run" : "traced", *fixture, measured) && correct;

  for (const PhaseResult* phase : phases) {
    if (phase->over_capacity) {
      const auto& b = phase->backlog;
      std::printf(
          "OVER CAPACITY: backlog grew from %u to %u arrivals over the window at %.3g/s; "
          "latencies are not published\n",
          b.empty() ? 0 : b.front(), b.empty() ? 0 : b.back(), config.churn_rate);
      return 4;
    }
  }
  if (Deterministic(workload) && args.trace == 1) {
    // Tracing must not perturb layouts: the same seed stream reproduces them.
    size_t compared = 0;
    for (size_t i = 0; i < std::min(untraced.ops.size(), traced.ops.size()); ++i) {
      const OpRecord& u = untraced.ops[i];
      const OpRecord& t = traced.ops[i];
      if (u.layout.virt_slide != t.layout.virt_slide ||
          u.layout.phys_load_addr != t.layout.phys_load_addr ||
          u.layout.fg_digest != t.layout.fg_digest) {
        std::printf("FAIL traced layout of op %zu differs from the untraced one\n", i);
        correct = false;
        break;
      }
      ++compared;
    }
    std::printf("traced vs untraced layouts: %zu identical\n", compared);
  }

  bool withheld = false;
  const uint32_t workers = config.workers();
  if (args.trace == 0) {
    metrics = EndToEnd(untraced, setup_s, &withheld);
    std::printf("\nend-to-end (%s, tracing off):\n", WorkloadName(workload));
    for (const Metric& m : metrics) {
      std::printf("  %-22s %14.6f %-4s n=%zu\n", DisplayName(workload, m.name).c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
    std::printf("CPU time as measured on this host (not gated):\n");
    for (const Metric& m : Measured(untraced)) {
      std::printf("  %-22s %14.6f %-4s n=%zu\n", DisplayName(workload, m.name).c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
    std::printf("wall clock (follows the host's load; not gated):\n");
    for (const Metric& m : WallClock(untraced)) {
      std::printf("  %-22s %14.6f %-4s n=%zu\n", DisplayName(workload, m.name).c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
  } else {
    const std::string path =
        args.trace_dir.empty() ? ""
                               : args.trace_dir + "/" + WorkloadName(workload) + "-seed" +
                                     std::to_string(config.seed) + ".json";
    const std::string closure = BuildLedger(*fixture, untraced, traced, path, &metrics, stdout);
    if (!closure.empty()) {
      std::printf("FAIL %s\n", closure.c_str());
      correct = false;
    }
    std::printf("\nper-layer (%s, traced window):\n", WorkloadName(workload));
    for (const Metric& m : metrics) {
      std::printf("  %-34s %16.6f %-8s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.samples);
    }
  }
  size_t attempted = 0;
  size_t failed = 0;
  for (const PhaseResult* phase : phases) {
    for (const OpRecord& r : phase->ops) {
      ++attempted;
      failed += r.ok ? 0 : 1;
    }
  }
  std::printf("  %-22s %14.6f %-4s n=%zu%s\n", "failed_frac",
              attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted),
              "", attempted, withheld ? "  (a tail percentile was withheld: too few samples)" : "");
  if (withheld && args.trace == 0) {
    correct = false;
  }
  std::printf(
      "{\"host\": {\"nproc\": %u, \"build_type\": \"%s\", \"profile\": \"aws\", \"scale\": %g, "
      "\"guest_mib\": %llu, \"load_threads\": 1, \"workload\": \"%s\", \"workers\": %u, "
      "\"generator_threads\": %u, \"refill_threads\": %u, \"seed\": %llu, \"seconds\": %g, "
      "\"window_s\": %.3f, \"churn_rate\": %g, \"samples\": %zu, \"setup_runs\": %d}}\n",
      config.nproc, IMKBENCH_BUILD_TYPE, kScale,
      static_cast<unsigned long long>(kGuestBytes >> 20), WorkloadName(workload), workers,
      workload == Workload::kChurn ? 1u : 0u, workload == Workload::kChurn ? 1u : 0u,
      static_cast<unsigned long long>(config.seed), config.seconds, measured.window_s,
      workload == Workload::kChurn ? config.churn_rate : 0.0, measured.ops.size(),
      args.trace == 0 ? kSetupRuns : 1);
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace imkbench

int main(int argc, char** argv) { return imkbench::Main(argc, argv); }
