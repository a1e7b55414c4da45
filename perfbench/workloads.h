// The four benchmark workloads. Each drives the program only through its
// public APIs (MicroVm, GuestMemory + DirectLoadKernel, BootSupervisor and
// the cache/pool/governor objects) and records one OpRecord per boot or
// launch; the caller turns those into metrics.
#ifndef IMKBENCH_WORKLOADS_H_
#define IMKBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/isa/block_cache.h"
#include "src/isa/interpreter.h"
#include "src/kernel/kernel_builder.h"
#include "src/verify/layout_uniqueness.h"
#include "src/vmm/disk_model.h"
#include "src/vmm/image_template.h"
#include "src/vmm/layout_pool.h"
#include "src/vmm/loader.h"
#include "src/vmm/mem_governor.h"
#include "src/vmm/microvm.h"

namespace imkbench {

enum class Workload { kFleetBoot, kFleetLaunch, kSingleBoot, kChurn };

// Every workload boots the AWS-profile kernel at this scale with one loader
// lane into 256 MiB guests.
inline constexpr double kScale = 0.25;
inline constexpr uint64_t kGuestBytes = 256ull << 20;
// Boot/launch workers of the fleet and churn workloads: concurrent enough to
// share caches, and few enough to leave cores for the host's other load.
inline constexpr uint32_t kFleetWorkers = 2;

// CPU time the process has used, user + system, all threads. Time a thread
// spends waiting for a core is not in it.
double CpuSeconds();

const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* out);
// True for the workloads whose layouts depend only on the seed (not the
// churn workload, whose pooled layouts depend on scheduling).
bool Deterministic(Workload workload);

struct BenchConfig {
  Workload workload = Workload::kFleetBoot;
  uint64_t seed = 1;
  double seconds = 10;
  double churn_rate = 0;  // offered arrivals per second (churn only)
  uint32_t nproc = 1;
  // Boot/launch workers: kFleetWorkers, or 1 for single-boot.
  uint32_t workers() const;
};

// One boot or launch.
struct OpRecord {
  uint64_t index = 0;  // position in the seed stream
  uint64_t seed = 0;
  bool ok = false;     // completed and verified
  std::string error;
  uint64_t start_ns = 0;     // steady clock: construction, or due time (open loop)
  uint64_t end_ns = 0;       // steady clock: teardown finished
  uint64_t latency_ns = 0;   // start_ns .. verified result
  uint64_t queue_ns = 0;     // open loop: due time .. worker pickup
  double probe_ms = 0;       // median of the worker's latest reference probes
  uint64_t cpu_ns = 0;       // CPU time of the op's thread over the latency interval
                             // (from pickup in the open loop)
  uint64_t create_ns = 0;    // MicroVm / GuestMemory construction
  uint64_t call_ns = 0;      // Boot() / DirectLoadKernel / BootSupervisor::Run
  uint64_t teardown_ns = 0;  // VM / memory destruction
  uint64_t resident_bytes = 0;
  imk::LayoutIdentity layout;
  // The stage split the program returned.
  uint64_t monitor_ns = 0;     // timeline In-Monitor, measured
  uint64_t guest_ns = 0;       // timeline Linux Boot, measured
  uint64_t modeled_io_ns = 0;  // timeline, modeled storage I/O (simulated)
  imk::LoaderTimings loader;
  imk::LoaderMemStats mem;
  imk::ExecStats guest;
  uint64_t image_dirty_frames = 0;  // traced phase only: frame census at op end
  bool pool_hit = false;
  uint32_t attempts = 0;  // supervised only
  uint32_t watchdog_trips = 0;
};

// Layer counters sampled around a measured window.
struct LayerCounters {
  uint64_t template_hits = 0;
  uint64_t template_misses = 0;
  uint64_t template_quarantined = 0;
  imk::SharedBlockCache::Stats decode;
  imk::LayoutPool::Stats pool;
  imk::MemGovernor::Stats governor;
};

struct PhaseResult {
  std::vector<OpRecord> ops;  // in seed-stream order
  double window_s = 0;        // window start .. last completion
  double cpu_s = 0;           // process user + system CPU over the window, minus probes
  uint64_t peak_rss_bytes = 0;
  LayerCounters before;
  LayerCounters after;
  // Open loop only.
  std::vector<uint32_t> backlog;  // queue length at each arrival
  std::vector<double> gen_lag_ms;
  bool over_capacity = false;
  // CPU time of each reference probe the workers ran between operations.
  std::vector<uint64_t> probe_ns;
  // Trace events dropped ring-full (traced phase only).
  uint64_t trace_dropped = 0;
};

// One workload's set-up state: kernel, storage, warm caches, pool,
// governor. Construction is the timed set-up.
class Fixture {
 public:
  // Returns null and sets *error on a set-up failure.
  static std::unique_ptr<Fixture> Create(const BenchConfig& config, std::string* error);
  ~Fixture();
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  // Runs one measured window. `traced` turns the imktrace tracer on for the
  // window and records the benchmark's own spans.
  PhaseResult Run(bool traced);

  // Correctness checks that run outside the timed window: layout
  // uniqueness (fgkaslr workloads) and, for the launch workload, re-launches
  // of sampled seeds verified with VerifyImage. Returns "" when clean.
  std::string CheckOutsideWindow(const PhaseResult& phase);

  const BenchConfig& config() const { return config_; }

 private:
  explicit Fixture(const BenchConfig& config) : config_(config) {}
  std::string SetUp();
  imk::MicroVmConfig VmConfig(imk::RandoMode rando, uint64_t seed) const;
  OpRecord BootOp(uint32_t worker, uint64_t index, bool traced);
  OpRecord LaunchOp(uint64_t index, bool traced);
  OpRecord ChurnOp(uint32_t worker, uint64_t index, uint64_t due_ns, bool traced);
  void RunClosedLoop(bool traced, PhaseResult* out);
  void RunOpenLoop(bool traced, PhaseResult* out);
  LayerCounters Sample() const;

  BenchConfig config_;
  imk::KernelBuildInfo kernel_;
  imk::Bytes relocs_blob_;
  uint64_t usable_mem_top_ = 0;  // device-model RAM floor (pool key)
  // The governor outlives every cache that charges it; the caches outlive
  // the pool that pins their templates; the refill executor outlives the
  // pool (declaration order = reverse destruction order).
  std::unique_ptr<imk::MemGovernor> governor_;
  std::vector<std::unique_ptr<imk::Storage>> storages_;  // one per worker
  imk::ImageTemplateCache cache_;
  std::unique_ptr<imk::SharedBlockCache> shared_blocks_;
  std::unique_ptr<imk::ThreadPool> refill_;
  std::unique_ptr<imk::LayoutPool> pool_;
  std::vector<imk::Reclaimable*> tiers_;  // registered with governor_
  // Template counters of the per-boot caches single-boot throws away.
  std::atomic<uint64_t> fresh_template_hits_{0};
  std::atomic<uint64_t> fresh_template_misses_{0};
};

}  // namespace imkbench

#endif  // IMKBENCH_WORKLOADS_H_
