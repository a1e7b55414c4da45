#include "perfbench/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "perfbench/arith.h"
#include "perfbench/reference.h"
#include "src/base/stopwatch.h"
#include "src/trace/trace.h"
#include "src/verify/image_verifier.h"
#include "src/vmm/boot_supervisor.h"
#include "src/vmm/device_model.h"
#include "src/vmm/microvm.h"

namespace imkbench {
namespace {

using imk::MonotonicNowNs;
namespace trace = imk::trace;

// A p90 needs 100 samples (10 beyond it); a closed loop keeps starting
// operations past the window until it has them.
constexpr uint64_t kMinOps = 100;
// The open loop offers at least as many arrivals, stretching its window at
// the fixed rate.
constexpr double kMinArrivals = kMinOps;
// Seed-stream offsets: measured operation i uses DeriveSeed(seed, i); set-up
// draws from ranges far past anything a window reaches.
constexpr uint64_t kWarmupStream = 1ull << 40;
constexpr uint64_t kPoolStream = 1ull << 41;
// Launches per worker that warm the template cache before the window.
constexpr uint32_t kWarmupBootsPerWorker = 2;
constexpr uint32_t kWarmupLaunchesPerWorker = 8;
// Churn: pool depth and refill batch (SetUp sizes the watermarks), the
// supervisor's watchdog and the admission wait.
constexpr uint32_t kPoolDepth = 8;
constexpr uint32_t kPoolRefillBatch = 2;
constexpr uint64_t kSupervisorWatchdogMs = 10000;
constexpr uint64_t kAdmitWaitMs = 2000;
// Fleet-launch images re-verified after the window.
constexpr size_t kVerifySamples = 8;
// Reference probes per worker: at most one per this interval.
constexpr uint64_t kProbeIntervalNs = 100'000'000;
constexpr size_t kLocalProbes = 5;
// Trace ring per emitting thread (~48 bytes/event).
constexpr uint32_t kTraceRingEvents = 256 * 1024;

// Resets the kernel's peak-RSS mark so VmHWM covers only what follows.
// Returns false where /proc does not allow it (VmHWM then covers the whole
// process).
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

uint64_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

// Private frames inside the kernel-image window at the end of an operation.
uint64_t ImageDirtyFrames(const imk::FrameStore& frames, uint64_t phys_base,
                          uint64_t image_frames) {
  const uint64_t first = phys_base / imk::FrameStore::kFrameBytes;
  uint64_t dirty = 0;
  for (uint64_t f = 0; f < image_frames; ++f) {
    dirty += frames.StateOf(first + f) == imk::FrameStore::FrameState::kDirty ? 1 : 0;
  }
  return dirty;
}

// Copies what a finished boot reports into `r`, plus the VM's resident bytes
// and, when `census` is set, its private image frames.
void RecordBoot(const imk::BootReport& report, const imk::GuestMemory& memory, bool census,
                OpRecord* r) {
  r->layout.virt_slide = report.choice.virt_slide;
  r->layout.phys_load_addr = report.choice.phys_load_addr;
  r->layout.fg_digest = report.fg_digest;
  r->monitor_ns = report.timeline.measured_ns(imk::BootPhase::kInMonitor);
  r->guest_ns = report.timeline.measured_ns(imk::BootPhase::kLinuxBoot);
  r->modeled_io_ns = report.timeline.modeled_ns(imk::BootPhase::kInMonitor);
  r->loader = report.loader_timings;
  r->mem = report.mem;
  r->guest = report.guest_stats;
  r->pool_hit = report.layout_pool_hit;
  r->resident_bytes = memory.dirty_bytes();
  if (census) {
    r->image_dirty_frames =
        ImageDirtyFrames(memory.frames(), report.choice.phys_load_addr, report.mem.image_frames);
  }
}

// Runs the reference probe on a worker thread between operations, at most
// once per kProbeIntervalNs, and gives each operation the median of the
// thread's latest kLocalProbes probes.
class Prober {
 public:
  // Call after each operation.
  void Tick(OpRecord* r) {
    if (MonotonicNowNs() - last_ns_ >= kProbeIntervalNs) {
      samples_.push_back(RunProbe());
      last_ns_ = MonotonicNowNs();
    }
    const size_t n = std::min(samples_.size(), kLocalProbes);
    r->probe_ms = MedianProbeMs(std::vector<uint64_t>(samples_.end() - n, samples_.end()));
  }
  // Appends the samples to `out`; the caller holds the phase's lock.
  void MoveTo(PhaseResult* out) {
    out->probe_ns.insert(out->probe_ns.end(), samples_.begin(), samples_.end());
    samples_.clear();
  }

 private:
  uint64_t last_ns_ = 0;
  std::vector<uint64_t> samples_;
};

// Steady-clock time `ns` on the tracer's clock (ns since its Start()).
uint64_t TracerNs(uint64_t ns) {
  const uint64_t offset = MonotonicNowNs() - trace::Tracer::Instance().NowNs();
  return ns > offset ? ns - offset : 1;
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kFleetBoot:
      return "fleet-boot-kaslr";
    case Workload::kFleetLaunch:
      return "fleet-launch-fgkaslr";
    case Workload::kSingleBoot:
      return "single-boot-fgkaslr";
    case Workload::kChurn:
      return "churn-pooled-fgkaslr";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kFleetBoot, Workload::kFleetLaunch, Workload::kSingleBoot,
                     Workload::kChurn}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

bool Deterministic(Workload workload) { return workload != Workload::kChurn; }

uint32_t BenchConfig::workers() const {
  return workload == Workload::kSingleBoot ? 1 : kFleetWorkers;
}

std::unique_ptr<Fixture> Fixture::Create(const BenchConfig& config, std::string* error) {
  std::unique_ptr<Fixture> fixture(new Fixture(config));
  *error = fixture->SetUp();
  if (!error->empty()) {
    return nullptr;
  }
  return fixture;
}

Fixture::~Fixture() {
  for (imk::Reclaimable* tier : tiers_) {
    governor_->UnregisterReclaimable(tier);
  }
}

std::string Fixture::SetUp() {
  const Workload w = config_.workload;
  const imk::RandoMode rando =
      w == Workload::kFleetBoot ? imk::RandoMode::kKaslr : imk::RandoMode::kFgKaslr;
  imk::Result<imk::KernelBuildInfo> built =
      imk::BuildKernel(imk::KernelConfig::Make(imk::KernelProfile::kAws, rando, kScale));
  if (!built.ok()) {
    return "kernel build: " + built.status().ToString();
  }
  kernel_ = std::move(built).value();
  relocs_blob_ = imk::SerializeRelocs(kernel_.relocs);
  const uint64_t image_bytes = kernel_.image_end_vaddr - kernel_.text_vaddr;
  for (uint32_t t = 0; t < config_.workers(); ++t) {
    auto storage = std::make_unique<imk::Storage>();
    storage->Put("vmlinux", kernel_.vmlinux);  // freshly written images are page-cached
    storage->Put("vmlinux.relocs", relocs_blob_);
    storages_.push_back(std::move(storage));
  }
  {
    // The boot path bounds the slide by the device model's RAM reservation;
    // the pool must be keyed with the same floor or every grab misses.
    imk::GuestMemory scratch(kGuestBytes);
    imk::Result<imk::DeviceModel> probe =
        imk::DeviceModel::Create(scratch, imk::DeviceModelConfig::Firecracker());
    if (!probe.ok()) {
      return "device model probe: " + probe.status().ToString();
    }
    usable_mem_top_ = probe->reserved_floor_phys();
  }

  if (w == Workload::kChurn) {
    // Working set: two guests, one template image and the full pool. The
    // soft watermark is one guest, the template and half the pool, so a boot
    // admitted while the other guest is resident makes the ladder shed pool
    // renders, and the pool alone can always bring usage back under it. The
    // hard watermark at twice that never has to reject an admission. A probe
    // boot, before any accounting, measures a guest's resident size.
    imk::ImageTemplateCache probe_cache;
    imk::MicroVmConfig probe_config = VmConfig(imk::RandoMode::kFgKaslr, 1);
    probe_config.template_cache = &probe_cache;
    imk::MicroVm probe(*storages_[0], probe_config);
    imk::Result<imk::BootReport> booted = probe.Boot();
    if (!booted.ok()) {
      return "probe boot: " + booted.status().ToString();
    }
    const uint64_t soft = probe.memory().dirty_bytes() + (1 + kPoolDepth / 2) * image_bytes;
    imk::MemGovernorOptions options;
    options.budget_bytes = 2 * soft;
    options.soft_pct = 0.5;
    governor_ = std::make_unique<imk::MemGovernor>(options);
    cache_.set_accountant(governor_->shared_accountant(imk::MemCategory::kTemplateImages));
  }
  // Churn runs without the shared decode tier. Its fgkaslr boots never hit
  // it across VMs, and with the tier attached, governed usage grew by about
  // an image per boot and the ladder kept falling through to the template
  // tier, which made boot latency spread by up to 30% between runs.
  if (w == Workload::kFleetBoot) {
    shared_blocks_ = std::make_unique<imk::SharedBlockCache>();
  }

  // Warm-up: fill the template cache, the storage page-cache models and the
  // shared decode tier with seeds outside the measured stream.
  const uint32_t workers = config_.workers();
  std::vector<std::thread> threads;
  std::vector<OpRecord> warm(workers);
  const uint32_t per_worker =
      w == Workload::kFleetLaunch ? kWarmupLaunchesPerWorker : kWarmupBootsPerWorker;
  for (uint32_t t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      for (uint32_t k = 0; k < per_worker; ++k) {
        const uint64_t index = kWarmupStream + t * per_worker + k;
        OpRecord r = w == Workload::kFleetLaunch ? LaunchOp(index, false)
                     : w == Workload::kChurn     ? ChurnOp(t, index, MonotonicNowNs(), false)
                                                 : BootOp(t, index, false);
        if (!r.ok) {
          warm[t] = std::move(r);
          return;
        }
        warm[t].ok = true;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const OpRecord& r : warm) {
    if (!r.ok) {
      return "warm-up " + std::string(WorkloadName(w)) + ": " + r.error;
    }
  }

  if (w == Workload::kChurn) {
    // Built from the warm cache entry, like a storm's pool, so pool and
    // boots share one template identity; prefilled before the window.
    imk::Result<std::shared_ptr<const imk::ImageTemplate>> tmpl =
        cache_.GetOrBuild(imk::ByteSpan(kernel_.vmlinux), imk::TemplateOptions());
    if (!tmpl.ok()) {
      return "pool template: " + tmpl.status().ToString();
    }
    imk::DirectBootParams params;
    params.requested = imk::RandoMode::kFgKaslr;
    params.usable_mem_limit = usable_mem_top_;
    imk::LayoutPoolOptions options;
    options.depth = kPoolDepth;
    options.refill_batch = kPoolRefillBatch;
    options.seed = DeriveSeed(config_.seed, kPoolStream);
    options.accountant = governor_->shared_accountant(imk::MemCategory::kLayoutRenders);
    refill_ = std::make_unique<imk::ThreadPool>(2);  // one refill thread
    options.refill_pool = refill_.get();
    pool_ = std::make_unique<imk::LayoutPool>(*tmpl, kernel_.relocs, params, usable_mem_top_,
                                              options);
    // The storm's ladder order (pool renders first, template images last;
    // there is no decode tier here).
    const std::pair<imk::Reclaimable*, uint32_t> tiers[] = {{pool_.get(), 0}, {&cache_, 2}};
    for (const auto& [tier, priority] : tiers) {
      governor_->RegisterReclaimable(tier, priority);
      tiers_.push_back(tier);
    }
    const imk::Status prefill = pool_->Prefill(kPoolDepth);
    if (!prefill.ok()) {
      return "pool prefill: " + prefill.ToString();
    }
    pool_->WaitIdle();
  }
  return "";
}

imk::MicroVmConfig Fixture::VmConfig(imk::RandoMode rando, uint64_t seed) const {
  imk::MicroVmConfig config;
  config.mem_size_bytes = kGuestBytes;
  config.kernel_image = "vmlinux";
  config.relocs_image = "vmlinux.relocs";
  config.rando = rando;
  config.seed = seed;
  config.load_threads = 1;
  return config;
}

OpRecord Fixture::BootOp(uint32_t worker, uint64_t index, bool traced) {
  OpRecord r;
  r.index = index;
  r.seed = DeriveSeed(config_.seed, index);
  const bool single = config_.workload == Workload::kSingleBoot;
  imk::MicroVmConfig vm_config =
      VmConfig(single ? imk::RandoMode::kFgKaslr : imk::RandoMode::kKaslr, r.seed);
  // Single boots pay the stock cold path: a fresh template cache each boot
  // and no shared decode tier.
  auto fresh_cache = single ? std::make_unique<imk::ImageTemplateCache>() : nullptr;
  vm_config.template_cache = single ? fresh_cache.get() : &cache_;
  vm_config.shared_block_cache = shared_blocks_.get();

  trace::TraceVmScope vm_scope(static_cast<uint32_t>(index));
  trace::ScopedSpan launch("bench", "launch");
  r.start_ns = MonotonicNowNs();
  const uint64_t cpu_start = ThreadCpuNs();
  std::unique_ptr<imk::MicroVm> vm;
  {
    trace::ScopedSpan span("bench", "microvm.create");
    vm = std::make_unique<imk::MicroVm>(*storages_[worker], vm_config);
  }
  const uint64_t created = MonotonicNowNs();
  imk::Result<imk::BootReport> report = [&] {
    trace::ScopedSpan span("bench", "microvm.boot");
    return vm->Boot();
  }();
  const uint64_t booted = MonotonicNowNs();
  if (!report.ok()) {
    r.error = report.status().ToString();
  } else if (!report->init_done || report->init_checksum != kernel_.expected_checksum) {
    r.error = "init checksum mismatch";
  } else {
    r.ok = true;
  }
  r.create_ns = created - r.start_ns;
  r.call_ns = booted - created;
  r.latency_ns = MonotonicNowNs() - r.start_ns;
  r.cpu_ns = ThreadCpuNs() - cpu_start;
  if (report.ok()) {
    RecordBoot(*report, vm->memory(), traced, &r);
  }
  if (single) {
    fresh_template_misses_.fetch_add(fresh_cache->misses(), std::memory_order_relaxed);
    fresh_template_hits_.fetch_add(fresh_cache->hits(), std::memory_order_relaxed);
  }
  const uint64_t teardown_start = MonotonicNowNs();
  {
    trace::ScopedSpan span("bench", "microvm.teardown");
    vm.reset();
    fresh_cache.reset();
  }
  r.end_ns = MonotonicNowNs();
  r.teardown_ns = r.end_ns - teardown_start;
  return r;
}

OpRecord Fixture::LaunchOp(uint64_t index, bool traced) {
  OpRecord r;
  r.index = index;
  r.seed = DeriveSeed(config_.seed, index);
  imk::DirectBootParams params;
  params.requested = imk::RandoMode::kFgKaslr;
  imk::DirectLoadResources resources;
  resources.cache = &cache_;

  trace::TraceVmScope vm_scope(static_cast<uint32_t>(index));
  trace::ScopedSpan launch("bench", "launch");
  r.start_ns = MonotonicNowNs();
  const uint64_t cpu_start = ThreadCpuNs();
  std::unique_ptr<imk::GuestMemory> memory;
  {
    trace::ScopedSpan span("bench", "microvm.create");
    memory = std::make_unique<imk::GuestMemory>(kGuestBytes);
  }
  const uint64_t created = MonotonicNowNs();
  imk::Rng rng(r.seed);
  std::optional<imk::Result<imk::LoadedKernel>> result;
  {
    trace::ScopedSpan span("bench", "loader.call");
    result.emplace(imk::DirectLoadKernel(*memory, imk::ByteSpan(kernel_.vmlinux),
                                         &kernel_.relocs, params, rng, resources));
  }
  const imk::Result<imk::LoadedKernel>& loaded = *result;
  const uint64_t done = MonotonicNowNs();
  r.cpu_ns = ThreadCpuNs() - cpu_start;
  r.create_ns = created - r.start_ns;
  r.call_ns = done - created;
  r.latency_ns = done - r.start_ns;
  if (!loaded.ok()) {
    r.error = loaded.status().ToString();
  } else {
    r.ok = true;
    r.layout.virt_slide = loaded->choice.virt_slide;
    r.layout.phys_load_addr = loaded->choice.phys_load_addr;
    r.layout.fg_digest = loaded->fg.has_value() ? loaded->fg->map.PermutationDigest() : 0;
    r.loader = loaded->timings;
    r.mem = loaded->mem;
    r.resident_bytes = memory->dirty_bytes();
    if (traced) {
      r.image_dirty_frames = ImageDirtyFrames(memory->frames(), loaded->choice.phys_load_addr,
                                              loaded->mem.image_frames);
    }
  }
  const uint64_t teardown_start = MonotonicNowNs();
  {
    trace::ScopedSpan span("bench", "microvm.teardown");
    result.reset();
    memory.reset();
  }
  r.end_ns = MonotonicNowNs();
  r.teardown_ns = r.end_ns - teardown_start;
  return r;
}

OpRecord Fixture::ChurnOp(uint32_t worker, uint64_t index, uint64_t due_ns, bool traced) {
  OpRecord r;
  r.index = index;
  r.seed = DeriveSeed(config_.seed, index);
  r.start_ns = due_ns;
  const uint64_t pickup = MonotonicNowNs();
  const uint64_t cpu_start = ThreadCpuNs();
  r.queue_ns = pickup > due_ns ? pickup - due_ns : 0;

  imk::MicroVmConfig vm_config = VmConfig(imk::RandoMode::kFgKaslr, r.seed);
  vm_config.template_cache = &cache_;
  vm_config.shared_block_cache = shared_blocks_.get();
  vm_config.mem_governor = governor_.get();
  vm_config.layout_pool = pool_.get();  // null during warm-up
  imk::SupervisorOptions sup_options;
  sup_options.policy = imk::DegradePolicy::kStrict;
  sup_options.expected_checksum = kernel_.expected_checksum;
  sup_options.watchdog_wall_ms = kSupervisorWatchdogMs;
  sup_options.admit_wait_ms = kAdmitWaitMs;

  trace::TraceVmScope vm_scope(static_cast<uint32_t>(index));
  // The launch and queue spans start at the due time, before this thread
  // picked the arrival up, so they are emitted by hand around the scoped
  // children.
  const bool spans = traced && trace::Tracer::enabled();
  const uint16_t depth = spans ? trace::EnterSpanDepth() : 0;
  const uint64_t due_trace_ns = spans ? TracerNs(due_ns) : 0;
  if (spans) {
    trace::Tracer::Instance().EmitSpan("bench", "bench.queue", due_trace_ns,
                                       static_cast<uint16_t>(depth + 1));
  }
  auto supervisor =
      std::make_unique<imk::BootSupervisor>(*storages_[worker], vm_config, sup_options);
  imk::BootOutcome outcome = [&] {
    trace::ScopedSpan span("bench", "supervisor.run");
    return supervisor->Run();
  }();
  r.call_ns = MonotonicNowNs() - pickup;
  r.attempts = outcome.attempts;
  r.watchdog_trips = outcome.watchdog_trips;
  if (outcome.attempts != outcome.history.size()) {
    r.error = "supervisor accounting: attempts != recorded attempts";
  } else if (!outcome.ok) {
    r.error = outcome.final_status.ToString();
  } else if (outcome.degradations > 0) {
    r.error = "strict policy degraded a boot";
  } else if (!outcome.report.has_value() || !outcome.report->init_done ||
             outcome.report->init_checksum != kernel_.expected_checksum) {
    r.error = "init checksum mismatch";
  } else {
    r.ok = true;
  }
  r.latency_ns = MonotonicNowNs() - due_ns;
  r.cpu_ns = ThreadCpuNs() - cpu_start;
  if (outcome.report.has_value()) {
    RecordBoot(*outcome.report, supervisor->vm()->memory(), traced, &r);
  }
  const uint64_t teardown_start = MonotonicNowNs();
  {
    trace::ScopedSpan span("bench", "microvm.teardown");
    supervisor.reset();
  }
  r.end_ns = MonotonicNowNs();
  r.teardown_ns = r.end_ns - teardown_start;
  if (spans) {
    trace::LeaveSpanDepth();
    trace::Tracer::Instance().EmitSpan("bench", "launch", due_trace_ns, depth);
  }
  return r;
}

LayerCounters Fixture::Sample() const {
  LayerCounters c;
  c.template_hits = cache_.hits() + fresh_template_hits_.load(std::memory_order_relaxed);
  c.template_misses = cache_.misses() + fresh_template_misses_.load(std::memory_order_relaxed);
  c.template_quarantined = cache_.quarantined();
  if (shared_blocks_ != nullptr) {
    c.decode = shared_blocks_->stats();
  }
  if (pool_ != nullptr) {
    c.pool = pool_->stats();
  }
  if (governor_ != nullptr) {
    c.governor = governor_->stats();
  }
  return c;
}

PhaseResult Fixture::Run(bool traced) {
  PhaseResult out;
  if (traced) {
    trace::TracerOptions options;
    options.ring_capacity = kTraceRingEvents;
    trace::Tracer::Instance().Start(options);
  }
  ResetPeakRss();
  out.before = Sample();
  const double cpu_before = CpuSeconds();
  if (config_.workload == Workload::kChurn) {
    RunOpenLoop(traced, &out);
  } else {
    RunClosedLoop(traced, &out);
  }
  out.cpu_s = CpuSeconds() - cpu_before;
  for (uint64_t ns : out.probe_ns) {
    out.cpu_s -= static_cast<double>(ns) / 1e9;
  }
  out.peak_rss_bytes = PeakRssBytes();
  if (pool_ != nullptr) {
    pool_->WaitIdle();  // refill work the window triggered belongs to it
  }
  out.after = Sample();
  if (traced) {
    trace::Tracer::Instance().Stop();
    out.trace_dropped = trace::Tracer::Instance().dropped();
  }
  std::sort(out.ops.begin(), out.ops.end(),
            [](const OpRecord& a, const OpRecord& b) { return a.index < b.index; });
  return out;
}

void Fixture::RunClosedLoop(bool traced, PhaseResult* out) {
  const uint32_t workers = config_.workers();
  std::atomic<uint64_t> next{0};
  std::mutex mu;
  const uint64_t t0 = MonotonicNowNs();
  const auto deadline = t0 + static_cast<uint64_t>(config_.seconds * 1e9);
  const auto body = [&](uint32_t worker) {
    Prober prober;
    for (;;) {
      if (MonotonicNowNs() >= deadline && next.load(std::memory_order_relaxed) >= kMinOps) {
        break;
      }
      const uint64_t index = next.fetch_add(1, std::memory_order_relaxed);
      OpRecord r = config_.workload == Workload::kFleetLaunch ? LaunchOp(index, traced)
                                                              : BootOp(worker, index, traced);
      prober.Tick(&r);
      std::lock_guard<std::mutex> lock(mu);
      out->ops.push_back(std::move(r));
    }
    std::lock_guard<std::mutex> lock(mu);
    prober.MoveTo(out);
  };
  // The calling thread is worker 0, so the workload uses `workers` threads.
  std::vector<std::thread> threads;
  for (uint32_t w = 1; w < workers; ++w) {
    threads.emplace_back(body, w);
  }
  body(0);
  for (std::thread& thread : threads) {
    thread.join();
  }
  uint64_t last = t0;
  for (const OpRecord& r : out->ops) {
    last = std::max(last, r.end_ns);
  }
  out->window_s = static_cast<double>(last - t0) / 1e9;
}

void Fixture::RunOpenLoop(bool traced, PhaseResult* out) {
  const uint32_t workers = config_.workers();
  const double window_s = std::max(config_.seconds, kMinArrivals / config_.churn_rate);
  const std::vector<double> due = ArrivalSchedule(config_.seed, config_.churn_rate, window_s);
  struct Arrival {
    uint64_t index;
    uint64_t due_ns;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Arrival> queue;
  bool closed = false;
  std::vector<std::thread> threads;
  for (uint32_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      Prober prober;
      for (;;) {
        Arrival a{};
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return closed || !queue.empty(); });
          if (queue.empty()) {
            prober.MoveTo(out);
            return;
          }
          a = queue.front();
          queue.pop_front();
        }
        OpRecord r = ChurnOp(w, a.index, a.due_ns, traced);
        prober.Tick(&r);
        std::lock_guard<std::mutex> lock(mu);
        out->ops.push_back(std::move(r));
      }
    });
  }
  // The calling thread is the generator: it sleeps to each due time and
  // never waits for a completion.
  const uint64_t t0 = MonotonicNowNs() + 20'000'000;
  for (size_t k = 0; k < due.size(); ++k) {
    const uint64_t due_ns = t0 + static_cast<uint64_t>(due[k] * 1e9);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due_ns)));
    const uint64_t now = MonotonicNowNs();
    out->gen_lag_ms.push_back(static_cast<double>(now > due_ns ? now - due_ns : 0) / 1e6);
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back({k, due_ns});
      out->backlog.push_back(static_cast<uint32_t>(queue.size()));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& thread : threads) {
    thread.join();
  }
  uint64_t last = t0;
  for (const OpRecord& r : out->ops) {
    last = std::max(last, r.end_ns);
  }
  out->window_s = static_cast<double>(last - t0) / 1e9;
  out->over_capacity = BacklogGrew(out->backlog, workers);
}

std::string Fixture::CheckOutsideWindow(const PhaseResult& phase) {
  if (config_.workload == Workload::kChurn && phase.ops.size() != phase.backlog.size()) {
    return "supervised outcomes (" + std::to_string(phase.ops.size()) + ") != arrivals (" +
           std::to_string(phase.backlog.size()) + ")";
  }
  // kaslr has a few hundred slide slots, so a window's worth of boots
  // collides by the birthday bound; only fgkaslr layouts must be unique.
  if (config_.workload != Workload::kFleetBoot) {
    std::vector<imk::LayoutIdentity> layouts;
    for (const OpRecord& r : phase.ops) {
      if (r.ok) {
        layouts.push_back(r.layout);
      }
    }
    const imk::VerifyReport report = imk::CheckLayoutUniqueness(layouts);
    if (!report.clean()) {
      return "layout uniqueness:\n" + report.ToString();
    }
  }
  if (config_.workload != Workload::kFleetLaunch || phase.ops.empty()) {
    return "";
  }
  // Re-launch sampled seeds and verify the images statically; the re-launch
  // must reproduce the layout the timed launch recorded.
  for (size_t s = 0; s < kVerifySamples; ++s) {
    const OpRecord& r = phase.ops[s * phase.ops.size() / kVerifySamples];
    if (!r.ok) {
      continue;
    }
    imk::GuestMemory memory(kGuestBytes);
    imk::DirectBootParams params;
    params.requested = imk::RandoMode::kFgKaslr;
    imk::Rng rng(r.seed);
    imk::Result<imk::LoadedKernel> loaded = imk::DirectLoadKernel(
        memory, imk::ByteSpan(kernel_.vmlinux), &kernel_.relocs, params, rng);
    if (!loaded.ok()) {
      return "verify re-launch: " + loaded.status().ToString();
    }
    const uint64_t digest = loaded->fg.has_value() ? loaded->fg->map.PermutationDigest() : 0;
    if (loaded->choice.virt_slide != r.layout.virt_slide ||
        loaded->choice.phys_load_addr != r.layout.phys_load_addr || digest != r.layout.fg_digest) {
      return "verify re-launch: seed " + std::to_string(r.seed) + " gave a different layout";
    }
    imk::Result<imk::Bytes> image =
        memory.CopyRange(loaded->choice.phys_load_addr, loaded->image_mem_size);
    if (!image.ok()) {
      return "verify copy: " + image.status().ToString();
    }
    imk::VerifyInput input;
    input.original_elf = imk::ByteSpan(kernel_.vmlinux);
    input.randomized = imk::ByteSpan(*image);
    input.base_vaddr = loaded->link_text_vaddr;
    input.relocs = &kernel_.relocs;
    input.map = loaded->fg.has_value() ? &loaded->fg->map : nullptr;
    input.choice = loaded->choice;
    input.guest_mem_size = kGuestBytes;
    input.kallsyms_deferred = loaded->fg.has_value() && loaded->fg->kallsyms_pending;
    imk::Result<imk::VerifyReport> report = imk::VerifyImage(input);
    if (!report.ok()) {
      return "VerifyImage: " + report.status().ToString();
    }
    if (!report->clean()) {
      return "VerifyImage seed " + std::to_string(r.seed) + ":\n" + report->ToString();
    }
  }
  return "";
}

}  // namespace imkbench
