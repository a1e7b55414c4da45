#include "src/vmm/boot_storm.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "src/base/align.h"
#include "src/base/fault_injection.h"
#include "src/base/stopwatch.h"
#include "src/race/drill.h"
#include "src/race/mutex.h"
#include "src/race/tracker.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/vmm/device_model.h"
#include "src/vmm/layout_pool.h"
#include "src/vmm/loader.h"
#include "src/vmm/microvm.h"

namespace imk {
namespace {

struct BootSample {
  uint64_t latency_ns = 0;
  uint64_t resident_bytes = 0;
  uint64_t image_dirty_frames = 0;
  uint64_t image_shared_frames = 0;
  // This VM's guest-run slice of the decode-cache counters (zero when the
  // block engine is off or the lane is launch-only).
  uint64_t block_cache_hits = 0;
  uint64_t block_cache_misses = 0;
  uint64_t block_cache_invalidations = 0;
  uint64_t blocks_shared = 0;
  uint64_t blocks_private = 0;
  // False for a supervised VM that exhausted its attempts: the failure is
  // tallied in OutcomeTally and the sample excluded from the latency/density
  // summaries (a never-booted VM has no meaningful boot latency).
  bool booted = true;
  // This VM's launch was served from the layout pool (pooled storms only).
  bool pool_hit = false;
  // Layout identity for the uniqueness check (options.keep_layouts).
  LayoutIdentity layout;
};

// Frame-state census of the kernel-image window after boot: how much of the
// image this VM privately materialized vs still aliases to the template.
void CensusImageFrames(const FrameStore& frames, uint64_t phys_base, uint64_t image_frames,
                       BootSample* sample) {
  constexpr uint64_t kFrame = FrameStore::kFrameBytes;
  const uint64_t first = AlignDown(phys_base, kFrame) / kFrame;
  for (uint64_t f = 0; f < image_frames; ++f) {
    switch (frames.StateOf(first + f)) {
      case FrameStore::FrameState::kDirty:
        ++sample->image_dirty_frames;
        break;
      case FrameStore::FrameState::kShared:
        ++sample->image_shared_frames;
        break;
      case FrameStore::FrameState::kZero:
        break;
    }
  }
}

// Every measured launch lands in exactly one of these buckets.
enum class LaunchBucket { kOkFirstTry, kOkRetried, kOkDegraded, kFailed, kRejectedMem };

LaunchBucket BucketOf(const BootOutcome& outcome) {
  if (!outcome.ok) {
    // A launch whose EVERY attempt bounced at the hard watermark never got
    // to boot at all: that is backpressure, not a boot failure.
    return outcome.attempts > 0 && outcome.mem_rejections == outcome.attempts
               ? LaunchBucket::kRejectedMem
               : LaunchBucket::kFailed;
  }
  if (outcome.degradations > 0) {
    return LaunchBucket::kOkDegraded;
  }
  return outcome.attempts > 1 ? LaunchBucket::kOkRetried : LaunchBucket::kOkFirstTry;
}

// Process-wide fleet counters, registered once. The storm's per-run tally
// and these cumulative counters are bumped by the same RecordLaunchOutcome
// call, so the two views can never drift.
struct StormMeters {
  static StormMeters& Get() {
    static StormMeters* meters = new StormMeters();
    return *meters;
  }
  trace::Counter* bucket_counter(LaunchBucket bucket) {
    switch (bucket) {
      case LaunchBucket::kOkFirstTry:
        return ok_first_try;
      case LaunchBucket::kOkRetried:
        return ok_retried;
      case LaunchBucket::kOkDegraded:
        return ok_degraded;
      case LaunchBucket::kFailed:
        return failed;
      case LaunchBucket::kRejectedMem:
        return rejected_mem;
    }
    return failed;
  }
  trace::Counter* ok_first_try;
  trace::Counter* ok_retried;
  trace::Counter* ok_degraded;
  trace::Counter* failed;
  trace::Counter* rejected_mem;
  trace::Counter* attempts;
  trace::Counter* watchdog_trips;
  trace::Counter* mem_rejected_attempts;

 private:
  StormMeters() {
    auto& reg = trace::MetricsRegistry::Global();
    ok_first_try = reg.counter("imk_storm_ok_first_try_total",
                               "launches that booted on the first attempt");
    ok_retried = reg.counter("imk_storm_ok_retried_total",
                             "launches that booted at the requested level after retries");
    ok_degraded = reg.counter("imk_storm_ok_degraded_total",
                              "launches that booted below the requested level");
    failed = reg.counter("imk_storm_failed_total",
                         "launches that exhausted every attempt the policy allowed");
    rejected_mem = reg.counter("imk_storm_rejected_mem_total",
                               "launches whose every attempt bounced at the hard watermark");
    attempts = reg.counter("imk_storm_attempts_total", "boot attempts across all launches");
    watchdog_trips = reg.counter("imk_storm_watchdog_trips_total", "watchdog-cancelled attempts");
    mem_rejected_attempts = reg.counter("imk_storm_mem_rejected_attempts_total",
                                        "attempt-level hard-watermark bounces");
  }
};

// The ONLY writer of the per-storm outcome buckets (callers hold the tally
// lock). RunBootStorm checks accounted() == launches once, at the end;
// every tally site funnels through here so that check covers them all.
void RecordLaunchOutcome(StormStats::OutcomeTally* tally, LaunchBucket bucket,
                         uint32_t launches, uint32_t attempts, uint32_t watchdog_trips,
                         uint32_t mem_rejected_attempts) {
  switch (bucket) {
    case LaunchBucket::kOkFirstTry:
      tally->ok_first_try += launches;
      break;
    case LaunchBucket::kOkRetried:
      tally->ok_retried += launches;
      break;
    case LaunchBucket::kOkDegraded:
      tally->ok_degraded += launches;
      break;
    case LaunchBucket::kFailed:
      tally->failed += launches;
      break;
    case LaunchBucket::kRejectedMem:
      tally->rejected_mem += launches;
      break;
  }
  tally->attempts_total += attempts;
  tally->watchdog_trips += watchdog_trips;
  tally->mem_rejected_attempts += mem_rejected_attempts;
  StormMeters& meters = StormMeters::Get();
  meters.bucket_counter(bucket)->Inc(launches);
  meters.attempts->Inc(attempts);
  meters.watchdog_trips->Inc(watchdog_trips);
  meters.mem_rejected_attempts->Inc(mem_rejected_attempts);
}

}  // namespace

Result<StormStats> RunBootStorm(ByteSpan vmlinux, ByteSpan relocs_blob,
                                const StormOptions& options) {
  if (options.vms == 0 || options.threads == 0) {
    return InvalidArgumentError("storm needs at least one VM and one thread");
  }
  const MicroVmConfig& spec = options.vm;
  if (spec.rando != RandoMode::kNone && relocs_blob.empty()) {
    return FailedPreconditionError("randomized storm needs relocation info (Figure 8)");
  }
  const uint32_t threads = std::min(options.threads, options.vms);
  // Churn: each VM slot launches-and-halts `cycles` times; every measured
  // launch gets its own seed (seed_base + launch index), so layouts stay
  // unique across cycles too.
  const uint32_t cycles = std::max(1u, options.churn_cycles);
  const uint32_t total_launches = options.vms * cycles;

  // Fleet memory governor, owned by the caller and so alive past every cache
  // below: cache teardown releases its charges into live adapters. Hooks are
  // unregistered by `hook_guard` below before any cache dies.
  MemGovernor* governor = spec.mem_governor;

  // A null template cache means one private to this storm, not the
  // process-global cache: each storm's hit/miss counts are its own.
  ImageTemplateCache local_cache;
  ImageTemplateCache& cache = spec.template_cache != nullptr ? *spec.template_cache : local_cache;
  const uint64_t hits_before = cache.hits();
  const uint64_t misses_before = cache.misses();
  const uint64_t quarantined_before = cache.quarantined();
  const uint64_t fires_before = FaultInjector::Instance().fires_total();

  // The page-cache model mutates per-read state, so each worker owns a
  // Storage; the bytes are identical, and the template cache recognizes them
  // by content hash regardless of which copy a lookup reads from.
  std::vector<std::unique_ptr<Storage>> storages;
  storages.reserve(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    auto storage = std::make_unique<Storage>();
    storage->Put("vmlinux", Bytes(vmlinux.begin(), vmlinux.end()));
    if (!relocs_blob.empty()) {
      storage->Put("vmlinux.relocs", Bytes(relocs_blob.begin(), relocs_blob.end()));
    }
    storages.push_back(std::move(storage));
  }

  // Launch-only boots bypass Storage and read the caller's span directly
  // (stable address -> the cache's span memo short-circuits the hash).
  RelocInfo relocs;
  const bool pool_enabled = spec.layout_pool_depth > 0 && spec.rando != RandoMode::kNone;
  if ((options.launch_only || pool_enabled) && !relocs_blob.empty()) {
    IMK_ASSIGN_OR_RETURN(relocs, ParseRelocs(relocs_blob));
  }

  // Layout pool, built AFTER the warm-up wave (see below); declared here so
  // the lanes can capture it, and declared after the refill executor so the
  // pool (which waits out in-flight renders) is destroyed first.
  std::optional<ThreadPool> refill_pool;
  std::unique_ptr<LayoutPool> layout_pool;

  // Storm-wide decode cache: every VM's block engine grabs blocks decoded
  // from shared template frames here instead of re-decoding them. Created
  // before the warm-up wave — the warm cache IS the fleet steady state the
  // measured window models, exactly like the template cache above.
  std::unique_ptr<SharedBlockCache> shared_blocks;
  if (spec.use_block_cache && !options.launch_only) {
    shared_blocks = std::make_unique<SharedBlockCache>();
  }

  // Reclamation-tier registration, torn down (in this guard's dtor, which
  // runs before any cache above it dies) so the governor's ladder never
  // walks into a destroyed cache. Tier order is the issue's ladder: shed the
  // cheapest-to-rebuild state first (pool renders), shared decode state
  // second, template images last.
  struct HookGuard {
    MemGovernor* governor = nullptr;
    std::vector<Reclaimable*> hooks;
    void Register(Reclaimable* hook, uint32_t priority) {
      if (governor == nullptr || hook == nullptr) {
        return;
      }
      governor->RegisterReclaimable(hook, priority);
      hooks.push_back(hook);
    }
    ~HookGuard() {
      if (governor == nullptr) {
        return;
      }
      for (Reclaimable* hook : hooks) {
        governor->UnregisterReclaimable(hook);
      }
    }
  } hook_guard;
  hook_guard.governor = governor;
  if (governor != nullptr) {
    cache.set_accountant(governor->shared_accountant(MemCategory::kTemplateImages));
    hook_guard.Register(&cache, /*priority=*/2);
    if (shared_blocks != nullptr) {
      shared_blocks->set_accountant(governor->shared_accountant(MemCategory::kDecodeTables));
      hook_guard.Register(shared_blocks.get(), /*priority=*/1);
    }
  }

  const auto make_config = [&](uint64_t seed) {
    MicroVmConfig config = spec;
    config.kernel_image = "vmlinux";
    config.relocs_image = relocs_blob.empty() ? "" : "vmlinux.relocs";
    config.seed = seed;
    config.template_cache = &cache;
    config.shared_block_cache = shared_blocks.get();
    // Null during warm-up (the pool is built from the warmed cache); the
    // measured window shares one pool across every VM. Depth 0 keeps a
    // warm-up VM from rendering a private pool of its own.
    config.layout_pool = layout_pool.get();
    config.layout_pool_depth = 0;
    return config;
  };

  race::Mutex error_mutex{race::LockRank::kStormError};
  Status first_error = OkStatus();
  const auto record_error = [&](Status status) {
    std::lock_guard<race::Mutex> lock(error_mutex);
    IMK_RACE_SHARED_WRITE("storm.first_error", &first_error, 0, kStormError);
    if (first_error.ok()) {
      first_error = std::move(status);
    }
  };

  StormStats stats;
  stats.vms = options.vms;
  stats.threads = threads;
  stats.launches = total_launches;
  std::vector<BootSample> samples(total_launches);
  if (options.keep_kernel_regions) {
    stats.kernel_regions.resize(total_launches);
  }
  std::atomic<uint64_t> image_frames{0};
  std::atomic<uint64_t> image_bytes{0};

  // The one place a finished launch becomes a sample, for every lane.
  // Stored from warm-up boots too: the admission gate sizes a launch by the
  // last observed image span.
  const auto capture = [&](GuestMemory& memory, const BootReport& report, uint64_t latency_ns,
                           BootSample* sample) {
    image_frames.store(report.mem.image_frames, std::memory_order_relaxed);
    image_bytes.store(report.mem.image_frames * FrameStore::kFrameBytes,
                      std::memory_order_relaxed);
    if (sample == nullptr) {
      return;
    }
    sample->latency_ns = latency_ns;
    sample->resident_bytes = memory.dirty_bytes();
    sample->pool_hit = report.layout_pool_hit;
    sample->layout.virt_slide = report.choice.virt_slide;
    sample->layout.phys_load_addr = report.choice.phys_load_addr;
    sample->layout.fg_digest = report.fg_digest;
    sample->block_cache_hits = report.guest_stats.block_cache_hits;
    sample->block_cache_misses = report.guest_stats.block_cache_misses;
    sample->block_cache_invalidations = report.guest_stats.block_cache_invalidations;
    sample->blocks_shared = report.guest_stats.blocks_shared;
    sample->blocks_private = report.guest_stats.blocks_private;
    CensusImageFrames(memory.frames(), report.choice.phys_load_addr, report.mem.image_frames,
                      sample);
  };

  // Launch lane: the monitor-side launch pipeline only (what the host pays
  // per VM), straight through DirectLoadKernel against a fresh CoW memory.
  const DirectBootParams launch_params = DirectBootParamsFor(spec, /*usable_mem_limit=*/0);
  const auto launch_one = [&](uint64_t seed, BootSample* sample,
                              Bytes* kernel_region) -> Status {
    GuestMemory memory(spec.mem_size_bytes);
    if (governor != nullptr) {
      // Launch-only VMs bypass MicroVm, so charge their dirty frames here.
      memory.frames().set_accountant(governor->shared_accountant(MemCategory::kGuestFrames));
    }
    Rng rng(seed);
    DirectLoadResources resources;
    if (spec.use_template_cache) {
      resources.cache = &cache;
    }
    resources.layout_pool = layout_pool.get();
    const RelocInfo* relocs_ptr = relocs.empty() ? nullptr : &relocs;
    Stopwatch timer;
    IMK_ASSIGN_OR_RETURN(
        LoadedKernel loaded,
        DirectLoadKernel(memory, vmlinux, relocs_ptr, launch_params, rng, resources));
    const uint64_t latency_ns = timer.ElapsedNs();
    // The monitor's report of a launch that ran no guest.
    BootReport report;
    report.choice = loaded.choice;
    report.mem = loaded.mem;
    report.layout_pool_hit = loaded.layout_pool_hit;
    report.fg_digest = loaded.fg.has_value() ? loaded.fg->map.PermutationDigest() : 0;
    capture(memory, report, latency_ns, sample);
    if (kernel_region != nullptr) {
      IMK_ASSIGN_OR_RETURN(
          *kernel_region, memory.CopyRange(loaded.choice.phys_load_addr, loaded.image_mem_size));
    }
    return OkStatus();
  };

  // Full lane: Boot() through the monitor, guest init included, checksum
  // verified — the correctness and density view of the same storm. A
  // supervised boot runs through BootSupervisor instead: per-VM failures
  // become tallies, not storm aborts.
  const bool supervise = options.supervise && !options.launch_only;
  race::Mutex tally_mutex{race::LockRank::kStormTally};
  const auto boot_one = [&](Storage& storage, uint64_t seed, BootSample* sample,
                            Bytes* kernel_region, bool measured) -> Status {
    if (options.launch_only) {
      return launch_one(seed, sample, kernel_region);
    }
    std::optional<MicroVm> plain_vm;
    std::optional<BootSupervisor> supervisor;
    MicroVm* vm = nullptr;
    BootReport report;
    uint64_t latency_ns = 0;
    if (supervise) {
      supervisor.emplace(storage, make_config(seed), options.supervisor);
      Stopwatch timer;
      BootOutcome outcome = supervisor->Run();
      latency_ns = timer.ElapsedNs();
      if (measured) {
        std::lock_guard<race::Mutex> lock(tally_mutex);
        IMK_RACE_SHARED_WRITE("supervisor.outcomes", &stats, 0, kStormTally);
        RecordLaunchOutcome(&stats.outcomes, BucketOf(outcome), 1, outcome.attempts,
                            outcome.watchdog_trips, outcome.mem_rejections);
      }
      if (!outcome.ok) {
        if (sample != nullptr) {
          sample->booted = false;
        }
        return OkStatus();  // counted; the storm carries on
      }
      vm = supervisor->vm();
      report = std::move(*outcome.report);
    } else {
      vm = &plain_vm.emplace(storage, make_config(seed));
      Stopwatch timer;
      IMK_ASSIGN_OR_RETURN(report, vm->Boot());
      latency_ns = timer.ElapsedNs();
      if (!report.init_done) {
        return InternalError("storm boot did not reach init completion");
      }
      const std::optional<uint64_t>& expected = options.supervisor.expected_checksum;
      if (expected.has_value() && report.init_checksum != *expected) {
        return InternalError("storm boot checksum mismatch (nondeterministic layout?)");
      }
    }
    capture(vm->memory(), report, latency_ns, sample);
    if (kernel_region != nullptr) {
      IMK_ASSIGN_OR_RETURN(*kernel_region, vm->KernelRegion());
    }
    return OkStatus();
  };

  // ---- warm-up: prime the template cache and page-cache models ----
  // The first wave deliberately races every worker into the same cache key,
  // exercising the single-flight build; nothing from this phase is measured.
  {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (uint32_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (uint32_t w = 0; w < options.warmup_per_thread; ++w) {
          const uint64_t seed = options.seed_base + total_launches +
                                static_cast<uint64_t>(t) * options.warmup_per_thread + w;
          Status status = boot_one(*storages[t], seed, nullptr, nullptr, /*measured=*/false);
          if (!status.ok()) {
            record_error(std::move(status));
            return;
          }
        }
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
    if (!first_error.ok()) {
      return first_error;
    }
  }

  // ---- layout pool: render ahead of the measured window ----
  // Built from the now-warm cache entry so the pool and every launch share
  // one template identity (quarantine one -> flush the other). Prefilled to
  // depth synchronously: the measured window starts with a full pool, and
  // every render observed after `pool_before` overlapped the storm itself.
  LayoutPool::Stats pool_before;
  if (pool_enabled) {
    TemplateOptions template_options;  // storms carry sidecar relocs, never ELF-extracted
    IMK_ASSIGN_OR_RETURN(std::shared_ptr<const ImageTemplate> tmpl,
                         cache.GetOrBuild(vmlinux, template_options));
    uint64_t guest_mem = spec.mem_size_bytes;
    if (!options.launch_only) {
      // Full-lane boots bound the offset chooser by the device model's RAM
      // reservation; probe it on scratch memory so the pool key matches.
      GuestMemory scratch(spec.mem_size_bytes);
      IMK_ASSIGN_OR_RETURN(DeviceModel probe,
                           DeviceModel::Create(scratch, DeviceModelConfig::Firecracker()));
      guest_mem = probe.reserved_floor_phys();
    }
    const DirectBootParams pool_params =
        DirectBootParamsFor(spec, options.launch_only ? 0 : guest_mem);
    LayoutPoolOptions pool_options;
    pool_options.depth = spec.layout_pool_depth;
    pool_options.refill_batch = spec.layout_pool_refill_batch;
    pool_options.seed = options.seed_base;
    if (governor != nullptr) {
      pool_options.accountant = governor->shared_accountant(MemCategory::kLayoutRenders);
    }
    refill_pool.emplace(2);
    pool_options.refill_pool = &*refill_pool;
    layout_pool =
        std::make_unique<LayoutPool>(tmpl, relocs, pool_params, guest_mem, pool_options);
    // Cheapest tier to rebuild -> first to shed.
    hook_guard.Register(layout_pool.get(), /*priority=*/0);
    // A prefill error (pool.refill:error drills this) just starts the pool
    // shallower: launches fall back inline, the miss tally records it.
    (void)layout_pool->Prefill(spec.layout_pool_depth);
    layout_pool->WaitIdle();
    pool_before = layout_pool->stats();
  }

  // ---- the storm ----
  std::atomic<uint32_t> next{0};
  Stopwatch wall;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (;;) {
        const uint32_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total_launches) {
          return;
        }
        if (FaultInjector::armed()) {
          // Audit self-test triggers: an error-flavor rule on these points
          // fires the corresponding known-bad locking pattern inside the
          // storm, so "the detector detects" is itself drillable under load
          // (scripts/ci_check.sh race-drill stage). The storm result is
          // unaffected — only the race report grows findings.
          if (!FaultInjector::Instance().Check("race.order_drill").ok()) {
            race::LockOrderInversionDrill();
          }
          if (!FaultInjector::Instance().Check("race.lockset_drill").ok()) {
            race::UnguardedWriteDrill();
          }
        }
        // Every event this launch emits — loader stages, pool grabs, rung
        // spans, governor ladder runs — carries the launch index as its VM id.
        IMK_TRACE_VM(i);
        IMK_TRACE_SPAN("storm", "storm.launch");
        Bytes* region = options.keep_kernel_regions ? &stats.kernel_regions[i] : nullptr;
        if (governor != nullptr && !supervise) {
          // Unsupervised admission: size the launch by the last observed
          // image span and wait out the hard watermark; a bounce is an
          // accounted launch that never booted, not a storm abort.
          const uint64_t need = image_bytes.load(std::memory_order_relaxed);
          if (!governor->Admit(need, options.supervisor.admit_wait_ms)) {
            samples[i].booted = false;
            std::lock_guard<race::Mutex> lock(tally_mutex);
            IMK_RACE_SHARED_WRITE("supervisor.outcomes", &stats, 0, kStormTally);
            RecordLaunchOutcome(&stats.outcomes, LaunchBucket::kRejectedMem,
                                /*launches=*/1, /*attempts=*/1, /*watchdog_trips=*/0,
                                /*mem_rejected_attempts=*/1);
            continue;
          }
        }
        Status status =
            boot_one(*storages[t], options.seed_base + i, &samples[i], region, /*measured=*/true);
        if (!status.ok()) {
          record_error(std::move(status));
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  stats.wall_ns = wall.ElapsedNs();
  if (!first_error.ok()) {
    return first_error;
  }

  for (const BootSample& sample : samples) {
    if (!sample.booted) {
      continue;
    }
    stats.boot_ms.Add(static_cast<double>(sample.latency_ns) / 1e6);
    stats.resident_mb.Add(static_cast<double>(sample.resident_bytes) / (1024.0 * 1024.0));
    stats.image_dirty_frames.Add(static_cast<double>(sample.image_dirty_frames));
    stats.image_shared_frames.Add(static_cast<double>(sample.image_shared_frames));
    if (pool_enabled) {
      sample.pool_hit ? ++stats.pool_hits : ++stats.pool_misses;
    }
    stats.block_cache_hits += sample.block_cache_hits;
    stats.block_cache_misses += sample.block_cache_misses;
    stats.block_cache_invalidations += sample.block_cache_invalidations;
    stats.blocks_shared += sample.blocks_shared;
    stats.blocks_private += sample.blocks_private;
    if (options.keep_layouts) {
      stats.layouts.push_back(sample.layout);
    }
  }
  if (shared_blocks != nullptr) {
    const SharedBlockCache::Stats shared_stats = shared_blocks->stats();
    stats.shared_blocks_resident = shared_stats.blocks;
    stats.shared_block_hits = shared_stats.hits;
    stats.shared_block_misses = shared_stats.misses;
  }
  if (layout_pool != nullptr) {
    layout_pool->WaitIdle();
    const LayoutPool::Stats pool_after = layout_pool->stats();
    stats.pool_rendered_during = pool_after.rendered - pool_before.rendered;
    stats.pool_refill_errors = pool_after.refill_errors - pool_before.refill_errors;
    stats.pool_quarantined = pool_after.quarantined - pool_before.quarantined;
    stats.pool_shed = pool_after.shed - pool_before.shed;
  }
  stats.image_frames = image_frames.load(std::memory_order_relaxed);
  stats.image_bytes = image_bytes.load(std::memory_order_relaxed);
  stats.cache_hits = cache.hits() - hits_before;
  stats.cache_misses = cache.misses() - misses_before;
  stats.outcomes.cache_quarantines = cache.quarantined() - quarantined_before;
  stats.outcomes.faults_injected = FaultInjector::Instance().fires_total() - fires_before;
  if (!supervise) {
    // Unsupervised storms abort on the first boot failure, so reaching here
    // means every ADMITTED launch booted on its first (and only) attempt;
    // the remainder bounced at the governor's hard watermark (already
    // recorded launch-by-launch above).
    const uint32_t admitted = total_launches - stats.outcomes.rejected_mem;
    RecordLaunchOutcome(&stats.outcomes, LaunchBucket::kOkFirstTry, admitted,
                        /*attempts=*/admitted, /*watchdog_trips=*/0,
                        /*mem_rejected_attempts=*/0);
  }
  // The accounting invariant, checked in ONE place for every lane: each
  // measured launch landed in exactly one outcome bucket. Tests and tools
  // can rely on it instead of re-deriving the sum.
  if (stats.outcomes.accounted() != stats.launches) {
    return InternalError("storm outcome accounting drift: accounted() != launches");
  }
  if (governor != nullptr) {
    // Captured while every cache is still alive: current_bytes is the
    // steady-state residency, high_water the storm's peak.
    stats.mem = governor->stats();
  }
  return stats;
}

}  // namespace imk
