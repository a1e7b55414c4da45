// Boot-storm fleet driver: boots N microVMs across T worker threads against
// one shared ImageTemplateCache — the serverless cold-start burst of the
// paper's §7 discussion (a Firecracker host launching hundreds of VMs of the
// same rootfs per second). Measures warm fleet throughput, per-boot latency,
// and the per-VM resident (privately materialized) memory that in-monitor
// randomization costs under each policy.
//
// Layouts are deterministic in the per-VM seed (seed_base + vm index), never
// in thread count or scheduling: VM i's kernel bytes are identical whether
// the storm ran on 1 thread or 16.
#ifndef IMKASLR_SRC_VMM_BOOT_STORM_H_
#define IMKASLR_SRC_VMM_BOOT_STORM_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/result.h"
#include "src/base/stats.h"
#include "src/kernel/kconfig.h"
#include "src/race/annotations.h"
#include "src/verify/layout_uniqueness.h"
#include "src/vmm/boot_supervisor.h"
#include "src/vmm/mem_governor.h"

namespace imk {

// A storm is N launches of one launch spec: the storm's own shape (how many
// VMs, how many workers, seeds, lanes, what to capture) plus the MicroVmConfig
// every VM boots with and the SupervisorOptions that govern a supervised
// boot. Fields of `vm` the storm owns per launch — kernel_image,
// relocs_image, seed, template_cache, shared_block_cache, layout_pool — are
// overwritten for each VM, and each VM's own layout_pool_depth is zeroed
// (the storm's shared pool replaces per-VM private pools).
struct StormOptions {
  uint32_t vms = 16;
  uint32_t threads = 4;
  // VM i boots with seed seed_base + i; warm-up boots draw from past the
  // measured range so they never alias a measured layout.
  uint64_t seed_base = 1;
  // Discarded per-thread boots before the measured window (warms the
  // template cache and the storage page-cache model).
  uint32_t warmup_per_thread = 1;
  // Launch-only lane: run just the monitor-side launch work (template
  // lookup, offset choice, zero-copy map, shuffle, relocate) and skip guest
  // execution. This is the host's cost to bring a VM to its first guest
  // instruction — the number a fleet manager provisions against; guest init
  // afterwards burns the VM's own vCPU time, which the interpreter would
  // otherwise simulate on the host and drown the monitor numbers in.
  bool launch_only = false;
  // Each VM slot is launched-and-halted this many times: the storm performs
  // vms * churn_cycles measured launches (seed_base + launch index), each one
  // a full boot-then-teardown, against the SAME shared caches — the
  // long-running-host lane where cache growth, not per-boot latency, is the
  // number that matters. 0 and 1 both mean the classic single-wave storm.
  uint32_t churn_cycles = 1;
  // Capture every VM's kernel-image window (determinism tests; costly).
  bool keep_kernel_regions = false;
  // Capture every booted VM's layout identity (slide, FG permutation digest)
  // for the cross-VM uniqueness check (src/verify/layout_uniqueness.h).
  bool keep_layouts = false;

  // The launch every VM gets. How the storm reads it:
  // - vm.template_cache is shared by all workers; null means one cache
  //   private to this storm (NOT the process-global cache). Pass the same
  //   cache across calls to measure warm-cache behaviour.
  //   vm.use_template_cache = false rebuilds the template every boot (the
  //   un-amortized serial fleet baseline).
  // - vm.layout_pool_depth > 0 on a randomized storm builds one shared
  //   LayoutPool AFTER the warm-up wave (from the warm template-cache
  //   entry), prefilled to that depth (background refill batches of
  //   vm.layout_pool_refill_batch) and offered to every measured launch.
  //   Which VM grabs which layout is scheduling-dependent, but every layout
  //   is unique (one-shot handout) and guest init checksums are
  //   layout-independent, so determinism checks still hold.
  // - vm.use_block_cache also shares one storm-wide SharedBlockCache across
  //   every full-lane VM: blocks decoded from shared (template-aliased)
  //   frames are decoded once per fleet instead of once per VM. false runs
  //   the legacy per-instruction interpreter (`storm --no-block-cache`).
  // - vm.mem_governor, when set, governs the storm: the storm charges its
  //   caches to it and registers them as reclamation tiers (unregistered
  //   before they die), and its hard watermark gates launch admission. The
  //   caller owns the governor and keeps it alive past the storm.
  MicroVmConfig vm;

  // Retry/watchdog/degrade policy. `supervise` routes every (full-lane)
  // boot through BootSupervisor: per-VM failures are tallied instead of
  // aborting the storm, the watchdog bounds each attempt, and the degrade
  // policy decides whether a VM may boot below vm.rando. Layouts stay
  // deterministic in the per-VM seed: VM i's attempt seeds depend only on
  // (seed_base + i, attempt index), never on which *other* VMs failed.
  // Both lanes honor supervisor.expected_checksum (a mismatch aborts an
  // unsupervised storm) and supervisor.admit_wait_ms (the bounded wait at
  // the governor's hard watermark before a launch is tallied rejected_mem).
  bool supervise = false;
  SupervisorOptions supervisor;
};

struct StormStats {
  uint32_t vms = 0;
  uint32_t threads = 0;
  uint32_t launches = 0;  // measured launches = vms * max(1, churn_cycles)
  uint64_t wall_ns = 0;  // measured storm window, warm-up excluded

  Summary boot_ms;              // per-boot wall latency
  Summary resident_mb;          // whole-VM privately materialized MiB at boot end
  Summary image_dirty_frames;   // private frames inside the kernel image window
  Summary image_shared_frames;  // image frames still aliased to the shared template

  uint64_t image_frames = 0;  // frames one loaded image spans
  uint64_t image_bytes = 0;   // image memsz span
  uint64_t cache_hits = 0;    // template-cache counters across the whole storm
  uint64_t cache_misses = 0;

  // Layout-pool tallies (zero when options.vm.layout_pool_depth == 0). Hits and
  // misses are per measured VM; renders/errors/quarantines are pool-counter
  // deltas over the measured window, so pool_rendered_during is the refill
  // work that OVERLAPPED the storm (prefill renders are excluded).
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_rendered_during = 0;
  uint64_t pool_refill_errors = 0;
  uint64_t pool_quarantined = 0;
  uint64_t pool_shed = 0;  // ready layouts flushed by the governor's ladder
  double pool_hit_rate() const {
    const uint64_t grabs = pool_hits + pool_misses;
    return grabs == 0 ? 0.0 : static_cast<double>(pool_hits) / static_cast<double>(grabs);
  }

  // Decode-cache tallies (zero when the block engine is off or the storm is
  // launch-only). The per-VM dispatch counters are summed over measured
  // boots; the shared_* numbers are the storm-wide SharedBlockCache's view
  // over the whole storm (warm-up included — the fleet steady state). Read
  // next to image_dirty/shared_frames: blocks_shared vs blocks_private is
  // the decode-cache analogue of the page-sharing census, and collapses the
  // same way page sharing does as randomization gets finer-grained.
  uint64_t block_cache_hits = 0;
  uint64_t block_cache_misses = 0;
  uint64_t block_cache_invalidations = 0;
  uint64_t blocks_shared = 0;   // per-VM block acquisitions via the shared tier
  uint64_t blocks_private = 0;  // per-VM private decodes (dirty/zero frames)
  uint64_t shared_blocks_resident = 0;  // distinct blocks in the shared cache
  uint64_t shared_block_hits = 0;       // shared-tier grab hits, whole storm
  uint64_t shared_block_misses = 0;
  double block_share_rate() const {
    const uint64_t total = blocks_shared + blocks_private;
    return total == 0 ? 0.0 : static_cast<double>(blocks_shared) / static_cast<double>(total);
  }

  // Per booted VM (in VM-id order), when options.keep_layouts: input for
  // CheckLayoutUniqueness.
  std::vector<LayoutIdentity> layouts;

  // Per-outcome tallies. Every measured launch lands in exactly one
  // ok_*/failed/rejected_mem bucket: accounted() == launches, always —
  // including launches the governor's hard watermark turned away.
  struct OutcomeTally {
    uint32_t ok_first_try = 0;
    uint32_t ok_retried = 0;   // booted at the requested level after retries
    uint32_t ok_degraded = 0;  // booted below the requested level
    uint32_t failed = 0;       // exhausted every attempt the policy allowed
    uint32_t rejected_mem = 0;  // every attempt bounced at the hard watermark
    uint32_t attempts_total = 0;
    uint32_t watchdog_trips = 0;
    uint32_t mem_rejected_attempts = 0;  // attempt-level hard-watermark bounces
    uint64_t cache_quarantines = 0;  // corrupt templates evicted mid-storm
    uint64_t faults_injected = 0;    // FaultInjector fires inside the window
    uint32_t accounted() const {
      return ok_first_try + ok_retried + ok_degraded + failed + rejected_mem;
    }
  };
  // Written by many workers during a supervised storm (under the storm's
  // tally lock); plain data once RunBootStorm returns.
  OutcomeTally outcomes IMK_GUARDED_BY(kStormTally);

  std::vector<Bytes> kernel_regions;  // per launch, when keep_kernel_regions

  // The governor's end-of-storm view (per-category current + high-water
  // bytes, reclaim/admission counters); set only when the storm is governed.
  std::optional<MemGovernor::Stats> mem;

  double boots_per_sec() const {
    const uint32_t n = launches != 0 ? launches : vms;
    return wall_ns == 0 ? 0.0 : static_cast<double>(n) / (static_cast<double>(wall_ns) / 1e9);
  }
  // Mean fraction of the image each VM privately materialized.
  double image_dirty_fraction() const {
    return image_frames == 0 || boot_ms.empty()
               ? 0.0
               : image_dirty_frames.mean() / static_cast<double>(image_frames);
  }
};

// Runs one storm. `relocs_blob` may be empty only for RandoMode::kNone.
// Each worker thread gets a private Storage (the page-cache model is not
// thread-safe); the template cache is the only cross-thread state.
Result<StormStats> RunBootStorm(ByteSpan vmlinux, ByteSpan relocs_blob,
                                const StormOptions& options);

}  // namespace imk

#endif  // IMKASLR_SRC_VMM_BOOT_STORM_H_
