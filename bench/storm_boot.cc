// storm_boot — boot-storm fleet bench for the zero-copy CoW guest memory
// (the paper's §7 serverless fleet scenario: one host, one kernel image,
// hundreds of microVM launches).
//
// Per randomization policy, three lanes:
//   serial baseline  launch work one VM at a time with the un-amortized
//                    per-boot pipeline (template rebuilt every boot) — what
//                    the monitor paid per VM before the fleet pipeline
//   launch storm     --vms launches across --threads workers against one
//                    warm shared ImageTemplateCache with zero-copy CoW
//                    mapping — the optimized monitor path
//   full storm       complete boots (guest init executed, checksum
//                    verified), measuring per-boot latency p50/p99 and the
//                    per-VM resident cost: privately materialized (dirty)
//                    image frames vs frames still aliased to the template
//
// Launch throughput counts monitor-side work only: guest init burns the
// VM's own vCPU time in a real fleet, and the interpreter simulating it on
// the host would drown the monitor numbers (DESIGN.md §9).
//
// Targets (see ISSUE.md, scale 1.0): kaslr per-VM dirty image bytes <= 50%
// of the image, warm launch storm >= 2x the serial baseline at 4 threads.
// Writes BENCH_storm.json (--out=FILE).
// A fourth lane, fgkaslr_pooled, re-runs the fgkaslr launch storm against a
// prefilled ahead-of-time LayoutPool (depth == --vms): every launch grabs a
// fully pre-randomized image and zero-copy maps it, so the randomization
// pipeline runs off the critical path on the background refill executor.
// Records launch p50/p99, pool hit rate, refill overlap, and the per-VM
// dirty image fraction (ISSUE.md targets: >= 10x the serial fgkaslr
// baseline, dirty <= 5%).
// A fifth lane, storm_faults, re-runs the kaslr full storm under a
// committed FaultPlan through the boot supervisor and records what fleet
// recovery costs: per-outcome tallies and the throughput overhead vs the
// fault-free full storm.
// A sixth lane, storm_churn, is the long-running-host drill: every VM slot
// is launched-and-halted kChurnCycles times against the same shared caches
// under a fleet MemGovernor whose budget is sized to pressure (soft
// watermark below the concurrent working set), recording per-category
// peak/steady resident bytes, the reclamation the ladder performed, and —
// after the storm — a forced ReclaimAll drill that evicts the template
// cache and proves a same-seed re-boot rebuilds a bit-identical kernel
// region through the single-flight miss path.
// A seventh lane, traced, re-runs the kaslr full storm with the imktrace
// tracer live against an identical untraced control (interleaved,
// best-of-2 per side) and records the throughput overhead of tracing
// (guarded at <= 3%) plus a fleet-scale determinism check: both storms
// keep their layouts and every slide/digest must match bit-for-bit.
#include <cstring>
#include <string>
#include <thread>

#include "bench/common.h"
#include "src/base/fault_injection.h"
#include "src/trace/trace.h"
#include "src/vmm/boot_storm.h"

namespace imk {
namespace {

struct ModeRow {
  const char* name = "";
  StormStats serial;       // launch-only, cold (per-boot parse), 1 thread
  StormStats launch;       // launch-only, warm shared cache, --threads
  StormStats full;         // full boots, block engine + shared decode cache
  StormStats full_legacy;  // full boots, legacy per-instruction interpreter
  double launch_speedup() const {
    return serial.boots_per_sec() > 0 ? launch.boots_per_sec() / serial.boots_per_sec() : 0;
  }
  // Full-boot throughput win of the predecoded block engine over the legacy
  // switch loop (same fleet, same kernels — only the engine differs).
  double interp_speedup() const {
    return full_legacy.boots_per_sec() > 0 ? full.boots_per_sec() / full_legacy.boots_per_sec()
                                           : 0;
  }
};

int Run(int argc, char** argv) {
  BenchOptions opts = BenchOptions::FromArgs(argc, argv);
  std::string out_path = "BENCH_storm.json";
  uint32_t vms = 16;
  uint32_t threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--vms=", 6) == 0) {
      vms = static_cast<uint32_t>(std::atoi(argv[i] + 6));
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = static_cast<uint32_t>(std::atoi(argv[i] + 10));
    }
  }
  std::printf("storm_boot: scale=%.3g vms=%u threads=%u (host cores: %u)\n\n", opts.scale, vms,
              threads, std::thread::hardware_concurrency());

  const RandoMode modes[] = {RandoMode::kNone, RandoMode::kKaslr, RandoMode::kFgKaslr};
  ModeRow rows[3];
  Bytes kaslr_vmlinux;  // kept for the storm_faults lane
  Bytes kaslr_relocs;
  uint64_t kaslr_checksum = 0;
  Bytes fg_vmlinux;  // kept for the fgkaslr_pooled lane
  Bytes fg_relocs;
  uint64_t fg_checksum = 0;
  TextTable table({"policy", "serial launch/s", "storm launch/s", "speedup", "boot p50 ms",
                   "boot p99 ms", "dirty image %", "resident MiB/VM", "full boots/s", "interp x",
                   "blk shared %"});

  for (size_t m = 0; m < 3; ++m) {
    const RandoMode rando = modes[m];
    rows[m].name = RandoModeName(rando);
    KernelBuildInfo info = bench::CheckOk(
        BuildKernel(KernelConfig::Make(KernelProfile::kAws, rando, opts.scale)), "BuildKernel");
    const Bytes relocs_blob = info.relocs.empty() ? Bytes() : SerializeRelocs(info.relocs);

    ImageTemplateCache cache;
    StormOptions storm_opts;
    storm_opts.vms = vms;
    storm_opts.vm.rando = rando;
    storm_opts.supervisor.expected_checksum = info.expected_checksum;
    storm_opts.vm.template_cache = &cache;

    // Serial baseline: one at a time, template rebuilt per boot.
    storm_opts.launch_only = true;
    storm_opts.vm.use_template_cache = false;
    storm_opts.threads = 1;
    rows[m].serial = bench::CheckOk(
        RunBootStorm(ByteSpan(info.vmlinux), ByteSpan(relocs_blob), storm_opts), "serial");

    // Warm launch storm.
    storm_opts.vm.use_template_cache = true;
    storm_opts.threads = threads;
    rows[m].launch = bench::CheckOk(
        RunBootStorm(ByteSpan(info.vmlinux), ByteSpan(relocs_blob), storm_opts), "launch storm");

    // Full boots, legacy interpreter: the decode-cache ablation baseline.
    storm_opts.launch_only = false;
    storm_opts.vm.use_block_cache = false;
    rows[m].full_legacy = bench::CheckOk(
        RunBootStorm(ByteSpan(info.vmlinux), ByteSpan(relocs_blob), storm_opts), "legacy storm");

    // Full boots, block engine + storm-wide shared decode cache: guest init
    // + checksum + density + the decode-cache sharing census.
    storm_opts.vm.use_block_cache = true;
    rows[m].full = bench::CheckOk(
        RunBootStorm(ByteSpan(info.vmlinux), ByteSpan(relocs_blob), storm_opts), "full storm");

    if (rando == RandoMode::kKaslr) {
      kaslr_vmlinux = info.vmlinux;
      kaslr_relocs = relocs_blob;
      kaslr_checksum = info.expected_checksum;
    } else if (rando == RandoMode::kFgKaslr) {
      fg_vmlinux = info.vmlinux;
      fg_relocs = relocs_blob;
      fg_checksum = info.expected_checksum;
    }

    table.AddRow({rows[m].name, TextTable::Fmt(rows[m].serial.boots_per_sec(), 1),
                  TextTable::Fmt(rows[m].launch.boots_per_sec(), 1),
                  TextTable::Fmt(rows[m].launch_speedup()),
                  TextTable::Fmt(rows[m].full.boot_ms.percentile(50), 1),
                  TextTable::Fmt(rows[m].full.boot_ms.percentile(99), 1),
                  TextTable::Fmt(rows[m].full.image_dirty_fraction() * 100, 1),
                  TextTable::Fmt(rows[m].full.resident_mb.mean(), 1),
                  TextTable::Fmt(rows[m].full.boots_per_sec(), 1),
                  TextTable::Fmt(rows[m].interp_speedup()),
                  TextTable::Fmt(rows[m].full.block_share_rate() * 100, 1)});
  }
  table.Print();

  // ---- fgkaslr_pooled lane: the fgkaslr launch storm against a prefilled
  // ahead-of-time layout pool. Depth == vms so (absent refill faults) every
  // measured launch is a pool hit: the monitor's launch work collapses to a
  // template-cache lookup plus a zero-copy map of a pre-randomized image,
  // while the refill executor renders replacements concurrently (the
  // pool_rendered_during figure is exactly that overlapped work).
  StormStats pooled;
  {
    ImageTemplateCache pool_cache;
    StormOptions pool_opts;
    pool_opts.vms = vms;
    pool_opts.threads = threads;
    pool_opts.vm.rando = RandoMode::kFgKaslr;
    pool_opts.supervisor.expected_checksum = fg_checksum;
    pool_opts.vm.template_cache = &pool_cache;
    pool_opts.launch_only = true;
    pool_opts.vm.layout_pool_depth = vms;
    pooled = bench::CheckOk(RunBootStorm(ByteSpan(fg_vmlinux), ByteSpan(fg_relocs), pool_opts),
                            "pooled storm");
  }
  const double fg_serial_bps = rows[2].serial.boots_per_sec();
  const double pooled_speedup =
      fg_serial_bps > 0 ? pooled.boots_per_sec() / fg_serial_bps : 0.0;
  std::printf(
      "\nfgkaslr_pooled (launch-only, pool depth=%u):\n"
      "  %.1f launches/s = %.1fx the serial fgkaslr baseline (%.1fx inline storm)\n"
      "  launch p50 %.3f ms p99 %.3f ms; pool hits %llu misses %llu (hit rate %.1f%%)\n"
      "  refill overlap: %llu layouts rendered during the storm; dirty image %.2f%%/VM\n",
      vms, pooled.boots_per_sec(), pooled_speedup,
      rows[2].launch.boots_per_sec() > 0 ? pooled.boots_per_sec() / rows[2].launch.boots_per_sec()
                                         : 0.0,
      pooled.boot_ms.percentile(50), pooled.boot_ms.percentile(99),
      static_cast<unsigned long long>(pooled.pool_hits),
      static_cast<unsigned long long>(pooled.pool_misses), pooled.pool_hit_rate() * 100,
      static_cast<unsigned long long>(pooled.pool_rendered_during),
      pooled.image_dirty_fraction() * 100);

  // ---- storm_faults lane: the kaslr full storm under a committed fault
  // plan, every boot supervised. The spec and seed are pinned so the failure
  // schedule (and therefore the recorded recovery work) reproduces.
  const char* kFaultSpec =
      "loader.reloc:error:p=0.08;template.cache_hit:corrupt:p=0.05:bytes=4";
  const uint64_t kFaultSeed = 7;
  StormStats faulted;
  {
    FaultPlan plan = bench::CheckOk(FaultPlan::Parse(kFaultSpec, kFaultSeed), "fault plan");
    ImageTemplateCache fault_cache;
    StormOptions fault_opts;
    fault_opts.vms = vms;
    fault_opts.threads = threads;
    fault_opts.vm.rando = RandoMode::kKaslr;
    fault_opts.supervisor.expected_checksum = kaslr_checksum;
    fault_opts.vm.template_cache = &fault_cache;
    fault_opts.supervise = true;
    fault_opts.supervisor.max_retries = 2;
    fault_opts.supervisor.watchdog_wall_ms = 10000;  // generous: records the knob, never trips
    fault_opts.supervisor.policy = DegradePolicy::kLadder;
    FaultScope faults(plan);
    faulted = bench::CheckOk(
        RunBootStorm(ByteSpan(kaslr_vmlinux), ByteSpan(kaslr_relocs), fault_opts), "fault storm");
  }
  const StormStats::OutcomeTally& tally = faulted.outcomes;
  const double clean_bps = rows[1].full.boots_per_sec();
  const double faulted_bps = faulted.boots_per_sec();
  const double recovery_overhead_pct =
      clean_bps > 0 && faulted_bps > 0 ? (clean_bps / faulted_bps - 1.0) * 100.0 : 0.0;
  std::printf(
      "\nstorm_faults (kaslr, supervised, spec=\"%s\" seed=%llu):\n"
      "  outcomes: %u first-try, %u retried, %u degraded, %u failed (%u/%u accounted)\n"
      "  attempts=%u watchdog_trips=%u quarantines=%llu faults_fired=%llu\n"
      "  throughput %.1f boots/s vs clean %.1f (recovery overhead %.1f%%)\n",
      kFaultSpec, static_cast<unsigned long long>(kFaultSeed), tally.ok_first_try,
      tally.ok_retried, tally.ok_degraded, tally.failed, tally.accounted(), faulted.vms,
      tally.attempts_total, tally.watchdog_trips,
      static_cast<unsigned long long>(tally.cache_quarantines),
      static_cast<unsigned long long>(tally.faults_injected), faulted_bps, clean_bps,
      recovery_overhead_pct);

  // ---- storm_churn lane: N slots x K launch/halt cycles, governed. The
  // budget provisions the lane's CONFIGURED working set — the concurrent
  // guest frames, the depth-`vms` ahead-of-time pool (a rendered layout
  // holds a full image copy), and a few image-sized shared tiers
  // (templates, published decode tables) — with headroom, because
  // admission is a gate, not a reservation. What the governor must then
  // prevent is growth BEYOND the provisioned set: every churned fgkaslr
  // launch publishes a unique decode table, which ungoverned would dwarf
  // this budget over vms*cycles launches. The soft watermark at 50% sits
  // below the steady working set, so the ladder runs throughout. The
  // cache and governor are external to the storm so the post-storm
  // reclamation drill can operate on them.
  const uint32_t kChurnCycles = 8;
  const uint64_t churn_per_vm_bytes = static_cast<uint64_t>(
      rows[2].full.resident_mb.mean() * 1024.0 * 1024.0);
  const uint64_t churn_image_bytes = rows[2].full.image_bytes;
  const uint64_t churn_budget =
      churn_per_vm_bytes * threads * 3 / 2 +
      churn_image_bytes * (vms + 8) * 5 / 4 + (64ull << 20);
  MemGovernorOptions churn_gov_opts;
  churn_gov_opts.budget_bytes = churn_budget;
  churn_gov_opts.soft_pct = 0.5;
  MemGovernor churn_governor(churn_gov_opts);
  ImageTemplateCache churn_cache;
  StormStats churn;
  {
    StormOptions churn_opts;
    churn_opts.vms = vms;
    churn_opts.threads = threads;
    churn_opts.vm.rando = RandoMode::kFgKaslr;
    churn_opts.supervisor.expected_checksum = fg_checksum;
    churn_opts.vm.template_cache = &churn_cache;
    churn_opts.vm.layout_pool_depth = vms;
    churn_opts.churn_cycles = kChurnCycles;
    churn_opts.vm.mem_governor = &churn_governor;
    churn = bench::CheckOk(RunBootStorm(ByteSpan(fg_vmlinux), ByteSpan(fg_relocs), churn_opts),
                           "churn storm");
  }
  const MemGovernor::Stats churn_mem =
      churn.mem.has_value() ? *churn.mem : churn_governor.stats();
  // Post-storm reclamation drill: boot once, force every tier dry, boot the
  // SAME seed again through the single-flight template rebuild, and demand
  // the randomized kernel region comes back bit-identical.
  uint64_t drill_evictions = 0;
  uint64_t drill_shed_bytes = 0;
  bool rebuild_identical = false;
  {
    Storage drill_storage;
    drill_storage.Put("vmlinux", fg_vmlinux);
    drill_storage.Put("vmlinux.relocs", fg_relocs);
    MicroVmConfig drill_config;
    drill_config.kernel_image = "vmlinux";
    drill_config.relocs_image = "vmlinux.relocs";
    drill_config.rando = RandoMode::kFgKaslr;
    drill_config.seed = 4242;
    drill_config.template_cache = &churn_cache;
    drill_config.mem_governor = &churn_governor;
    Bytes region_before;
    uint64_t checksum_before = 0;
    {
      MicroVm vm(drill_storage, drill_config);
      BootReport report = bench::CheckOk(vm.Boot(), "churn drill boot");
      checksum_before = report.init_checksum;
      region_before = bench::CheckOk(vm.KernelRegion(), "churn drill region");
    }
    const uint64_t evictions_before = churn_cache.reclaim_evictions();
    churn_governor.RegisterReclaimable(&churn_cache, /*priority=*/2);
    drill_shed_bytes = churn_governor.ReclaimAll();
    churn_governor.UnregisterReclaimable(&churn_cache);
    drill_evictions = churn_cache.reclaim_evictions() - evictions_before;
    Bytes region_after;
    uint64_t checksum_after = 0;
    {
      MicroVm vm(drill_storage, drill_config);
      BootReport report = bench::CheckOk(vm.Boot(), "churn drill re-boot");
      checksum_after = report.init_checksum;
      region_after = bench::CheckOk(vm.KernelRegion(), "churn drill re-region");
    }
    rebuild_identical = region_before == region_after && checksum_before == checksum_after &&
                        checksum_before == fg_checksum;
  }
  const bool churn_peak_ok = churn_mem.high_water_total_bytes <= churn_mem.hard_watermark_bytes;
  const bool churn_shed_ok = churn_mem.tier_sheds > 0;
  std::printf(
      "\nstorm_churn (fgkaslr, %u slots x %u cycles = %u launches, budget %.0f MiB soft %.0f):\n"
      "  %.1f boots/s; peak resident %.1f MiB (steady %.1f); "
      "%u rejected-mem launches, %llu admit waits\n"
      "  reclaim: %llu ladder runs shed %.1f MiB over %llu tiers "
      "(pool layouts flushed: %llu; decode retire + template evict in tiers)\n"
      "  drill: ReclaimAll shed %.1f MiB, %llu template evictions; "
      "same-seed re-boot bit-identical: %s\n",
      vms, kChurnCycles, churn.launches, static_cast<double>(churn_budget) / (1 << 20),
      static_cast<double>(churn_mem.soft_watermark_bytes) / (1 << 20), churn.boots_per_sec(),
      static_cast<double>(churn_mem.high_water_total_bytes) / (1 << 20),
      static_cast<double>(churn_mem.current_total_bytes) / (1 << 20),
      churn.outcomes.rejected_mem,
      static_cast<unsigned long long>(churn_mem.admit_waits),
      static_cast<unsigned long long>(churn_mem.reclaim_runs),
      static_cast<double>(churn_mem.reclaimed_bytes) / (1 << 20),
      static_cast<unsigned long long>(churn_mem.tier_sheds),
      static_cast<unsigned long long>(churn.pool_shed),
      static_cast<double>(drill_shed_bytes) / (1 << 20),
      static_cast<unsigned long long>(drill_evictions), rebuild_identical ? "YES" : "NO");

  // ---- traced lane: the kaslr full storm with the imktrace tracer live,
  // against an identical untraced control. Runs interleave (control, traced,
  // control, traced) and each side keeps its best-of-2 throughput so
  // scheduler noise stays out of the overhead figure; the guard is <= 3%.
  // Both sides keep their layouts: tracing must not perturb a single slide
  // — the determinism contract of DESIGN.md section 15, checked at fleet
  // scale rather than per boot.
  double traced_bps = 0.0;
  double untraced_bps = 0.0;
  uint64_t trace_events = 0;
  uint64_t trace_dropped = 0;
  uint64_t trace_threads = 0;
  bool trace_identical = false;
  {
    std::vector<LayoutIdentity> untraced_layouts;
    std::vector<LayoutIdentity> traced_layouts;
    auto run_lane = [&](bool traced) {
      ImageTemplateCache lane_cache;
      StormOptions lane_opts;
      lane_opts.vms = vms;
      lane_opts.threads = threads;
      lane_opts.vm.rando = RandoMode::kKaslr;
      lane_opts.supervisor.expected_checksum = kaslr_checksum;
      lane_opts.vm.template_cache = &lane_cache;
      lane_opts.keep_layouts = true;
      if (traced) {
        trace::Tracer::Instance().Start();
      }
      StormStats lane_stats =
          bench::CheckOk(RunBootStorm(ByteSpan(kaslr_vmlinux), ByteSpan(kaslr_relocs), lane_opts),
                         traced ? "traced storm" : "untraced control storm");
      const double bps = lane_stats.boots_per_sec();
      if (traced) {
        trace_events = trace::Tracer::Instance().Collect().size();
        trace_dropped = trace::Tracer::Instance().dropped();
        trace_threads = trace::Tracer::Instance().thread_count();
        trace::Tracer::Instance().Stop();
        traced_layouts = std::move(lane_stats.layouts);
        if (bps > traced_bps) {
          traced_bps = bps;
        }
      } else {
        untraced_layouts = std::move(lane_stats.layouts);
        if (bps > untraced_bps) {
          untraced_bps = bps;
        }
      }
    };
    for (int round = 0; round < 2; ++round) {
      run_lane(/*traced=*/false);
      run_lane(/*traced=*/true);
    }
    trace_identical = untraced_layouts.size() == traced_layouts.size() && !untraced_layouts.empty();
    for (size_t i = 0; trace_identical && i < untraced_layouts.size(); ++i) {
      trace_identical = untraced_layouts[i].virt_slide == traced_layouts[i].virt_slide &&
                        untraced_layouts[i].phys_load_addr == traced_layouts[i].phys_load_addr &&
                        untraced_layouts[i].fg_digest == traced_layouts[i].fg_digest;
    }
  }
  const double trace_overhead_pct =
      untraced_bps > 0 && traced_bps > 0 ? (untraced_bps / traced_bps - 1.0) * 100.0 : 0.0;
  const bool trace_overhead_ok = trace_overhead_pct <= 3.0;
  std::printf(
      "\ntraced (kaslr full storm, tracer live, best-of-2 vs untraced control):\n"
      "  %.1f boots/s traced vs %.1f untraced (overhead %.2f%%)\n"
      "  %llu events across %llu threads, %llu dropped; layouts bit-identical: %s\n",
      traced_bps, untraced_bps, trace_overhead_pct,
      static_cast<unsigned long long>(trace_events),
      static_cast<unsigned long long>(trace_threads),
      static_cast<unsigned long long>(trace_dropped), trace_identical ? "YES" : "NO");

  const double kaslr_dirty = rows[1].full.image_dirty_fraction();
  const bool dirty_ok = kaslr_dirty <= 0.5;
  const bool speedup_ok = rows[1].launch_speedup() >= 2.0;
  std::printf(
      "\ntargets (kaslr): dirty image bytes %.1f%% (<=50%% %s), "
      "warm launch storm %.2fx serial baseline (>=2x %s)\n",
      kaslr_dirty * 100, dirty_ok ? "PASS" : "MISS", rows[1].launch_speedup(),
      speedup_ok ? "PASS" : "MISS");
  // Decode-cache ablation summary: engine speedup per policy, and the
  // sharing census read next to the page-sharing one. Thresholds are the
  // achievable ones for this workload (pure-hit dispatch tops out ~2.7x the
  // switch loop; a full boot also pays launch + decode-miss costs — see
  // DESIGN.md section 13).
  const bool interp_nok_ok = rows[0].interp_speedup() >= 1.5;
  const bool interp_kaslr_ok = rows[1].interp_speedup() >= 1.0;
  std::printf(
      "targets (block engine): full-boot throughput nokaslr %.2fx legacy (>=1.5x %s), "
      "kaslr %.2fx legacy (>=1x %s)\n",
      rows[0].interp_speedup(), interp_nok_ok ? "PASS" : "MISS", rows[1].interp_speedup(),
      interp_kaslr_ok ? "PASS" : "MISS");
  std::printf(
      "decode-cache sharing (vs page sharing): nokaslr %.1f%% blocks shared / %.1f%% frames "
      "shared; kaslr %.1f%% / %.1f%%; fgkaslr %.1f%% / %.1f%%\n",
      rows[0].full.block_share_rate() * 100, (1 - rows[0].full.image_dirty_fraction()) * 100,
      rows[1].full.block_share_rate() * 100, (1 - rows[1].full.image_dirty_fraction()) * 100,
      rows[2].full.block_share_rate() * 100, (1 - rows[2].full.image_dirty_fraction()) * 100);

  const bool pool_speedup_ok = pooled_speedup >= 10.0;
  const bool pool_dirty_ok = pooled.image_dirty_fraction() <= 0.05;
  const bool pool_hit_ok = pooled.pool_hit_rate() >= 0.95;
  std::printf(
      "targets (fgkaslr_pooled): launch %.2fx serial fgkaslr (>=10x %s), "
      "dirty image %.2f%% (<=5%% %s), pool hit rate %.2f (>=0.95 %s)\n",
      pooled_speedup, pool_speedup_ok ? "PASS" : "MISS", pooled.image_dirty_fraction() * 100,
      pool_dirty_ok ? "PASS" : "MISS", pooled.pool_hit_rate(), pool_hit_ok ? "PASS" : "MISS");
  std::printf(
      "targets (storm_churn): peak resident within hard watermark (%s), "
      "ladder shed >=1 tier (%s), post-reclaim rebuild bit-identical (%s)\n",
      churn_peak_ok ? "PASS" : "MISS", churn_shed_ok ? "PASS" : "MISS",
      rebuild_identical ? "PASS" : "MISS");
  std::printf(
      "targets (traced): tracing overhead %.2f%% (<=3%% %s), "
      "spans recorded (%s), traced layouts bit-identical (%s)\n",
      trace_overhead_pct, trace_overhead_ok ? "PASS" : "MISS",
      trace_events > 0 ? "PASS" : "MISS", trace_identical ? "PASS" : "MISS");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"storm_boot\",\n"
               "  \"scale\": %g,\n"
               "  \"vms\": %u,\n"
               "  \"threads\": %u,\n"
               "  \"host_cores\": %u,\n"
               "  \"modes\": {\n",
               opts.scale, vms, threads, std::thread::hardware_concurrency());
  for (size_t m = 0; m < 3; ++m) {
    const ModeRow& row = rows[m];
    std::fprintf(
        out,
        "    \"%s\": {\n"
        "      \"serial_launches_per_sec\": %.3f,\n"
        "      \"storm_launches_per_sec\": %.3f,\n"
        "      \"launch_speedup\": %.3f,\n"
        "      \"launch_p50_ms\": %.3f,\n"
        "      \"boot_p50_ms\": %.3f,\n"
        "      \"boot_p99_ms\": %.3f,\n"
        "      \"full_boots_per_sec\": %.3f,\n"
        "      \"full_boots_per_sec_legacy\": %.3f,\n"
        "      \"interp_speedup\": %.3f,\n"
        "      \"block_cache\": {\n"
        "        \"hits\": %llu,\n"
        "        \"misses\": %llu,\n"
        "        \"invalidations\": %llu,\n"
        "        \"blocks_shared\": %llu,\n"
        "        \"blocks_private\": %llu,\n"
        "        \"share_rate\": %.4f,\n"
        "        \"shared_blocks_resident\": %llu,\n"
        "        \"shared_block_hits\": %llu,\n"
        "        \"shared_block_misses\": %llu\n"
        "      },\n"
        "      \"image_bytes\": %llu,\n"
        "      \"image_frames\": %llu,\n"
        "      \"image_dirty_frames_mean\": %.1f,\n"
        "      \"image_shared_frames_mean\": %.1f,\n"
        "      \"image_dirty_fraction\": %.4f,\n"
        "      \"resident_mb_per_vm_mean\": %.3f,\n"
        "      \"template_cache_hits\": %llu,\n"
        "      \"template_cache_misses\": %llu\n"
        "    }%s\n",
        row.name, row.serial.boots_per_sec(), row.launch.boots_per_sec(), row.launch_speedup(),
        row.launch.boot_ms.percentile(50), row.full.boot_ms.percentile(50),
        row.full.boot_ms.percentile(99), row.full.boots_per_sec(),
        row.full_legacy.boots_per_sec(), row.interp_speedup(),
        static_cast<unsigned long long>(row.full.block_cache_hits),
        static_cast<unsigned long long>(row.full.block_cache_misses),
        static_cast<unsigned long long>(row.full.block_cache_invalidations),
        static_cast<unsigned long long>(row.full.blocks_shared),
        static_cast<unsigned long long>(row.full.blocks_private), row.full.block_share_rate(),
        static_cast<unsigned long long>(row.full.shared_blocks_resident),
        static_cast<unsigned long long>(row.full.shared_block_hits),
        static_cast<unsigned long long>(row.full.shared_block_misses),
        static_cast<unsigned long long>(row.full.image_bytes),
        static_cast<unsigned long long>(row.full.image_frames),
        row.full.image_dirty_frames.mean(), row.full.image_shared_frames.mean(),
        row.full.image_dirty_fraction(), row.full.resident_mb.mean(),
        static_cast<unsigned long long>(row.launch.cache_hits + row.full.cache_hits),
        static_cast<unsigned long long>(row.launch.cache_misses + row.full.cache_misses),
        ",");
  }
  std::fprintf(
      out,
      "    \"fgkaslr_pooled\": {\n"
      "      \"pool_depth\": %u,\n"
      "      \"storm_launches_per_sec\": %.3f,\n"
      "      \"launch_speedup\": %.3f,\n"
      "      \"launch_p50_ms\": %.3f,\n"
      "      \"launch_p99_ms\": %.3f,\n"
      "      \"pool_hits\": %llu,\n"
      "      \"pool_misses\": %llu,\n"
      "      \"pool_hit_rate\": %.4f,\n"
      "      \"pool_rendered_during\": %llu,\n"
      "      \"pool_refill_errors\": %llu,\n"
      "      \"pool_quarantined\": %llu,\n"
      "      \"image_dirty_frames_mean\": %.1f,\n"
      "      \"image_dirty_fraction\": %.4f\n"
      "    }\n",
      vms, pooled.boots_per_sec(), pooled_speedup, pooled.boot_ms.percentile(50),
      pooled.boot_ms.percentile(99), static_cast<unsigned long long>(pooled.pool_hits),
      static_cast<unsigned long long>(pooled.pool_misses), pooled.pool_hit_rate(),
      static_cast<unsigned long long>(pooled.pool_rendered_during),
      static_cast<unsigned long long>(pooled.pool_refill_errors),
      static_cast<unsigned long long>(pooled.pool_quarantined),
      pooled.image_dirty_frames.mean(), pooled.image_dirty_fraction());
  std::fprintf(
      out,
      "  },\n"
      "  \"churn\": {\n"
      "    \"vms\": %u,\n"
      "    \"cycles\": %u,\n"
      "    \"launches\": %u,\n"
      "    \"boots_per_sec\": %.3f,\n"
      "    \"budget_bytes\": %llu,\n"
      "    \"soft_watermark_bytes\": %llu,\n"
      "    \"hard_watermark_bytes\": %llu,\n"
      "    \"peak_resident_bytes\": %llu,\n"
      "    \"steady_resident_bytes\": %llu,\n"
      "    \"peak_guest_frames_bytes\": %llu,\n"
      "    \"peak_template_images_bytes\": %llu,\n"
      "    \"peak_layout_renders_bytes\": %llu,\n"
      "    \"peak_decode_tables_bytes\": %llu,\n"
      "    \"reclaim_runs\": %llu,\n"
      "    \"reclaimed_bytes\": %llu,\n"
      "    \"tier_sheds\": %llu,\n"
      "    \"pool_shed\": %llu,\n"
      "    \"admits\": %llu,\n"
      "    \"admit_waits\": %llu,\n"
      "    \"admit_rejects\": %llu,\n"
      "    \"rejected_mem_launches\": %u,\n"
      "    \"drill_reclaimall_bytes\": %llu,\n"
      "    \"drill_template_evictions\": %llu,\n"
      "    \"peak_within_hard\": %s,\n"
      "    \"rebuild_identical\": %s\n"
      "  },\n"
      "  \"faults\": {\n",
      vms, kChurnCycles, churn.launches, churn.boots_per_sec(),
      static_cast<unsigned long long>(churn_mem.budget_bytes),
      static_cast<unsigned long long>(churn_mem.soft_watermark_bytes),
      static_cast<unsigned long long>(churn_mem.hard_watermark_bytes),
      static_cast<unsigned long long>(churn_mem.high_water_total_bytes),
      static_cast<unsigned long long>(churn_mem.current_total_bytes),
      static_cast<unsigned long long>(
          churn_mem.categories[static_cast<size_t>(MemCategory::kGuestFrames)].high_water_bytes),
      static_cast<unsigned long long>(
          churn_mem.categories[static_cast<size_t>(MemCategory::kTemplateImages)]
              .high_water_bytes),
      static_cast<unsigned long long>(
          churn_mem.categories[static_cast<size_t>(MemCategory::kLayoutRenders)]
              .high_water_bytes),
      static_cast<unsigned long long>(
          churn_mem.categories[static_cast<size_t>(MemCategory::kDecodeTables)].high_water_bytes),
      static_cast<unsigned long long>(churn_mem.reclaim_runs),
      static_cast<unsigned long long>(churn_mem.reclaimed_bytes),
      static_cast<unsigned long long>(churn_mem.tier_sheds),
      static_cast<unsigned long long>(churn.pool_shed),
      static_cast<unsigned long long>(churn_mem.admits),
      static_cast<unsigned long long>(churn_mem.admit_waits),
      static_cast<unsigned long long>(churn_mem.admit_rejects), churn.outcomes.rejected_mem,
      static_cast<unsigned long long>(drill_shed_bytes),
      static_cast<unsigned long long>(drill_evictions), churn_peak_ok ? "true" : "false",
      rebuild_identical ? "true" : "false");
  std::fprintf(
      out,
      "    \"spec\": \"%s\",\n"
      "    \"fault_seed\": %llu,\n"
      "    \"vms\": %u,\n"
      "    \"ok_first_try\": %u,\n"
      "    \"ok_retried\": %u,\n"
      "    \"ok_degraded\": %u,\n"
      "    \"failed\": %u,\n"
      "    \"accounted\": %u,\n"
      "    \"attempts_total\": %u,\n"
      "    \"watchdog_trips\": %u,\n"
      "    \"cache_quarantines\": %llu,\n"
      "    \"faults_injected\": %llu,\n"
      "    \"full_boots_per_sec\": %.3f,\n"
      "    \"recovery_overhead_pct\": %.2f\n"
      "  },\n",
      kFaultSpec, static_cast<unsigned long long>(kFaultSeed), faulted.vms, tally.ok_first_try,
      tally.ok_retried, tally.ok_degraded, tally.failed, tally.accounted(), tally.attempts_total,
      tally.watchdog_trips, static_cast<unsigned long long>(tally.cache_quarantines),
      static_cast<unsigned long long>(tally.faults_injected), faulted_bps, recovery_overhead_pct);
  std::fprintf(
      out,
      "  \"traced\": {\n"
      "    \"full_boots_per_sec\": %.3f,\n"
      "    \"untraced_boots_per_sec\": %.3f,\n"
      "    \"overhead_pct\": %.2f,\n"
      "    \"events\": %llu,\n"
      "    \"dropped\": %llu,\n"
      "    \"trace_threads\": %llu,\n"
      "    \"layouts_identical\": %s,\n"
      "    \"overhead_ok\": %s\n"
      "  }\n}\n",
      traced_bps, untraced_bps, trace_overhead_pct,
      static_cast<unsigned long long>(trace_events),
      static_cast<unsigned long long>(trace_dropped),
      static_cast<unsigned long long>(trace_threads), trace_identical ? "true" : "false",
      trace_overhead_ok ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace imk

int main(int argc, char** argv) { return imk::Run(argc, argv); }
