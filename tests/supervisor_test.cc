// BootSupervisor fault drills: watchdog classification, seeded retry,
// the degradation ladder and the strict policy, cache quarantine/rebuild,
// schedule determinism, and supervised boot-storm outcome accounting.
// Every drill runs under a pinned FaultPlan seed so failures reproduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/base/fault_injection.h"
#include "src/base/stopwatch.h"
#include "src/kernel/kernel_builder.h"
#include "src/kernel/relocs.h"
#include "src/trace/trace.h"
#include "src/vmm/boot_storm.h"
#include "src/vmm/boot_supervisor.h"
#include "src/vmm/image_template.h"
#include "src/vmm/mem_governor.h"
#include "src/vmm/microvm.h"

namespace imk {
namespace {

constexpr double kScale = 0.008;
constexpr uint64_t kMem = 160ull << 20;

// Kernel cache shared across the suite (building is the slow part).
struct BuiltKernel {
  KernelBuildInfo info;
  Storage storage;
};

BuiltKernel& GetKernel(RandoMode rando) {
  static std::map<int, BuiltKernel>* cache = new std::map<int, BuiltKernel>();
  auto it = cache->find(static_cast<int>(rando));
  if (it != cache->end()) {
    return it->second;
  }
  BuiltKernel& built = (*cache)[static_cast<int>(rando)];
  auto result = BuildKernel(KernelConfig::Make(KernelProfile::kAws, rando, kScale));
  EXPECT_TRUE(result.ok());
  built.info = std::move(*result);
  built.storage.Put("vmlinux", built.info.vmlinux);
  if (!built.info.relocs.empty()) {
    built.storage.Put("vmlinux.relocs", SerializeRelocs(built.info.relocs));
  }
  return built;
}

MicroVmConfig BaseConfig(RandoMode rando, ImageTemplateCache* cache) {
  MicroVmConfig config;
  config.mem_size_bytes = kMem;
  config.kernel_image = "vmlinux";
  config.rando = rando;
  if (rando != RandoMode::kNone) {
    config.relocs_image = "vmlinux.relocs";
  }
  config.seed = 42;
  config.template_cache = cache;  // never share the process-global cache
  return config;
}

FaultPlan Plan(const char* spec, uint64_t seed = 1) {
  auto plan = FaultPlan::Parse(spec, seed);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

// ---- retry ----

TEST(BootSupervisorTest, CleanBootSucceedsFirstTry) {
  BuiltKernel& kernel = GetKernel(RandoMode::kKaslr);
  ImageTemplateCache cache;
  SupervisorOptions options;
  options.expected_checksum = kernel.info.expected_checksum;
  BootSupervisor supervisor(kernel.storage, BaseConfig(RandoMode::kKaslr, &cache), options);
  BootOutcome outcome = supervisor.Run();
  ASSERT_TRUE(outcome.ok) << outcome.ToString();
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(outcome.final_mode, RandoMode::kKaslr);
  EXPECT_EQ(outcome.degradations, 0u);
  EXPECT_EQ(outcome.watchdog_trips, 0u);
  EXPECT_FALSE(outcome.degraded());
  ASSERT_TRUE(outcome.report.has_value());
  EXPECT_TRUE(outcome.report->init_done);
  ASSERT_NE(supervisor.vm(), nullptr);
}

TEST(BootSupervisorTest, RetriesWithFreshSeedAfterTransientFault) {
  BuiltKernel& kernel = GetKernel(RandoMode::kKaslr);
  ImageTemplateCache cache;
  FaultScope faults(Plan("loader.reloc:error:n=1:max=1"));
  SupervisorOptions options;
  options.expected_checksum = kernel.info.expected_checksum;
  BootSupervisor supervisor(kernel.storage, BaseConfig(RandoMode::kKaslr, &cache), options);
  BootOutcome outcome = supervisor.Run();
  ASSERT_TRUE(outcome.ok) << outcome.ToString();
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_EQ(outcome.final_mode, RandoMode::kKaslr);  // same rung, not degraded
  EXPECT_EQ(outcome.degradations, 0u);
  ASSERT_EQ(outcome.history.size(), 2u);
  EXPECT_EQ(outcome.history[0].result, AttemptResult::kError);
  EXPECT_EQ(outcome.history[1].result, AttemptResult::kOk);
  // The retry drew a fresh randomization seed.
  EXPECT_NE(outcome.history[0].seed, outcome.history[1].seed);
}

// ---- degradation ladder ----

TEST(BootSupervisorTest, PersistentRelocFaultWalksTheFullLadder) {
  BuiltKernel& kernel = GetKernel(RandoMode::kFgKaslr);
  ImageTemplateCache cache;
  // Every relocation pass fails -> fgkaslr and kaslr rungs are unbootable;
  // nokaslr skips relocation entirely and must still come up.
  FaultScope faults(Plan("loader.reloc:error"));
  SupervisorOptions options;
  options.max_retries = 1;
  options.expected_checksum = kernel.info.expected_checksum;
  BootSupervisor supervisor(kernel.storage, BaseConfig(RandoMode::kFgKaslr, &cache), options);
  BootOutcome outcome = supervisor.Run();
  ASSERT_TRUE(outcome.ok) << outcome.ToString();
  EXPECT_EQ(outcome.requested, RandoMode::kFgKaslr);
  EXPECT_EQ(outcome.final_mode, RandoMode::kNone);
  EXPECT_EQ(outcome.degradations, 2u);
  EXPECT_TRUE(outcome.degraded());
  // 2 failed attempts per hardened rung, then nokaslr boots first try.
  EXPECT_EQ(outcome.attempts, 5u);
  ASSERT_EQ(outcome.history.size(), 5u);
  EXPECT_EQ(outcome.history[0].mode, RandoMode::kFgKaslr);
  EXPECT_EQ(outcome.history[2].mode, RandoMode::kKaslr);
  EXPECT_EQ(outcome.history[4].mode, RandoMode::kNone);
  EXPECT_EQ(outcome.history[4].result, AttemptResult::kOk);
}

// Trace drill: a full ladder walk under the tracer emits EXACTLY one
// supervisor.rung span per accounted attempt — no more (double emission),
// no fewer (an attempt path that skips the span), rejected-at-admission
// attempts included by contract.
TEST(BootSupervisorTest, EachAttemptEmitsExactlyOneRungSpan) {
  BuiltKernel& kernel = GetKernel(RandoMode::kFgKaslr);
  ImageTemplateCache cache;
  FaultScope faults(Plan("loader.reloc:error"));
  SupervisorOptions options;
  options.max_retries = 1;
  options.expected_checksum = kernel.info.expected_checksum;
  BootSupervisor supervisor(kernel.storage, BaseConfig(RandoMode::kFgKaslr, &cache), options);
  trace::Tracer::Instance().Start();
  BootOutcome outcome = supervisor.Run();
  trace::Tracer::Instance().Stop();
  ASSERT_TRUE(outcome.ok) << outcome.ToString();
  EXPECT_EQ(outcome.attempts, 5u);  // the full-ladder walk drilled above
  uint32_t rung_spans = 0;
  for (const trace::Event& event : trace::Tracer::Instance().Collect()) {
    if (std::string(event.name) == "supervisor.rung") {
      EXPECT_EQ(event.kind, trace::EventKind::kSpan);
      ++rung_spans;
    }
  }
  EXPECT_EQ(rung_spans, outcome.attempts);
  EXPECT_EQ(rung_spans, static_cast<uint32_t>(outcome.history.size()));
}

TEST(BootSupervisorTest, StrictPolicyRefusesToDegrade) {
  BuiltKernel& kernel = GetKernel(RandoMode::kKaslr);
  ImageTemplateCache cache;
  FaultScope faults(Plan("loader.reloc:error"));
  SupervisorOptions options;
  options.max_retries = 2;
  options.policy = DegradePolicy::kStrict;
  BootSupervisor supervisor(kernel.storage, BaseConfig(RandoMode::kKaslr, &cache), options);
  BootOutcome outcome = supervisor.Run();
  EXPECT_FALSE(outcome.ok) << outcome.ToString();
  EXPECT_EQ(outcome.attempts, 3u);  // first try + 2 retries, no second rung
  EXPECT_EQ(outcome.degradations, 0u);
  for (const AttemptRecord& attempt : outcome.history) {
    EXPECT_EQ(attempt.mode, RandoMode::kKaslr);
    EXPECT_EQ(attempt.result, AttemptResult::kError);
  }
  EXPECT_FALSE(outcome.final_status.ok());
  EXPECT_EQ(supervisor.vm(), nullptr);
}

// ---- watchdogs ----

TEST(BootSupervisorTest, WallClockWatchdogTripsAndRetrySucceeds) {
  BuiltKernel& kernel = GetKernel(RandoMode::kKaslr);
  ImageTemplateCache cache;
  SupervisorOptions options;
  options.expected_checksum = kernel.info.expected_checksum;

  // Calibrate the deadline against this build/machine (sanitizers and a
  // loaded CI core can slow a clean boot by an order of magnitude): the
  // watchdog gets 8x a measured clean boot, the injected stall 5x the
  // watchdog, so attempt 0 always trips and the clean retry never does.
  Stopwatch calib_timer;
  {
    BootSupervisor calib(kernel.storage, BaseConfig(RandoMode::kKaslr, &cache), options);
    ASSERT_TRUE(calib.Run().ok);
  }
  const uint64_t watchdog_ms =
      std::max<uint64_t>(100, 8 * calib_timer.ElapsedNs() / 1000000);

  FaultPlan plan;
  FaultRule stall;
  stall.point = "vcpu.enter";
  stall.flavor = FaultFlavor::kDelay;
  stall.nth = 1;
  stall.max_fires = 1;
  stall.delay_us = watchdog_ms * 5000;
  plan.rules.push_back(stall);
  FaultScope faults(plan);

  options.watchdog_wall_ms = watchdog_ms;
  BootSupervisor supervisor(kernel.storage, BaseConfig(RandoMode::kKaslr, &cache), options);
  BootOutcome outcome = supervisor.Run();
  ASSERT_TRUE(outcome.ok) << outcome.ToString();
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_EQ(outcome.watchdog_trips, 1u);
  EXPECT_EQ(outcome.history[0].result, AttemptResult::kWatchdogWall);
  EXPECT_EQ(outcome.history[1].result, AttemptResult::kOk);
}

TEST(BootSupervisorTest, InstructionBudgetWatchdogIsClassified) {
  BuiltKernel& kernel = GetKernel(RandoMode::kKaslr);
  ImageTemplateCache cache;
  SupervisorOptions options;
  options.max_retries = 0;
  options.policy = DegradePolicy::kStrict;
  options.watchdog_instructions = 1000;  // far below what guest init needs
  BootSupervisor supervisor(kernel.storage, BaseConfig(RandoMode::kKaslr, &cache), options);
  BootOutcome outcome = supervisor.Run();
  EXPECT_FALSE(outcome.ok) << outcome.ToString();
  ASSERT_EQ(outcome.history.size(), 1u);
  EXPECT_EQ(outcome.history[0].result, AttemptResult::kWatchdogInstructions);
  EXPECT_EQ(outcome.watchdog_trips, 1u);
  EXPECT_EQ(outcome.final_status.code(), ErrorCode::kDeadlineExceeded);
}

// ---- cache integrity ----

TEST(BootSupervisorTest, CorruptCacheHitIsQuarantinedAndRebuilt) {
  BuiltKernel& kernel = GetKernel(RandoMode::kKaslr);
  ImageTemplateCache cache;
  cache.set_integrity_mode(ImageTemplateCache::IntegrityMode::kFull);

  // Warm the cache with one clean supervised boot.
  SupervisorOptions options;
  options.expected_checksum = kernel.info.expected_checksum;
  {
    BootSupervisor warm(kernel.storage, BaseConfig(RandoMode::kKaslr, &cache), options);
    ASSERT_TRUE(warm.Run().ok);
  }
  ASSERT_EQ(cache.misses(), 1u);
  ASSERT_EQ(cache.quarantined(), 0u);

  // The next hit hands out a template whose shared pristine bytes rot in
  // flight; full-integrity verification must catch it on that same hit,
  // quarantine the entry, and rebuild — the boot itself stays clean.
  FaultScope faults(Plan("template.cache_hit:corrupt:n=1:max=1:bytes=8"));
  BootSupervisor supervisor(kernel.storage, BaseConfig(RandoMode::kKaslr, &cache), options);
  BootOutcome outcome = supervisor.Run();
  ASSERT_TRUE(outcome.ok) << outcome.ToString();
  EXPECT_EQ(outcome.attempts, 1u);  // recovery is transparent to the boot
  EXPECT_EQ(cache.quarantined(), 1u);
  EXPECT_EQ(cache.misses(), 2u);  // initial build + rebuild after quarantine
  ASSERT_TRUE(outcome.report.has_value());
  EXPECT_EQ(outcome.report->init_checksum, kernel.info.expected_checksum);
}

// ---- determinism ----

TEST(BootSupervisorTest, IdenticalSeedsReplayIdenticalHistories) {
  BuiltKernel& kernel = GetKernel(RandoMode::kKaslr);
  const FaultPlan plan = Plan("loader.reloc:error:n=1:max=1", 77);
  SupervisorOptions options;
  options.expected_checksum = kernel.info.expected_checksum;

  std::vector<AttemptRecord> histories[2];
  for (auto& history : histories) {
    ImageTemplateCache cache;
    FaultScope faults(plan);  // re-arm: fault schedule restarts
    BootSupervisor supervisor(kernel.storage, BaseConfig(RandoMode::kKaslr, &cache), options);
    BootOutcome outcome = supervisor.Run();
    ASSERT_TRUE(outcome.ok) << outcome.ToString();
    history = outcome.history;
  }
  ASSERT_EQ(histories[0].size(), histories[1].size());
  for (size_t i = 0; i < histories[0].size(); ++i) {
    EXPECT_EQ(histories[0][i].mode, histories[1][i].mode);
    EXPECT_EQ(histories[0][i].seed, histories[1][i].seed);
    EXPECT_EQ(histories[0][i].result, histories[1][i].result);
  }
}

// ---- memory governance ----

TEST(BootSupervisorTest, MemRejectionAndBootFaultAreBothAccounted) {
  BuiltKernel& kernel = GetKernel(RandoMode::kKaslr);
  ImageTemplateCache cache;

  // Combined drill: attempt 0 is bounced at the (synthetic) hard watermark
  // before any boot work, attempt 1 is admitted but dies in relocation,
  // attempt 2 boots clean. Every attempt — rejected or failed — must land in
  // the history with its own classification and consume one retry.
  FaultScope faults(
      Plan("mem.pressure_hard:error:n=1:max=1;loader.reloc:error:n=1:max=1"));
  MemGovernor governor;  // accounting-only: no budget, fault-driven denial
  SupervisorOptions options;
  options.expected_checksum = kernel.info.expected_checksum;
  options.admit_wait_ms = 0;  // one admission poll per attempt: no re-poll
  MicroVmConfig config = BaseConfig(RandoMode::kKaslr, &cache);
  config.mem_governor = &governor;
  BootSupervisor supervisor(kernel.storage, config, options);
  BootOutcome outcome = supervisor.Run();
  ASSERT_TRUE(outcome.ok) << outcome.ToString();
  EXPECT_EQ(outcome.attempts, 3u);
  EXPECT_EQ(outcome.mem_rejections, 1u);
  EXPECT_EQ(outcome.degradations, 0u);
  ASSERT_EQ(outcome.history.size(), 3u);
  EXPECT_EQ(outcome.history[0].result, AttemptResult::kRejectedMemPressure);
  EXPECT_EQ(outcome.history[1].result, AttemptResult::kError);
  EXPECT_EQ(outcome.history[2].result, AttemptResult::kOk);
  // The rejection stayed on the requested rung (it is backpressure, not a
  // boot failure) and the retry after it drew a fresh seed as usual.
  for (const AttemptRecord& attempt : outcome.history) {
    EXPECT_EQ(attempt.mode, RandoMode::kKaslr);
  }
  EXPECT_NE(outcome.history[1].seed, outcome.history[2].seed);
  const MemGovernor::Stats stats = governor.stats();
  EXPECT_EQ(stats.admit_rejects, 1u);
  EXPECT_EQ(stats.admits, 2u);
}

TEST(BootSupervisorTest, SustainedHardPressureRejectsEveryAttempt) {
  BuiltKernel& kernel = GetKernel(RandoMode::kKaslr);
  ImageTemplateCache cache;

  MemGovernorOptions gov_options;
  gov_options.budget_bytes = 1ull << 20;
  MemGovernor governor(gov_options);
  // Pin the fleet over the hard watermark with bytes no ladder can shed
  // (there are no reclaimable hooks registered).
  governor.Charge(MemCategory::kGuestFrames, 2ull << 20);

  SupervisorOptions options;
  options.max_retries = 1;
  options.policy = DegradePolicy::kStrict;
  options.admit_wait_ms = 1;
  MicroVmConfig config = BaseConfig(RandoMode::kKaslr, &cache);
  config.mem_governor = &governor;
  {
    BootSupervisor supervisor(kernel.storage, config, options);
    BootOutcome outcome = supervisor.Run();
    EXPECT_FALSE(outcome.ok) << outcome.ToString();
    // Strict keeps the requested rung plus the same-mode pressure rung:
    // 2 rungs x (1 + max_retries) attempts, every one bounced.
    EXPECT_EQ(outcome.attempts, 4u);
    EXPECT_EQ(outcome.mem_rejections, outcome.attempts);
    EXPECT_EQ(outcome.degradations, 0u);
    ASSERT_EQ(outcome.history.size(), 4u);
    for (const AttemptRecord& attempt : outcome.history) {
      EXPECT_EQ(attempt.result, AttemptResult::kRejectedMemPressure);
      EXPECT_EQ(attempt.mode, RandoMode::kKaslr);
    }
    EXPECT_FALSE(outcome.history[0].caches_off);
    EXPECT_FALSE(outcome.history[1].caches_off);
    EXPECT_TRUE(outcome.history[2].caches_off);
    EXPECT_TRUE(outcome.history[3].caches_off);
    EXPECT_EQ(outcome.final_status.code(), ErrorCode::kResourceExhausted);
    EXPECT_EQ(supervisor.vm(), nullptr);
  }

  // Releasing the pinned bytes reopens admission: the same config boots.
  governor.Release(MemCategory::kGuestFrames, 2ull << 20);
  options.expected_checksum = kernel.info.expected_checksum;
  BootSupervisor supervisor(kernel.storage, config, options);
  BootOutcome outcome = supervisor.Run();
  ASSERT_TRUE(outcome.ok) << outcome.ToString();
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(outcome.mem_rejections, 0u);
}

TEST(BootSupervisorTest, PressureRungBootsWithSharedCachesOff) {
  BuiltKernel& kernel = GetKernel(RandoMode::kKaslr);
  ImageTemplateCache cache;
  MemGovernor governor;
  SupervisorOptions options;
  options.expected_checksum = kernel.info.expected_checksum;

  // Warm the shared template cache so a cached attempt would take the hit
  // path — the caches-off boot below must leave the hit counter at zero.
  {
    MicroVmConfig warm_config = BaseConfig(RandoMode::kKaslr, &cache);
    BootSupervisor warm(kernel.storage, warm_config, options);
    ASSERT_TRUE(warm.Run().ok);
  }
  ASSERT_EQ(cache.misses(), 1u);
  ASSERT_EQ(cache.hits(), 0u);

  // Synthetic hard pressure bounces both attempts of the cached rung (one
  // rule per admission poll: `n=` fires on exactly the nth hit); the
  // governed pressure rung then boots the SAME mode with shared caches off —
  // permitted under kStrict because it trades no hardening.
  FaultScope faults(
      Plan("mem.pressure_hard:error:n=1:max=1;mem.pressure_hard:error:n=2:max=1"));
  options.max_retries = 1;
  options.policy = DegradePolicy::kStrict;
  options.admit_wait_ms = 0;  // one admission poll per attempt
  MicroVmConfig config = BaseConfig(RandoMode::kKaslr, &cache);
  config.mem_governor = &governor;
  BootSupervisor supervisor(kernel.storage, config, options);
  BootOutcome outcome = supervisor.Run();
  ASSERT_TRUE(outcome.ok) << outcome.ToString();
  EXPECT_EQ(outcome.final_mode, RandoMode::kKaslr);
  EXPECT_EQ(outcome.degradations, 0u);
  EXPECT_EQ(outcome.mem_rejections, 2u);
  EXPECT_EQ(outcome.attempts, 3u);  // 2 bounced cached attempts + 1 caches-off boot
  ASSERT_EQ(outcome.history.size(), 3u);
  EXPECT_FALSE(outcome.history[0].caches_off);
  EXPECT_FALSE(outcome.history[1].caches_off);
  EXPECT_EQ(outcome.history[0].result, AttemptResult::kRejectedMemPressure);
  EXPECT_EQ(outcome.history[1].result, AttemptResult::kRejectedMemPressure);
  EXPECT_TRUE(outcome.history[2].caches_off);
  EXPECT_EQ(outcome.history[2].result, AttemptResult::kOk);
  // The winning boot really bypassed the warm shared cache.
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
  ASSERT_TRUE(outcome.report.has_value());
  EXPECT_EQ(outcome.report->init_checksum, kernel.info.expected_checksum);
}

// ---- supervised boot storm ----

TEST(SupervisedStormTest, FaultFreeSupervisionPreservesLayoutsAndTallies) {
  BuiltKernel& kernel = GetKernel(RandoMode::kKaslr);
  const Bytes relocs_blob = SerializeRelocs(kernel.info.relocs);

  StormOptions options;
  options.vms = 4;
  options.threads = 2;
  options.vm.rando = RandoMode::kKaslr;
  options.vm.mem_size_bytes = kMem;
  options.supervisor.expected_checksum = kernel.info.expected_checksum;
  options.keep_kernel_regions = true;
  options.seed_base = 99;

  auto plain = RunBootStorm(ByteSpan(kernel.info.vmlinux), ByteSpan(relocs_blob), options);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  options.supervise = true;
  auto supervised = RunBootStorm(ByteSpan(kernel.info.vmlinux), ByteSpan(relocs_blob), options);
  ASSERT_TRUE(supervised.ok()) << supervised.status().ToString();

  // Supervision is a wrapper: with no faults it must not disturb layouts.
  ASSERT_EQ(supervised->kernel_regions.size(), plain->kernel_regions.size());
  for (size_t i = 0; i < plain->kernel_regions.size(); ++i) {
    EXPECT_EQ(supervised->kernel_regions[i], plain->kernel_regions[i]) << "VM " << i;
  }
  const StormStats::OutcomeTally& tally = supervised->outcomes;
  EXPECT_EQ(tally.accounted(), options.vms);
  EXPECT_EQ(tally.ok_first_try, options.vms);
  EXPECT_EQ(tally.failed, 0u);
  EXPECT_EQ(tally.watchdog_trips, 0u);
  EXPECT_EQ(tally.faults_injected, 0u);
}

TEST(SupervisedStormTest, InjectedFailureIsRetriedNotFatal) {
  BuiltKernel& kernel = GetKernel(RandoMode::kKaslr);
  const Bytes relocs_blob = SerializeRelocs(kernel.info.relocs);

  StormOptions options;
  options.vms = 6;
  options.threads = 1;  // serial: the global fault-hit order is the VM order
  options.warmup_per_thread = 0;
  options.vm.rando = RandoMode::kKaslr;
  options.vm.mem_size_bytes = kMem;
  options.supervisor.expected_checksum = kernel.info.expected_checksum;
  options.seed_base = 5;
  options.supervise = true;

  // Exactly the third relocation pass fails: VM 2's first attempt. The storm
  // must absorb it as one retried VM, not abort.
  FaultScope faults(Plan("loader.reloc:error:n=3:max=1"));
  auto storm = RunBootStorm(ByteSpan(kernel.info.vmlinux), ByteSpan(relocs_blob), options);
  ASSERT_TRUE(storm.ok()) << storm.status().ToString();

  const StormStats::OutcomeTally& tally = storm->outcomes;
  EXPECT_EQ(tally.accounted(), options.vms);
  EXPECT_EQ(tally.ok_first_try, options.vms - 1);
  EXPECT_EQ(tally.ok_retried, 1u);
  EXPECT_EQ(tally.ok_degraded, 0u);
  EXPECT_EQ(tally.failed, 0u);
  EXPECT_EQ(tally.attempts_total, options.vms + 1);
  EXPECT_EQ(tally.faults_injected, 1u);
  // Failed attempts never leak into the latency samples.
  EXPECT_EQ(storm->boot_ms.count(), options.vms);
}

TEST(SupervisedStormTest, HardPressureRejectionsAreTalliedPerLaunch) {
  BuiltKernel& kernel = GetKernel(RandoMode::kKaslr);
  const Bytes relocs_blob = SerializeRelocs(kernel.info.relocs);

  // An external governor pinned over its hard watermark: every churned
  // launch must be turned away at admission and land in the rejected_mem
  // bucket — accounted() still covers every launch, nothing is dropped.
  MemGovernorOptions gov_options;
  gov_options.budget_bytes = 1ull << 20;
  MemGovernor governor(gov_options);
  governor.Charge(MemCategory::kGuestFrames, 2ull << 20);

  StormOptions options;
  options.vms = 4;
  options.threads = 2;
  options.churn_cycles = 2;
  options.warmup_per_thread = 0;
  options.vm.rando = RandoMode::kKaslr;
  options.vm.mem_size_bytes = kMem;
  options.seed_base = 7;
  options.supervise = true;
  options.supervisor.max_retries = 0;
  options.supervisor.admit_wait_ms = 1;
  options.vm.mem_governor = &governor;

  auto storm = RunBootStorm(ByteSpan(kernel.info.vmlinux), ByteSpan(relocs_blob), options);
  ASSERT_TRUE(storm.ok()) << storm.status().ToString();

  const uint32_t launches = options.vms * options.churn_cycles;
  EXPECT_EQ(storm->launches, launches);
  const StormStats::OutcomeTally& tally = storm->outcomes;
  EXPECT_EQ(tally.accounted(), launches);
  EXPECT_EQ(tally.rejected_mem, launches);
  EXPECT_EQ(tally.ok_first_try, 0u);
  EXPECT_EQ(tally.failed, 0u);
  // Every supervised attempt was an admission bounce, and each one is
  // visible at attempt granularity too.
  EXPECT_EQ(tally.mem_rejected_attempts, tally.attempts_total);
  EXPECT_GT(tally.attempts_total, 0u);
  EXPECT_EQ(storm->boot_ms.count(), 0u);
  ASSERT_TRUE(storm->mem.has_value());
  EXPECT_GE(storm->mem->admit_rejects, launches);
}

}  // namespace
}  // namespace imk
