// LayoutPool drills: one-shot handout and exhaustion fallback, determinism
// across pool depths, bit-identity of a pooled launch vs the inline pipeline
// under the same derived seed, corrupt-render quarantine, refill-error
// fallback, concurrent grabs racing background refill (the TSan/race-audit
// lane), and cross-VM layout uniqueness over a pooled boot storm.
#include "src/vmm/layout_pool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/fault_injection.h"
#include "src/base/rng.h"
#include "src/base/threadpool.h"
#include "src/kernel/kernel_builder.h"
#include "src/kernel/relocs.h"
#include "src/verify/layout_uniqueness.h"
#include "src/vmm/boot_storm.h"
#include "src/vmm/guest_memory.h"
#include "src/vmm/image_template.h"
#include "src/vmm/loader.h"

namespace imk {
namespace {

constexpr double kScale = 0.008;
constexpr uint64_t kMem = 160ull << 20;

// Kernel + template shared across the suite (building is the slow part).
struct PoolFixture {
  KernelBuildInfo info;
  std::shared_ptr<const ImageTemplate> tmpl;
};

PoolFixture& GetFixture() {
  static PoolFixture* fixture = [] {
    auto* f = new PoolFixture();
    auto built =
        BuildKernel(KernelConfig::Make(KernelProfile::kAws, RandoMode::kFgKaslr, kScale));
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    f->info = std::move(*built);
    auto tmpl = BuildImageTemplate(ByteSpan(f->info.vmlinux), TemplateOptions{});
    EXPECT_TRUE(tmpl.ok()) << tmpl.status().ToString();
    f->tmpl = *tmpl;
    return f;
  }();
  return *fixture;
}

DirectBootParams FgParams() {
  DirectBootParams params;
  params.requested = RandoMode::kFgKaslr;
  return params;
}

FaultPlan Plan(const char* spec, uint64_t seed = 1) {
  auto plan = FaultPlan::Parse(spec, seed);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

uint64_t DigestOf(const LoadedKernel& loaded) {
  return loaded.fg.has_value() ? loaded.fg->map.PermutationDigest() : 0;
}

// ---- one-shot handout / exhaustion ----

TEST(LayoutPoolTest, OneShotHandoutThenExhaustionFallsBackInline) {
  PoolFixture& fx = GetFixture();
  const DirectBootParams params = FgParams();
  LayoutPoolOptions options;
  options.depth = 2;
  options.seed = 11;
  // No refill executor: once drained the pool stays drained, so boots 3 and 4
  // must fall back to the inline pipeline (and still randomize).
  LayoutPool pool(fx.tmpl, fx.info.relocs, params, kMem, options);
  ASSERT_TRUE(pool.Prefill(2).ok());

  DirectLoadResources resources;
  resources.layout_pool = &pool;
  std::set<std::pair<uint64_t, uint64_t>> layouts;
  for (int boot = 0; boot < 4; ++boot) {
    GuestMemory memory(kMem);
    Rng rng(1000 + boot);
    auto loaded =
        DirectLoadFromTemplate(memory, fx.tmpl, &fx.info.relocs, params, rng, resources);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->layout_pool_hit, boot < 2) << "boot " << boot;
    ASSERT_TRUE(loaded->fg.has_value());
    layouts.emplace(loaded->choice.virt_slide, DigestOf(*loaded));
  }
  // Pooled and fallback boots alike: four boots, four distinct layouts.
  EXPECT_EQ(layouts.size(), 4u);

  const LayoutPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.ready, 0u);
  EXPECT_EQ(stats.rendered, 2u);
}

// ---- determinism across depths ----

TEST(LayoutPoolTest, LayoutsDeterministicAcrossPoolDepths) {
  PoolFixture& fx = GetFixture();
  const DirectBootParams params = FgParams();
  LayoutPoolOptions shallow_opts;
  shallow_opts.depth = 2;
  shallow_opts.seed = 7;
  LayoutPoolOptions deep_opts;
  deep_opts.depth = 6;
  deep_opts.seed = 7;
  LayoutPool shallow(fx.tmpl, fx.info.relocs, params, kMem, shallow_opts);
  LayoutPool deep(fx.tmpl, fx.info.relocs, params, kMem, deep_opts);
  ASSERT_TRUE(shallow.Prefill(2).ok());
  ASSERT_TRUE(deep.Prefill(6).ok());

  for (uint64_t k = 0; k < 2; ++k) {
    auto a = shallow.TryGrab(fx.tmpl, params, kMem);
    auto b = deep.TryGrab(fx.tmpl, params, kMem);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    // Layout k depends only on (base seed, k) — never on pool depth.
    EXPECT_EQ(a->sequence, k);
    EXPECT_EQ(b->sequence, k);
    EXPECT_EQ(a->seed, LayoutPool::DeriveLayoutSeed(7, k));
    EXPECT_EQ(a->seed, b->seed);
    EXPECT_EQ(a->choice.virt_slide, b->choice.virt_slide);
    EXPECT_EQ(a->choice.phys_load_addr, b->choice.phys_load_addr);
    ASSERT_EQ(a->image.size(), b->image.size());
    EXPECT_EQ(std::memcmp(a->image.data(), b->image.data(), a->image.size()), 0);
  }
}

// ---- bit-identity vs the inline pipeline ----

TEST(LayoutPoolTest, PooledLaunchBitIdenticalToInlineWithDerivedSeed) {
  PoolFixture& fx = GetFixture();
  const DirectBootParams params = FgParams();
  LayoutPoolOptions options;
  options.depth = 1;
  options.seed = 21;
  LayoutPool pool(fx.tmpl, fx.info.relocs, params, kMem, options);
  ASSERT_TRUE(pool.Prefill(1).ok());

  DirectLoadResources pooled_resources;
  pooled_resources.layout_pool = &pool;
  GuestMemory pooled_mem(kMem);
  Rng pooled_rng(999);  // must stay untouched on a hit
  auto pooled = DirectLoadFromTemplate(pooled_mem, fx.tmpl, &fx.info.relocs, params, pooled_rng,
                                       pooled_resources);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  ASSERT_TRUE(pooled->layout_pool_hit);

  // The inline pipeline, seeded with the pool's derived seed for sequence 0,
  // must produce the same randomized bytes in guest memory.
  GuestMemory inline_mem(kMem);
  Rng inline_rng(LayoutPool::DeriveLayoutSeed(21, 0));
  auto plain =
      DirectLoadFromTemplate(inline_mem, fx.tmpl, &fx.info.relocs, params, inline_rng);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_FALSE(plain->layout_pool_hit);

  EXPECT_EQ(pooled->choice.virt_slide, plain->choice.virt_slide);
  EXPECT_EQ(pooled->choice.phys_load_addr, plain->choice.phys_load_addr);
  EXPECT_EQ(pooled->entry_vaddr, plain->entry_vaddr);
  EXPECT_EQ(DigestOf(*pooled), DigestOf(*plain));
  ASSERT_EQ(pooled->image_mem_size, plain->image_mem_size);
  auto pooled_bytes = pooled_mem.CopyRange(pooled->choice.phys_load_addr, pooled->image_mem_size);
  auto plain_bytes = inline_mem.CopyRange(plain->choice.phys_load_addr, plain->image_mem_size);
  ASSERT_TRUE(pooled_bytes.ok());
  ASSERT_TRUE(plain_bytes.ok());
  EXPECT_EQ(std::memcmp(pooled_bytes->data(), plain_bytes->data(), pooled_bytes->size()), 0);
}

// ---- fault drills ----

TEST(LayoutPoolTest, CorruptRenderQuarantinedAtGrab) {
  PoolFixture& fx = GetFixture();
  const DirectBootParams params = FgParams();
  // First render silently corrupted after its CRCs are stamped; the grab-time
  // re-verification must catch it, quarantine it, and serve the next layout.
  FaultScope faults(Plan("pool.render:corrupt:n=1:max=1"));
  LayoutPoolOptions options;
  options.depth = 2;
  options.seed = 31;
  options.integrity = ImageTemplateCache::IntegrityMode::kFull;
  LayoutPool pool(fx.tmpl, fx.info.relocs, params, kMem, options);
  ASSERT_TRUE(pool.Prefill(2).ok());

  auto grabbed = pool.TryGrab(fx.tmpl, params, kMem);
  ASSERT_NE(grabbed, nullptr);
  EXPECT_EQ(grabbed->sequence, 1u);  // sequence 0 was the corrupted render

  const LayoutPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.ready, 0u);
}

TEST(LayoutPoolTest, RefillErrorLeavesPoolShallowAndBootFallsBack) {
  PoolFixture& fx = GetFixture();
  const DirectBootParams params = FgParams();
  FaultScope faults(Plan("pool.refill:error"));  // every render fails
  LayoutPoolOptions options;
  options.depth = 2;
  options.seed = 41;
  LayoutPool pool(fx.tmpl, fx.info.relocs, params, kMem, options);
  EXPECT_FALSE(pool.Prefill(2).ok());
  EXPECT_EQ(pool.stats().ready, 0u);
  EXPECT_GE(pool.stats().refill_errors, 1u);

  // The drained pool must not block the launch: inline fallback still boots.
  DirectLoadResources resources;
  resources.layout_pool = &pool;
  GuestMemory memory(kMem);
  Rng rng(5);
  auto loaded = DirectLoadFromTemplate(memory, fx.tmpl, &fx.info.relocs, params, rng, resources);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->layout_pool_hit);
  ASSERT_TRUE(loaded->fg.has_value());
}

// ---- concurrency: grabs racing background refill ----

TEST(LayoutPoolTest, ConcurrentGrabsRaceRefillWithoutReuse) {
  PoolFixture& fx = GetFixture();
  const DirectBootParams params = FgParams();
  ThreadPool refill(2);  // outlives the pool (destruction order)
  LayoutPoolOptions options;
  options.depth = 4;
  options.refill_batch = 2;
  options.seed = 51;
  options.refill_pool = &refill;
  LayoutPool pool(fx.tmpl, fx.info.relocs, params, kMem, options);
  ASSERT_TRUE(pool.Prefill(4).ok());

  constexpr int kThreads = 4;
  constexpr int kGrabsPerThread = 6;
  std::vector<std::vector<uint64_t>> sequences(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int g = 0; g < kGrabsPerThread; ++g) {
        auto layout = pool.TryGrab(fx.tmpl, params, kMem);
        if (layout != nullptr) {
          sequences[t].push_back(layout->sequence);
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  pool.WaitIdle();

  // The one-shot guarantee under contention: no sequence handed out twice.
  std::set<uint64_t> seen;
  uint64_t handed_out = 0;
  for (const std::vector<uint64_t>& grabbed : sequences) {
    for (uint64_t sequence : grabbed) {
      seen.insert(sequence);
      ++handed_out;
    }
  }
  EXPECT_EQ(seen.size(), handed_out);

  const LayoutPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.hits, handed_out);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kGrabsPerThread);
  EXPECT_GE(stats.rendered, 5u);  // background refill replenished during the race
  EXPECT_EQ(stats.refill_errors, 0u);
}

// ---- cross-VM uniqueness over a pooled storm ----

TEST(LayoutPoolTest, PooledStormLayoutsAreUnique) {
  PoolFixture& fx = GetFixture();
  const Bytes relocs_blob = SerializeRelocs(fx.info.relocs);
  ImageTemplateCache cache;
  StormOptions options;
  options.vms = 12;
  options.threads = 3;
  options.vm.rando = RandoMode::kFgKaslr;
  options.vm.mem_size_bytes = kMem;
  options.supervisor.expected_checksum = fx.info.expected_checksum;
  options.vm.template_cache = &cache;
  options.launch_only = true;
  options.vm.layout_pool_depth = options.vms;
  options.keep_layouts = true;
  auto stats = RunBootStorm(ByteSpan(fx.info.vmlinux), ByteSpan(relocs_blob), options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->layouts.size(), 12u);
  EXPECT_GT(stats->pool_hits, 0u);
  EXPECT_EQ(stats->pool_hits + stats->pool_misses, 12u);

  VerifyReport report = CheckLayoutUniqueness(stats->layouts);
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_EQ(report.CountOf(Invariant::kDuplicateLayout), 0u);
}

// The storm keys its pool and its launches with one DirectBootParamsFor, so
// a launch spec with a non-default FG policy still matches its own pool.
TEST(LayoutPoolTest, PooledStormWithNonDefaultFgParamsHitsPool) {
  PoolFixture& fx = GetFixture();
  const Bytes relocs_blob = SerializeRelocs(fx.info.relocs);
  StormOptions options;
  options.vms = 4;
  options.threads = 2;
  options.vm.rando = RandoMode::kFgKaslr;
  options.vm.mem_size_bytes = kMem;
  options.vm.fg.kallsyms = KallsymsFixup::kLazy;
  options.launch_only = true;
  options.vm.layout_pool_depth = options.vms;
  auto stats = RunBootStorm(ByteSpan(fx.info.vmlinux), ByteSpan(relocs_blob), options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->pool_hits, 0u);
  EXPECT_EQ(stats->pool_hits + stats->pool_misses, options.vms);
}

// ---- duplicate detection (the checker itself) ----

TEST(LayoutPoolTest, UniquenessCheckerFlagsClonedLayouts) {
  std::vector<LayoutIdentity> layouts(3);
  layouts[0] = {0x1000000, 0x200000, 0xdeadbeef};
  layouts[1] = {0x2000000, 0x200000, 0xfeedface};
  layouts[2] = layouts[0];  // snapshot-clone twin: ASLR nullified
  VerifyReport report = CheckLayoutUniqueness(layouts);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.CountOf(Invariant::kDuplicateLayout), 1u);

  // Shared slide but distinct permutations: a warning, not an error.
  layouts[2] = {0x1000000, 0x200000, 0xabad1dea};
  report = CheckLayoutUniqueness(layouts);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.CountOf(Invariant::kDuplicateSlide), 1u);
}

}  // namespace
}  // namespace imk
