// The central lock-rank table: every mutex in the tree declares its rank.
//
// Ranks encode the global acquisition order. A thread may only acquire a
// lock whose rank is strictly greater than the rank of the last lock it
// already holds; acquiring equal-or-lower rank is a rank inversion — the
// static shape of a deadlock — and the audit runtime (src/race/tracker.h)
// flags it at acquisition time, whether or not the interleaving that would
// actually deadlock was scheduled. Sibling instances of one rank (the
// FrameStore fault shards) are therefore never held nested: the code
// acquires them strictly sequentially, and the audit enforces that too.
//
// Growing the tree: a new lock gets a new enumerator here, placed by where
// it sits in the outer-to-inner acquisition order (gaps are left for
// insertions), plus a row in kLockRankTable naming it and what it guards.
// tools/imk_lint refuses IMK_GUARDED_BY annotations whose rank is not in
// this enum, so the table cannot silently drift from the annotations.
#ifndef IMKASLR_SRC_RACE_LOCK_RANKS_H_
#define IMKASLR_SRC_RACE_LOCK_RANKS_H_

#include <cstddef>
#include <cstdint>

namespace imk {
namespace race {

enum class LockRank : uint32_t {
  // Only reachable through a wrapper that was never given a rank; the audit
  // reports every acquisition of it as a finding.
  kUnranked = 0,

  // ---- outermost: fleet drivers ----
  kStormError = 10,       // boot_storm first-error slot
  kStormTally = 20,       // boot_storm supervised-outcome tallies
  kMemGovernor = 30,      // MemGovernor hook registry + reclamation ladder
                          // (held while the ladder calls into every cache
                          // lock below; Charge/Release stay atomic-only so
                          // caches never lock back into the governor)

  // ---- shared randomization state ----
  kTemplateCache = 40,    // ImageTemplateCache LRU/index/single-flight state
  kLayoutPool = 45,       // LayoutPool ready deque + refill state (above the
                          // cache, below the pool: refill scheduling holds it
                          // while submitting to the ThreadPool)
  kThreadPool = 50,       // ThreadPool job publication + wait channels
  kBlockCache = 55,       // SharedBlockCache decoded-block map + counters
                          // (leaf among the shared caches: lookups and
                          // installs never take another lock while held)

  // ---- per-VM guest memory ----
  kFrameStoreFaultShard = 60,  // FrameStore CoW fault shards (64 siblings)
  kFrameStoreOwners = 70,      // FrameStore shared-mapping owner pins
  kFrameArenaPool = 75,        // idle guest-RAM arenas (leaf: held only
                               // around a free-list push or pop)

  // ---- innermost: leaf services callable from anywhere above ----
  kFaultInjector = 80,    // FaultInjector rule/counter state
  kTraceRegistry = 85,    // imktrace thread-ring/metrics-shard registry.
                          // Emit paths are lock-free; this mutex is taken
                          // only on first-emit registration and on
                          // scrape/export, so it ranks above every product
                          // lock — a thread may register its ring while
                          // holding any cache or governor lock.

  // ---- audit self-test (race drills only; never held by product code) ----
  kDrillOuter = 90,
  kDrillInner = 91,
};

struct LockRankInfo {
  LockRank rank;
  const char* name;    // stable string id used in reports
  const char* guards;  // what the lock protects (documentation)
};

// Every declared rank, in rank order. The audit runtime uses it for names;
// DESIGN.md §11 mirrors it prose-side.
inline constexpr LockRankInfo kLockRankTable[] = {
    {LockRank::kStormError, "storm-error", "boot_storm first-error slot"},
    {LockRank::kStormTally, "storm-tally", "boot_storm supervised-outcome tallies"},
    {LockRank::kMemGovernor, "mem-governor",
     "MemGovernor reclaimable-hook registry, ladder serialization, pressure epoch"},
    {LockRank::kTemplateCache, "template-cache",
     "ImageTemplateCache LRU list, key index, span memo, single-flight builds, counters"},
    {LockRank::kLayoutPool, "layout-pool",
     "LayoutPool ready deque, sequence counter, refill bookkeeping, counters"},
    {LockRank::kThreadPool, "thread-pool", "ThreadPool job slot, generation, shutdown flag"},
    {LockRank::kBlockCache, "block-cache",
     "SharedBlockCache decoded-block map, hit/miss/stale counters"},
    {LockRank::kFrameStoreFaultShard, "frame-store-fault-shard",
     "FrameStore per-shard frame state + read-pointer transitions"},
    {LockRank::kFrameStoreOwners, "frame-store-owners", "FrameStore shared-mapping owner pins"},
    {LockRank::kFrameArenaPool, "frame-arena-pool", "FrameStore process-wide idle arena list"},
    {LockRank::kFaultInjector, "fault-injector", "FaultInjector rules, seeds, hit counters"},
    {LockRank::kTraceRegistry, "trace-registry",
     "imktrace thread-ring + metrics-shard registry; scrape/export serialization"},
    {LockRank::kDrillOuter, "drill-outer", "race-audit self-test outer lock"},
    {LockRank::kDrillInner, "drill-inner", "race-audit self-test inner lock"},
};

inline constexpr size_t kLockRankCount = sizeof(kLockRankTable) / sizeof(kLockRankTable[0]);

inline const char* LockRankName(LockRank rank) {
  for (const LockRankInfo& info : kLockRankTable) {
    if (info.rank == rank) {
      return info.name;
    }
  }
  return "unranked";
}

inline uint32_t LockRankValue(LockRank rank) { return static_cast<uint32_t>(rank); }

}  // namespace race
}  // namespace imk

#endif  // IMKASLR_SRC_RACE_LOCK_RANKS_H_
