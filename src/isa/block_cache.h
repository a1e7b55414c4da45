// Decoded-block caches for the predecoded execution engine (src/isa/uop.h).
//
// Two tiers, mirroring the frame-sharing story of the CoW guest memory
// (DESIGN.md §9): boot-storm VMs zero-copy-map the same pristine template
// frames, so the expensive part of interpretation — decoding a basic block
// into uops — is just as shareable as the bytes themselves.
//
//   - SharedBlockCache: process-wide (one per storm), keyed by the identity
//     of the immutable template bytes a shared frame aliases plus the
//     in-frame byte offset. The first VM to execute a block decodes it; every
//     later VM grabs the finished decode. Guarded by a rank-ordered mutex
//     (race::LockRank::kBlockCache) because storm workers hit it
//     concurrently. Blocks over template bytes are never invalidated (the
//     bytes are immutable), and each entry pins the template's owning
//     shared_ptr (FrameStore::SharedOwner), so a backing template can never
//     be freed and its addresses reused while blocks keyed by them are
//     resident — the pointer key stays collision-free without any per-grab
//     source re-hash.
//
//   - BlockCache: per-VM front-end. A direct-mapped table from guest-virtual
//     block start to the block decoded there, validated on every dispatch
//     against the FrameStore's frame-version counters (bumped by any write
//     into a code-flagged frame: relocation fixups, the lazy kallsyms hook,
//     self-modifying guest code). Keying by virtual address lets a dispatch
//     hit skip address translation entirely — the binding is sound because
//     the interpreter's linear maps are fixed while it runs. Blocks over
//     dirty or zero frames are private to the VM; blocks over shared frames
//     go through the shared tier.
//
// Grab-time integrity: a block taken from the shared tier is accepted only
// if the uop array still digests to uop_digest (corruption; the
// interp.blockcache:corrupt fault point drills exactly this comparison). A
// failure falls back to a fresh slow-path decode — the cache can degrade
// throughput, never correctness.
#ifndef IMKASLR_SRC_ISA_BLOCK_CACHE_H_
#define IMKASLR_SRC_ISA_BLOCK_CACHE_H_

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/base/frame_store.h"
#include "src/base/mem_accounting.h"
#include "src/isa/uop.h"
#include "src/race/annotations.h"
#include "src/race/mutex.h"

namespace imk {

// Cross-VM tier. Thread-safe; one instance is shared by every VM of a storm.
//
// Besides the per-block map it keeps whole decode *tables*: the first VM to
// boot a given layout (template identity + slide + shuffle) logs every
// shared-tier block it dispatched and publishes the log at halt; a later VM
// booting the identical layout adopts the entire table up front and skips
// the per-block grab (mutex + hash probe) for all of it. This is the decode
// analogue of the ahead-of-time layout pool: once the layout is fixed, the
// whole vaddr -> decoded-block relation is fleet-wide state.
class SharedBlockCache : public Reclaimable {
 public:
  struct Stats {
    uint64_t hits = 0;            // grabs that found a decoded block
    uint64_t misses = 0;          // grabs that found nothing
    uint64_t stale_replaced = 0;  // entries replaced after a grab-time digest mismatch
    uint64_t blocks = 0;          // distinct blocks resident
    uint64_t tables = 0;          // layout tables resident
    uint64_t table_grabs = 0;     // whole-table adoptions served
    uint64_t retired_blocks = 0;  // blocks dropped by memory reclamation
    uint64_t retired_tables = 0;  // published tables dropped by memory reclamation
  };

  // One adoptable binding: the block the donor VM dispatched at `vaddr`,
  // decoded from the template bytes `src` that guest frame `frame` aliased.
  // An adopter honors the entry only if its own `frame` still aliases the
  // same `src` (the template-identity guard) and the uops digest clean.
  struct TableEntry {
    uint64_t vaddr = 0;
    uint32_t frame = 0;
    const uint8_t* src = nullptr;
    std::shared_ptr<const DecodedBlock> block;
  };
  struct Table {
    std::vector<TableEntry> entries;
    // Open-addressing vaddr -> entry index, built once at publish time so
    // every adopter resolves a miss with one mutex-free probe sequence.
    std::vector<uint32_t> index;
    uint32_t index_mask = 0;
    // Pins every template the entries' `src` pointers point into, so the
    // identity compare above can never match recycled memory.
    std::vector<std::shared_ptr<const void>> owners;

    const TableEntry* Find(uint64_t vaddr) const {
      if (entries.empty()) {
        return nullptr;
      }
      uint32_t i = static_cast<uint32_t>((vaddr * 0x9e3779b97f4a7c15ull) >> 32) & index_mask;
      while (true) {
        const uint32_t e = index[i];
        if (e == kEmptyIndex) {
          return nullptr;
        }
        if (entries[e].vaddr == vaddr) {
          return &entries[e];
        }
        i = (i + 1) & index_mask;
      }
    }

    static constexpr uint32_t kEmptyIndex = 0xffffffffu;
  };

  // The published table for `layout_key`, or nullptr. The key must capture
  // everything that fixes the guest layout (template identity, slides,
  // shuffle permutation): two VMs with equal keys translate every vaddr to
  // identical template bytes by construction.
  std::shared_ptr<const Table> GrabTable(uint64_t layout_key);

  // Publishes a finished VM's block log for `layout_key`. First-wins: a
  // table already resident for the key stays (the racing logs are
  // equivalent).
  void PublishTable(uint64_t layout_key, Table table);

  // `src_frame` is the immutable template frame the guest frame aliases
  // (FrameStore::SharedSource); `offset` the block start within it. The two
  // uniquely identify the encoded bytes across every VM of the fleet.
  std::shared_ptr<const DecodedBlock> Grab(const uint8_t* src_frame, uint32_t offset);

  // Publishes `block` for (src_frame, offset). First-wins: if another VM
  // already installed one, that one is returned instead (the racing decodes
  // are byte-identical). `owner` is the shared_ptr pinning the template
  // bytes behind `src_frame` (kept alive with the entry so the key can
  // never alias a recycled allocation). `replace` forces the new block in —
  // used after a grab-time digest mismatch proved the resident entry bad.
  std::shared_ptr<const DecodedBlock> Install(const uint8_t* src_frame, uint32_t offset,
                                              std::shared_ptr<const DecodedBlock> block,
                                              std::shared_ptr<const void> owner, bool replace);

  Stats stats() const;

  // Fleet memory governance (decode-tables category). Installed blocks and
  // published tables are charged as they land; ReclaimMemory — the middle
  // governor ladder tier — retires tables first (pure accelerators: the next
  // same-layout boot just logs and republishes), then blocks (the next
  // executor re-decodes). Blocks a running VM still pins stay alive through
  // their shared_ptrs; what this drops is the cache's own reference.
  ~SharedBlockCache() override;
  void set_accountant(std::shared_ptr<ByteAccountant> accountant);
  uint64_t ReclaimMemory(uint64_t want_bytes) override;
  const char* reclaim_name() const override { return "block-cache"; }

 private:
  static uint64_t Key(const uint8_t* src_frame, uint32_t offset) {
    // Frame sources within one template are >= 4096 bytes apart and offsets
    // are < 4096, so pointer + offset is collision-free.
    return reinterpret_cast<uint64_t>(src_frame) + offset;
  }

  struct Entry {
    std::shared_ptr<const DecodedBlock> block;
    std::shared_ptr<const void> owner;  // pins the template behind the key
  };

  mutable race::Mutex mutex_{race::LockRank::kBlockCache};
  std::unordered_map<uint64_t, Entry> blocks_ IMK_GUARDED_BY(kBlockCache);
  std::unordered_map<uint64_t, std::shared_ptr<const Table>> tables_ IMK_GUARDED_BY(kBlockCache);
  uint64_t hits_ IMK_GUARDED_BY(kBlockCache) = 0;
  uint64_t misses_ IMK_GUARDED_BY(kBlockCache) = 0;
  uint64_t stale_replaced_ IMK_GUARDED_BY(kBlockCache) = 0;
  uint64_t table_grabs_ IMK_GUARDED_BY(kBlockCache) = 0;
  uint64_t retired_blocks_ IMK_GUARDED_BY(kBlockCache) = 0;
  uint64_t retired_tables_ IMK_GUARDED_BY(kBlockCache) = 0;
  uint64_t accounted_bytes_ IMK_GUARDED_BY(kBlockCache) = 0;
  std::shared_ptr<ByteAccountant> accountant_ IMK_GUARDED_BY(kBlockCache);
};

// Per-dispatch counters the engine folds into ExecStats.
struct BlockCacheCounters {
  uint64_t hits = 0;           // dispatches served by the per-VM table
  uint64_t misses = 0;         // dispatches that had to grab or decode
  uint64_t invalidations = 0;  // cached blocks retired (version bump or digest fallback)
  uint64_t shared_grabs = 0;   // blocks obtained from / published to the shared tier
  uint64_t private_decodes = 0;  // blocks decoded privately (dirty/zero/straddling)
};

// Per-VM tier. Single-threaded, like the vCPU that owns it.
class BlockCache {
 public:
  explicit BlockCache(FrameStore& store)
      : store_(&store),
        slots_(static_cast<Slot*>(std::calloc(kSlotCount, sizeof(Slot)))) {}
  ~BlockCache() { std::free(slots_); }
  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  void set_shared(SharedBlockCache* shared) { shared_ = shared; }

  // Hit fast path, inlined into the dispatch loop: the block cached for
  // guest-virtual `vaddr`, still valid against the frame versions, or null
  // (miss / retired — the caller translates and calls LookupSlow). This is
  // what makes vaddr keying pay: a hit costs one hash, one slot probe and
  // two version loads, with no address translation at all.
  const DecodedBlock* Find(uint64_t vaddr) {
    const Slot& slot = slots_[SlotIndex(vaddr)];
    if (slot.block != nullptr && slot.vaddr == vaddr &&
        store_->FrameVersion(slot.frame0) == slot.v0 &&
        (slot.frame1 == slot.frame0 || store_->FrameVersion(slot.frame1) == slot.v1)) {
      ++counters_.hits;
      return slot.block;
    }
    return nullptr;
  }

  // Miss path: decodes (or grabs from the shared tier) the block starting at
  // guest-physical `phys` — the caller's translation of `vaddr` — and binds
  // it to `vaddr` (`avail` bounds the fetch window as in DecodeBlock). Never
  // null. A block with zero uops means the first instruction did not fit the
  // window: the caller must single-step it. Installing a block marks its
  // frames code-bearing (MarkCodeFrame) before returning; the engine's write
  // TLB re-checks that flag on every hit, so no TLB flush is needed when an
  // install happens.
  const DecodedBlock* LookupSlow(uint64_t vaddr, uint64_t phys, uint64_t avail);

  // Drops every vaddr -> block binding. The vaddr -> phys mapping a slot
  // captures is stable only while the interpreter's linear maps are fixed;
  // the interpreter calls this if a map is ever re-pointed.
  void InvalidateBindings() {
    std::free(slots_);
    slots_ = static_cast<Slot*>(std::calloc(kSlotCount, sizeof(Slot)));
  }

  // Whole-table adoption (see SharedBlockCache::Table). Called once before
  // the first dispatch, with `layout_key` identifying this VM's exact guest
  // layout. If the shared tier holds a table for the key, this VM binds it:
  // from then on every per-VM miss resolves against the table's mutex-free
  // index before falling back to the per-block grab path, and an entry is
  // honored only if it survives the guards — the frame still aliases the
  // donor's template bytes and the uops digest clean (adoption is lazy, so
  // each VM digests exactly the blocks it actually dispatches, the same
  // once-per-acquisition integrity rule as a grab). If no table exists yet,
  // this VM starts logging its own shareable blocks for PublishTable().
  // No-op when layout_key is 0 or no shared tier is attached.
  void AdoptTable(uint64_t layout_key);

  // Publishes the log started by AdoptTable (if any) to the shared tier.
  // The interpreter calls this when the guest halts — a completed run, so
  // the log covers the layout's dynamic block set.
  void PublishTable();

  const BlockCacheCounters& counters() const { return counters_; }

 private:
  // POD on purpose: the table is one calloc'd allocation whose all-zero
  // state means "every slot empty" (block == nullptr), so untouched slots
  // cost address space, not resident memory or construction time — the
  // same lazily-backed trick as the FrameStore arena. Ownership of the
  // decoded blocks lives in `pins_`; slots hold raw pointers.
  // 32 bytes — two slots per cache line. Frame indices are 32-bit on
  // purpose: a frame index is phys >> 12, so 32 bits covers 16 TiB of guest
  // RAM, far beyond any FrameStore here.
  struct Slot {
    uint64_t vaddr;   // guest-virtual block start (valid only when block != nullptr)
    uint32_t frame0;  // frames whose versions validate the block
    uint32_t frame1;  // == frame0 unless the last insn straddles
    uint32_t v0;
    uint32_t v1;
    const DecodedBlock* block;  // null = empty
  };
  static_assert(sizeof(Slot) == 32, "Slot packing regressed");
  // 64 Ki direct-mapped slots. A scaled kernel image yields tens of
  // thousands of distinct run-once init blocks; a smaller table thrashes on
  // conflict evictions and pays the shared-tier grab (mutex + hash probe +
  // digest) over and over for the same block.
  static constexpr uint32_t kSlotBits = 16;
  static constexpr size_t kSlotCount = 1ull << kSlotBits;

  static size_t SlotIndex(uint64_t vaddr) {
    return static_cast<size_t>((vaddr * 0x9e3779b97f4a7c15ull) >> (64 - kSlotBits));
  }

  FrameStore* store_;
  SharedBlockCache* shared_ = nullptr;
  Slot* slots_;
  BlockCacheCounters counters_;
  // Table adoption / publication state (AdoptTable, PublishTable).
  bool adopt_done_ = false;
  bool log_enabled_ = false;
  uint64_t publish_key_ = 0;
  std::vector<SharedBlockCache::TableEntry> publish_log_;
  std::vector<std::shared_ptr<const void>> log_owners_;
  std::shared_ptr<const SharedBlockCache::Table> adopted_;  // pins adopted blocks
  // Keeps every block ever installed into a slot alive for the VM's
  // lifetime (slots store raw pointers, and an evicted or invalidated
  // block may still be executing in the dispatch loop). Grows with the
  // miss count, which a boot bounds at roughly its distinct-block count.
  std::vector<std::shared_ptr<const DecodedBlock>> pins_;
  // Scratch for the uncacheable empty-block answer (first instruction
  // straddles the fetch window); kept alive until the next Lookup.
  std::shared_ptr<const DecodedBlock> empty_block_;
};

}  // namespace imk

#endif  // IMKASLR_SRC_ISA_BLOCK_CACHE_H_
