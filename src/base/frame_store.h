// FrameStore: paged guest physical memory with copy-on-write frames.
//
// RAM is a table of 4 KiB frames, each in one of three states:
//   - zero:   untouched RAM; reads see one process-wide static zero frame,
//             nothing is materialized.
//   - shared: the frame aliases immutable bytes owned by someone else
//             (an ImageTemplate's pristine image) — the monitor-CoW
//             mapping the paper's §6 density argument relies on.
//   - dirty:  the frame was written; its bytes live in this store's
//             private arena.
//
// The private arena is one contiguous, page-aligned anonymous mapping with a
// PROT_NONE guard page behind it, so every guest frame is exactly one host
// page. Because every materialized frame lands at arena + frame *
// kFrameBytes, any fully materialized range is host-contiguous: WritablePtr
// can hand out flat pointers spanning many frames, which is what lets the
// relocator and FGKASLR mover run unmodified over paged memory.
//
// Arenas are recycled. A destroyed store parks its arena on a small
// process-wide idle list (at most four arenas), and the next store
// of the same size takes it instead of first-touch faulting fresh host
// pages in. A recycled slot may still hold an earlier VM's bytes, so the
// zero -> dirty fault clears any slot that was ever materialized before
// (each arena carries a bitmap of those) — no recycled byte is visible
// before this store writes it. On return, slots that are resident but not
// dirty in the dying store are handed back to the host (MADV_DONTNEED), so
// an idle arena holds at most its last VM's dirty set. Idle arenas are not
// charged to any ByteAccountant: dirty-frame charge and release are exactly
// those of a store that frees its arena.
//
// Thread safety: concurrent WritablePtr/Read/Write calls on disjoint byte
// ranges are safe even when they share frames (the loader's ThreadPool
// shards do exactly that). Faulting is guarded by sharded mutexes; frame
// state and read pointers are released/acquired so a reader never observes
// a frame pointer before the bytes behind it are in place.
#ifndef IMKASLR_SRC_BASE_FRAME_STORE_H_
#define IMKASLR_SRC_BASE_FRAME_STORE_H_

#include <array>
#include <atomic>
#include <memory>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/mem_accounting.h"
#include "src/base/result.h"
#include "src/race/annotations.h"
#include "src/race/mutex.h"

namespace imk {

class FrameStore {
 public:
  static constexpr uint64_t kFrameBytes = 4096;

  // Owning store: `size_bytes` of RAM, all frames zero.
  explicit FrameStore(uint64_t size_bytes);
  // Flat adapter: wraps caller-owned storage, every frame pre-materialized
  // (no CoW). Used where a plain byte buffer must act as guest memory. Its
  // storage never enters the idle arena list.
  explicit FrameStore(MutableByteSpan external);
  ~FrameStore();
  FrameStore(const FrameStore&) = delete;
  FrameStore& operator=(const FrameStore&) = delete;

  uint64_t size() const { return size_; }
  uint64_t frame_count() const { return frame_count_; }

  // Aliases whole frames of [phys, phys + src.size()) to `src` zero-copy;
  // the sub-frame tail (if any) is copied into the arena. `phys` must be
  // frame-aligned; `src` must stay immutable and outlive the mapping
  // (`owner` pins it). Previously dirty frames revert to shared.
  Status MapShared(uint64_t phys, ByteSpan src, std::shared_ptr<const void> owner);

  // Write access: materializes every frame covering [phys, phys + len) and
  // returns the contiguous arena pointer. Thread-safe.
  Result<uint8_t*> WritablePtr(uint64_t phys, uint64_t len);

  // Read access without materializing. Fast path returns a direct pointer
  // (single frame, or an already-contiguous dirty run); a range straddling
  // a shared/zero frame boundary is gathered into `scratch`, which must
  // hold `len` bytes.
  Result<const uint8_t*> ReadPtr(uint64_t phys, uint64_t len, uint8_t* scratch) const;

  // Gather-copies [phys, phys + len) into `dst` without materializing.
  Status Read(uint64_t phys, uint8_t* dst, uint64_t len) const;

  // Copies `data` into the store (materializing covered frames).
  Status Write(uint64_t phys, ByteSpan data);

  // Zero-fills [phys, phys + len). Frames still in the zero state are left
  // untouched (no materialization — this is what keeps device-queue carving
  // free); shared/dirty frames are materialized and cleared.
  Status Zero(uint64_t phys, uint64_t len);

  // Direct per-frame inspection (for sharing reports).
  enum class FrameState : uint8_t { kZero = 0, kShared = 1, kDirty = 2 };
  FrameState StateOf(uint64_t frame) const {
    return static_cast<FrameState>(states_[frame].load(std::memory_order_acquire));
  }
  // Lock-free pointer to the frame's current kFrameBytes of content (the
  // static zero frame for zero frames, the owner's bytes for shared frames,
  // the arena slot for dirty frames). Any non-dirty -> dirty fault retargets
  // it; callers caching the pointer (the interpreter's read TLB) must flush
  // on that transition.
  const uint8_t* FrameReadPtr(uint64_t frame) const {
    return read_ptrs_[frame].load(std::memory_order_acquire);
  }
  // For a shared frame: the immutable source bytes it aliases (template
  // identity for cross-VM sharing analysis). nullptr otherwise.
  const uint8_t* SharedSource(uint64_t frame) const {
    return StateOf(frame) == FrameState::kShared
               ? read_ptrs_[frame].load(std::memory_order_acquire)
               : nullptr;
  }
  // For a shared frame: the shared_ptr that pins the bytes SharedSource()
  // points into (the MapShared `owner`). The shared block cache stores it
  // in each published entry, so a template's addresses can never be freed
  // and reused while decoded blocks keyed by them are resident — which is
  // what makes the pointer-based cache key collision-free without any
  // per-grab source re-hash. Null for non-shared frames and for mappings
  // installed without an owner (whose caller pins the bytes itself).
  std::shared_ptr<const void> SharedOwner(uint64_t frame) const;

  // ---- decoded-code invalidation protocol (src/isa/block_cache.h) ----
  //
  // The block-cache engine decodes guest basic blocks once and re-executes
  // the decoded form, so any write into a frame that holds decoded code
  // (relocation fixups, self-modifying code) must invalidate those blocks.
  // The store keeps a per-frame version counter: every mutation path
  // (WritablePtr, Zero, MapShared) bumps the version of each covered frame
  // that an execution engine flagged as code-bearing, and cached blocks
  // record the versions they were decoded under — a mismatch at dispatch
  // time retires the block. Unflagged frames skip the bump entirely, so the
  // loader's write-heavy phases pay one relaxed load per frame per call.
  uint32_t FrameVersion(uint64_t frame) const {
    return versions_[frame].load(std::memory_order_relaxed);
  }
  // Flags `frame` as holding decoded code; writes into it bump its version
  // from then on. Sticky for the store's lifetime (re-decoding after a
  // version bump keeps the flag set).
  void MarkCodeFrame(uint64_t frame) {
    code_flags_[frame].store(1, std::memory_order_relaxed);
  }
  bool IsCodeFrame(uint64_t frame) const {
    return code_flags_[frame].load(std::memory_order_relaxed) != 0;
  }
  // Write-path hook: bump the version iff the frame is code-flagged. Public
  // so the interpreter's write TLB (which bypasses WritablePtr on hits) can
  // keep the invalidation protocol honest per store.
  void BumpVersionIfCode(uint64_t frame) {
    if (IsCodeFrame(frame)) {
      versions_[frame].fetch_add(1, std::memory_order_relaxed);
    }
  }

  // External byte accounting (the fleet memory governor's guest-frames
  // category): every dirty-frame materialization charges kFrameBytes, every
  // dirty->shared revert and the destructor release what they un-dirty.
  // Attach before the store is visible to other threads (the MicroVm ctor
  // does); attaching charges the current dirty residency so a store that
  // pre-dirtied frames (the flat adapter) is accounted from the start.
  void set_accountant(std::shared_ptr<ByteAccountant> accountant) {
    const uint64_t resident = dirty_bytes();
    if (accountant_ != nullptr && resident != 0) {
      accountant_->Release(resident);
    }
    accountant_ = std::move(accountant);
    if (accountant_ != nullptr && resident != 0) {
      accountant_->Charge(resident);
    }
  }

  // Accounting. dirty = privately materialized, shared = template-aliased,
  // zero = untouched. dirty + shared + zero == frame_count.
  uint64_t dirty_frames() const { return dirty_frames_.load(std::memory_order_relaxed); }
  uint64_t shared_frames() const { return shared_frames_.load(std::memory_order_relaxed); }
  uint64_t zero_frames() const { return frame_count_ - dirty_frames() - shared_frames(); }
  uint64_t dirty_bytes() const { return dirty_frames() * kFrameBytes; }

 private:
  static constexpr uint64_t kFrameShift = 12;
  static constexpr size_t kFaultShards = 64;

  Status CheckRange(uint64_t phys, uint64_t len) const {
    if (phys > size_ || len > size_ - phys) {
      return OutOfRangeError("guest physical range out of bounds");
    }
    return OkStatus();
  }
  uint8_t* arena_frame(uint64_t frame) { return arena_ + (frame << kFrameShift); }
  bool FrameDirty(uint64_t frame) const {
    return states_[frame].load(std::memory_order_acquire) ==
           static_cast<uint8_t>(FrameState::kDirty);
  }
  // Slow path: copy-on-write fault for one frame.
  void FaultFrame(uint64_t frame);
  // Teardown of an owned arena: MADV_DONTNEED every slot resident_ marks
  // that is not dirty, and clear its bit. False if any trim failed (the
  // arena must then be unmapped, not reused).
  bool TrimArena();

  uint64_t size_ = 0;
  uint64_t frame_count_ = 0;
  uint8_t* arena_ = nullptr;           // full-size backing (owned unless external)
  bool owns_arena_ = false;
  // Owned arenas only: one bit per frame whose arena slot was ever
  // materialized, in this store or in an earlier owner of the arena. A
  // zero -> dirty fault clears the slot iff its bit was set. Travels with
  // the arena through the idle list; atomic because 64 neighbouring frames
  // share a word but not a fault shard.
  std::unique_ptr<std::atomic<uint64_t>[]> resident_;
  // Per-frame state and read pointer. The read pointer is always valid for
  // reading kFrameBytes (zero frames point at the static zero frame, shared
  // frames at the owner's bytes, dirty frames at the arena).
  // Reads are lock-free (acquire); state *transitions* happen only under
  // the frame's fault shard, which is what the annotations assert.
  std::unique_ptr<std::atomic<const uint8_t*>[]> read_ptrs_
      IMK_GUARDED_BY(kFrameStoreFaultShard);
  std::unique_ptr<std::atomic<uint8_t>[]> states_ IMK_GUARDED_BY(kFrameStoreFaultShard);
  // Per-frame decode-invalidation state: version counters bumped on writes
  // into code-flagged frames. Lock-free relaxed atomics: a VM's vCPU is
  // single-threaded, and cross-thread writers (loader shards) only ever run
  // before the guest does, so the counter needs atomicity, not ordering.
  std::unique_ptr<std::atomic<uint32_t>[]> versions_;
  std::unique_ptr<std::atomic<uint8_t>[]> code_flags_;
  std::atomic<uint64_t> dirty_frames_{0};
  std::atomic<uint64_t> shared_frames_{0};
  std::shared_ptr<ByteAccountant> accountant_;  // null = unaccounted
  // Default-constructed unranked; the constructors declare every shard's
  // rank before the store is visible to any other thread.
  std::array<race::Mutex, kFaultShards> fault_shards_;
  // One record per MapShared call (a handful per boot: the kernel image,
  // maybe an initrd) — SharedOwner resolves a frame's source pointer to its
  // pinning owner by linear scan over these spans.
  struct OwnerRecord {
    const uint8_t* begin;
    const uint8_t* end;
    std::shared_ptr<const void> owner;
  };
  mutable race::Mutex owners_mutex_{race::LockRank::kFrameStoreOwners};
  std::vector<OwnerRecord> owners_ IMK_GUARDED_BY(kFrameStoreOwners);
};

}  // namespace imk

#endif  // IMKASLR_SRC_BASE_FRAME_STORE_H_
