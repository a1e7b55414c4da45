#include "src/base/frame_store.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

#include "src/base/fault_injection.h"
#include "src/race/tracker.h"

namespace imk {
namespace {

constexpr uint8_t kStateZero = static_cast<uint8_t>(FrameStore::FrameState::kZero);
constexpr uint8_t kStateShared = static_cast<uint8_t>(FrameStore::FrameState::kShared);
constexpr uint8_t kStateDirty = static_cast<uint8_t>(FrameStore::FrameState::kDirty);

// What every zero-state frame of every store reads.
alignas(FrameStore::kFrameBytes) const uint8_t kZeroFrame[FrameStore::kFrameBytes] = {};

// Sibling shards share one rank: the ranking forbids nesting them, and the
// fault paths only ever hold one shard at a time.
template <size_t N>
void DeclareShardRanks(std::array<race::Mutex, N>& shards) {
  for (race::Mutex& shard : shards) {
    shard.set_rank(race::LockRank::kFrameStoreFaultShard);
  }
}

// Idle arenas the process keeps for reuse, across all sizes. Two boot
// workers cycle through one or two; the cap bounds what a burst of
// teardowns can park (each idle arena keeps its last VM's dirty frames).
constexpr size_t kIdleArenaCap = 4;

uint64_t ResidentWords(uint64_t frames) { return (frames + 63) / 64; }

// A guest-RAM arena: `frames` frames followed by one PROT_NONE guard frame,
// plus the bitmap of frames ever materialized in it. Frames are host pages
// on 4 KiB-page hosts; with larger pages the per-frame trim fails and
// arenas are unmapped instead of reused.
struct Arena {
  uint8_t* base = nullptr;
  uint64_t frames = 0;
  std::unique_ptr<std::atomic<uint64_t>[]> resident;

  uint64_t bytes() const { return std::max<uint64_t>(frames, 1) * FrameStore::kFrameBytes; }
};

Arena MapArena(uint64_t frames) {
  Arena arena;
  arena.frames = frames;
  void* base = mmap(nullptr, arena.bytes() + FrameStore::kFrameBytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) {
    throw std::bad_alloc();
  }
  arena.base = static_cast<uint8_t*>(base);
  mprotect(arena.base + arena.bytes(), FrameStore::kFrameBytes, PROT_NONE);
  arena.resident = std::make_unique<std::atomic<uint64_t>[]>(ResidentWords(frames));
  return arena;
}

void UnmapArena(const Arena& arena) {
  munmap(arena.base, arena.bytes() + FrameStore::kFrameBytes);
}

// The process-wide idle list. Leaked on purpose: stores may still be
// destroyed during static destruction.
class IdleArenas {
 public:
  static IdleArenas& Instance() {
    static IdleArenas* idle = new IdleArenas;
    return *idle;
  }

  // An idle arena of exactly `frames` frames, or a freshly mapped one.
  Arena Take(uint64_t frames) {
    {
      std::lock_guard<race::Mutex> lock(mutex_);
      IMK_RACE_SHARED_WRITE("frame_store.idle_arenas", this, 0, kFrameArenaPool);
      for (size_t i = 0; i < idle_.size(); ++i) {
        if (idle_[i].frames == frames) {
          Arena arena = std::move(idle_[i]);
          idle_[i] = std::move(idle_.back());
          idle_.pop_back();
          return arena;
        }
      }
    }
    return MapArena(frames);
  }

  // Parks `arena` for reuse, or unmaps it when the list is full.
  void Park(Arena arena) {
    {
      std::lock_guard<race::Mutex> lock(mutex_);
      IMK_RACE_SHARED_WRITE("frame_store.idle_arenas", this, 0, kFrameArenaPool);
      if (idle_.size() < kIdleArenaCap) {
        idle_.push_back(std::move(arena));
        return;
      }
    }
    UnmapArena(arena);
  }

 private:
  race::Mutex mutex_{race::LockRank::kFrameArenaPool};
  std::vector<Arena> idle_ IMK_GUARDED_BY(kFrameArenaPool);
};

}  // namespace

FrameStore::FrameStore(uint64_t size_bytes)
    : size_(size_bytes),
      frame_count_((size_bytes + kFrameBytes - 1) / kFrameBytes) {
  DeclareShardRanks(fault_shards_);
  Arena arena = IdleArenas::Instance().Take(frame_count_);
  arena_ = arena.base;
  resident_ = std::move(arena.resident);
  owns_arena_ = true;
  read_ptrs_ = std::make_unique<std::atomic<const uint8_t*>[]>(frame_count_);
  states_ = std::make_unique<std::atomic<uint8_t>[]>(frame_count_);
  versions_ = std::make_unique<std::atomic<uint32_t>[]>(frame_count_);
  code_flags_ = std::make_unique<std::atomic<uint8_t>[]>(frame_count_);
  for (uint64_t f = 0; f < frame_count_; ++f) {
    read_ptrs_[f].store(kZeroFrame, std::memory_order_relaxed);
    states_[f].store(kStateZero, std::memory_order_relaxed);
    versions_[f].store(0, std::memory_order_relaxed);
    code_flags_[f].store(0, std::memory_order_relaxed);
  }
}

FrameStore::FrameStore(MutableByteSpan external)
    : size_(external.size()),
      frame_count_((external.size() + kFrameBytes - 1) / kFrameBytes) {
  DeclareShardRanks(fault_shards_);
  arena_ = external.data();
  owns_arena_ = false;
  read_ptrs_ = std::make_unique<std::atomic<const uint8_t*>[]>(frame_count_);
  states_ = std::make_unique<std::atomic<uint8_t>[]>(frame_count_);
  versions_ = std::make_unique<std::atomic<uint32_t>[]>(frame_count_);
  code_flags_ = std::make_unique<std::atomic<uint8_t>[]>(frame_count_);
  for (uint64_t f = 0; f < frame_count_; ++f) {
    read_ptrs_[f].store(arena_frame(f), std::memory_order_relaxed);
    states_[f].store(kStateDirty, std::memory_order_relaxed);
    versions_[f].store(0, std::memory_order_relaxed);
    code_flags_[f].store(0, std::memory_order_relaxed);
  }
  dirty_frames_.store(frame_count_, std::memory_order_relaxed);
}

FrameStore::~FrameStore() {
  if (accountant_ != nullptr) {
    const uint64_t resident = dirty_bytes();
    if (resident != 0) {
      accountant_->Release(resident);
    }
  }
  if (!owns_arena_) {
    return;
  }
  const bool reusable = TrimArena();
  Arena arena{arena_, frame_count_, std::move(resident_)};
  if (reusable) {
    IdleArenas::Instance().Park(std::move(arena));
  } else {
    UnmapArena(arena);
  }
}

bool FrameStore::TrimArena() {
  // Hands back every slot that is resident from an earlier write but not
  // dirty now (never-touched leftovers of an earlier owner, dirty frames
  // MapShared reverted). The arena's next owner then finds only this
  // store's dirty set resident. Each madvise costs a TLB shootdown across
  // the process's threads, so a run of trimmed frames extends over the
  // non-resident frames between them and is cut only at a dirty frame:
  // every dirty frame has its resident bit set, so walking the set bits
  // meets each one.
  bool ok = true;
  bool in_run = false;
  uint64_t run_begin = 0;
  uint64_t run_end = 0;
  const auto flush = [&] {
    if (in_run &&
        madvise(arena_frame(run_begin), (run_end - run_begin) << kFrameShift, MADV_DONTNEED) != 0) {
      ok = false;
    }
    in_run = false;
  };
  for (uint64_t w = 0; w < ResidentWords(frame_count_); ++w) {
    uint64_t bits = resident_[w].load(std::memory_order_relaxed);
    uint64_t keep = bits;
    while (bits != 0) {
      const uint64_t f = w * 64 + static_cast<uint64_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      if (FrameDirty(f)) {
        flush();
        continue;
      }
      keep &= ~(1ull << (f & 63));
      if (!in_run) {
        in_run = true;
        run_begin = f;
      }
      run_end = f + 1;
    }
    resident_[w].store(keep, std::memory_order_relaxed);
  }
  flush();
  // A slot whose trim failed may still hold bytes its bit no longer
  // records: such an arena must not be reused.
  return ok;
}

void FrameStore::FaultFrame(uint64_t frame) {
  std::lock_guard<race::Mutex> lock(fault_shards_[frame % kFaultShards]);
  IMK_RACE_SHARED_WRITE("frame_store.frame_state", this, frame, kFrameStoreFaultShard);
  const uint8_t state = states_[frame].load(std::memory_order_acquire);
  if (state == kStateDirty) {
    return;  // another thread materialized it while we waited
  }
  uint8_t* slot = arena_frame(frame);
  const uint64_t bit = 1ull << (frame & 63);
  const bool was_resident =
      (resident_[frame >> 6].fetch_or(bit, std::memory_order_relaxed) & bit) != 0;
  if (state == kStateShared) {
    std::memcpy(slot, read_ptrs_[frame].load(std::memory_order_relaxed), kFrameBytes);
    shared_frames_.fetch_sub(1, std::memory_order_relaxed);
  } else if (was_resident) {
    // Zero state over a slot an earlier owner of the arena wrote: clear it,
    // so none of its bytes ever become visible. A never-materialized slot
    // is still the host's zero page and needs nothing.
    std::memset(slot, 0, kFrameBytes);
  }
  read_ptrs_[frame].store(slot, std::memory_order_release);
  dirty_frames_.fetch_add(1, std::memory_order_relaxed);
  states_[frame].store(kStateDirty, std::memory_order_release);
  if (accountant_ != nullptr) {
    accountant_->Charge(kFrameBytes);
  }
}

Status FrameStore::MapShared(uint64_t phys, ByteSpan src, std::shared_ptr<const void> owner) {
  if (!owns_arena_) {
    return FailedPreconditionError("MapShared on an externally backed FrameStore");
  }
  if (phys % kFrameBytes != 0) {
    return InvalidArgumentError("MapShared phys must be frame-aligned");
  }
  // Models the host refusing the zero-copy alias (mmap failure), forcing
  // callers onto their error path before any frame state mutates.
  IMK_FAULT_POINT("frame_store.map_shared");
  IMK_RETURN_IF_ERROR(CheckRange(phys, src.size()));
  const uint64_t whole = src.size() / kFrameBytes;
  const uint64_t first = phys >> kFrameShift;
  for (uint64_t i = 0; i < whole; ++i) {
    const uint64_t f = first + i;
    std::lock_guard<race::Mutex> lock(fault_shards_[f % kFaultShards]);
    IMK_RACE_SHARED_WRITE("frame_store.frame_state", this, f, kFrameStoreFaultShard);
    const uint8_t state = states_[f].load(std::memory_order_acquire);
    if (state == kStateDirty) {
      dirty_frames_.fetch_sub(1, std::memory_order_relaxed);
      if (accountant_ != nullptr) {
        accountant_->Release(kFrameBytes);
      }
    }
    if (state != kStateShared) {
      shared_frames_.fetch_add(1, std::memory_order_relaxed);
    }
    read_ptrs_[f].store(src.data() + i * kFrameBytes, std::memory_order_release);
    states_[f].store(kStateShared, std::memory_order_release);
    BumpVersionIfCode(f);  // the frame's bytes just changed identity
  }
  // Sub-frame tail: too small to alias a whole frame, copy it.
  const uint64_t tail = src.size() - whole * kFrameBytes;
  if (tail != 0) {
    IMK_RETURN_IF_ERROR(Write(phys + whole * kFrameBytes, src.subspan(whole * kFrameBytes)));
  }
  if (owner != nullptr) {
    std::lock_guard<race::Mutex> lock(owners_mutex_);
    IMK_RACE_SHARED_WRITE("frame_store.owners", this, 0, kFrameStoreOwners);
    owners_.push_back({src.data(), src.data() + src.size(), std::move(owner)});
  }
  return OkStatus();
}

std::shared_ptr<const void> FrameStore::SharedOwner(uint64_t frame) const {
  const uint8_t* src = SharedSource(frame);
  if (src == nullptr) {
    return nullptr;
  }
  std::lock_guard<race::Mutex> lock(owners_mutex_);
  IMK_RACE_SHARED_READ("frame_store.owners", this, 0, kFrameStoreOwners);
  for (const OwnerRecord& rec : owners_) {
    if (src >= rec.begin && src < rec.end) {
      return rec.owner;
    }
  }
  return nullptr;
}

Result<uint8_t*> FrameStore::WritablePtr(uint64_t phys, uint64_t len) {
  IMK_RETURN_IF_ERROR(CheckRange(phys, len));
  if (len != 0) {
    const uint64_t last = (phys + len - 1) >> kFrameShift;
    for (uint64_t f = phys >> kFrameShift; f <= last; ++f) {
      if (!FrameDirty(f)) {
        FaultFrame(f);
      }
      // The caller is about to write through the returned pointer: retire
      // any decoded blocks over this frame (relocation fixups, SMC).
      BumpVersionIfCode(f);
    }
  }
  return arena_ + phys;
}

Result<const uint8_t*> FrameStore::ReadPtr(uint64_t phys, uint64_t len, uint8_t* scratch) const {
  IMK_RETURN_IF_ERROR(CheckRange(phys, len));
  if (len == 0) {
    return arena_ + phys;
  }
  const uint64_t first = phys >> kFrameShift;
  const uint64_t last = (phys + len - 1) >> kFrameShift;
  if (first == last) {
    return read_ptrs_[first].load(std::memory_order_acquire) + (phys & (kFrameBytes - 1));
  }
  bool contiguous = true;
  for (uint64_t f = first; f <= last; ++f) {
    if (!FrameDirty(f)) {
      contiguous = false;
      break;
    }
  }
  if (contiguous) {
    return arena_ + phys;
  }
  IMK_RETURN_IF_ERROR(Read(phys, scratch, len));
  return scratch;
}

Status FrameStore::Read(uint64_t phys, uint8_t* dst, uint64_t len) const {
  IMK_RETURN_IF_ERROR(CheckRange(phys, len));
  uint64_t cursor = phys;
  uint64_t remaining = len;
  while (remaining != 0) {
    const uint64_t f = cursor >> kFrameShift;
    const uint64_t offset = cursor & (kFrameBytes - 1);
    const uint64_t chunk = std::min(remaining, kFrameBytes - offset);
    std::memcpy(dst, read_ptrs_[f].load(std::memory_order_acquire) + offset, chunk);
    dst += chunk;
    cursor += chunk;
    remaining -= chunk;
  }
  return OkStatus();
}

Status FrameStore::Write(uint64_t phys, ByteSpan data) {
  IMK_ASSIGN_OR_RETURN(uint8_t* dst, WritablePtr(phys, data.size()));
  if (!data.empty()) {
    std::memcpy(dst, data.data(), data.size());
  }
  return OkStatus();
}

Status FrameStore::Zero(uint64_t phys, uint64_t len) {
  IMK_RETURN_IF_ERROR(CheckRange(phys, len));
  uint64_t cursor = phys;
  uint64_t remaining = len;
  while (remaining != 0) {
    const uint64_t f = cursor >> kFrameShift;
    const uint64_t offset = cursor & (kFrameBytes - 1);
    const uint64_t chunk = std::min(remaining, kFrameBytes - offset);
    // A frame still in the zero state already reads as zeros; touching it
    // would materialize it for nothing (this keeps carving device queues out
    // of untouched RAM free).
    if (StateOf(f) != FrameState::kZero) {
      if (!FrameDirty(f)) {
        FaultFrame(f);
      }
      std::memset(arena_ + cursor, 0, chunk);
      BumpVersionIfCode(f);
    }
    cursor += chunk;
    remaining -= chunk;
  }
  return OkStatus();
}

}  // namespace imk
