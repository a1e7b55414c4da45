// VK64 interpreter: executes guest code out of guest physical memory through
// a linear virtual->physical mapping (modeling the early-boot page tables the
// booting principal installs). Port I/O is delegated to a handler supplied
// by the vCPU; faulting PROBE loads consult the guest's exception table the
// way the kernel's fault handler searches __ex_table.
//
// Two execution engines share the architectural semantics bit for bit:
//
//   - The block-cache engine (default): guest basic blocks are decoded once
//     into uop arrays (src/isa/uop.h), cached keyed by guest-physical block
//     start and validated against FrameStore frame versions
//     (src/isa/block_cache.h), and dispatched through a tight loop. A small
//     direct-mapped software TLB short-circuits the LinearMap range checks
//     and FrameStore pointer chasing for data loads and stores.
//
//   - The legacy switch loop (set_block_cache(false), `--no-block-cache`):
//     fetch/translate/decode every dynamic instruction. Kept as the
//     reference the bit-identity tests compare against, and as the
//     measurement baseline for the decode-cache ablation.
//
// Stats, icache-model accounting, watchdog behaviour, faults, and final
// architectural state are identical across engines for any run that stops
// on HALT or the instruction cap.
#ifndef IMKASLR_SRC_ISA_INTERPRETER_H_
#define IMKASLR_SRC_ISA_INTERPRETER_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "src/base/bytes.h"
#include "src/base/deadline.h"
#include "src/base/frame_store.h"
#include "src/base/result.h"
#include "src/isa/block_cache.h"
#include "src/isa/icache.h"
#include "src/isa/isa.h"
#include "src/isa/uop.h"

namespace imk {

// A linear virtual->physical window: [virt_start, virt_start + size) maps to
// [phys_start, phys_start + size).
struct LinearMap {
  uint64_t virt_start = 0;
  uint64_t phys_start = 0;
  uint64_t size = 0;

  bool Contains(uint64_t vaddr) const { return vaddr - virt_start < size; }
  uint64_t ToPhys(uint64_t vaddr) const { return vaddr - virt_start + phys_start; }
};

// Why Run() returned.
enum class StopReason {
  kHalt,            // guest executed HALT
  kInstructionCap,  // max_instructions exhausted
  kDeadline,        // the attached wall-clock Deadline expired mid-run
};

// Execution statistics for one Run().
struct ExecStats {
  uint64_t instructions = 0;
  uint64_t icache_hits = 0;
  uint64_t icache_misses = 0;
  // Simulated cycles: 1/instruction + icache miss penalty (only meaningful
  // when an i-cache model is attached).
  uint64_t cycles = 0;
  // Block-cache engine counters (all zero under the legacy switch loop).
  // hits/misses/invalidations are per block dispatch; shared vs private
  // counts decoded blocks by provenance (the decode-cache sharing ablation).
  uint64_t block_cache_hits = 0;
  uint64_t block_cache_misses = 0;
  uint64_t block_cache_invalidations = 0;
  uint64_t blocks_shared = 0;
  uint64_t blocks_private = 0;
};

struct RunResult {
  StopReason reason = StopReason::kHalt;
  ExecStats stats;
};

class Interpreter {
 public:
  // Port handler: called for OUT (is_write=true, `value` = register) and IN
  // (is_write=false; return value goes to the destination register). The
  // handler may fail, which faults the guest.
  using PortHandler = std::function<Result<uint64_t>(uint16_t port, bool is_write, uint64_t value)>;

  // `phys` is the guest's physical memory; `map` the virtual window. The
  // caller keeps `phys` alive while the interpreter runs. The flat-span form
  // wraps the buffer in a fully materialized FrameStore; the FrameStore form
  // executes straight over paged copy-on-write memory, so guest stores fault
  // frames in and guest loads never materialize anything.
  Interpreter(MutableByteSpan phys, LinearMap map);
  Interpreter(FrameStore& phys, LinearMap map);

  void set_port_handler(PortHandler handler) { port_handler_ = std::move(handler); }
  // Optional i-cache model fed with every instruction fetch (slows execution;
  // used by the LEBench harness).
  void set_icache(IcacheModel* icache) { icache_ = icache; }
  // Extra v->p window (e.g. an identity map of low memory alongside the
  // randomized kernel window). Checked after the primary map. Re-pointing a
  // map changes what virtual addresses mean, so any vaddr-keyed decoded
  // blocks are dropped.
  void set_secondary_map(LinearMap map) {
    secondary_map_ = map;
    if (block_cache_ != nullptr) {
      block_cache_->InvalidateBindings();
    }
  }

  // Engine selection: true (default) dispatches predecoded blocks; false
  // runs the legacy per-instruction switch loop.
  void set_block_cache(bool enabled) { use_block_cache_ = enabled; }
  // Cross-VM decode-cache tier for blocks over shared (template-aliased)
  // frames; nullptr keeps all blocks VM-private. Caller keeps it alive.
  void set_shared_block_cache(SharedBlockCache* cache) { shared_block_cache_ = cache; }
  // Identity of this VM's exact guest layout (template + slides + shuffle).
  // Non-zero enables whole-table decode sharing: before the first dispatch
  // the engine adopts the layout's published table from the shared tier if
  // one exists, and a completed boot that found none publishes its own
  // (BlockCache::AdoptTable / PublishTable). 0 (default) disables both.
  void set_layout_key(uint64_t key) { layout_key_ = key; }

  // Wall-clock watchdog: Run() polls the deadline every few tens of
  // thousands of instructions and stops with StopReason::kDeadline once it
  // expires (a clean stop, not a guest fault — the supervisor decides what
  // a trip means). nullptr (default) disables polling entirely.
  void set_deadline(const Deadline* deadline) { deadline_ = deadline; }

  // Exception table: sorted {fault_offset, fixup_offset} pairs in guest
  // memory, offsets relative to `text_base` (the runtime address of _text) —
  // mirroring Linux's text-relative __ex_table, which plain KASLR never
  // touches but FGKASLR must fix up and re-sort. Registered by the vCPU when
  // the guest announces its tables.
  void SetExceptionTable(uint64_t table_vaddr, uint64_t count, uint64_t text_base) {
    ex_table_vaddr_ = table_vaddr;
    ex_table_count_ = count;
    ex_table_text_base_ = text_base;
  }

  // Runs from `entry_vaddr` with SP = `stack_top_vaddr` until HALT, a fault
  // (error status), or `max_instructions`.
  Result<RunResult> Run(uint64_t entry_vaddr, uint64_t stack_top_vaddr, uint64_t max_instructions);

  uint64_t reg(int index) const { return regs_[index]; }
  void set_reg(int index, uint64_t value) { regs_[index] = value; }

 private:
  // The fetch window at `pc`: its physical address and how many bytes are
  // contiguously translatable from it (bounded by the chosen map and RAM).
  // One map selection serves both the opcode probe and the full-length
  // fetch; the rare instruction extending past the window falls back to a
  // full Translate, preserving exact fault semantics at map seams.
  struct FetchSpan {
    uint64_t phys = 0;
    uint64_t avail = 0;
  };
  Result<FetchSpan> TranslateFetch(uint64_t pc) const;

  Result<uint64_t> Translate(uint64_t vaddr, uint64_t size_bytes) const;
  Status HandleProbeFault(uint64_t insn_vaddr, uint64_t* pc);

  // The engines.
  Result<RunResult> RunSwitch(uint64_t pc, uint64_t max_instructions);
  Result<RunResult> RunBlocks(uint64_t pc, uint64_t max_instructions);
  // Executes the first `n` uops of `block`, dispatched at virtual address
  // `vaddr`. Returns true if the guest halted; otherwise *pc holds the
  // follow-on address (fall-through or branch target).
  Result<bool> RunUops(const DecodedBlock& block, uint64_t vaddr, uint64_t n,
                       ExecStats& stats, uint64_t* pc);

  // Common exit epilogue: every successful return path (halt, cap,
  // deadline) folds the icache-model counters into the stats here.
  RunResult Finish(RunResult& result, StopReason reason) {
    result.reason = reason;
    if (icache_ != nullptr) {
      result.stats.icache_hits = icache_->hits();
      result.stats.icache_misses = icache_->misses();
    }
    return result;
  }

  // Per-instruction icache-model accounting, identical across engines.
  void AccountIcache(uint64_t pc, uint32_t length, ExecStats& stats) {
    stats.cycles += 1;
    if (!icache_->Access(pc)) {
      stats.cycles += icache_->config().miss_penalty_cycles;
    }
    // A fetch crossing a line boundary touches the next line too.
    const uint64_t line = icache_->config().line_bytes;
    if ((pc % line) + length > line) {
      if (!icache_->Access(pc + length - 1)) {
        stats.cycles += icache_->config().miss_penalty_cycles;
      }
    }
  }

  // ---- software data TLB (block-cache engine only) ----
  //
  // Direct-mapped, virtual-page indexed. Entries cache the host pointer for
  // one fully mapped, frame-aligned guest page, so in-page loads and stores
  // skip Translate's range checks and FrameStore's atomics. Read entries go
  // stale when a zero -> dirty or shared -> dirty fault retargets a frame's
  // read pointer — every write path that can trigger the first fault of a
  // frame flushes the read TLB.
  // Write entries bump the store's frame version on every hit so decoded
  // blocks over the frame still invalidate — even blocks installed after
  // the write entry was filled, which is why no TLB flush is needed on
  // install. Both TLBs are dropped after port I/O (the monitor may rewrite
  // guest memory).
  static constexpr uint64_t kTlbSlots = 64;
  static constexpr uint64_t kNoPage = ~0ull;
  struct ReadTlbEntry {
    uint64_t page = kNoPage;
    const uint8_t* base = nullptr;
  };
  struct WriteTlbEntry {
    uint64_t page = kNoPage;
    uint8_t* base = nullptr;
    uint64_t frame = 0;
  };

  void FlushReadTlb() {
    for (ReadTlbEntry& e : read_tlb_) {
      e.page = kNoPage;
    }
  }
  void FlushWriteTlb() {
    for (WriteTlbEntry& e : write_tlb_) {
      e.page = kNoPage;
    }
  }
  void FlushTlbs() {
    FlushReadTlb();
    FlushWriteTlb();
  }

  // Picks the map covering the whole page, or returns kNoPage-equivalent
  // failure. Only frame-aligned physical pages are cacheable.
  const uint8_t* FillReadTlb(uint64_t page);
  uint8_t* FillWriteTlb(uint64_t page, uint64_t* frame_out);

  template <uint64_t Size>
  Result<const uint8_t*> TlbReadPtr(uint64_t vaddr) {
    if ((vaddr & (FrameStore::kFrameBytes - 1)) <= FrameStore::kFrameBytes - Size) {
      const uint64_t page = vaddr >> 12;
      ReadTlbEntry& e = read_tlb_[page & (kTlbSlots - 1)];
      if (e.page == page) {
        return e.base + (vaddr & (FrameStore::kFrameBytes - 1));
      }
      const uint8_t* base = FillReadTlb(page);
      if (base != nullptr) {
        return base + (vaddr & (FrameStore::kFrameBytes - 1));
      }
    }
    // Slow path: page-crossing access or uncacheable page.
    IMK_ASSIGN_OR_RETURN(uint64_t phys, Translate(vaddr, Size));
    return store_->ReadPtr(phys, Size, tlb_scratch_);
  }

  Result<uint64_t> TlbLoad64(uint64_t vaddr) {
    IMK_ASSIGN_OR_RETURN(const uint8_t* p, TlbReadPtr<8>(vaddr));
    return LoadLe64(p);
  }
  Result<uint8_t> TlbLoad8(uint64_t vaddr) {
    IMK_ASSIGN_OR_RETURN(const uint8_t* p, TlbReadPtr<1>(vaddr));
    return *p;
  }

  template <uint64_t Size>
  Result<uint8_t*> TlbWritePtr(uint64_t vaddr) {
    if ((vaddr & (FrameStore::kFrameBytes - 1)) <= FrameStore::kFrameBytes - Size) {
      const uint64_t page = vaddr >> 12;
      WriteTlbEntry& e = write_tlb_[page & (kTlbSlots - 1)];
      if (e.page == page) {
        store_->BumpVersionIfCode(e.frame);
        return e.base + (vaddr & (FrameStore::kFrameBytes - 1));
      }
      uint64_t frame = 0;
      uint8_t* base = FillWriteTlb(page, &frame);
      if (base != nullptr) {
        store_->BumpVersionIfCode(frame);
        return base + (vaddr & (FrameStore::kFrameBytes - 1));
      }
    }
    // Slow path. WritablePtr materializes (flush read entries that may have
    // cached pre-CoW pointers) and bumps code-frame versions itself.
    IMK_ASSIGN_OR_RETURN(uint64_t phys, Translate(vaddr, Size));
    const uint64_t last = (phys + Size - 1) >> 12;
    for (uint64_t f = phys >> 12; f <= last; ++f) {
      if (store_->StateOf(f) != FrameStore::FrameState::kDirty) {
        FlushReadTlb();
        break;
      }
    }
    return store_->WritablePtr(phys, Size);
  }

  Status TlbStore64(uint64_t vaddr, uint64_t value) {
    IMK_ASSIGN_OR_RETURN(uint8_t* p, TlbWritePtr<8>(vaddr));
    StoreLe64(p, value);
    return OkStatus();
  }
  Status TlbStore8(uint64_t vaddr, uint8_t value) {
    IMK_ASSIGN_OR_RETURN(uint8_t* p, TlbWritePtr<1>(vaddr));
    *p = value;
    return OkStatus();
  }

  // Frame-aware physical accessors (single-frame accesses resolve to one
  // pointer lookup; frame-straddling loads gather, stores materialize).
  Result<uint64_t> Load64(uint64_t phys) const {
    uint8_t buf[8];
    IMK_ASSIGN_OR_RETURN(const uint8_t* p, store_->ReadPtr(phys, 8, buf));
    return LoadLe64(p);
  }
  Result<uint8_t> Load8(uint64_t phys) const {
    uint8_t buf[1];
    IMK_ASSIGN_OR_RETURN(const uint8_t* p, store_->ReadPtr(phys, 1, buf));
    return *p;
  }
  Status Store64(uint64_t phys, uint64_t value) {
    IMK_ASSIGN_OR_RETURN(uint8_t* p, store_->WritablePtr(phys, 8));
    StoreLe64(p, value);
    return OkStatus();
  }
  Status Store8(uint64_t phys, uint8_t value) {
    IMK_ASSIGN_OR_RETURN(uint8_t* p, store_->WritablePtr(phys, 1));
    *p = value;
    return OkStatus();
  }

  std::unique_ptr<FrameStore> flat_;  // owns the store in flat-span mode
  FrameStore* store_ = nullptr;
  LinearMap map_;
  LinearMap secondary_map_{};  // size 0 = unused
  PortHandler port_handler_;
  IcacheModel* icache_ = nullptr;
  const Deadline* deadline_ = nullptr;
  uint64_t ex_table_vaddr_ = 0;
  uint64_t ex_table_count_ = 0;
  uint64_t ex_table_text_base_ = 0;
  uint64_t regs_[kNumRegisters] = {};
  uint8_t insn_buf_[16] = {};  // gather target for frame-straddling fetches
  uint8_t tlb_scratch_[16] = {};

  bool use_block_cache_ = true;
  SharedBlockCache* shared_block_cache_ = nullptr;
  uint64_t layout_key_ = 0;  // non-zero enables whole-table decode sharing
  std::unique_ptr<BlockCache> block_cache_;  // created on first block-engine Run
  ReadTlbEntry read_tlb_[kTlbSlots];
  WriteTlbEntry write_tlb_[kTlbSlots];
};

}  // namespace imk

#endif  // IMKASLR_SRC_ISA_INTERPRETER_H_
