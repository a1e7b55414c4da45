// Predecoded micro-ops: the block-cache execution engine's internal form.
//
// The switch-loop interpreter pays, per dynamic instruction, two Translate
// calls, an InstructionLength lookup, and a byte-by-byte operand decode. A
// Uop is that work done once: the opcode, the pre-masked register indices,
// and the immediate already sign-extended (or, for branches, the rel32
// displacement) in a fixed 16-byte record. A DecodedBlock is one guest basic
// block's worth of uops plus the metadata the caches need to validate and
// share it: a digest of the uop array (corruption guard, drilled by the
// interp.blockcache fault point) and whether the block stayed inside its
// starting 4 KiB frame (the shareability condition — see
// src/isa/block_cache.h).
//
// Uops are position-independent: branch displacements stay relative and
// every uop records its byte offset from the block start, so one decoded
// block executes correctly at any virtual address whose bytes match —
// which is exactly what lets VMs with different KASLR slides share blocks
// decoded from the same template frame.
#ifndef IMKASLR_SRC_ISA_UOP_H_
#define IMKASLR_SRC_ISA_UOP_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/base/frame_store.h"
#include "src/isa/isa.h"

namespace imk {

// Sentinel op for an undecodable opcode byte: executing it reproduces the
// interpreter's "invalid opcode" guest fault at the same pc.
inline constexpr uint8_t kUopInvalid = 0xff;

// Longest block DecodeBlock builds, in uops: caps runaway straight-line
// blocks (nop sleds over zero frames) and sizes its stack buffer.
inline constexpr uint32_t kMaxBlockUops = 128;

struct Uop {
  uint8_t op = kUopInvalid;  // Opcode value, or kUopInvalid
  uint8_t rd = 0;            // pre-masked destination / base register index
  uint8_t rs = 0;            // pre-masked source register index
  uint8_t len = 1;           // encoded instruction length in bytes
  uint32_t offset = 0;       // byte offset of this instruction from block start
  // Pre-extracted immediate: sign-extended imm32 for addressing/branches,
  // raw imm64 for kLoadI/kLoadA64/kCall, shift count for kShrI/kShlI,
  // zero-extended imm32 for kAndI, port number for kIn/kOut.
  uint64_t imm = 0;
};
static_assert(sizeof(Uop) == 16, "Uop must stay a compact 16-byte record");

// Opcodes that terminate a basic block: control flow, port I/O (the handler
// may rewrite guest memory or tables), and probes (which may redirect pc
// through the exception table).
bool EndsBlock(Opcode op);

// Decodes the single instruction whose bytes start at `insn` (valid for
// `length` bytes, as returned by InstructionLength). `offset` is the byte
// offset recorded in the uop.
Uop DecodeOne(const uint8_t* insn, uint8_t opcode, uint32_t length, uint32_t offset);

// Uop storage with inline capacity for the common case. Dynamic blocks
// average 2-3 uops (spin loops, call sites), so keeping small arrays inside
// DecodedBlock itself saves the heap allocation at decode time and — the
// hot-path point — lets a dispatch read its uops from the same cache lines
// as the block header instead of chasing a vector's data pointer. Larger
// blocks move wholly into the spill vector, so data() is always contiguous
// and the execution loop never branches per uop.
class UopArray {
 public:
  static constexpr uint32_t kInline = 4;

  // Replaces the contents with uops[0, n): inline when they fit, else one
  // exactly sized spill allocation.
  void assign(const Uop* uops, size_t n) {
    size_ = static_cast<uint32_t>(n);
    if (n <= kInline) {
      spill_.clear();
      std::copy(uops, uops + n, inline_);
    } else {
      spill_.assign(uops, uops + n);
    }
  }

  const Uop* data() const { return spill_.empty() ? inline_ : spill_.data(); }
  const Uop& operator[](size_t i) const { return data()[i]; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  uint32_t size_ = 0;
  Uop inline_[kInline];
  std::vector<Uop> spill_;
};

struct DecodedBlock {
  UopArray uops;
  uint32_t byte_len = 0;   // encoded bytes the block covers
  uint64_t uop_digest = 0; // UopDigest over `uops` at build time
  // True when every encoded byte lies inside the 4 KiB frame the block
  // starts in: the precondition for cross-VM sharing (a straddling block
  // depends on a second frame whose state differs per VM).
  bool ends_in_frame = true;
};

// Order- and content-sensitive digest of the uop array (word-folding
// FNV-1a over every field; cheap enough to rerun on every shared-cache
// grab). Recomputed at shared-cache grab time and compared against
// uop_digest: a mismatch means the cached decode no longer matches what was
// built (memory corruption — or the interp.blockcache:corrupt drill), and
// the grabber falls back to a fresh slow-path decode.
uint64_t UopDigest(const UopArray& uops);

// Decodes one basic block from guest-physical `phys` in one pass over the
// frame's bytes. `avail` bounds the contiguously translatable bytes from
// `phys` (the fetch window: both the linear map's remaining span and RAM
// size); decoding stops before any instruction that would not fit.
// `max_uops` caps the block, and is itself clamped to kMaxBlockUops. The
// block ends at the first block-terminating instruction, at an invalid
// opcode (recorded as a kUopInvalid uop), at the frame edge (a last
// instruction straddling it is kept, with ends_in_frame false), or at the
// cap. Returns a block with zero uops iff the very first instruction does
// not fit in `avail` (or `max_uops` is 0).
DecodedBlock DecodeBlock(const FrameStore& store, uint64_t phys, uint64_t avail,
                         uint32_t max_uops);

}  // namespace imk

#endif  // IMKASLR_SRC_ISA_UOP_H_
