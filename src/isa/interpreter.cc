#include "src/isa/interpreter.h"

#include <algorithm>
#include <cstdio>

namespace imk {
namespace {

int64_t SignExtend32(uint32_t v) { return static_cast<int64_t>(static_cast<int32_t>(v)); }

}  // namespace

Interpreter::Interpreter(MutableByteSpan phys, LinearMap map)
    : flat_(std::make_unique<FrameStore>(phys)), store_(flat_.get()), map_(map) {}

Interpreter::Interpreter(FrameStore& phys, LinearMap map) : store_(&phys), map_(map) {}

Result<uint64_t> Interpreter::Translate(uint64_t vaddr, uint64_t size_bytes) const {
  const LinearMap* map = nullptr;
  if (map_.Contains(vaddr) && map_.Contains(vaddr + size_bytes - 1)) {
    map = &map_;
  } else if (secondary_map_.size != 0 && secondary_map_.Contains(vaddr) &&
             secondary_map_.Contains(vaddr + size_bytes - 1)) {
    map = &secondary_map_;
  } else {
    return GuestFaultError("unmapped guest virtual address " + HexString(vaddr));
  }
  const uint64_t phys = map->ToPhys(vaddr);
  if (phys + size_bytes > store_->size()) {
    return GuestFaultError("guest physical address out of RAM: " + HexString(phys));
  }
  return phys;
}

Result<Interpreter::FetchSpan> Interpreter::TranslateFetch(uint64_t pc) const {
  // Mirrors Translate(pc, 1) — same map preference, same fault messages —
  // but additionally reports how far the chosen window extends, so callers
  // fetch a whole instruction (or decode a whole block) with one lookup.
  const LinearMap* map = nullptr;
  if (map_.Contains(pc)) {
    map = &map_;
  } else if (secondary_map_.size != 0 && secondary_map_.Contains(pc)) {
    map = &secondary_map_;
  } else {
    return GuestFaultError("unmapped guest virtual address " + HexString(pc));
  }
  const uint64_t phys = map->ToPhys(pc);
  if (phys >= store_->size()) {
    return GuestFaultError("guest physical address out of RAM: " + HexString(phys));
  }
  FetchSpan span;
  span.phys = phys;
  span.avail = std::min(map->size - (pc - map->virt_start), store_->size() - phys);
  return span;
}

Status Interpreter::HandleProbeFault(uint64_t insn_vaddr, uint64_t* pc) {
  if (ex_table_count_ == 0) {
    return GuestFaultError("probe fault with no exception table, pc=" + HexString(insn_vaddr));
  }
  // Binary search the sorted {fault_offset, fixup_offset} table in guest
  // memory — the same search the kernel performs over __ex_table, which is
  // why FGKASLR must keep the table sorted after shuffling (paper §3.2).
  const uint64_t insn_offset = insn_vaddr - ex_table_text_base_;
  uint64_t lo = 0;
  uint64_t hi = ex_table_count_;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    IMK_ASSIGN_OR_RETURN(uint64_t entry_phys,
                         Translate(ex_table_vaddr_ + mid * kExTableEntrySize, kExTableEntrySize));
    IMK_ASSIGN_OR_RETURN(uint64_t fault_offset, Load64(entry_phys));
    if (fault_offset == insn_offset) {
      IMK_ASSIGN_OR_RETURN(uint64_t fixup, Load64(entry_phys + 8));
      *pc = ex_table_text_base_ + fixup;
      return OkStatus();
    }
    if (fault_offset < insn_offset) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return GuestFaultError("probe fault with no exception entry, pc=" + HexString(insn_vaddr));
}

const uint8_t* Interpreter::FillReadTlb(uint64_t page) {
  const uint64_t vaddr = page << 12;
  auto phys = Translate(vaddr, FrameStore::kFrameBytes);
  if (!phys.ok() || (*phys & (FrameStore::kFrameBytes - 1)) != 0) {
    return nullptr;  // partially mapped or frame-misaligned page: uncacheable
  }
  const uint8_t* base = store_->FrameReadPtr(*phys >> 12);
  ReadTlbEntry& e = read_tlb_[page & (kTlbSlots - 1)];
  e.page = page;
  e.base = base;
  return base;
}

uint8_t* Interpreter::FillWriteTlb(uint64_t page, uint64_t* frame_out) {
  const uint64_t vaddr = page << 12;
  auto phys = Translate(vaddr, FrameStore::kFrameBytes);
  if (!phys.ok() || (*phys & (FrameStore::kFrameBytes - 1)) != 0) {
    return nullptr;
  }
  const uint64_t frame = *phys >> 12;
  // Materializing a frame retargets its read pointer (a shared frame's from
  // the owner's bytes, a zero frame's from the static zero frame); any
  // read-TLB entry caching the pre-fault pointer must go.
  if (store_->StateOf(frame) != FrameStore::FrameState::kDirty) {
    FlushReadTlb();
  }
  auto base = store_->WritablePtr(*phys, FrameStore::kFrameBytes);
  if (!base.ok()) {
    return nullptr;
  }
  WriteTlbEntry& e = write_tlb_[page & (kTlbSlots - 1)];
  e.page = page;
  e.base = *base;
  e.frame = frame;
  *frame_out = frame;
  return *base;
}

Result<RunResult> Interpreter::Run(uint64_t entry_vaddr, uint64_t stack_top_vaddr,
                                   uint64_t max_instructions) {
  regs_[kRegSp] = stack_top_vaddr;
  if (use_block_cache_) {
    return RunBlocks(entry_vaddr, max_instructions);
  }
  return RunSwitch(entry_vaddr, max_instructions);
}

Result<RunResult> Interpreter::RunSwitch(uint64_t pc, uint64_t max_instructions) {
  RunResult result;
  ExecStats& stats = result.stats;

  while (stats.instructions < max_instructions) {
    // Watchdog poll: every 64 Ki instructions (~sub-millisecond between
    // polls) so a runaway or fault-stalled guest is bounded by the deadline,
    // not the instruction cap. The mask test comes first: it is a register
    // compare, so the 65535 of 65536 iterations that skip the poll never
    // touch deadline_ at all.
    if ((stats.instructions & 0xffffu) == 0 && deadline_ != nullptr && deadline_->expired()) {
      return Finish(result, StopReason::kDeadline);
    }
    // Fetch: one length-aware translation covers the opcode probe and the
    // full instruction when it fits the window; only an instruction spilling
    // past the window's edge (map seam) pays a second, exact Translate —
    // preserving the fault semantics of the two-step fetch. Fetches never
    // materialize frames: code executing straight out of shared template
    // pages is the point of the CoW mapping.
    IMK_ASSIGN_OR_RETURN(FetchSpan span, TranslateFetch(pc));
    IMK_ASSIGN_OR_RETURN(uint8_t opcode, Load8(span.phys));
    const uint32_t length = InstructionLength(opcode);
    if (length == 0) {
      return GuestFaultError("invalid opcode at pc=" + HexString(pc));
    }
    uint64_t insn_phys = span.phys;
    if (length > span.avail) {
      IMK_ASSIGN_OR_RETURN(insn_phys, Translate(pc, length));
    }
    IMK_ASSIGN_OR_RETURN(const uint8_t* insn, store_->ReadPtr(insn_phys, length, insn_buf_));

    if (icache_ != nullptr) {
      AccountIcache(pc, length, stats);
    }

    ++stats.instructions;
    uint64_t next_pc = pc + length;

    switch (static_cast<Opcode>(opcode)) {
      case Opcode::kNop:
        break;
      case Opcode::kHalt:
        return Finish(result, StopReason::kHalt);
      case Opcode::kLoadI:
      case Opcode::kLoadA64:
        regs_[insn[1] & 0xf] = LoadLe64(insn + 2);
        break;
      case Opcode::kLoadA32:
      case Opcode::kLoadNeg32:
        // Sign-extended, mirroring x86_64's handling of kernel addresses in
        // the top 2 GiB of the canonical space.
        regs_[insn[1] & 0xf] = static_cast<uint64_t>(SignExtend32(LoadLe32(insn + 2)));
        break;
      case Opcode::kMov:
        regs_[insn[1] & 0xf] = regs_[insn[2] & 0xf];
        break;
      case Opcode::kAdd:
        regs_[insn[1] & 0xf] += regs_[insn[2] & 0xf];
        break;
      case Opcode::kSub:
        regs_[insn[1] & 0xf] -= regs_[insn[2] & 0xf];
        break;
      case Opcode::kXor:
        regs_[insn[1] & 0xf] ^= regs_[insn[2] & 0xf];
        break;
      case Opcode::kMul:
        regs_[insn[1] & 0xf] *= regs_[insn[2] & 0xf];
        break;
      case Opcode::kShrI:
        regs_[insn[1] & 0xf] >>= (insn[2] & 63);
        break;
      case Opcode::kShlI:
        regs_[insn[1] & 0xf] <<= (insn[2] & 63);
        break;
      case Opcode::kAndI:
        regs_[insn[1] & 0xf] &= LoadLe32(insn + 2);
        break;
      case Opcode::kAddI:
        regs_[insn[1] & 0xf] =
            static_cast<uint64_t>(static_cast<int64_t>(regs_[insn[1] & 0xf]) +
                                  SignExtend32(LoadLe32(insn + 2)));
        break;
      case Opcode::kLd64: {
        const uint64_t addr =
            regs_[insn[2] & 0xf] + static_cast<uint64_t>(SignExtend32(LoadLe32(insn + 3)));
        IMK_ASSIGN_OR_RETURN(uint64_t phys, Translate(addr, 8));
        IMK_ASSIGN_OR_RETURN(regs_[insn[1] & 0xf], Load64(phys));
        break;
      }
      case Opcode::kSt64: {
        const uint64_t addr =
            regs_[insn[1] & 0xf] + static_cast<uint64_t>(SignExtend32(LoadLe32(insn + 3)));
        IMK_ASSIGN_OR_RETURN(uint64_t phys, Translate(addr, 8));
        IMK_RETURN_IF_ERROR(Store64(phys, regs_[insn[2] & 0xf]));
        break;
      }
      case Opcode::kLd8: {
        const uint64_t addr =
            regs_[insn[2] & 0xf] + static_cast<uint64_t>(SignExtend32(LoadLe32(insn + 3)));
        IMK_ASSIGN_OR_RETURN(uint64_t phys, Translate(addr, 1));
        IMK_ASSIGN_OR_RETURN(regs_[insn[1] & 0xf], Load8(phys));
        break;
      }
      case Opcode::kSt8: {
        const uint64_t addr =
            regs_[insn[1] & 0xf] + static_cast<uint64_t>(SignExtend32(LoadLe32(insn + 3)));
        IMK_ASSIGN_OR_RETURN(uint64_t phys, Translate(addr, 1));
        IMK_RETURN_IF_ERROR(Store8(phys, static_cast<uint8_t>(regs_[insn[2] & 0xf])));
        break;
      }
      case Opcode::kProbe: {
        const uint64_t addr =
            regs_[insn[2] & 0xf] + static_cast<uint64_t>(SignExtend32(LoadLe32(insn + 3)));
        auto phys = Translate(addr, 8);
        if (phys.ok()) {
          IMK_ASSIGN_OR_RETURN(regs_[insn[1] & 0xf], Load64(*phys));
        } else {
          // Faulting probe: search the exception table for a fixup target.
          regs_[insn[1] & 0xf] = 0;
          IMK_RETURN_IF_ERROR(HandleProbeFault(pc, &next_pc));
        }
        break;
      }
      case Opcode::kJmp:
        next_pc += static_cast<uint64_t>(SignExtend32(LoadLe32(insn + 1)));
        break;
      case Opcode::kJz:
        if (regs_[insn[1] & 0xf] == 0) {
          next_pc += static_cast<uint64_t>(SignExtend32(LoadLe32(insn + 2)));
        }
        break;
      case Opcode::kJnz:
        if (regs_[insn[1] & 0xf] != 0) {
          next_pc += static_cast<uint64_t>(SignExtend32(LoadLe32(insn + 2)));
        }
        break;
      case Opcode::kJlt:
        if (regs_[insn[1] & 0xf] < regs_[insn[2] & 0xf]) {
          next_pc += static_cast<uint64_t>(SignExtend32(LoadLe32(insn + 3)));
        }
        break;
      case Opcode::kCall: {
        const uint64_t target = LoadLe64(insn + 1);
        regs_[kRegSp] -= 8;
        IMK_ASSIGN_OR_RETURN(uint64_t phys, Translate(regs_[kRegSp], 8));
        IMK_RETURN_IF_ERROR(Store64(phys, next_pc));
        next_pc = target;
        break;
      }
      case Opcode::kCallR: {
        const uint64_t target = regs_[insn[1] & 0xf];
        regs_[kRegSp] -= 8;
        IMK_ASSIGN_OR_RETURN(uint64_t phys, Translate(regs_[kRegSp], 8));
        IMK_RETURN_IF_ERROR(Store64(phys, next_pc));
        next_pc = target;
        break;
      }
      case Opcode::kRet: {
        IMK_ASSIGN_OR_RETURN(uint64_t phys, Translate(regs_[kRegSp], 8));
        IMK_ASSIGN_OR_RETURN(next_pc, Load64(phys));
        regs_[kRegSp] += 8;
        break;
      }
      case Opcode::kPush: {
        regs_[kRegSp] -= 8;
        IMK_ASSIGN_OR_RETURN(uint64_t phys, Translate(regs_[kRegSp], 8));
        IMK_RETURN_IF_ERROR(Store64(phys, regs_[insn[1] & 0xf]));
        break;
      }
      case Opcode::kPop: {
        IMK_ASSIGN_OR_RETURN(uint64_t phys, Translate(regs_[kRegSp], 8));
        IMK_ASSIGN_OR_RETURN(regs_[insn[1] & 0xf], Load64(phys));
        regs_[kRegSp] += 8;
        break;
      }
      case Opcode::kOut: {
        if (!port_handler_) {
          return GuestFaultError("OUT with no port handler, pc=" + HexString(pc));
        }
        const uint16_t port = LoadLe16(insn + 1);
        IMK_RETURN_IF_ERROR(port_handler_(port, true, regs_[insn[3] & 0xf]).status());
        break;
      }
      case Opcode::kIn: {
        if (!port_handler_) {
          return GuestFaultError("IN with no port handler, pc=" + HexString(pc));
        }
        const uint16_t port = LoadLe16(insn + 1);
        IMK_ASSIGN_OR_RETURN(uint64_t value, port_handler_(port, false, 0));
        regs_[insn[3] & 0xf] = value;
        break;
      }
      case Opcode::kRdPc:
        regs_[insn[1] & 0xf] = pc;
        break;
    }
    pc = next_pc;
  }

  return Finish(result, StopReason::kInstructionCap);
}

Result<bool> Interpreter::RunUops(const DecodedBlock& block, uint64_t vaddr, uint64_t n,
                                  ExecStats& stats, uint64_t* pc) {
  // Only the last uop of a block can change control flow (the decoder ends
  // blocks at every such instruction), so for i < n-1 `next` is always the
  // fall-through and the loop runs branch-free through the common ALU body.
  uint64_t next = *pc;
  const Uop* uops = block.uops.data();
  for (uint64_t i = 0; i < n; ++i) {
    const Uop& u = uops[i];
    const uint64_t upc = vaddr + u.offset;
    if (u.op == kUopInvalid) {
      return GuestFaultError("invalid opcode at pc=" + HexString(upc));
    }
    if (icache_ != nullptr) {
      AccountIcache(upc, u.len, stats);
    }
    ++stats.instructions;
    next = upc + u.len;

    switch (static_cast<Opcode>(u.op)) {
      case Opcode::kNop:
        break;
      case Opcode::kHalt:
        return true;
      case Opcode::kLoadI:
      case Opcode::kLoadA64:
      case Opcode::kLoadA32:
      case Opcode::kLoadNeg32:
        regs_[u.rd] = u.imm;  // extension already applied at decode time
        break;
      case Opcode::kMov:
        regs_[u.rd] = regs_[u.rs];
        break;
      case Opcode::kAdd:
        regs_[u.rd] += regs_[u.rs];
        break;
      case Opcode::kSub:
        regs_[u.rd] -= regs_[u.rs];
        break;
      case Opcode::kXor:
        regs_[u.rd] ^= regs_[u.rs];
        break;
      case Opcode::kMul:
        regs_[u.rd] *= regs_[u.rs];
        break;
      case Opcode::kShrI:
        regs_[u.rd] >>= u.imm;
        break;
      case Opcode::kShlI:
        regs_[u.rd] <<= u.imm;
        break;
      case Opcode::kAndI:
        regs_[u.rd] &= u.imm;
        break;
      case Opcode::kAddI:
        regs_[u.rd] += u.imm;
        break;
      case Opcode::kLd64: {
        IMK_ASSIGN_OR_RETURN(regs_[u.rd], TlbLoad64(regs_[u.rs] + u.imm));
        break;
      }
      case Opcode::kSt64: {
        IMK_RETURN_IF_ERROR(TlbStore64(regs_[u.rd] + u.imm, regs_[u.rs]));
        break;
      }
      case Opcode::kLd8: {
        IMK_ASSIGN_OR_RETURN(regs_[u.rd], TlbLoad8(regs_[u.rs] + u.imm));
        break;
      }
      case Opcode::kSt8: {
        IMK_RETURN_IF_ERROR(TlbStore8(regs_[u.rd] + u.imm, static_cast<uint8_t>(regs_[u.rs])));
        break;
      }
      case Opcode::kProbe: {
        auto value = TlbLoad64(regs_[u.rs] + u.imm);
        if (value.ok()) {
          regs_[u.rd] = *value;
        } else {
          // Faulting probe: search the exception table for a fixup target.
          regs_[u.rd] = 0;
          IMK_RETURN_IF_ERROR(HandleProbeFault(upc, &next));
        }
        break;
      }
      case Opcode::kJmp:
        next += u.imm;
        break;
      case Opcode::kJz:
        if (regs_[u.rd] == 0) {
          next += u.imm;
        }
        break;
      case Opcode::kJnz:
        if (regs_[u.rd] != 0) {
          next += u.imm;
        }
        break;
      case Opcode::kJlt:
        if (regs_[u.rd] < regs_[u.rs]) {
          next += u.imm;
        }
        break;
      case Opcode::kCall: {
        regs_[kRegSp] -= 8;
        IMK_RETURN_IF_ERROR(TlbStore64(regs_[kRegSp], next));
        next = u.imm;
        break;
      }
      case Opcode::kCallR: {
        const uint64_t target = regs_[u.rd];
        regs_[kRegSp] -= 8;
        IMK_RETURN_IF_ERROR(TlbStore64(regs_[kRegSp], next));
        next = target;
        break;
      }
      case Opcode::kRet: {
        IMK_ASSIGN_OR_RETURN(next, TlbLoad64(regs_[kRegSp]));
        regs_[kRegSp] += 8;
        break;
      }
      case Opcode::kPush: {
        regs_[kRegSp] -= 8;
        IMK_RETURN_IF_ERROR(TlbStore64(regs_[kRegSp], regs_[u.rd]));
        break;
      }
      case Opcode::kPop: {
        IMK_ASSIGN_OR_RETURN(regs_[u.rd], TlbLoad64(regs_[kRegSp]));
        regs_[kRegSp] += 8;
        break;
      }
      case Opcode::kOut: {
        if (!port_handler_) {
          return GuestFaultError("OUT with no port handler, pc=" + HexString(upc));
        }
        IMK_RETURN_IF_ERROR(
            port_handler_(static_cast<uint16_t>(u.imm), true, regs_[u.rs]).status());
        // The handler may have written guest memory (setup tables, the lazy
        // kallsyms hook): cached translations are suspect.
        FlushTlbs();
        break;
      }
      case Opcode::kIn: {
        if (!port_handler_) {
          return GuestFaultError("IN with no port handler, pc=" + HexString(upc));
        }
        IMK_ASSIGN_OR_RETURN(uint64_t value,
                             port_handler_(static_cast<uint16_t>(u.imm), false, 0));
        regs_[u.rd] = value;
        FlushTlbs();
        break;
      }
      case Opcode::kRdPc:
        regs_[u.rd] = upc;
        break;
    }
  }
  *pc = next;
  return false;
}

Result<RunResult> Interpreter::RunBlocks(uint64_t pc, uint64_t max_instructions) {
  if (block_cache_ == nullptr) {
    block_cache_ = std::make_unique<BlockCache>(*store_);
  }
  block_cache_->set_shared(shared_block_cache_);
  // Anything may have written guest memory since the last Run (loader,
  // snapshot restore, the monitor): start with cold TLBs. Decoded blocks
  // survive across runs — the frame versions vouch for them.
  FlushTlbs();

  RunResult result;
  ExecStats& stats = result.stats;
  const BlockCacheCounters before = block_cache_->counters();
  // Whole-table decode sharing: adopt the layout's published table (or start
  // logging to publish one at halt). Self-guarded to run once per VM; after
  // the counter snapshot so adopted blocks land in this run's shared stats.
  block_cache_->AdoptTable(layout_key_);
  // Every successful exit folds this run's slice of the block-cache
  // counters into the stats (errors discard stats entirely, as ever).
  const auto finish = [&](StopReason reason) -> RunResult {
    const BlockCacheCounters& after = block_cache_->counters();
    stats.block_cache_hits = after.hits - before.hits;
    stats.block_cache_misses = after.misses - before.misses;
    stats.block_cache_invalidations = after.invalidations - before.invalidations;
    stats.blocks_shared = after.shared_grabs - before.shared_grabs;
    stats.blocks_private = after.private_decodes - before.private_decodes;
    if (reason == StopReason::kHalt) {
      // A halted guest completed its run: the block log now covers the
      // layout's dynamic block set, so it is worth publishing.
      block_cache_->PublishTable();
    }
    return Finish(result, reason);
  };

  while (stats.instructions < max_instructions) {
    // Same watchdog cadence as the switch loop: a poll before the
    // instruction whose ordinal is a multiple of 64 Ki. Blocks that would
    // run past the next poll point are truncated to it below.
    if ((stats.instructions & 0xffffu) == 0 && deadline_ != nullptr && deadline_->expired()) {
      return finish(StopReason::kDeadline);
    }
    // Hot path: the cache is keyed by virtual pc, so a hit needs no address
    // translation at all. Only a miss pays TranslateFetch. No TLB
    // maintenance on install either: the write TLB's hit path re-checks the
    // target frame's code flag (BumpVersionIfCode) on every store, so a
    // block installed after a write-TLB fill is still invalidated by the
    // next store into its frame.
    const DecodedBlock* block = block_cache_->Find(pc);
    if (block == nullptr) {
      IMK_ASSIGN_OR_RETURN(FetchSpan span, TranslateFetch(pc));
      block = block_cache_->LookupSlow(pc, span.phys, span.avail);
    }

    if (block->uops.empty()) {
      // The first instruction did not fit the fetch window (map seam).
      // Single-step it through the exact legacy fetch path, faults and all.
      IMK_ASSIGN_OR_RETURN(uint64_t opcode_phys, Translate(pc, 1));
      IMK_ASSIGN_OR_RETURN(uint8_t opcode, Load8(opcode_phys));
      const uint32_t length = InstructionLength(opcode);
      if (length == 0) {
        return GuestFaultError("invalid opcode at pc=" + HexString(pc));
      }
      IMK_ASSIGN_OR_RETURN(uint64_t insn_phys, Translate(pc, length));
      IMK_ASSIGN_OR_RETURN(const uint8_t* insn, store_->ReadPtr(insn_phys, length, insn_buf_));
      DecodedBlock single;
      const Uop uop = DecodeOne(insn, opcode, length, 0);
      single.uops.assign(&uop, 1);
      IMK_ASSIGN_OR_RETURN(bool halted, RunUops(single, pc, 1, stats, &pc));
      if (halted) {
        return finish(StopReason::kHalt);
      }
      continue;
    }

    // Dispatch as much of the block as the instruction cap and the watchdog
    // cadence allow. Truncation is safe: control-flow uops are always last,
    // so a prefix always falls through to a decodable continuation.
    uint64_t n = block->uops.size();
    n = std::min(n, max_instructions - stats.instructions);
    n = std::min(n, uint64_t{0x10000} - (stats.instructions & 0xffffu));
    IMK_ASSIGN_OR_RETURN(bool halted, RunUops(*block, pc, n, stats, &pc));
    if (halted) {
      return finish(StopReason::kHalt);
    }
  }
  return finish(StopReason::kInstructionCap);
}

}  // namespace imk
