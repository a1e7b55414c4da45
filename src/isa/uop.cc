#include "src/isa/uop.h"

#include <algorithm>

#include "src/base/bytes.h"

namespace imk {
namespace {

uint64_t SignExtend32(uint32_t v) {
  return static_cast<uint64_t>(static_cast<int64_t>(static_cast<int32_t>(v)));
}

}  // namespace

bool EndsBlock(Opcode op) {
  switch (op) {
    case Opcode::kHalt:
    case Opcode::kJmp:
    case Opcode::kJz:
    case Opcode::kJnz:
    case Opcode::kJlt:
    case Opcode::kCall:
    case Opcode::kCallR:
    case Opcode::kRet:
    case Opcode::kOut:
    case Opcode::kIn:
    case Opcode::kProbe:
      return true;
    default:
      return false;
  }
}

Uop DecodeOne(const uint8_t* insn, uint8_t opcode, uint32_t length, uint32_t offset) {
  Uop u;
  u.op = opcode;
  u.len = static_cast<uint8_t>(length);
  u.offset = offset;
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kNop:
    case Opcode::kHalt:
    case Opcode::kRet:
      break;
    case Opcode::kLoadI:
    case Opcode::kLoadA64:
      u.rd = insn[1] & 0xf;
      u.imm = LoadLe64(insn + 2);
      break;
    case Opcode::kLoadA32:
    case Opcode::kLoadNeg32:
      u.rd = insn[1] & 0xf;
      u.imm = SignExtend32(LoadLe32(insn + 2));
      break;
    case Opcode::kMov:
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kXor:
    case Opcode::kMul:
      u.rd = insn[1] & 0xf;
      u.rs = insn[2] & 0xf;
      break;
    case Opcode::kShrI:
    case Opcode::kShlI:
      u.rd = insn[1] & 0xf;
      u.imm = insn[2] & 63;
      break;
    case Opcode::kAndI:
      u.rd = insn[1] & 0xf;
      u.imm = LoadLe32(insn + 2);  // zero-extended, as the interpreter does
      break;
    case Opcode::kAddI:
      u.rd = insn[1] & 0xf;
      u.imm = SignExtend32(LoadLe32(insn + 2));
      break;
    case Opcode::kLd64:
    case Opcode::kLd8:
    case Opcode::kProbe:
      u.rd = insn[1] & 0xf;
      u.rs = insn[2] & 0xf;
      u.imm = SignExtend32(LoadLe32(insn + 3));
      break;
    case Opcode::kSt64:
    case Opcode::kSt8:
      u.rd = insn[1] & 0xf;  // base register
      u.rs = insn[2] & 0xf;  // stored register
      u.imm = SignExtend32(LoadLe32(insn + 3));
      break;
    case Opcode::kJmp:
      u.imm = SignExtend32(LoadLe32(insn + 1));
      break;
    case Opcode::kJz:
    case Opcode::kJnz:
      u.rd = insn[1] & 0xf;
      u.imm = SignExtend32(LoadLe32(insn + 2));
      break;
    case Opcode::kJlt:
      u.rd = insn[1] & 0xf;
      u.rs = insn[2] & 0xf;
      u.imm = SignExtend32(LoadLe32(insn + 3));
      break;
    case Opcode::kCall:
      u.imm = LoadLe64(insn + 1);
      break;
    case Opcode::kCallR:
    case Opcode::kPush:
    case Opcode::kPop:
    case Opcode::kRdPc:
      u.rd = insn[1] & 0xf;
      break;
    case Opcode::kOut:
      u.imm = LoadLe16(insn + 1);
      u.rs = insn[3] & 0xf;
      break;
    case Opcode::kIn:
      u.imm = LoadLe16(insn + 1);
      u.rd = insn[3] & 0xf;
      break;
  }
  return u;
}

uint64_t UopDigest(const UopArray& uops) {
  // Word-at-a-time FNV-1a variant: the digest is recomputed on every
  // shared-tier grab (the hot fleet path), so it folds one 64-bit word per
  // round instead of one byte. The shift folds the high product bits back
  // down so single-bit flips in any field still flip the final value.
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
    h ^= h >> 29;
  };
  const Uop* u = uops.data();
  for (size_t i = 0; i < uops.size(); ++i) {
    mix(static_cast<uint64_t>(u[i].op) | static_cast<uint64_t>(u[i].rd) << 8 |
        static_cast<uint64_t>(u[i].rs) << 16 | static_cast<uint64_t>(u[i].len) << 24 |
        static_cast<uint64_t>(u[i].offset) << 32);
    mix(u[i].imm);
  }
  return h;
}

DecodedBlock DecodeBlock(const FrameStore& store, uint64_t phys, uint64_t avail,
                         uint32_t max_uops) {
  DecodedBlock block;
  if (phys >= store.size()) {
    return block;
  }
  avail = std::min(avail, store.size() - phys);
  max_uops = std::min(max_uops, kMaxBlockUops);
  // Blocks are invalidated per frame, so they never begin an instruction in
  // a second frame: every opcode byte, and every instruction that ends in
  // the frame, is read straight from the frame's content pointer. Only a
  // last instruction straddling the frame edge is gathered.
  const uint64_t start = phys & (FrameStore::kFrameBytes - 1);
  const uint8_t* bytes = store.FrameReadPtr(phys >> 12) + start;
  const uint64_t in_frame = FrameStore::kFrameBytes - start;
  // Per thread rather than on the stack: default-constructing
  // kMaxBlockUops uops on every call would cost more than a typical block's
  // whole decode.
  thread_local Uop uops[kMaxBlockUops];
  uint32_t n = 0;
  uint64_t cursor = 0;
  while (n < max_uops && cursor < in_frame && cursor < avail) {
    const uint8_t opcode = bytes[cursor];
    const uint32_t length = InstructionLength(opcode);
    if (length == 0) {
      // Invalid opcode: record a faulting uop so execution reproduces the
      // interpreter's guest fault at exactly this pc.
      Uop invalid;
      invalid.offset = static_cast<uint32_t>(cursor);
      uops[n++] = invalid;
      cursor += 1;
      break;
    }
    if (cursor + length > avail) {
      break;  // instruction straddles the fetch window; leave it to the slow path
    }
    const uint8_t* insn = bytes + cursor;
    uint8_t scratch[16];
    const bool straddles = cursor + length > in_frame;
    if (straddles) {
      auto gathered = store.ReadPtr(phys + cursor, length, scratch);
      if (!gathered.ok()) {
        break;  // unreachable after the avail clamp; be safe
      }
      insn = *gathered;
    }
    uops[n++] = DecodeOne(insn, opcode, length, static_cast<uint32_t>(cursor));
    cursor += length;
    if (straddles) {
      block.ends_in_frame = false;  // last instruction leaked into the next frame
      break;
    }
    if (EndsBlock(static_cast<Opcode>(opcode))) {
      break;
    }
  }
  block.uops.assign(uops, n);
  block.byte_len = static_cast<uint32_t>(cursor);
  block.uop_digest = UopDigest(block.uops);
  return block;
}

}  // namespace imk
