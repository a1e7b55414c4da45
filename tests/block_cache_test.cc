// Predecoded block-cache engine tests: bit-identity against the legacy
// switch-loop interpreter (registers, memory, stats, i-cache model),
// self-modifying-code invalidation through the frame-version protocol, the
// interp.blockcache:corrupt grab-time integrity drill, a multi-threaded
// SharedBlockCache storm, the data TLBs over paged memory, and DecodeBlock's
// edge cases (suite names carry
// "BlockCache" so the TSan and race-audit CI filters pick them up).
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/base/fault_injection.h"
#include "src/base/frame_store.h"
#include "src/isa/assembler.h"
#include "src/isa/block_cache.h"
#include "src/isa/icache.h"
#include "src/isa/interpreter.h"
#include "src/isa/isa.h"

namespace imk {
namespace {

constexpr uint64_t kCodeVaddr = 0x10000;
constexpr uint64_t kRamSize = 1 << 20;
constexpr uint64_t kStackTop = kRamSize - 16;

// Everything one engine run produces: the Run() result (or fault status),
// final register file, and final guest memory.
struct EngineRun {
  Result<RunResult> result{RunResult{}};
  std::array<uint64_t, 16> regs{};
  std::vector<uint8_t> ram;
};

EngineRun RunEngine(const Bytes& code, bool block_cache, uint64_t max_instructions,
                    IcacheModel* icache) {
  EngineRun out;
  out.ram.assign(kRamSize, 0);
  std::copy(code.begin(), code.end(), out.ram.begin() + kCodeVaddr);
  LinearMap map;
  map.virt_start = 0;
  map.phys_start = 0;
  map.size = kRamSize;
  Interpreter interp(MutableByteSpan(out.ram), map);
  interp.set_block_cache(block_cache);
  if (icache != nullptr) {
    interp.set_icache(icache);
  }
  out.result = interp.Run(kCodeVaddr, kStackTop, max_instructions);
  for (int i = 0; i < 16; ++i) {
    out.regs[static_cast<size_t>(i)] = interp.reg(i);
  }
  return out;
}

// Runs `code` under both engines and asserts bit-identical outcomes:
// status, stop reason, architectural stats, registers, and all of RAM.
void ExpectBitIdentical(const Bytes& code, uint64_t max_instructions = 1 << 20,
                        bool with_icache = false) {
  IcacheModel legacy_icache{IcacheConfig{}};
  IcacheModel block_icache{IcacheConfig{}};
  EngineRun legacy = RunEngine(code, /*block_cache=*/false, max_instructions,
                               with_icache ? &legacy_icache : nullptr);
  EngineRun block = RunEngine(code, /*block_cache=*/true, max_instructions,
                              with_icache ? &block_icache : nullptr);

  ASSERT_EQ(legacy.result.ok(), block.result.ok())
      << "legacy: " << legacy.result.status().ToString()
      << " block: " << block.result.status().ToString();
  if (!legacy.result.ok()) {
    EXPECT_EQ(legacy.result.status().ToString(), block.result.status().ToString());
  } else {
    EXPECT_EQ(legacy.result->reason, block.result->reason);
    EXPECT_EQ(legacy.result->stats.instructions, block.result->stats.instructions);
    EXPECT_EQ(legacy.result->stats.icache_hits, block.result->stats.icache_hits);
    EXPECT_EQ(legacy.result->stats.icache_misses, block.result->stats.icache_misses);
    EXPECT_EQ(legacy.result->stats.cycles, block.result->stats.cycles);
    // The legacy engine never touches the block-cache counters.
    EXPECT_EQ(legacy.result->stats.block_cache_hits, 0u);
    EXPECT_EQ(legacy.result->stats.block_cache_misses, 0u);
    EXPECT_EQ(legacy.result->stats.blocks_shared + legacy.result->stats.blocks_private, 0u);
  }
  if (with_icache) {
    EXPECT_EQ(legacy_icache.hits(), block_icache.hits());
    EXPECT_EQ(legacy_icache.misses(), block_icache.misses());
  }
  EXPECT_EQ(legacy.regs, block.regs);
  EXPECT_EQ(legacy.ram, block.ram);
}

// A program touching every structural uop class: ALU, loads/stores, a loop
// with both taken and fall-through branches, call/ret, push/pop, and RDPC.
Bytes KitchenSinkProgram() {
  Assembler a(kCodeVaddr);
  // r1 = sum of 0..99 via a loop.
  a.LoadI(0, 0);
  a.LoadI(1, 0);
  a.LoadI(2, 100);
  auto loop = a.NewLabel();
  auto body = a.NewLabel();
  auto done = a.NewLabel();
  a.Bind(loop);
  a.Jlt(0, 2, body);
  a.Jmp(done);
  a.Bind(body);
  a.Add(1, 0);
  a.AddI(0, 1);
  a.Jmp(loop);
  a.Bind(done);
  // Memory traffic across several frames.
  a.LoadI(3, 0x40000);
  a.St64(3, 1, 0);
  a.St64(3, 1, 4096);
  a.Ld64(4, 3, 4096);
  a.LoadI(5, 0xab);
  a.St8(3, 5, 9000);
  a.Ld8(6, 3, 9000);
  // Stack + PC-relative machinery.
  a.Push(1);
  a.Pop(7);
  a.RdPc(8);
  a.LoadI(9, 0x5a5a);
  a.Xor(9, 1);
  a.AndI(9, 0xffff);
  a.Halt();
  return a.TakeCode();
}

TEST(BlockCacheBitIdentityTest, KitchenSinkMatchesLegacy) {
  ExpectBitIdentical(KitchenSinkProgram());
}

TEST(BlockCacheBitIdentityTest, IcacheModelAccountingMatchesLegacy) {
  ExpectBitIdentical(KitchenSinkProgram(), 1 << 20, /*with_icache=*/true);
}

TEST(BlockCacheBitIdentityTest, InstructionCapStopsMidBlock) {
  // Caps that land inside a decoded block must stop at exactly the same
  // instruction count as the legacy loop, with identical partial state.
  const Bytes code = KitchenSinkProgram();
  for (uint64_t cap : {1ull, 2ull, 3ull, 7ull, 50ull, 251ull}) {
    ExpectBitIdentical(code, cap);
  }
}

TEST(BlockCacheBitIdentityTest, InvalidOpcodeFaultsIdentically) {
  Assembler a(kCodeVaddr);
  a.LoadI(0, 7);
  Bytes code = a.TakeCode();
  code.push_back(0xee);  // no such opcode
  ExpectBitIdentical(code);
}

TEST(BlockCacheBitIdentityTest, CallRetAcrossBlocks) {
  // Call through a register so the callee lives in its own block; the
  // return lands mid-stream and must resume at the right uop boundary.
  Assembler target(kCodeVaddr + 0x200);
  target.LoadI(0, 111);
  target.Ret();
  Bytes callee = target.TakeCode();

  Assembler a(kCodeVaddr);
  a.LoadI(1, kCodeVaddr + 0x200);
  a.CallR(1);
  a.Mov(6, 0);
  a.CallR(1);
  a.Add(6, 0);  // r6 = 222
  a.Halt();
  Bytes code = a.TakeCode();
  code.resize(0x200, static_cast<uint8_t>(0));  // pad with kNop up to the callee
  code.insert(code.end(), callee.begin(), callee.end());
  ExpectBitIdentical(code);
}

TEST(BlockCacheBitIdentityTest, HotLoopReusesCachedBlocks) {
  // Sanity-check the engine is actually caching: a hot loop must be
  // dominated by block-cache hits, not fresh decodes.
  Bytes code = KitchenSinkProgram();
  EngineRun block = RunEngine(code, /*block_cache=*/true, 1 << 20, nullptr);
  ASSERT_TRUE(block.result.ok());
  const ExecStats& stats = block.result->stats;
  EXPECT_GT(stats.block_cache_hits, stats.block_cache_misses);
  EXPECT_GT(stats.blocks_private, 0u);  // flat RAM frames are dirty => private decodes
  EXPECT_EQ(stats.blocks_shared, 0u);   // no shared frames, no shared tier
}

TEST(BlockCacheSmcTest, StoreIntoCodeInvalidatesCachedBlock) {
  // The callee at +0x200 is LoadI(0, imm); Ret. The caller executes it
  // (decoding + caching the block), patches the 8-byte immediate in place,
  // and calls it again: the write must bump the code frame's version and
  // force a re-decode that sees the new bytes.
  Assembler target(kCodeVaddr + 0x200);
  target.LoadI(0, 111);
  target.Ret();
  Bytes callee = target.TakeCode();

  Assembler a(kCodeVaddr);
  a.LoadI(1, kCodeVaddr + 0x200);
  a.CallR(1);
  a.Mov(6, 0);                       // r6 = 111 (pre-patch)
  a.LoadI(2, 222);
  a.LoadI(3, kCodeVaddr + 0x200 + 2);  // LoadI imm field: [op][rd][imm64]
  a.St64(3, 2, 0);                   // patch the immediate to 222
  a.CallR(1);                        // r0 = 222 (post-patch)
  a.Halt();
  Bytes code = a.TakeCode();
  code.resize(0x200, static_cast<uint8_t>(0));
  code.insert(code.end(), callee.begin(), callee.end());

  EngineRun block = RunEngine(code, /*block_cache=*/true, 1 << 20, nullptr);
  ASSERT_TRUE(block.result.ok()) << block.result.status().ToString();
  EXPECT_EQ(block.result->reason, StopReason::kHalt);
  EXPECT_EQ(block.regs[6], 111u);
  EXPECT_EQ(block.regs[0], 222u);
  EXPECT_GE(block.result->stats.block_cache_invalidations, 1u);

  // And the whole run is still bit-identical to the legacy engine.
  ExpectBitIdentical(code);
}

// ---- shared tier over CoW guest memory ----

// One frame of immutable "template" code: sums 0..(r2-1) into r1, stores the
// result at 0x80000, halts. Loaded via FrameStore::MapShared so the code
// frame is kShared and decoded blocks are eligible for the shared tier.
std::shared_ptr<std::vector<uint8_t>> TemplateFrame() {
  Assembler a(kCodeVaddr);
  a.LoadI(0, 0);
  a.LoadI(1, 0);
  a.LoadI(2, 100);
  auto loop = a.NewLabel();
  auto body = a.NewLabel();
  auto done = a.NewLabel();
  a.Bind(loop);
  a.Jlt(0, 2, body);
  a.Jmp(done);
  a.Bind(body);
  a.Add(1, 0);
  a.AddI(0, 1);
  a.Jmp(loop);
  a.Bind(done);
  a.LoadI(3, 0x80000);
  a.St64(3, 1, 0);
  a.Halt();
  Bytes code = a.TakeCode();
  auto frame = std::make_shared<std::vector<uint8_t>>(FrameStore::kFrameBytes, 0);
  std::copy(code.begin(), code.end(), frame->begin());
  return frame;
}

// Boots one "VM": a private CoW FrameStore aliasing the shared template
// frame at kCodeVaddr, wired to `shared`. Returns the final ExecStats.
ExecStats RunTemplateVm(const std::shared_ptr<std::vector<uint8_t>>& tmpl,
                        SharedBlockCache* shared, uint64_t* out_sum,
                        uint64_t layout_key = 0) {
  FrameStore store(kRamSize);
  Status mapped = store.MapShared(kCodeVaddr, ByteSpan(*tmpl), tmpl);
  EXPECT_TRUE(mapped.ok()) << mapped.ToString();
  LinearMap map;
  map.virt_start = 0;
  map.phys_start = 0;
  map.size = kRamSize;
  Interpreter interp(store, map);
  interp.set_shared_block_cache(shared);
  interp.set_layout_key(layout_key);
  auto result = interp.Run(kCodeVaddr, kStackTop, 1 << 20);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) {
    return ExecStats{};
  }
  EXPECT_EQ(result->reason, StopReason::kHalt);
  uint64_t sum = 0;
  EXPECT_TRUE(store.Read(0x80000, reinterpret_cast<uint8_t*>(&sum), sizeof(sum)).ok());
  *out_sum = sum;
  return result->stats;
}

TEST(BlockCacheSharedTest, SecondVmGrabsFirstVmsDecodes) {
  auto tmpl = TemplateFrame();
  SharedBlockCache shared;
  uint64_t sum1 = 0;
  uint64_t sum2 = 0;
  ExecStats first = RunTemplateVm(tmpl, &shared, &sum1);
  ExecStats second = RunTemplateVm(tmpl, &shared, &sum2);
  EXPECT_EQ(sum1, 4950u);
  EXPECT_EQ(sum2, 4950u);
  // Identical guest work under both provenances.
  EXPECT_EQ(first.instructions, second.instructions);
  // All code sits in the one shared frame: every decode goes through the
  // shared tier, none are private.
  EXPECT_GT(first.blocks_shared, 0u);
  EXPECT_EQ(first.blocks_private, 0u);
  EXPECT_EQ(second.blocks_shared, first.blocks_shared);
  SharedBlockCache::Stats stats = shared.stats();
  EXPECT_GT(stats.blocks, 0u);
  // VM 1 missed on every block it published; VM 2 grabbed them all.
  EXPECT_GE(stats.hits, first.blocks_shared);
  EXPECT_GE(stats.misses, first.blocks_shared);
  EXPECT_EQ(stats.stale_replaced, 0u);
}

TEST(BlockCacheSharedTest, ConcurrentStormOverOneSharedCache) {
  // The race-audit / TSan drill: many VMs on many threads hammering one
  // SharedBlockCache (first-wins Install racing Grab). Every VM must
  // compute the same sum, and the shared tier must end with the same
  // resident blocks a solo run produces.
  auto tmpl = TemplateFrame();
  SharedBlockCache shared;
  constexpr int kThreads = 4;
  constexpr int kVmsPerThread = 8;
  std::array<uint64_t, kThreads * kVmsPerThread> sums{};
  std::array<uint64_t, kThreads> shared_blocks{};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kVmsPerThread; ++i) {
        uint64_t sum = 0;
        ExecStats stats = RunTemplateVm(tmpl, &shared, &sum);
        sums[static_cast<size_t>(t * kVmsPerThread + i)] = sum;
        shared_blocks[static_cast<size_t>(t)] = stats.blocks_shared;
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  for (uint64_t sum : sums) {
    EXPECT_EQ(sum, 4950u);
  }
  SharedBlockCache::Stats stats = shared.stats();
  EXPECT_GT(stats.blocks, 0u);
  EXPECT_EQ(stats.blocks, shared_blocks[0]);  // every VM sees the same block set
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads * kVmsPerThread) * shared_blocks[0]);
}

TEST(BlockCacheSharedTest, SameLayoutKeyAdoptsWholeTable) {
  // Whole-table decode sharing: the first VM of a layout publishes its
  // shareable bindings as a table at halt; a second VM with the same layout
  // key binds the table and resolves every miss through its mutex-free
  // index, never touching the per-block grab path.
  auto tmpl = TemplateFrame();
  SharedBlockCache shared;
  uint64_t sum1 = 0;
  uint64_t sum2 = 0;
  ExecStats first = RunTemplateVm(tmpl, &shared, &sum1, /*layout_key=*/42);
  SharedBlockCache::Stats after_first = shared.stats();
  EXPECT_EQ(after_first.tables, 1u);
  EXPECT_EQ(after_first.table_grabs, 0u);

  ExecStats second = RunTemplateVm(tmpl, &shared, &sum2, /*layout_key=*/42);
  EXPECT_EQ(sum1, 4950u);
  EXPECT_EQ(sum2, 4950u);
  EXPECT_EQ(first.instructions, second.instructions);
  EXPECT_EQ(second.blocks_shared, first.blocks_shared);
  EXPECT_EQ(second.blocks_private, 0u);
  SharedBlockCache::Stats stats = shared.stats();
  EXPECT_EQ(stats.tables, 1u);
  EXPECT_EQ(stats.table_grabs, 1u);
  // Lazy adoption bypasses per-block grabs entirely: the tier's per-block
  // hit counter never moves.
  EXPECT_EQ(stats.hits, 0u);
}

TEST(BlockCacheSharedTest, DifferentLayoutKeysPublishSeparateTables) {
  // A different layout key finds no table, falls back to per-block grabs,
  // and publishes its own table for future VMs of that layout.
  auto tmpl = TemplateFrame();
  SharedBlockCache shared;
  uint64_t sum1 = 0;
  uint64_t sum2 = 0;
  ExecStats first = RunTemplateVm(tmpl, &shared, &sum1, /*layout_key=*/42);
  ExecStats second = RunTemplateVm(tmpl, &shared, &sum2, /*layout_key=*/43);
  EXPECT_EQ(sum1, 4950u);
  EXPECT_EQ(sum2, 4950u);
  EXPECT_EQ(second.blocks_shared, first.blocks_shared);
  SharedBlockCache::Stats stats = shared.stats();
  EXPECT_EQ(stats.tables, 2u);
  EXPECT_EQ(stats.table_grabs, 0u);
  // The second VM shared per-block (grab path), not via table adoption.
  EXPECT_GE(stats.hits, second.blocks_shared);
}

TEST(BlockCacheFaultTest, CorruptDigestOnAdoptFallsBackToGrabPath) {
  // Same drill as CorruptDigestFallsBackToFreshDecode, but through table
  // adoption: every adopted entry's digest check is corrupted, so each
  // block falls back to the grab/decode path — results stay bit-identical.
  auto tmpl = TemplateFrame();
  SharedBlockCache shared;
  uint64_t sum1 = 0;
  ExecStats first = RunTemplateVm(tmpl, &shared, &sum1, /*layout_key=*/42);
  ASSERT_GT(first.blocks_shared, 0u);

  auto plan = FaultPlan::Parse("interp.blockcache:corrupt:bytes=8", /*seed=*/42);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  uint64_t sum2 = 0;
  ExecStats second;
  {
    FaultScope scope(*plan);
    second = RunTemplateVm(tmpl, &shared, &sum2, /*layout_key=*/42);
  }
  EXPECT_EQ(sum1, 4950u);
  EXPECT_EQ(sum2, 4950u);
  EXPECT_EQ(second.instructions, first.instructions);
  // Every adoption failed validation and was re-resolved downstream.
  EXPECT_GE(second.block_cache_invalidations, first.blocks_shared);
}

// ---- grab-time integrity: the interp.blockcache:corrupt fault point ----

TEST(BlockCacheFaultTest, RegisteredInKnownFaultPoints) {
  const std::vector<std::string>& points = KnownFaultPoints();
  bool found = false;
  for (const std::string& point : points) {
    if (point == "interp.blockcache") {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "interp.blockcache missing from KnownFaultPoints()";
}

TEST(BlockCacheFaultTest, CorruptDigestFallsBackToFreshDecode) {
  // VM 1 populates the shared tier clean. VM 2 runs with every shared grab's
  // digest check corrupted: each grab must be rejected, re-decoded on the
  // slow path, and force-installed — degrading counters, never results.
  auto tmpl = TemplateFrame();
  SharedBlockCache shared;
  uint64_t sum1 = 0;
  ExecStats first = RunTemplateVm(tmpl, &shared, &sum1);
  ASSERT_GT(first.blocks_shared, 0u);

  auto plan = FaultPlan::Parse("interp.blockcache:corrupt:bytes=8", /*seed=*/42);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  uint64_t sum2 = 0;
  ExecStats second;
  {
    FaultScope scope(*plan);
    second = RunTemplateVm(tmpl, &shared, &sum2);
  }
  EXPECT_EQ(sum1, 4950u);
  EXPECT_EQ(sum2, 4950u);
  EXPECT_EQ(second.instructions, first.instructions);
  // Every grab failed validation: counted as invalidations, then re-decoded.
  EXPECT_GE(second.block_cache_invalidations, first.blocks_shared);
  EXPECT_GE(shared.stats().stale_replaced, first.blocks_shared);

  // A clean VM afterwards still computes the right answer from the
  // force-reinstalled blocks.
  uint64_t sum3 = 0;
  ExecStats third = RunTemplateVm(tmpl, &shared, &sum3);
  EXPECT_EQ(sum3, 4950u);
  EXPECT_EQ(third.instructions, first.instructions);
  EXPECT_EQ(third.block_cache_invalidations, 0u);
}

// ---- software data TLBs over paged (CoW) memory ----

TEST(BlockCacheTlbTest, ReadAfterFirstWriteToZeroFrameSeesTheWrite) {
  // A zero frame reads the store's shared zero frame until its first write
  // materializes it. A read-TLB entry filled before that write must not
  // keep serving the zero frame afterwards.
  Assembler a(kCodeVaddr);
  a.LoadI(3, 0x40000);
  a.Ld64(4, 3, 0);  // fills the read TLB over the still-zero frame
  a.LoadI(5, 0x1234);
  a.St64(3, 5, 8);  // first write: zero -> dirty
  a.Ld64(6, 3, 8);
  a.Halt();
  FrameStore store(kRamSize);
  ASSERT_TRUE(store.Write(kCodeVaddr, ByteSpan(a.TakeCode())).ok());
  ASSERT_EQ(store.StateOf(0x40000 / FrameStore::kFrameBytes), FrameStore::FrameState::kZero);
  LinearMap map;
  map.virt_start = 0;
  map.phys_start = 0;
  map.size = kRamSize;
  Interpreter interp(store, map);
  interp.set_block_cache(true);
  auto result = interp.Run(kCodeVaddr, kStackTop, 1 << 20);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(interp.reg(4), 0u);
  EXPECT_EQ(interp.reg(6), 0x1234u);
}

// ---- DecodeBlock, called directly ----

void ExpectSameUop(const Uop& got, const Uop& want) {
  EXPECT_EQ(got.op, want.op);
  EXPECT_EQ(got.rd, want.rd);
  EXPECT_EQ(got.rs, want.rs);
  EXPECT_EQ(got.len, want.len);
  EXPECT_EQ(got.offset, want.offset);
  EXPECT_EQ(got.imm, want.imm);
}

TEST(BlockCacheDecodeTest, LastInstructionStraddlesSharedToZeroFrameEdge) {
  // Frame 0 aliases template bytes ending in four nops and the first four
  // bytes of a 10-byte LoadI; its last six bytes lie in frame 1, which is
  // still zero. The block keeps the straddling instruction, gathered across
  // the edge, and is marked as leaving its frame.
  FrameStore store(4 * FrameStore::kFrameBytes);
  auto tmpl = std::make_shared<Bytes>(FrameStore::kFrameBytes, 0);
  const uint64_t start = FrameStore::kFrameBytes - 8;
  (*tmpl)[start + 4] = static_cast<uint8_t>(Opcode::kLoadI);
  (*tmpl)[start + 5] = 3;
  (*tmpl)[start + 6] = 0x11;
  (*tmpl)[start + 7] = 0x22;
  ASSERT_TRUE(store.MapShared(0, ByteSpan(*tmpl), tmpl).ok());
  ASSERT_EQ(store.StateOf(1), FrameStore::FrameState::kZero);

  const DecodedBlock block = DecodeBlock(store, start, 64, kMaxBlockUops);
  ASSERT_EQ(block.uops.size(), 5u);
  EXPECT_FALSE(block.ends_in_frame);
  EXPECT_EQ(block.byte_len, 14u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(block.uops[i].op, static_cast<uint8_t>(Opcode::kNop));
  }
  const Uop& load = block.uops[4];
  EXPECT_EQ(load.op, static_cast<uint8_t>(Opcode::kLoadI));
  EXPECT_EQ(load.offset, 4u);
  EXPECT_EQ(load.len, 10u);
  EXPECT_EQ(load.rd, 3u);
  EXPECT_EQ(load.imm, 0x2211u);
  EXPECT_EQ(block.uop_digest, UopDigest(block.uops));
  EXPECT_EQ(store.dirty_frames(), 0u);  // decoding never materializes
}

TEST(BlockCacheDecodeTest, InvalidOpcodeEndsBlockWithFaultingUop) {
  FrameStore store(2 * FrameStore::kFrameBytes);
  Assembler a(0);
  a.Nop();
  a.Nop();
  a.LoadI(1, 5);
  Bytes code = a.TakeCode();
  code.push_back(0xee);  // no such opcode
  code.push_back(static_cast<uint8_t>(Opcode::kNop));
  ASSERT_TRUE(store.Write(0x100, ByteSpan(code)).ok());

  const DecodedBlock block = DecodeBlock(store, 0x100, 64, kMaxBlockUops);
  ASSERT_EQ(block.uops.size(), 4u);
  EXPECT_EQ(block.uops[3].op, kUopInvalid);
  EXPECT_EQ(block.uops[3].offset, 12u);
  EXPECT_EQ(block.uops[3].len, 1u);
  EXPECT_EQ(block.byte_len, 13u);
  EXPECT_TRUE(block.ends_in_frame);
}

TEST(BlockCacheDecodeTest, FirstInstructionBeyondAvailGivesNoUops) {
  FrameStore store(2 * FrameStore::kFrameBytes);
  Assembler a(0);
  a.LoadI(1, 5);
  ASSERT_TRUE(store.Write(0x100, ByteSpan(a.TakeCode())).ok());
  for (uint64_t avail : {0ull, 1ull, 9ull}) {
    const DecodedBlock block = DecodeBlock(store, 0x100, avail, kMaxBlockUops);
    EXPECT_TRUE(block.uops.empty()) << "avail=" << avail;
    EXPECT_EQ(block.byte_len, 0u) << "avail=" << avail;
  }
  EXPECT_EQ(DecodeBlock(store, 0x100, 10, kMaxBlockUops).uops.size(), 1u);
  // A block past the end of RAM has nothing to decode either.
  EXPECT_TRUE(DecodeBlock(store, store.size(), 64, kMaxBlockUops).uops.empty());
}

TEST(BlockCacheDecodeTest, MaxUopsCapsAndClampsToTheDecodeBuffer) {
  // A zero frame is a nop sled: nothing ends the block but the cap.
  FrameStore store(2 * FrameStore::kFrameBytes);
  const DecodedBlock three = DecodeBlock(store, 0, FrameStore::kFrameBytes, 3);
  EXPECT_EQ(three.uops.size(), 3u);
  EXPECT_EQ(three.byte_len, 3u);
  EXPECT_TRUE(DecodeBlock(store, 0, FrameStore::kFrameBytes, 0).uops.empty());
  for (uint32_t cap : {kMaxBlockUops, kMaxBlockUops + 1, 100000u}) {
    const DecodedBlock block = DecodeBlock(store, 0, FrameStore::kFrameBytes, cap);
    EXPECT_EQ(block.uops.size(), kMaxBlockUops) << "cap=" << cap;
    EXPECT_EQ(block.byte_len, kMaxBlockUops) << "cap=" << cap;
    EXPECT_EQ(block.uops[kMaxBlockUops - 1].offset, kMaxBlockUops - 1);
  }
}

TEST(BlockCacheDecodeTest, UopsMatchDecodeOneOverTheSameBytes) {
  // Every operand shape, straight-line, ending in a terminator.
  Assembler a(0);
  a.LoadI(1, 0x0123456789abcdefull);
  a.Mov(2, 1);
  a.Add(2, 1);
  a.Sub(3, 2);
  a.Xor(4, 3);
  a.Mul(5, 4);
  a.ShrI(5, 7);
  a.ShlI(6, 70);
  a.AndI(6, 0xfffff000u);
  a.AddI(7, -12345);
  a.Ld64(8, 1, -16);
  a.St64(1, 8, 4096);
  a.Ld8(9, 1, 3);
  a.St8(1, 9, -3);
  a.Push(9);
  a.Pop(10);
  a.RdPc(11);
  a.Halt();
  const Bytes code = a.TakeCode();
  FrameStore store(2 * FrameStore::kFrameBytes);
  ASSERT_TRUE(store.Write(0x40, ByteSpan(code)).ok());

  const DecodedBlock block = DecodeBlock(store, 0x40, 4096, kMaxBlockUops);
  ASSERT_EQ(block.uops.size(), 18u);
  EXPECT_EQ(block.byte_len, code.size());
  EXPECT_TRUE(block.ends_in_frame);
  EXPECT_EQ(block.uop_digest, UopDigest(block.uops));
  uint32_t offset = 0;
  for (size_t i = 0; i < block.uops.size(); ++i) {
    const uint8_t opcode = code[offset];
    const uint32_t length = InstructionLength(opcode);
    ExpectSameUop(block.uops[i], DecodeOne(code.data() + offset, opcode, length, offset));
    offset += length;
  }
  EXPECT_EQ(offset, code.size());
}

}  // namespace
}  // namespace imk
