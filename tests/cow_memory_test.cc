// Paged copy-on-write guest memory: FrameStore fault edge cases, arena
// recycling (no byte of a destroyed store is ever visible to the next one),
// bit-identity of the zero-copy CoW load against a flat serial reference
// across the boot matrix, and boot-storm determinism across thread counts.
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/frame_store.h"
#include "src/kaslr/fgkaslr.h"
#include "src/kaslr/random_offset.h"
#include "src/kaslr/relocator.h"
#include "src/kernel/bzimage.h"
#include "src/kernel/kernel_builder.h"
#include "src/vmm/boot_storm.h"
#include "src/vmm/image_template.h"
#include "src/vmm/loader.h"
#include "src/vmm/microvm.h"

namespace imk {
namespace {

constexpr uint64_t kFrame = FrameStore::kFrameBytes;

Bytes Pattern(uint64_t len, uint8_t salt) {
  Bytes out(len);
  for (uint64_t i = 0; i < len; ++i) {
    out[i] = static_cast<uint8_t>((i * 131 + salt) & 0xff);
  }
  return out;
}

// ---- FrameStore fault edge cases ----

TEST(FrameStoreTest, FreshStoreReadsZerosWithoutMaterializing) {
  FrameStore store(8 * kFrame);
  Bytes buf(3 * kFrame, 0xab);
  ASSERT_TRUE(store.Read(kFrame / 2, buf.data(), buf.size()).ok());
  for (uint8_t b : buf) {
    ASSERT_EQ(b, 0);
  }
  EXPECT_EQ(store.dirty_frames(), 0u);
  EXPECT_EQ(store.shared_frames(), 0u);
  EXPECT_EQ(store.zero_frames(), store.frame_count());
}

TEST(FrameStoreTest, WriteStraddlingFramesMaterializesExactlyCoveredFrames) {
  FrameStore store(8 * kFrame);
  const Bytes data = Pattern(2 * kFrame, 7);  // covers parts of frames 1,2,3
  ASSERT_TRUE(store.Write(kFrame + kFrame / 2, ByteSpan(data)).ok());
  EXPECT_EQ(store.dirty_frames(), 3u);
  EXPECT_EQ(store.StateOf(0), FrameStore::FrameState::kZero);
  EXPECT_EQ(store.StateOf(4), FrameStore::FrameState::kZero);
  Bytes back(data.size());
  ASSERT_TRUE(store.Read(kFrame + kFrame / 2, back.data(), back.size()).ok());
  EXPECT_EQ(back, data);
  // The zero halves around the write stay zero.
  uint8_t edge = 0xff;
  ASSERT_TRUE(store.Read(kFrame, &edge, 1).ok());
  EXPECT_EQ(edge, 0);
}

TEST(FrameStoreTest, MapSharedAliasesZeroCopyAndFaultsOnWrite) {
  FrameStore store(8 * kFrame);
  auto src = std::make_shared<Bytes>(Pattern(2 * kFrame, 3));
  ASSERT_TRUE(store.MapShared(2 * kFrame, ByteSpan(*src), src).ok());
  EXPECT_EQ(store.shared_frames(), 2u);
  EXPECT_EQ(store.dirty_frames(), 0u);
  // Alias identity: the shared frame reads through the template pointer.
  EXPECT_EQ(store.SharedSource(2), src->data());
  EXPECT_EQ(store.SharedSource(3), src->data() + kFrame);

  Bytes back(2 * kFrame);
  ASSERT_TRUE(store.Read(2 * kFrame, back.data(), back.size()).ok());
  EXPECT_EQ(back, *src);

  // One-byte write faults exactly one frame; the other stays aliased, and
  // the faulted frame keeps its template content around the write.
  const uint8_t poke = 0x5a;
  ASSERT_TRUE(store.Write(2 * kFrame + 17, ByteSpan(&poke, 1)).ok());
  EXPECT_EQ(store.dirty_frames(), 1u);
  EXPECT_EQ(store.shared_frames(), 1u);
  EXPECT_EQ(store.SharedSource(2), nullptr);
  EXPECT_EQ(store.SharedSource(3), src->data() + kFrame);
  ASSERT_TRUE(store.Read(2 * kFrame, back.data(), back.size()).ok());
  Bytes expect = *src;
  expect[17] = poke;
  EXPECT_EQ(back, expect);
}

TEST(FrameStoreTest, MapSharedCopiesSubFrameTail) {
  FrameStore store(8 * kFrame);
  auto src = std::make_shared<Bytes>(Pattern(kFrame + kFrame / 2, 9));
  ASSERT_TRUE(store.MapShared(0, ByteSpan(*src), src).ok());
  EXPECT_EQ(store.shared_frames(), 1u);  // whole frame aliased
  EXPECT_EQ(store.dirty_frames(), 1u);   // half-frame tail copied
  Bytes back(src->size());
  ASSERT_TRUE(store.Read(0, back.data(), back.size()).ok());
  EXPECT_EQ(back, *src);
  // The tail frame's unwritten half reads zero.
  uint8_t rest = 0xff;
  ASSERT_TRUE(store.Read(kFrame + kFrame / 2, &rest, 1).ok());
  EXPECT_EQ(rest, 0);
}

TEST(FrameStoreTest, MapSharedRejectsUnalignedAndExternalBacking) {
  FrameStore store(4 * kFrame);
  auto src = std::make_shared<Bytes>(Bytes(kFrame, 1));
  EXPECT_FALSE(store.MapShared(12, ByteSpan(*src), src).ok());

  Bytes backing(4 * kFrame);
  FrameStore flat{MutableByteSpan(backing)};
  EXPECT_FALSE(flat.MapShared(0, ByteSpan(*src), src).ok());
}

TEST(FrameStoreTest, WritablePtrIsContiguousAcrossFrameBoundaries) {
  FrameStore store(8 * kFrame);
  auto src = std::make_shared<Bytes>(Pattern(3 * kFrame, 5));
  ASSERT_TRUE(store.MapShared(kFrame, ByteSpan(*src), src).ok());

  // A writable range straddling shared and zero frames materializes all of
  // them into one flat pointer.
  auto ptr = store.WritablePtr(kFrame + kFrame / 2, 3 * kFrame);
  ASSERT_TRUE(ptr.ok());
  const Bytes data = Pattern(3 * kFrame, 11);
  std::memcpy(*ptr, data.data(), data.size());
  Bytes back(data.size());
  ASSERT_TRUE(store.Read(kFrame + kFrame / 2, back.data(), back.size()).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(store.dirty_frames(), 4u);  // frames 1..4 materialized
  EXPECT_EQ(store.shared_frames(), 0u);
}

TEST(FrameStoreTest, WritablePtrAtExactFrameBoundsMaterializesOnlyThatFrame) {
  FrameStore store(8 * kFrame);
  auto ptr = store.WritablePtr(3 * kFrame, kFrame);
  ASSERT_TRUE(ptr.ok());
  EXPECT_EQ(store.dirty_frames(), 1u);
  EXPECT_EQ(store.StateOf(2), FrameStore::FrameState::kZero);
  EXPECT_EQ(store.StateOf(3), FrameStore::FrameState::kDirty);
  EXPECT_EQ(store.StateOf(4), FrameStore::FrameState::kZero);
}

TEST(FrameStoreTest, ZeroOverSharedFramesClearsWithoutTouchingZeroFrames) {
  FrameStore store(8 * kFrame);
  auto src = std::make_shared<Bytes>(Pattern(2 * kFrame, 13));
  ASSERT_TRUE(store.MapShared(2 * kFrame, ByteSpan(*src), src).ok());

  // Zero spanning a zero frame, both shared frames, and another zero frame.
  ASSERT_TRUE(store.Zero(kFrame, 4 * kFrame).ok());
  EXPECT_EQ(store.StateOf(1), FrameStore::FrameState::kZero);  // untouched
  EXPECT_EQ(store.StateOf(4), FrameStore::FrameState::kZero);
  EXPECT_EQ(store.shared_frames(), 0u);
  Bytes back(4 * kFrame, 0xee);
  ASSERT_TRUE(store.Read(kFrame, back.data(), back.size()).ok());
  for (uint8_t b : back) {
    ASSERT_EQ(b, 0);
  }
}

TEST(FrameStoreTest, PartialZeroOverSharedFramePreservesRestOfFrame) {
  FrameStore store(4 * kFrame);
  auto src = std::make_shared<Bytes>(Pattern(kFrame, 21));
  ASSERT_TRUE(store.MapShared(0, ByteSpan(*src), src).ok());
  ASSERT_TRUE(store.Zero(64, 32).ok());
  Bytes back(kFrame);
  ASSERT_TRUE(store.Read(0, back.data(), back.size()).ok());
  Bytes expect = *src;
  std::memset(expect.data() + 64, 0, 32);
  EXPECT_EQ(back, expect);
}

TEST(FrameStoreTest, MapSharedOverDirtyFrameRevertsToShared) {
  FrameStore store(4 * kFrame);
  const Bytes scribble = Pattern(kFrame, 17);
  ASSERT_TRUE(store.Write(0, ByteSpan(scribble)).ok());
  EXPECT_EQ(store.dirty_frames(), 1u);

  auto src = std::make_shared<Bytes>(Pattern(kFrame, 23));
  ASSERT_TRUE(store.MapShared(0, ByteSpan(*src), src).ok());
  EXPECT_EQ(store.dirty_frames(), 0u);
  EXPECT_EQ(store.shared_frames(), 1u);
  Bytes back(kFrame);
  ASSERT_TRUE(store.Read(0, back.data(), back.size()).ok());
  EXPECT_EQ(back, *src);
}

TEST(FrameStoreTest, ReadPtrGathersAcrossStateBoundaries) {
  FrameStore store(4 * kFrame);
  auto src = std::make_shared<Bytes>(Pattern(kFrame, 29));
  ASSERT_TRUE(store.MapShared(kFrame, ByteSpan(*src), src).ok());

  // Range straddling a zero frame and a shared frame cannot be served by one
  // pointer; it must gather into scratch and still read correctly.
  Bytes scratch(2 * kFrame);
  auto ptr = store.ReadPtr(kFrame / 2, kFrame, scratch.data());
  ASSERT_TRUE(ptr.ok());
  Bytes expect(kFrame, 0);
  std::memcpy(expect.data() + kFrame / 2, src->data(), kFrame / 2);
  EXPECT_EQ(0, std::memcmp(*ptr, expect.data(), kFrame));
  EXPECT_EQ(store.dirty_frames(), 0u);  // reads never materialize
}

TEST(FrameStoreTest, FlatAdapterWritesThroughToExternalBuffer) {
  Bytes backing(4 * kFrame, 0);
  FrameStore flat{MutableByteSpan(backing)};
  EXPECT_EQ(flat.dirty_frames(), flat.frame_count());
  const Bytes data = Pattern(kFrame, 31);
  ASSERT_TRUE(flat.Write(kFrame / 2, ByteSpan(data)).ok());
  EXPECT_EQ(0, std::memcmp(backing.data() + kFrame / 2, data.data(), data.size()));
}

TEST(FrameStoreTest, OutOfRangeAccessesFail) {
  FrameStore store(2 * kFrame);
  Bytes buf(kFrame);
  EXPECT_FALSE(store.WritablePtr(2 * kFrame, 1).ok());
  EXPECT_FALSE(store.Read(kFrame, buf.data(), 2 * kFrame).ok());
  EXPECT_FALSE(store.Zero(0, 3 * kFrame).ok());
}

TEST(FrameStoreTest, FramesArePageAlignedAndRamEndStaysBounded) {
  // A partial last frame: RAM ends 100 bytes into frame 3.
  FrameStore store(3 * kFrame + 100);
  ASSERT_TRUE(store.Write(kFrame + 5, ByteSpan(Pattern(10, 3))).ok());
  ASSERT_EQ(store.StateOf(1), FrameStore::FrameState::kDirty);
  // One guest frame is exactly one host page, dirty or zero.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(store.FrameReadPtr(1)) % kFrame, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(store.FrameReadPtr(0)) % kFrame, 0u);
  EXPECT_TRUE(store.WritablePtr(store.size() - 1, 1).ok());
  auto past = store.WritablePtr(store.size(), 1);
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.status().code(), ErrorCode::kOutOfRange);
}

// Reads all of `store` and returns the first nonzero byte's address, or -1.
int64_t FirstNonzeroByte(const FrameStore& store) {
  Bytes chunk(64 * kFrame);
  for (uint64_t phys = 0; phys < store.size(); phys += chunk.size()) {
    const uint64_t len = std::min<uint64_t>(chunk.size(), store.size() - phys);
    if (!store.Read(phys, chunk.data(), len).ok()) {
      return static_cast<int64_t>(phys);
    }
    for (uint64_t i = 0; i < len; ++i) {
      if (chunk[i] != 0) {
        return static_cast<int64_t>(phys + i);
      }
    }
  }
  return -1;
}

TEST(FrameStoreTest, RecycledArenaNeverShowsAPreviousVmsBytes) {
  // Store A loads a kaslr kernel: its dirty frames hold relocated text, so
  // any byte of them leaking into the next store would hand that VM A's
  // slide. A then reverts one dirty frame to shared (its arena slot stays
  // resident) and dies; store B of the same size takes A's arena.
  auto info = BuildKernel(KernelConfig::Make(KernelProfile::kAws, RandoMode::kKaslr, 0.02));
  ASSERT_TRUE(info.ok());
  auto tmpl = BuildImageTemplate(ByteSpan(info->vmlinux), TemplateOptions{});
  ASSERT_TRUE(tmpl.ok());
  // A size no other store in this process uses, so B can only take A's arena.
  constexpr uint64_t kMem = (96ull << 20) + 5 * kFrame;
  std::vector<uint64_t> a_dirty;
  const uint8_t* a_last_slot = nullptr;
  {
    GuestMemory a(kMem);
    DirectBootParams params;
    params.requested = RandoMode::kKaslr;
    Rng rng(4242);
    auto loaded = DirectLoadFromTemplate(a, *tmpl, &info->relocs, params, rng);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_NE(loaded->choice.virt_slide, 0u);
    for (uint64_t f = 0; f < a.frames().frame_count(); ++f) {
      if (a.frames().StateOf(f) == FrameStore::FrameState::kDirty) {
        a_dirty.push_back(f);
      }
    }
    ASSERT_GE(a_dirty.size(), 2u);
    auto revert = std::make_shared<Bytes>(Pattern(kFrame, 41));
    ASSERT_TRUE(a.MapShared(a_dirty.front() * kFrame, ByteSpan(*revert), revert).ok());
    a_last_slot = a.frames().FrameReadPtr(a_dirty.back());
  }

  FrameStore b(kMem);
  EXPECT_EQ(FirstNonzeroByte(b), -1);
  EXPECT_EQ(b.dirty_frames(), 0u);
  // Materializing one byte of a frame A dirtied (or reverted) must not
  // expose the rest of A's bytes in that frame.
  Bytes frame(kFrame);
  for (uint64_t f : a_dirty) {
    const uint8_t one = 0x5a;
    ASSERT_TRUE(b.Write(f * kFrame + 123, ByteSpan(&one, 1)).ok());
    ASSERT_TRUE(b.Read(f * kFrame, frame.data(), kFrame).ok());
    frame[123] = 0;
    for (uint64_t i = 0; i < kFrame; ++i) {
      ASSERT_EQ(frame[i], 0) << "frame " << f << " byte " << i << " leaked from store A";
    }
  }
  // B really did take A's arena (otherwise the checks above prove nothing).
  EXPECT_EQ(b.FrameReadPtr(a_dirty.back()), a_last_slot);
}

TEST(FrameStoreTest, ConcurrentRecycleTakesZeroedArenas) {
  // Four threads create, write, read and destroy stores of one size, so
  // arenas pass between threads through the idle list. Every store must
  // read all zeros when taken and read back exactly its own writes.
  constexpr uint64_t kFrames = 67;
  constexpr int kThreads = 4;
  constexpr int kRounds = 40;
  std::atomic<int> dirty_takes{0};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        FrameStore store(kFrames * kFrame);
        if (FirstNonzeroByte(store) != -1) {
          dirty_takes.fetch_add(1);
        }
        const uint8_t salt = static_cast<uint8_t>(t * kRounds + round);
        const Bytes full = Pattern(kFrame, salt);
        for (uint64_t f = (round % 3); f < kFrames; f += 3) {
          if (!store.Write(f * kFrame, ByteSpan(full)).ok()) {
            bad_reads.fetch_add(1);
          }
        }
        const uint8_t one = static_cast<uint8_t>(salt | 1);
        if (!store.Write(((round + 1) % 3) * kFrame + 7, ByteSpan(&one, 1)).ok()) {
          bad_reads.fetch_add(1);
        }
        Bytes back(kFrame);
        for (uint64_t f = 0; f < kFrames; ++f) {
          if (!store.Read(f * kFrame, back.data(), kFrame).ok()) {
            bad_reads.fetch_add(1);
            continue;
          }
          Bytes want(kFrame, 0);
          if (f % 3 == static_cast<uint64_t>(round % 3)) {
            want = full;
          } else if (f == static_cast<uint64_t>((round + 1) % 3)) {
            want[7] = one;
          }
          if (back != want) {
            bad_reads.fetch_add(1);
          }
        }
        if (round % 2 == 0) {
          // Revert a dirty frame so teardown has a resident non-dirty slot.
          auto src = std::make_shared<Bytes>(Pattern(kFrame, salt ^ 0xff));
          if (!store.MapShared(static_cast<uint64_t>(round % 3) * kFrame, ByteSpan(*src), src)
                   .ok()) {
            bad_reads.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(dirty_takes.load(), 0);
  EXPECT_EQ(bad_reads.load(), 0);
}

// ---- paged-vs-flat bit-identity across the boot matrix ----

class PagedVsFlatTest : public ::testing::TestWithParam<RandoMode> {};

// The CoW load (zero-copy aliasing, fault-materialized randomizer writes,
// fg-region skip) must produce bytes identical to the obvious flat pipeline:
// copy the whole pristine image, shuffle, relocate.
TEST_P(PagedVsFlatTest, DirectLoadMatchesFlatReference) {
  const RandoMode rando = GetParam();
  auto info = BuildKernel(KernelConfig::Make(KernelProfile::kAws, rando, 0.02));
  ASSERT_TRUE(info.ok());
  auto tmpl = BuildImageTemplate(ByteSpan(info->vmlinux), TemplateOptions{});
  ASSERT_TRUE(tmpl.ok());

  constexpr uint64_t kMem = 192ull << 20;
  constexpr uint64_t kSeed = 4242;
  GuestMemory memory(kMem);
  DirectBootParams params;
  params.requested = rando;
  Rng rng(kSeed);
  auto loaded = DirectLoadFromTemplate(memory, *tmpl,
                                       info->relocs.empty() ? nullptr : &info->relocs, params,
                                       rng);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Flat reference with its own Rng: same draws -> same choice and shuffle.
  Rng ref_rng(kSeed);
  OffsetChoice choice;
  KernelConstantsNote constants = DefaultKernelConstants();
  if ((*tmpl)->note_constants.has_value()) {
    constants = *(*tmpl)->note_constants;
  }
  if (rando != RandoMode::kNone) {
    OffsetConstraints constraints;
    constraints.image_mem_size = (*tmpl)->mem_size;
    constraints.guest_mem_size = kMem;
    constraints.reserved_tail = params.stack_slack;
    constraints.constants = constants;
    auto chosen = ChooseRandomOffsets(constraints, ref_rng);
    ASSERT_TRUE(chosen.ok());
    choice = *chosen;
  } else {
    choice.phys_load_addr = constants.physical_start;
  }
  EXPECT_EQ(choice.virt_slide, loaded->choice.virt_slide);
  EXPECT_EQ(choice.phys_load_addr, loaded->choice.phys_load_addr);

  Bytes flat = (*tmpl)->pristine;
  LoadedImageView flat_view(MutableByteSpan(flat), (*tmpl)->link_base);
  if (rando == RandoMode::kFgKaslr) {
    ASSERT_TRUE((*tmpl)->fg.has_value());
    auto fg = ShuffleFunctionsPreparsed(*(*tmpl)->fg, flat_view, params.fg, ref_rng);
    ASSERT_TRUE(fg.ok());
    auto stats = ApplyRelocationsShuffledPerEntry(flat_view, info->relocs, choice.virt_slide,
                                                  fg->map);
    ASSERT_TRUE(stats.ok());
  } else if (rando == RandoMode::kKaslr) {
    auto stats = ApplyRelocations(flat_view, info->relocs, choice.virt_slide);
    ASSERT_TRUE(stats.ok());
  }

  auto paged = memory.CopyRange(loaded->choice.phys_load_addr, (*tmpl)->mem_size);
  ASSERT_TRUE(paged.ok());
  EXPECT_EQ(*paged, flat);

  // Density invariants: some of the image must still alias the template for
  // non-fg modes, and nothing materializes more frames than the image has.
  EXPECT_LE(loaded->mem.dirty_frames_total(), loaded->mem.image_frames);
  if (rando != RandoMode::kFgKaslr) {
    EXPECT_GT(loaded->mem.mapped_shared_frames, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, PagedVsFlatTest,
                         ::testing::Values(RandoMode::kNone, RandoMode::kKaslr,
                                           RandoMode::kFgKaslr),
                         [](const ::testing::TestParamInfo<RandoMode>& param) {
                           return std::string(RandoModeName(param.param));
                         });

// bzImage boots randomize inside the guest, writing through the interpreter
// into paged memory. Two same-seed boots must agree bit for bit.
class PagedBzImageTest : public ::testing::TestWithParam<RandoMode> {};

TEST_P(PagedBzImageTest, SameSeedBootsAreBitIdentical) {
  const RandoMode rando = GetParam();
  auto info = BuildKernel(KernelConfig::Make(KernelProfile::kLupine, rando, 0.008));
  ASSERT_TRUE(info.ok());
  auto image = BuildBzImage(ByteSpan(info->vmlinux), info->relocs, "none", LoaderKind::kStandard);
  ASSERT_TRUE(image.ok());
  Storage storage;
  storage.Put("bz", SerializeBzImage(*image));

  MicroVmConfig config;
  config.mem_size_bytes = 160ull << 20;
  config.kernel_image = "bz";
  config.boot_mode = BootMode::kBzImage;
  config.rando = rando;
  config.seed = 77;

  Bytes regions[2];
  for (int i = 0; i < 2; ++i) {
    MicroVm vm(storage, config);
    auto report = vm.Boot();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->init_done);
    EXPECT_EQ(report->init_checksum, info->expected_checksum);
    auto region = vm.KernelRegion();
    ASSERT_TRUE(region.ok());
    regions[i] = std::move(*region);
  }
  EXPECT_EQ(regions[0], regions[1]);
}

INSTANTIATE_TEST_SUITE_P(AllModes, PagedBzImageTest,
                         ::testing::Values(RandoMode::kNone, RandoMode::kKaslr,
                                           RandoMode::kFgKaslr),
                         [](const ::testing::TestParamInfo<RandoMode>& param) {
                           return std::string(RandoModeName(param.param));
                         });

// ---- boot-storm determinism across thread counts ----

TEST(BootStormTest, FixedSeedsGiveIdenticalKernelsRegardlessOfThreads) {
  auto info = BuildKernel(KernelConfig::Make(KernelProfile::kAws, RandoMode::kKaslr, 0.02));
  ASSERT_TRUE(info.ok());
  const Bytes relocs_blob = SerializeRelocs(info->relocs);

  StormOptions options;
  options.vms = 4;
  options.vm.rando = RandoMode::kKaslr;
  options.vm.mem_size_bytes = 192ull << 20;
  options.supervisor.expected_checksum = info->expected_checksum;
  options.keep_kernel_regions = true;
  options.seed_base = 99;

  options.threads = 1;
  auto serial = RunBootStorm(ByteSpan(info->vmlinux), ByteSpan(relocs_blob), options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  options.threads = 3;
  auto storm = RunBootStorm(ByteSpan(info->vmlinux), ByteSpan(relocs_blob), options);
  ASSERT_TRUE(storm.ok()) << storm.status().ToString();

  ASSERT_EQ(serial->kernel_regions.size(), storm->kernel_regions.size());
  for (size_t i = 0; i < serial->kernel_regions.size(); ++i) {
    EXPECT_EQ(serial->kernel_regions[i], storm->kernel_regions[i]) << "VM " << i;
  }
  // Distinct seeds must give distinct layouts (the storm randomizes per VM).
  EXPECT_NE(serial->kernel_regions[0], serial->kernel_regions[1]);
  // Warm storm: the template is built once, every boot after hits the cache.
  EXPECT_GE(storm->cache_hits, storm->vms);
}

TEST(BootStormTest, LaunchLaneMatchesFullLaneLayouts) {
  auto info = BuildKernel(KernelConfig::Make(KernelProfile::kAws, RandoMode::kKaslr, 0.02));
  ASSERT_TRUE(info.ok());
  const Bytes relocs_blob = SerializeRelocs(info->relocs);

  StormOptions options;
  options.vms = 2;
  options.threads = 2;
  options.vm.rando = RandoMode::kKaslr;
  options.vm.mem_size_bytes = 192ull << 20;
  options.keep_kernel_regions = true;
  options.seed_base = 7;

  // The launch-only lane loads the same layouts the full lane boots; the
  // full lane's guest init then writes data/bss, so compare the text moduli:
  // identical load => identical randomized placement choices.
  options.launch_only = true;
  auto launch = RunBootStorm(ByteSpan(info->vmlinux), ByteSpan(relocs_blob), options);
  ASSERT_TRUE(launch.ok()) << launch.status().ToString();
  options.launch_only = false;
  options.supervisor.expected_checksum = info->expected_checksum;
  auto full = RunBootStorm(ByteSpan(info->vmlinux), ByteSpan(relocs_blob), options);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  ASSERT_EQ(launch->kernel_regions.size(), full->kernel_regions.size());
  for (size_t i = 0; i < launch->kernel_regions.size(); ++i) {
    // The two lanes snapshot different window sizes (load image vs full
    // kernel region); guest init mutates writable sections. The first page
    // of text is read-only under both lanes and must match exactly.
    ASSERT_GE(launch->kernel_regions[i].size(), kFrame);
    ASSERT_GE(full->kernel_regions[i].size(), kFrame);
    EXPECT_EQ(0, std::memcmp(launch->kernel_regions[i].data(), full->kernel_regions[i].data(),
                             kFrame))
        << "VM " << i;
  }
}

}  // namespace
}  // namespace imk
