#include "src/vmm/microvm.h"

#include <cstring>

#include "src/base/align.h"
#include "src/base/stopwatch.h"
#include "src/elf/elf_reader.h"
#include "src/elf/elf_types.h"
#include "src/kernel/layout.h"
#include "src/vmm/firmware.h"
#include "src/vmm/layout_pool.h"
#include "src/vmm/mem_governor.h"

namespace imk {
namespace {

// Reads the first PT_LOAD file offset from an ELF header + phdr table
// prefix, without a full parse (the monitor peeks ~200 bytes to compute the
// alignment-preserving load address for the none-optimized path).
Result<uint64_t> PeekFirstLoadOffset(ByteSpan elf_prefix) {
  IMK_ASSIGN_OR_RETURN(ElfReader elf, ElfReader::Parse(elf_prefix));
  uint64_t lo = UINT64_MAX;
  uint64_t off = UINT64_MAX;
  for (const Elf64Phdr& phdr : elf.program_headers()) {
    if (phdr.p_type == kPtLoad && phdr.p_vaddr < lo) {
      lo = phdr.p_vaddr;
      off = phdr.p_offset;
    }
  }
  if (off == UINT64_MAX) {
    return ParseError("no loadable segment");
  }
  return off;
}

}  // namespace

DirectBootParams DirectBootParamsFor(const MicroVmConfig& config, uint64_t usable_mem_limit) {
  DirectBootParams params;
  params.requested = config.rando;
  params.fgkaslr_disabled_cmdline = config.fgkaslr_disabled_cmdline;
  params.fg = config.fg;
  params.protocol = config.protocol;
  params.use_note_constants = config.use_note_constants;
  params.usable_mem_limit = usable_mem_limit;
  return params;
}

MicroVm::MicroVm(Storage& storage, MicroVmConfig config)
    : storage_(storage), config_(std::move(config)) {
  memory_ = std::make_unique<GuestMemory>(config_.mem_size_bytes);
  if (config_.mem_governor != nullptr) {
    // Attach before the store is visible to any loader thread: every dirty
    // frame this VM materializes is charged to the guest-frames category and
    // released when the VM (and its FrameStore) is torn down.
    memory_->frames().set_accountant(
        config_.mem_governor->shared_accountant(MemCategory::kGuestFrames));
  }
}

void MicroVm::InstallLazyKallsymsHook(uint64_t kallsyms_vaddr, uint64_t count,
                                      const ShuffleMap& map, uint64_t phys_base,
                                      uint64_t link_base, uint64_t mem_size) {
  // First guest touch of kallsyms triggers the deferred fixup (paper §4.3).
  GuestMemory* memory = memory_.get();
  ShuffleMap map_copy = map;
  vcpu_->set_kallsyms_touch_hook(
      [memory, kallsyms_vaddr, count, map_copy, phys_base, link_base, mem_size]() -> Status {
        // Paged view: only the frames the fixup actually rewrites (the
        // kallsyms table itself) materialize, not the whole image window.
        LoadedImageView view(memory->frames(), phys_base, mem_size, link_base);
        return FixupKallsymsTable(view, kallsyms_vaddr, count, map_copy);
      });
}

Result<uint64_t> MicroVm::SetUpBoard() {
  Stopwatch timer;
  const bool qemu = config_.monitor == MonitorKind::kQemuLike;
  IMK_ASSIGN_OR_RETURN(DeviceModel devices,
                       DeviceModel::Create(*memory_, qemu ? DeviceModelConfig::QemuLike()
                                                          : DeviceModelConfig::Firecracker()));
  devices_ = std::move(devices);
  usable_mem_top_ = devices_->reserved_floor_phys();
  if (qemu) {
    IMK_RETURN_IF_ERROR(RunFirmwarePost(*memory_, /*work_iterations=*/400));
  }
  return timer.ElapsedNs();
}

Result<BootReport> MicroVm::Boot() {
  if (booted_) {
    return FailedPreconditionError("MicroVm::Boot called twice");
  }
  BootReport report;
  if (config_.boot_mode == BootMode::kDirect) {
    IMK_ASSIGN_OR_RETURN(report, BootDirect(report));
  } else {
    IMK_ASSIGN_OR_RETURN(report, BootBzImage(report));
  }
  booted_ = true;
  return report;
}

Result<BootReport> MicroVm::BootDirect(BootReport& report) {
  Stopwatch monitor_timer;
  const Deadline* deadline = config_.deadline;
  IMK_RETURN_IF_ERROR(SetUpBoard());
  if (deadline != nullptr) {
    IMK_RETURN_IF_ERROR(deadline->Check("microvm.board"));
  }

  // Read the kernel (and, per Figure 8, the optional relocs image).
  IMK_ASSIGN_OR_RETURN(Storage::ReadResult kernel_read, storage_.Read(config_.kernel_image));
  report.timeline.AddModeled(BootPhase::kInMonitor, kernel_read.modeled_io_ns);
  // QEMU-like monitors stage the image through a bounce buffer (fw_cfg DMA)
  // rather than reading segments straight into guest memory.
  Bytes bounce;
  if (config_.monitor == MonitorKind::kQemuLike) {
    bounce.assign(kernel_read.data.begin(), kernel_read.data.end());
    kernel_read.data = ByteSpan(bounce);
  }
  // Template acquisition: the boot-invariant work (ELF parse, pristine
  // image render, fgkaslr metadata, optionally the in-monitor relocs tool of
  // Figure 8). With the cache warm — the fleet scenario — every boot of the
  // same kernel skips all of it and pays only a CRC32 of the image.
  TemplateOptions template_options;
  template_options.extract_relocs = config_.relocs_from_elf;
  ImageTemplateCache* cache = nullptr;
  if (config_.use_template_cache) {
    cache = config_.template_cache != nullptr ? config_.template_cache
                                              : &GlobalImageTemplateCache();
  }
  if (deadline != nullptr) {
    IMK_RETURN_IF_ERROR(deadline->Check("microvm.template"));
  }
  std::shared_ptr<const ImageTemplate> tmpl;
  if (cache != nullptr) {
    IMK_ASSIGN_OR_RETURN(tmpl, cache->GetOrBuild(kernel_read.data, template_options));
  } else {
    IMK_ASSIGN_OR_RETURN(tmpl, BuildImageTemplate(kernel_read.data, template_options));
  }

  RelocInfo sidecar_relocs;
  const RelocInfo* relocs = nullptr;
  if (config_.relocs_from_elf) {
    if (!tmpl->elf_relocs.empty()) {
      relocs = &tmpl->elf_relocs;
    }
  } else if (!config_.relocs_image.empty()) {
    IMK_ASSIGN_OR_RETURN(Storage::ReadResult relocs_read, storage_.Read(config_.relocs_image));
    report.timeline.AddModeled(BootPhase::kInMonitor, relocs_read.modeled_io_ns);
    IMK_ASSIGN_OR_RETURN(sidecar_relocs, ParseRelocs(relocs_read.data));
    relocs = &sidecar_relocs;
  }

  const DirectBootParams params = DirectBootParamsFor(config_, usable_mem_top_);
  Rng rng(config_.seed != 0 ? config_.seed : HostEntropySeed());
  std::optional<ThreadPool> pool;
  DirectLoadResources resources;
  if (config_.load_threads != 1) {
    pool.emplace(config_.load_threads);
    resources.pool = &*pool;
  }
  resources.deadline = deadline;
  resources.layout_pool = config_.layout_pool;
  // Private single-boot pool (imk_tool boot --layout-pool=N): render the
  // first layout ahead of the load so this boot takes the pooled path. A
  // render failure is not a boot failure — the grab just misses and the
  // inline pipeline below serves the boot.
  std::unique_ptr<LayoutPool> local_pool;
  if (resources.layout_pool == nullptr && config_.layout_pool_depth > 0 &&
      config_.rando != RandoMode::kNone && relocs != nullptr) {
    LayoutPoolOptions pool_options;
    pool_options.depth = config_.layout_pool_depth;
    pool_options.refill_batch = config_.layout_pool_refill_batch;
    pool_options.seed = config_.seed != 0 ? config_.seed : HostEntropySeed();
    local_pool = std::make_unique<LayoutPool>(tmpl, *relocs, params, usable_mem_top_,
                                              pool_options);
    (void)local_pool->Prefill(1);
    resources.layout_pool = local_pool.get();
  }
  IMK_ASSIGN_OR_RETURN(LoadedKernel loaded,
                       DirectLoadFromTemplate(*memory_, tmpl, relocs, params, rng, resources));

  report.choice = loaded.choice;
  report.reloc_stats = loaded.reloc_stats;
  report.loader_timings = loaded.timings;
  report.mem = loaded.mem;
  report.layout_pool_hit = loaded.layout_pool_hit;
  if (loaded.fg.has_value()) {
    report.fg_timings = loaded.fg->timings;
    report.sections_shuffled = loaded.fg->sections_shuffled;
    report.fg_digest = loaded.fg->map.PermutationDigest();
  }
  virt_slide_ = loaded.choice.virt_slide;
  stack_top_ = loaded.stack_top;
  kernel_map_ = loaded.kernel_map;
  direct_map_ = loaded.direct_map;

  vcpu_ = std::make_unique<Vcpu>(*memory_, loaded.kernel_map, loaded.direct_map);
  vcpu_->set_block_cache(config_.use_block_cache);
  vcpu_->set_shared_block_cache(config_.shared_block_cache);
  if (config_.shared_block_cache != nullptr) {
    // Layout identity for whole-table decode sharing: two boots with the
    // same template object, slide, load address, and shuffle permutation
    // translate every vaddr to identical template bytes, so one VM's decode
    // table is directly adoptable by the other. The template pointer is the
    // cache-held identity (stable while the cache pins it).
    uint64_t key = 0x9e3779b97f4a7c15ull;
    const auto mix = [&key](uint64_t v) {
      key ^= v + 0x9e3779b97f4a7c15ull + (key << 6) + (key >> 2);
    };
    mix(reinterpret_cast<uint64_t>(tmpl.get()));
    mix(loaded.choice.virt_slide);
    mix(loaded.choice.phys_load_addr);
    mix(loaded.fg.has_value() ? loaded.fg->map.PermutationDigest() : 0);
    vcpu_->set_layout_key(key != 0 ? key : 1);
  }
  if (icache_ != nullptr) {
    vcpu_->set_icache(icache_);
  }
  if (loaded.fg.has_value() && loaded.fg->kallsyms_pending &&
      config_.fg.kallsyms == KallsymsFixup::kLazy) {
    InstallLazyKallsymsHook(loaded.fg->kallsyms_vaddr, loaded.fg->kallsyms_count, loaded.fg->map,
                            loaded.choice.phys_load_addr, loaded.link_text_vaddr,
                            loaded.image_mem_size);
  }
  report.timeline.AddMeasured(BootPhase::kInMonitor, monitor_timer.ElapsedNs());

  if (config_.verify_after_load) {
    // Static verification window: the image is fully randomized but no guest
    // instruction has run yet, so memory still matches what the randomizer
    // produced (deferred kallsyms tables are expected pristine).
    VerifyInput verify_input;
    verify_input.original_elf = kernel_read.data;
    // Gather-copy: verification must not materialize the shared frames it
    // inspects, or the density accounting would charge the verifier's reads
    // to the VM.
    IMK_ASSIGN_OR_RETURN(Bytes image_copy,
                         memory_->CopyRange(loaded.choice.phys_load_addr, loaded.image_mem_size));
    verify_input.randomized = ByteSpan(image_copy);
    verify_input.base_vaddr = loaded.link_text_vaddr;
    verify_input.relocs = relocs;
    verify_input.map = loaded.fg.has_value() ? &loaded.fg->map : nullptr;
    verify_input.choice = loaded.choice;
    if (!config_.use_note_constants) {
      verify_input.constants = DefaultKernelConstants();
    }
    verify_input.guest_mem_size = usable_mem_top_;
    verify_input.kallsyms_deferred = loaded.fg.has_value() && loaded.fg->kallsyms_pending;
    verify_input.check_orc = config_.fg.fixup_orc;
    IMK_ASSIGN_OR_RETURN(VerifyReport verify_report, VerifyImage(verify_input));
    if (!verify_report.clean()) {
      return InternalError("post-load image verification failed:\n" + verify_report.ToString());
    }
    report.verify = std::move(verify_report);
  }

  // Enter guest context.
  if (deadline != nullptr) {
    IMK_RETURN_IF_ERROR(deadline->Check("microvm.guest_entry"));
    vcpu_->set_deadline(deadline);
  }
  Stopwatch guest_timer;
  IMK_ASSIGN_OR_RETURN(VcpuOutcome outcome,
                       vcpu_->Run(loaded.entry_vaddr, loaded.stack_top, usable_mem_top_,
                                  loaded.resv_start_phys, loaded.resv_end_phys,
                                  config_.max_boot_instructions));
  report.timeline.AddMeasured(BootPhase::kLinuxBoot, guest_timer.ElapsedNs());
  report.init_done = outcome.init_done;
  report.init_checksum = outcome.init_checksum;
  report.guest_stats = outcome.run.stats;
  report.guest_stop = outcome.run.reason;
  report.timeline.RecordBlockCache({outcome.run.stats.block_cache_hits,
                                    outcome.run.stats.block_cache_misses,
                                    outcome.run.stats.block_cache_invalidations,
                                    outcome.run.stats.blocks_shared,
                                    outcome.run.stats.blocks_private});
  report.console = std::move(outcome.console);
  for (const auto& marker : outcome.markers) {
    report.timeline.RecordMarker(marker.first, marker.second);
  }
  return std::move(report);
}

Result<BootReport> MicroVm::BootBzImage(BootReport& report) {
  Stopwatch monitor_timer;
  const Deadline* deadline = config_.deadline;
  IMK_RETURN_IF_ERROR(SetUpBoard());
  if (deadline != nullptr) {
    IMK_RETURN_IF_ERROR(deadline->Check("microvm.board"));
  }

  IMK_ASSIGN_OR_RETURN(Storage::ReadResult image_read, storage_.Read(config_.kernel_image));
  report.timeline.AddModeled(BootPhase::kInMonitor, image_read.modeled_io_ns);
  Bytes bounce;
  if (config_.monitor == MonitorKind::kQemuLike) {
    bounce.assign(image_read.data.begin(), image_read.data.end());
    image_read.data = ByteSpan(bounce);
  }
  IMK_ASSIGN_OR_RETURN(BzImageInfo info, ParseBzImageHeader(image_read.data));

  // Placement. The optimized loader runs the kernel in place, so the image
  // must land where the kernel's first loadable byte is MIN_KERNEL_ALIGN
  // aligned and at/above the 16 MiB minimum (the §3.3 link trick).
  uint64_t bz_load;
  if (info.loader_kind == LoaderKind::kNoneOptimized) {
    if (info.codec != "none") {
      return InvalidArgumentError("optimized loader requires compression none");
    }
    IMK_ASSIGN_OR_RETURN(
        ByteSpan payload_prefix,
        ByteReader(image_read.data).SliceAt(info.PayloadOffset() + 8,
                                            image_read.data.size() - info.PayloadOffset() - 8));
    IMK_ASSIGN_OR_RETURN(uint64_t first_load_offset, PeekFirstLoadOffset(payload_prefix));
    const uint64_t in_image_text = info.PayloadOffset() + 8 + first_load_offset;
    // Find the smallest 2 MiB-aligned text address >= 16 MiB.
    const uint64_t text_phys = AlignUp(kPhysicalStart + in_image_text, kMinKernelAlign);
    bz_load = text_phys - in_image_text;
  } else {
    // Standard loader: stage the image high, leaving room above it for the
    // loader's heap/stack, the payload copy, and the decompressed kernel.
    const uint64_t above = info.TotalSize() + (8ull << 20) + info.payload_size +
                           info.payload_raw_size + (1ull << 20);
    if (above + (64ull << 20) > usable_mem_top_) {
      return InvalidArgumentError("guest memory too small for bzImage staging");
    }
    bz_load = AlignDown(usable_mem_top_ - above, 4096);
  }

  // "Monitor reads bzImage into guest memory" (§3.3 step 1).
  IMK_RETURN_IF_ERROR(memory_->Write(bz_load, image_read.data));
  report.timeline.AddMeasured(BootPhase::kInMonitor, monitor_timer.ElapsedNs());

  // "...and jumps to the bootstrap loader entry point": everything from here
  // until the kernel entry is guest-side cost.
  BootstrapParams params;
  params.rando = config_.rando;
  params.fg = config_.fg;
  params.bzimage_load_phys = bz_load;
  Rng rng(config_.seed != 0 ? config_.seed : HostEntropySeed());
  IMK_ASSIGN_OR_RETURN(BootstrapResult boot, RunBootstrapLoader(*memory_, info, params, rng));
  report.timeline.AddMeasured(BootPhase::kBootstrapSetup,
                              boot.timings.setup_ns + boot.timings.parse_load_ns +
                                  boot.timings.rando_ns);
  report.timeline.AddMeasured(BootPhase::kDecompression, boot.timings.decompress_ns);
  report.bootstrap_timings = boot.timings;
  report.choice = boot.choice;
  report.reloc_stats = boot.reloc_stats;
  if (boot.fg.has_value()) {
    report.fg_timings = boot.fg->timings;
    report.sections_shuffled = boot.fg->sections_shuffled;
  }
  virt_slide_ = boot.choice.virt_slide;
  stack_top_ = boot.stack_top;
  kernel_map_ = boot.kernel_map;
  direct_map_ = boot.direct_map;

  vcpu_ = std::make_unique<Vcpu>(*memory_, boot.kernel_map, boot.direct_map);
  vcpu_->set_block_cache(config_.use_block_cache);
  vcpu_->set_shared_block_cache(config_.shared_block_cache);
  if (icache_ != nullptr) {
    vcpu_->set_icache(icache_);
  }
  if (boot.fg.has_value() && boot.fg->kallsyms_pending &&
      config_.fg.kallsyms == KallsymsFixup::kLazy) {
    InstallLazyKallsymsHook(boot.fg->kallsyms_vaddr, boot.fg->kallsyms_count, boot.fg->map,
                            boot.choice.phys_load_addr, boot.link_text_vaddr,
                            boot.image_mem_size);
  }

  if (deadline != nullptr) {
    IMK_RETURN_IF_ERROR(deadline->Check("microvm.guest_entry"));
    vcpu_->set_deadline(deadline);
  }
  Stopwatch guest_timer;
  IMK_ASSIGN_OR_RETURN(VcpuOutcome outcome,
                       vcpu_->Run(boot.entry_vaddr, boot.stack_top, usable_mem_top_,
                                  boot.resv_start_phys, boot.resv_end_phys,
                                  config_.max_boot_instructions));
  report.timeline.AddMeasured(BootPhase::kLinuxBoot, guest_timer.ElapsedNs());
  report.init_done = outcome.init_done;
  report.init_checksum = outcome.init_checksum;
  report.guest_stats = outcome.run.stats;
  report.guest_stop = outcome.run.reason;
  report.timeline.RecordBlockCache({outcome.run.stats.block_cache_hits,
                                    outcome.run.stats.block_cache_misses,
                                    outcome.run.stats.block_cache_invalidations,
                                    outcome.run.stats.blocks_shared,
                                    outcome.run.stats.blocks_private});
  report.console = std::move(outcome.console);
  for (const auto& marker : outcome.markers) {
    report.timeline.RecordMarker(marker.first, marker.second);
  }
  return std::move(report);
}

Result<VmSnapshot> MicroVm::Snapshot() const {
  if (!booted_) {
    return FailedPreconditionError("Snapshot before Boot");
  }
  VmSnapshot snapshot;
  IMK_ASSIGN_OR_RETURN(snapshot.memory, memory_->CopyRange(0, memory_->size()));
  snapshot.kernel_map = kernel_map_;
  snapshot.direct_map = direct_map_;
  snapshot.stack_top = stack_top_;
  snapshot.virt_slide = virt_slide_;
  return snapshot;
}

Result<std::unique_ptr<MicroVm>> MicroVm::FromSnapshot(Storage& storage,
                                                       const VmSnapshot& snapshot) {
  MicroVmConfig config;
  config.mem_size_bytes = snapshot.memory.size();
  auto vm = std::unique_ptr<MicroVm>(new MicroVm(storage, config));
  IMK_RETURN_IF_ERROR(vm->memory_->Write(0, ByteSpan(snapshot.memory)));
  vm->kernel_map_ = snapshot.kernel_map;
  vm->direct_map_ = snapshot.direct_map;
  vm->stack_top_ = snapshot.stack_top;
  vm->virt_slide_ = snapshot.virt_slide;
  vm->vcpu_ = std::make_unique<Vcpu>(*vm->memory_, snapshot.kernel_map, snapshot.direct_map);
  vm->vcpu_->set_block_cache(config.use_block_cache);
  vm->vcpu_->set_shared_block_cache(config.shared_block_cache);
  vm->booted_ = true;
  return vm;
}

Result<Bytes> MicroVm::KernelRegion() const {
  if (!booted_) {
    return FailedPreconditionError("KernelRegion before Boot");
  }
  // Gather-copy so analysis reads never materialize shared frames.
  return memory_->CopyRange(kernel_map_.phys_start, kernel_map_.size);
}

Result<VcpuOutcome> MicroVm::CallGuest(uint64_t link_entry, uint64_t r1, uint64_t r2,
                                       uint64_t max_instructions) {
  if (!booted_) {
    return FailedPreconditionError("CallGuest before Boot");
  }
  if (icache_ != nullptr) {
    vcpu_->set_icache(icache_);
  }
  return vcpu_->Run(RuntimeAddr(link_entry), stack_top_, r1, r2, 0, max_instructions);
}

}  // namespace imk
