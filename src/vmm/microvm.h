// MicroVm: the Firecracker-analogue monitor.
//
// Owns guest memory and a vCPU, reads kernel images from Storage (through
// the page-cache model), boots via either the direct uncompressed-kernel
// path (with optional in-monitor (FG)KASLR — the paper's contribution) or
// the bzImage bootstrap path (the self-randomization baselines), and records
// the boot timeline the paper's figures break down.
#ifndef IMKASLR_SRC_VMM_MICROVM_H_
#define IMKASLR_SRC_VMM_MICROVM_H_

#include <memory>
#include <optional>
#include <string>

#include "src/base/result.h"
#include "src/bootstrap/bootstrap_loader.h"
#include "src/kernel/bzimage.h"
#include "src/kernel/kconfig.h"
#include "src/verify/image_verifier.h"
#include "src/vmm/boot_timeline.h"
#include "src/vmm/device_model.h"
#include "src/vmm/disk_model.h"
#include "src/vmm/guest_memory.h"
#include "src/vmm/loader.h"
#include "src/vmm/vcpu.h"

namespace imk {

class MemGovernor;  // src/vmm/mem_governor.h

// Which monitor personality to emulate (paper §2.2 cross-checks Firecracker
// results against QEMU; "the time spent in the hypervisor varies").
enum class MonitorKind {
  kFirecracker,  // minimal device model, no firmware, direct entry
  kQemuLike,     // full board init, firmware POST stage, bounce-buffer load
};

// How the kernel image is booted.
enum class BootMode {
  kDirect,   // uncompressed vmlinux, loaded by the monitor
  kBzImage,  // compressed (or compression-none) image via the bootstrap loader
};

struct MicroVmConfig {
  MonitorKind monitor = MonitorKind::kFirecracker;
  uint64_t mem_size_bytes = 256ull << 20;
  std::string kernel_image;       // Storage name of vmlinux (direct) or bzImage
  std::string relocs_image;       // Storage name of vmlinux.relocs ("" = none) — Figure 8
  // Figure 8's alternative flow: run the `relocs` tool inside the monitor,
  // deriving relocation info from the kernel's .rela sections instead of a
  // sidecar image. Only meaningful for direct boots with randomization.
  bool relocs_from_elf = false;
  BootMode boot_mode = BootMode::kDirect;

  // Direct boot: what the *monitor* does. bzImage boot: what the *guest
  // loader* does (self-randomization), which must match the kernel build.
  RandoMode rando = RandoMode::kNone;
  // Guest command line carries "nofgkaslr" (§5.1): fgkaslr-capable kernel,
  // shuffle disabled at boot, extra ELF parsing still paid.
  bool fgkaslr_disabled_cmdline = false;
  FgKaslrParams fg;
  BootProtocol protocol = BootProtocol::kLinux64;
  bool use_note_constants = true;

  uint64_t seed = 0;              // 0 = draw from host entropy
  uint64_t max_boot_instructions = 2ull << 30;

  // Randomization-pipeline resources (PR 2). `load_threads` execution lanes
  // shard the image copy, FGKASLR moves, and relocation passes (0 = hardware
  // concurrency; 1 = fully serial). Results are bit-identical for every
  // value. The template cache amortizes ELF parsing across boots of the same
  // kernel; `template_cache` overrides the process-global cache (tests and
  // benches inject their own), and `use_template_cache = false` re-parses
  // every boot (the pre-PR-2 behaviour, kept for measurement).
  uint32_t load_threads = 1;
  bool use_template_cache = true;
  ImageTemplateCache* template_cache = nullptr;

  // Ahead-of-time randomized layout pool (src/vmm/layout_pool.h). When
  // `layout_pool` is set, the loader first tries to grab a pre-rendered
  // layout from it (shared across VMs — the fleet scenario). When it is null
  // and `layout_pool_depth` > 0, a randomized direct boot builds a private
  // pool of that depth and prefills one layout before loading, so a single
  // `imk_tool boot --layout-pool=N` exercises the pooled path end to end.
  // Either way, a drained or mismatched pool falls back to the inline
  // randomization pipeline. 0 = no pool.
  LayoutPool* layout_pool = nullptr;
  uint32_t layout_pool_depth = 0;
  uint32_t layout_pool_refill_batch = 2;

  // Predecoded basic-block execution engine (src/isa/block_cache.h). On by
  // default; false runs the legacy per-instruction switch interpreter — the
  // decode-ablation baseline, `imk_tool boot/storm --no-block-cache`.
  // `shared_block_cache`, when set, is a storm-wide cross-VM cache of blocks
  // decoded from shared (template-aliased) frames; the caller owns it and
  // keeps it alive across every boot that uses it. nullptr keeps all decoded
  // blocks VM-private. Architectural results are bit-identical either way.
  bool use_block_cache = true;
  SharedBlockCache* shared_block_cache = nullptr;

  // Fleet memory governor (src/vmm/mem_governor.h). When set, this VM's
  // FrameStore charges its dirty frames against the governor's guest-frames
  // category, and the boot supervisor gains admission gating plus the
  // shared-caches-off pressure rung. The caller owns the governor and must
  // keep it alive past this VM (the frame accounting releases at teardown).
  MemGovernor* mem_governor = nullptr;

  // Boot watchdog wall-clock deadline, checked at monitor stage boundaries
  // and polled by the interpreter while the guest runs. The caller owns the
  // Deadline and keeps it alive across Boot(). nullptr = no watchdog. (The
  // instruction-budget watchdog is max_boot_instructions above.)
  const Deadline* deadline = nullptr;

  // Opt-in static verification (src/verify): after the monitor loads and
  // randomizes the image — before the first guest instruction — run the full
  // invariant battery against the pre-randomization ELF. Boot fails with
  // kInternal if any invariant is violated; on success the report rides in
  // BootReport::verify. Direct boots only: the bzImage path randomizes
  // in-guest and discards the intermediate vmlinux, so the flag is ignored
  // there.
  bool verify_after_load = false;
};

// The loader parameters a direct boot of `config` runs with. The one place
// a config becomes DirectBootParams, so a layout pool keyed for a config and
// the launches of that config always agree (the pool rejects grabs whose
// params differ). `usable_mem_limit` is the device model's RAM floor for
// full boots, 0 for bare launches into guest memory.
DirectBootParams DirectBootParamsFor(const MicroVmConfig& config, uint64_t usable_mem_limit);

// Everything one boot produced.
struct BootReport {
  BootTimeline timeline;
  bool init_done = false;
  uint64_t init_checksum = 0;
  OffsetChoice choice;
  RelocStats reloc_stats;
  std::optional<BootstrapTimings> bootstrap_timings;  // bzImage boots only
  std::optional<FgKaslrTimings> fg_timings;
  uint32_t sections_shuffled = 0;
  ExecStats guest_stats;
  // Why the guest stopped. A boot that "succeeds" (OK status) but stopped on
  // kInstructionCap or kDeadline without init_done is a hung guest — the
  // supervisor's watchdog classification reads this.
  StopReason guest_stop = StopReason::kHalt;
  std::string console;
  std::optional<VerifyReport> verify;  // set when config.verify_after_load ran
  // Direct boots only: loader stage breakdown + per-stage frame
  // materialization (the storm bench's density numbers come from here).
  LoaderTimings loader_timings;
  LoaderMemStats mem;
  // Direct boots only: the randomized layout came pre-rendered from the
  // layout pool (choose/shuffle/relocate were skipped at launch).
  bool layout_pool_hit = false;
  // Permutation-sensitive digest of the FGKASLR shuffle (0 when no shuffle
  // ran): together with choice.virt_slide this identifies the layout for
  // cross-VM uniqueness checks (src/verify/layout_uniqueness.h).
  uint64_t fg_digest = 0;
};

// A booted VM's frozen state: the zygote/snapshot primitive the paper's
// related-work section discusses (§7). Restored clones share the snapshot's
// memory layout — which is exactly why snapshot reuse nullifies ASLR unless
// the pool keeps multiple differently-randomized zygotes (Morula).
struct VmSnapshot {
  Bytes memory;
  LinearMap kernel_map;
  LinearMap direct_map;
  uint64_t stack_top = 0;
  uint64_t virt_slide = 0;
};

class MicroVm {
 public:
  MicroVm(Storage& storage, MicroVmConfig config);

  // Boots the VM: monitor work + guest init, filling the timeline. May be
  // called once per MicroVm instance.
  Result<BootReport> Boot();

  // Post-boot: runs a guest function at link-time vaddr `link_entry` (must
  // be in unshuffled code) with boot-register args; returns the vCPU outcome.
  // An i-cache model may be attached first via set_icache.
  Result<VcpuOutcome> CallGuest(uint64_t link_entry, uint64_t r1, uint64_t r2,
                                uint64_t max_instructions);

  void set_icache(IcacheModel* icache) { icache_ = icache; }

  // Runtime (post-slide) address of an unshuffled link-time vaddr.
  uint64_t RuntimeAddr(uint64_t link_vaddr) const { return link_vaddr + virt_slide_; }

  // Freezes the booted VM (post-Boot only).
  Result<VmSnapshot> Snapshot() const;

  // Creates a VM resumed from a snapshot: already "booted", ready for
  // CallGuest. The clone has the snapshot's layout, not a fresh one.
  static Result<std::unique_ptr<MicroVm>> FromSnapshot(Storage& storage,
                                                       const VmSnapshot& snapshot);

  // Gather-copy of the guest-physical window holding the kernel image (for
  // layout and page-sharing analysis); does not materialize shared frames.
  Result<Bytes> KernelRegion() const;

  GuestMemory& memory() { return *memory_; }
  const MicroVmConfig& config() const { return config_; }

 private:
  // Board bring-up common to both boot paths: device model (+ firmware POST
  // for the QEMU-like profile). Returns measured nanoseconds.
  Result<uint64_t> SetUpBoard();
  Result<BootReport> BootDirect(BootReport& report);
  Result<BootReport> BootBzImage(BootReport& report);
  void InstallLazyKallsymsHook(uint64_t kallsyms_vaddr, uint64_t count, const ShuffleMap& map,
                               uint64_t phys_base, uint64_t link_base, uint64_t mem_size);

  Storage& storage_;
  MicroVmConfig config_;
  std::unique_ptr<GuestMemory> memory_;
  std::unique_ptr<Vcpu> vcpu_;
  IcacheModel* icache_ = nullptr;

  std::optional<DeviceModel> devices_;
  uint64_t usable_mem_top_ = 0;  // RAM below the device-queue reservation

  // Post-boot state.
  bool booted_ = false;
  uint64_t virt_slide_ = 0;
  uint64_t stack_top_ = 0;
  LinearMap kernel_map_;
  LinearMap direct_map_;
};

}  // namespace imk

#endif  // IMKASLR_SRC_VMM_MICROVM_H_
