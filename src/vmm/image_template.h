// ImageTemplate: the boot-invariant half of direct kernel loading.
//
// Everything DirectLoadKernel used to recompute per boot that depends only
// on the vmlinux bytes — ELF parse, segment layout, PVH/constants notes,
// FGKASLR section/symbol metadata, optionally the relocs extracted from
// .rela sections, and a pristine copy of the loaded image — is captured
// here once. Repeated boots of the same kernel (the paper's §7
// snapshot/zygote fleet scenario, and the serverless many-boots-per-second
// setting of the Firecracker study) then skip parsing entirely and re-run
// only the boot-varying stages: choose offsets, shuffle, relocate.
//
// ImageTemplateCache memoizes templates keyed by (CRC32, size) of the
// vmlinux bytes, LRU-evicted, and safe to share across monitors/threads.
#ifndef IMKASLR_SRC_VMM_IMAGE_TEMPLATE_H_
#define IMKASLR_SRC_VMM_IMAGE_TEMPLATE_H_

#include <array>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/mem_accounting.h"
#include "src/base/result.h"
#include "src/elf/elf_note.h"
#include "src/kaslr/fgkaslr.h"
#include "src/kernel/relocs.h"
#include "src/race/annotations.h"
#include "src/race/mutex.h"

namespace imk {

// What to precompute beyond the mandatory parse.
struct TemplateOptions {
  // Run the in-monitor `relocs` tool (paper Figure 8) over the ELF and cache
  // the decoded tables. Off by default: sidecar-relocs boots never need it.
  bool extract_relocs = false;
};

struct ImageTemplate {
  // Identity (the cache key components). crc32 is stamped by the cache;
  // templates built inline via BuildImageTemplate skip hashing (the cold
  // path has no use for a key) and leave it 0.
  uint32_t crc32 = 0;
  uint64_t file_size = 0;
  bool relocs_extracted = false;

  // Link-time layout.
  uint64_t link_base = 0;   // lowest PT_LOAD vaddr
  uint64_t mem_size = 0;    // memsz span over PT_LOAD headers
  uint64_t elf_entry = 0;   // e_entry (64-bit boot protocol)
  std::optional<uint64_t> pvh_entry;                  // XEN PVH note, if present
  std::optional<KernelConstantsNote> note_constants;  // kernel-constants note, if present

  // The image as the segment loader would place it at link addresses:
  // file bytes copied in, BSS/holes zero. One memcpy re-creates the
  // pre-randomization image in guest memory.
  Bytes pristine;

  // FGKASLR step-1 output; nullopt when the kernel is not fgkaslr-capable.
  std::optional<FgMetadata> fg;

  // Decoded .rela relocation info (only when options.extract_relocs).
  RelocInfo elf_relocs;

  // Integrity references over `pristine`, stamped by the cache at build time
  // (inline BuildImageTemplate leaves them empty: a cold single boot has no
  // shared state to rot). Whole-image CRC plus per-chunk CRCs let a cache
  // hit probe the shared buffer for bit-rot without re-hashing all of it.
  uint32_t pristine_crc32 = 0;
  uint64_t pristine_probe = 0;                // sampled-window fingerprint
  std::vector<uint32_t> pristine_chunk_crcs;  // kCrcChunkBytes each (src/base/crc32.h)

  // Governor charge for `pristine` (template-images category). Travels with
  // the template: evicting the cache entry while boots still pin the
  // shared_ptr keeps the bytes accounted until the last pin drops.
  ScopedMemCharge mem_charge;
};

// Parses `vmlinux` into a template. Fails with kParseError on malformed
// images, including images with no loadable segments.
Result<std::shared_ptr<const ImageTemplate>> BuildImageTemplate(ByteSpan vmlinux,
                                                                const TemplateOptions& options);

// LRU cache of templates keyed by (CRC32, size) of the image bytes. The
// first lookup of a mapping hashes the full image; repeat lookups of the
// same (address, size) span are recognized by a sampled fingerprint and
// skip the hash, so a warm per-boot lookup is O(1) in the image size. The
// memo assumes callers keep the image bytes immutable while booting from
// them (true for read-only mapped kernel files).
class ImageTemplateCache : public Reclaimable {
 public:
  // How thoroughly a hit re-verifies the stored template against its
  // build-time CRCs before serving it. The templates are the one buffer
  // every VM in the fleet aliases, so silent corruption there fans out.
  enum class IntegrityMode {
    // Sampled fingerprint plus one rotating chunk CRC per hit: ~1-2% of a
    // warm launch, detects localized rot within O(image/chunk) hits.
    kSampled,
    // Every chunk on every hit: deterministic same-hit detection, costs a
    // full image hash per lookup. Tests and fault drills.
    kFull,
  };

  explicit ImageTemplateCache(size_t capacity = 8) : capacity_(capacity ? capacity : 1) {}

  // Returns the cached template for these bytes, building and inserting it
  // on a miss. A cached template is only reused when its precomputed extras
  // cover `options` (a relocs-extracted template satisfies both settings).
  // Hits re-verify the stored pristine bytes per the integrity mode; a
  // template that fails the probe is quarantined (evicted and counted) and
  // rebuilt from the image through the single-flight path — the caller just
  // sees a slower, correct lookup.
  Result<std::shared_ptr<const ImageTemplate>> GetOrBuild(ByteSpan vmlinux,
                                                          const TemplateOptions& options);

  void set_integrity_mode(IntegrityMode mode);

  // Full-CRC audit of every cached template; corrupt entries are
  // quarantined. Returns how many were. The boot supervisor runs this before
  // retrying a boot that failed with a data-shaped error, so a rotted
  // template cannot fail every retry.
  size_t AuditEntries();

  // Fleet memory governance. Templates built after set_accountant carry a
  // ScopedMemCharge over their pristine bytes; ReclaimMemory (the governor's
  // last ladder tier) evicts LRU-tail entries until `want_bytes` worth of
  // template references are dropped — the next lookup of an evicted key is
  // a plain single-flight rebuild.
  void set_accountant(std::shared_ptr<ByteAccountant> accountant);
  uint64_t ReclaimMemory(uint64_t want_bytes) override;
  const char* reclaim_name() const override { return "template-cache"; }
  uint64_t reclaim_evictions() const;

  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t quarantined() const;
  size_t size() const;
  void Clear();

 private:
  using Key = std::tuple<uint32_t, uint64_t>;  // (crc32, file size)
  struct Entry {
    Key key;
    std::shared_ptr<const ImageTemplate> value;
    uint64_t verify_cursor = 0;  // rotates the sampled-mode chunk probe
  };

  // True when `tmpl`'s pristine bytes still match its stamped CRCs (always
  // true for unstamped inline builds). `cursor` picks the sampled chunk.
  static bool VerifyTemplate(const ImageTemplate& tmpl, uint64_t cursor, IntegrityMode mode);

  // Span -> key memo so repeat lookups of the same mapping skip the CRC.
  struct SpanMemo {
    const uint8_t* data = nullptr;
    uint64_t size = 0;
    uint64_t probe = 0;  // sampled fingerprint guarding address reuse
    Key key{};
  };

  // Single-flight state for one in-progress build; concurrent callers of
  // the same key block on `done` instead of duplicating the parse.
  struct BuildState {
    bool done = false;
    bool extracts_relocs = false;  // the flight satisfies extract_relocs lookups
    Status status = OkStatus();    // failure propagated to every waiter
  };

  const size_t capacity_;
  mutable race::Mutex mutex_{race::LockRank::kTemplateCache};
  race::CondVar build_done_;
  std::list<Entry> lru_ IMK_GUARDED_BY(kTemplateCache);  // front = most recent
  std::map<Key, std::list<Entry>::iterator> index_ IMK_GUARDED_BY(kTemplateCache);
  std::map<Key, std::shared_ptr<BuildState>> in_flight_ IMK_GUARDED_BY(kTemplateCache);
  std::array<SpanMemo, 4> memo_ IMK_GUARDED_BY(kTemplateCache){};
  size_t memo_next_ IMK_GUARDED_BY(kTemplateCache) = 0;
  uint64_t hits_ IMK_GUARDED_BY(kTemplateCache) = 0;
  uint64_t misses_ IMK_GUARDED_BY(kTemplateCache) = 0;
  uint64_t quarantined_ IMK_GUARDED_BY(kTemplateCache) = 0;
  uint64_t reclaim_evictions_ IMK_GUARDED_BY(kTemplateCache) = 0;
  IntegrityMode integrity_ IMK_GUARDED_BY(kTemplateCache) = IntegrityMode::kSampled;
  std::shared_ptr<ByteAccountant> accountant_ IMK_GUARDED_BY(kTemplateCache);
};

// The process-wide cache monitors share by default (a Firecracker fleet
// booting the same rootfs image thousands of times).
ImageTemplateCache& GlobalImageTemplateCache();

}  // namespace imk

#endif  // IMKASLR_SRC_VMM_IMAGE_TEMPLATE_H_
