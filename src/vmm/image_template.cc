#include "src/vmm/image_template.h"

#include <cstring>
#include <utility>

#include "src/base/crc32.h"
#include "src/base/fault_injection.h"
#include "src/race/tracker.h"
#include "src/elf/elf_reader.h"
#include "src/elf/elf_types.h"
#include "src/trace/trace.h"

namespace imk {
namespace {

// Computes the memsz span [min vaddr, max vaddr+memsz) over PT_LOAD headers.
// An image with no loadable segment reports mem_size 0 (not the wrapped
// `0 - UINT64_MAX` the old min/max seeding produced, which defeated the
// caller's emptiness check).
Status ImageSpan(const ElfReader& elf, uint64_t* base_vaddr, uint64_t* mem_size) {
  uint64_t lo = UINT64_MAX;
  uint64_t hi = 0;
  bool any = false;
  for (const Elf64Phdr& phdr : elf.program_headers()) {
    if (phdr.p_type != kPtLoad) {
      continue;
    }
    if (phdr.p_vaddr + phdr.p_memsz < phdr.p_vaddr) {
      return ParseError("PT_LOAD vaddr+memsz overflows");
    }
    any = true;
    lo = std::min(lo, phdr.p_vaddr);
    hi = std::max(hi, phdr.p_vaddr + phdr.p_memsz);
  }
  if (!any) {
    *base_vaddr = 0;
    *mem_size = 0;
    return OkStatus();
  }
  *base_vaddr = lo;
  *mem_size = hi - lo;
  return OkStatus();
}

Result<uint64_t> PvhEntry(const ElfReader& elf) {
  for (const ElfSection& section : elf.sections()) {
    if (section.header.sh_type != kShtNote) {
      continue;
    }
    IMK_ASSIGN_OR_RETURN(ByteSpan data, elf.SectionData(section));
    IMK_ASSIGN_OR_RETURN(std::vector<ElfNote> notes, ParseNoteSection(data));
    for (const ElfNote& note : notes) {
      if (note.name == kNoteNameXen && note.type == kNoteTypePvhEntry && note.desc.size() >= 8) {
        return LoadLe64(note.desc.data());
      }
    }
  }
  return NotFoundError("no PVH entry note in kernel image");
}

Result<KernelConstantsNote> NoteConstants(const ElfReader& elf) {
  for (const ElfSection& section : elf.sections()) {
    if (section.header.sh_type != kShtNote) {
      continue;
    }
    IMK_ASSIGN_OR_RETURN(ByteSpan data, elf.SectionData(section));
    IMK_ASSIGN_OR_RETURN(std::vector<ElfNote> notes, ParseNoteSection(data));
    if (auto constants = FindKernelConstants(notes)) {
      return *constants;
    }
  }
  return NotFoundError("no kernel-constants note");
}

// Cheap identity probe over a fixed set of sampled windows (ends + interior
// strides). Used only to guard the cache's span memo against an address being
// reused for a different image; the authoritative key stays the full CRC32.
uint64_t SampleFingerprint(ByteSpan span) {
  uint64_t h = 0xcbf29ce484222325ull ^ span.size();
  const auto mix = [&h](const uint8_t* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ p[i]) * 0x100000001b3ull;
    }
  };
  const size_t n = span.size();
  if (n <= 256) {
    mix(span.data(), n);
    return h;
  }
  mix(span.data(), 64);
  mix(span.data() + n - 64, 64);
  for (uint64_t k = 1; k <= 6; ++k) {
    mix(span.data() + (n * k) / 7, 32);
  }
  return h;
}

Result<std::shared_ptr<const ImageTemplate>> BuildTemplate(
    ByteSpan vmlinux, const TemplateOptions& options, uint32_t crc, bool stamp_integrity,
    std::shared_ptr<ByteAccountant> accountant) {
  // Models a parse blowing up on a torn/hostile image before any state is
  // cached (the supervisor treats the resulting kParseError as data-shaped).
  IMK_FAULT_POINT("template.parse");
  auto tmpl = std::make_shared<ImageTemplate>();
  tmpl->crc32 = crc;
  tmpl->file_size = vmlinux.size();
  tmpl->relocs_extracted = options.extract_relocs;

  IMK_ASSIGN_OR_RETURN(ElfReader elf, ElfReader::Parse(vmlinux));
  IMK_RETURN_IF_ERROR(ImageSpan(elf, &tmpl->link_base, &tmpl->mem_size));
  if (tmpl->mem_size == 0) {
    return ParseError("kernel image has no loadable segments");
  }
  tmpl->elf_entry = elf.entry();

  // Pre-render the loaded image at link addresses: file bytes in place,
  // BSS tails and inter-segment holes zero. Per-boot loading becomes a
  // single (chunkable) memcpy of this buffer.
  tmpl->pristine.assign(tmpl->mem_size, 0);
  for (const Elf64Phdr& phdr : elf.program_headers()) {
    if (phdr.p_type != kPtLoad) {
      continue;
    }
    const uint64_t offset = phdr.p_vaddr - tmpl->link_base;
    if (phdr.p_filesz > phdr.p_memsz || offset + phdr.p_memsz > tmpl->mem_size) {
      return ParseError("PT_LOAD segment exceeds image span");
    }
    IMK_ASSIGN_OR_RETURN(ByteSpan file_bytes, elf.SegmentData(phdr));
    if (file_bytes.size() > phdr.p_filesz) {
      return ParseError("PT_LOAD file image larger than p_filesz");
    }
    std::memcpy(tmpl->pristine.data() + offset, file_bytes.data(), file_bytes.size());
  }

  // The notes are optional image features; their absence is tolerated, any
  // other failure (corrupt note section, bad offsets) still surfaces. Same
  // for fgkaslr metadata, whose "not built for it" signal is a precondition.
  IMK_ASSIGN_OPTIONAL_OR_RETURN(tmpl->pvh_entry, PvhEntry(elf), ErrorCode::kNotFound);
  IMK_ASSIGN_OPTIONAL_OR_RETURN(tmpl->note_constants, NoteConstants(elf), ErrorCode::kNotFound);
  IMK_ASSIGN_OPTIONAL_OR_RETURN(tmpl->fg, ParseFgMetadata(elf), ErrorCode::kFailedPrecondition);
  if (options.extract_relocs) {
    IMK_ASSIGN_OR_RETURN(tmpl->elf_relocs, ExtractRelocsFromElf(elf));
  }
  if (stamp_integrity) {
    const ByteSpan pristine(tmpl->pristine);
    tmpl->pristine_crc32 = Crc32(pristine);
    tmpl->pristine_probe = SampleFingerprint(pristine);
    tmpl->pristine_chunk_crcs = StampChunkCrcs(pristine);
  }
  tmpl->mem_charge = ScopedMemCharge(std::move(accountant), tmpl->pristine.size());
  return std::shared_ptr<const ImageTemplate>(std::move(tmpl));
}

}  // namespace

Result<std::shared_ptr<const ImageTemplate>> BuildImageTemplate(ByteSpan vmlinux,
                                                                const TemplateOptions& options) {
  // Inline (cacheless) builds skip hashing: the cold boot path never needs
  // an identity key, and hashing the whole image would dominate the parse.
  // They skip the integrity stamp for the same reason — a template nothing
  // else aliases has no shared state to re-verify.
  return BuildTemplate(vmlinux, options, /*crc=*/0, /*stamp_integrity=*/false,
                       /*accountant=*/nullptr);
}

Result<std::shared_ptr<const ImageTemplate>> ImageTemplateCache::GetOrBuild(
    ByteSpan vmlinux, const TemplateOptions& options) {
  // Fast identity path: a monitor fleet resolves the same read-only mapping
  // of the kernel image on every boot. Re-hashing all of it per lookup would
  // cost more than the remaining boot-varying pipeline, so (address, size,
  // sampled fingerprint) memoizes span -> key; the fingerprint guards
  // against the address being recycled for a different image. The memo
  // assumes the caller keeps the image bytes immutable while booting from
  // them, which holds for read-only mapped kernel files.
  IMK_TRACE_SPAN("template", "template.get_or_build");
  const uint64_t probe = SampleFingerprint(vmlinux);
  Key key{};
  bool have_key = false;
  {
    std::lock_guard<race::Mutex> lock(mutex_);
    for (const SpanMemo& memo : memo_) {
      if (memo.data == vmlinux.data() && memo.size == vmlinux.size() && memo.probe == probe) {
        key = memo.key;
        have_key = true;
        break;
      }
    }
  }
  if (!have_key) {
    key = Key{Crc32(vmlinux), vmlinux.size()};
  }
  {
    std::lock_guard<race::Mutex> lock(mutex_);
    memo_[memo_next_] = SpanMemo{vmlinux.data(), vmlinux.size(), probe, key};
    memo_next_ = (memo_next_ + 1) % memo_.size();
  }
  // Outer loop: re-entered when a hit fails its integrity probe and is
  // quarantined — the lookup then rebuilds through the miss path.
  for (;;) {
    std::shared_ptr<const ImageTemplate> cand;
    uint64_t cursor = 0;
    IntegrityMode mode = IntegrityMode::kSampled;
    std::shared_ptr<BuildState> flight;
    std::shared_ptr<ByteAccountant> accountant;
    {
      std::unique_lock<race::Mutex> lock(mutex_);
      for (;;) {
        auto it = index_.find(key);
        // A template built with extract_relocs satisfies lookups without it;
        // the reverse upgrade falls through to a rebuild.
        if (it != index_.end() &&
            (it->second->value->relocs_extracted || !options.extract_relocs)) {
          IMK_RACE_SHARED_WRITE("template_cache.entries", this, 0, kTemplateCache);
          lru_.splice(lru_.begin(), lru_, it->second);
          ++hits_;
          cand = it->second->value;
          cursor = it->second->verify_cursor++;
          mode = integrity_;
          break;  // verify outside the lock
        }
        // Single-flight: a boot storm's first wave all misses the same key at
        // once, and parsing the same multi-megabyte vmlinux N times in
        // parallel wastes N-1 parses worth of CPU and transient memory. One
        // caller builds; everyone else blocks on its completion, then re-reads
        // the cache. Distinct keys still build fully concurrently.
        auto fit = in_flight_.find(key);
        if (fit != in_flight_.end() &&
            (fit->second->extracts_relocs || !options.extract_relocs)) {
          std::shared_ptr<BuildState> other = fit->second;
          build_done_.wait(lock, [&] { return other->done; });
          if (!other->status.ok()) {
            return other->status;
          }
          continue;  // the builder inserted it; take the hit path
        }
        ++misses_;
        flight = std::make_shared<BuildState>();
        flight->extracts_relocs = options.extract_relocs;
        in_flight_[key] = flight;  // may replace a weaker (no-relocs) flight
        accountant = accountant_;
        break;
      }
    }

    if (cand != nullptr) {
      // Bit-rot drill: flips bytes in the shared pristine buffer right
      // before the integrity probe (the window real rot would occupy).
      IMK_FAULT_CORRUPT("template.cache_hit",
                        const_cast<uint8_t*>(cand->pristine.data()), cand->pristine.size());
      // Verify outside the lock — a full-mode probe hashes the whole image
      // and must not serialize other lookups.
      if (VerifyTemplate(*cand, cursor, mode)) {
        return cand;
      }
      std::lock_guard<race::Mutex> lock(mutex_);
      IMK_RACE_SHARED_WRITE("template_cache.entries", this, 0, kTemplateCache);
      auto it = index_.find(key);
      if (it != index_.end() && it->second->value == cand) {
        lru_.erase(it->second);
        index_.erase(it);
      }
      ++quarantined_;
      --hits_;  // the serve never happened
      IMK_TRACE_INSTANT("template", "template.quarantine");
      continue;  // rebuild as a miss
    }

    // Build outside the lock: parsing a large vmlinux must not serialize
    // lookups of other kernels.
    const uint64_t build_span = trace::SpanStart();
    Result<std::shared_ptr<const ImageTemplate>> built =
        BuildTemplate(vmlinux, options, std::get<0>(key), /*stamp_integrity=*/true,
                      std::move(accountant));
    trace::EmitComplete("template", "template.build", build_span);

    std::lock_guard<race::Mutex> lock(mutex_);
    IMK_RACE_SHARED_WRITE("template_cache.entries", this, 0, kTemplateCache);
    auto fit = in_flight_.find(key);
    if (fit != in_flight_.end() && fit->second == flight) {
      in_flight_.erase(fit);
    }
    flight->done = true;
    if (!built.ok()) {
      flight->status = built.status();
      build_done_.notify_all();
      return built.status();
    }
    flight->status = OkStatus();
    build_done_.notify_all();
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      it->second->value = *built;  // upgrade (or racing duplicate; same bytes)
      return *built;
    }
    lru_.push_front(Entry{key, *built});
    index_[key] = lru_.begin();
    while (lru_.size() > capacity_) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
    }
    return *built;
  }
}

bool ImageTemplateCache::VerifyTemplate(const ImageTemplate& tmpl, uint64_t cursor,
                                        IntegrityMode mode) {
  if (tmpl.pristine_chunk_crcs.empty()) {
    return true;  // unstamped (inline build); nothing to check against
  }
  const ByteSpan pristine(tmpl.pristine);
  if (mode == IntegrityMode::kFull) {
    return AllChunkCrcsOk(pristine, tmpl.pristine_chunk_crcs);
  }
  // Sampled: the fingerprint (a few hundred bytes) guards every hit; the
  // rotating full-chunk CRC — the expensive probe — runs every stride-th hit
  // so a warm launch's verify cost stays a fraction of the map work while
  // localized rot is still caught within O(stride * image/chunk) hits.
  constexpr uint64_t kSampledChunkStride = 8;
  if (SampleFingerprint(pristine) != tmpl.pristine_probe) {
    return false;
  }
  if (cursor % kSampledChunkStride != 0) {
    return true;
  }
  return ChunkCrcOk(pristine, tmpl.pristine_chunk_crcs,
                    static_cast<size_t>((cursor / kSampledChunkStride) %
                                        tmpl.pristine_chunk_crcs.size()));
}

void ImageTemplateCache::set_integrity_mode(IntegrityMode mode) {
  std::lock_guard<race::Mutex> lock(mutex_);
  integrity_ = mode;
}

void ImageTemplateCache::set_accountant(std::shared_ptr<ByteAccountant> accountant) {
  std::lock_guard<race::Mutex> lock(mutex_);
  accountant_ = std::move(accountant);
}

uint64_t ImageTemplateCache::ReclaimMemory(uint64_t want_bytes) {
  // Called by the governor's ladder (governor mutex held, rank 30 < 40).
  // Evicts from the LRU tail; a boot still pinning an evicted template keeps
  // its bytes accounted through the template's own ScopedMemCharge, so the
  // count returned here is "references dropped", not "bytes now free" — the
  // ladder simply moves on to the next tier if usage stays high.
  std::lock_guard<race::Mutex> lock(mutex_);
  IMK_RACE_SHARED_WRITE("template_cache.entries", this, 0, kTemplateCache);
  uint64_t released = 0;
  while (!lru_.empty() && released < want_bytes) {
    released += lru_.back().value->pristine.size();
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++reclaim_evictions_;
  }
  return released;
}

uint64_t ImageTemplateCache::reclaim_evictions() const {
  std::lock_guard<race::Mutex> lock(mutex_);
  return reclaim_evictions_;
}

size_t ImageTemplateCache::AuditEntries() {
  // Snapshot under the lock, hash outside it, quarantine survivors of the
  // race (an entry replaced mid-audit is a fresh build; leave it alone).
  std::vector<std::pair<Key, std::shared_ptr<const ImageTemplate>>> snapshot;
  {
    std::lock_guard<race::Mutex> lock(mutex_);
    snapshot.reserve(lru_.size());
    for (const Entry& entry : lru_) {
      snapshot.emplace_back(entry.key, entry.value);
    }
  }
  size_t dropped = 0;
  for (const auto& [key, tmpl] : snapshot) {
    if (VerifyTemplate(*tmpl, 0, IntegrityMode::kFull)) {
      continue;
    }
    std::lock_guard<race::Mutex> lock(mutex_);
    IMK_RACE_SHARED_WRITE("template_cache.entries", this, 0, kTemplateCache);
    auto it = index_.find(key);
    if (it != index_.end() && it->second->value == tmpl) {
      lru_.erase(it->second);
      index_.erase(it);
      ++quarantined_;
      ++dropped;
    }
  }
  return dropped;
}

uint64_t ImageTemplateCache::hits() const {
  std::lock_guard<race::Mutex> lock(mutex_);
  return hits_;
}

uint64_t ImageTemplateCache::misses() const {
  std::lock_guard<race::Mutex> lock(mutex_);
  return misses_;
}

uint64_t ImageTemplateCache::quarantined() const {
  std::lock_guard<race::Mutex> lock(mutex_);
  return quarantined_;
}

size_t ImageTemplateCache::size() const {
  std::lock_guard<race::Mutex> lock(mutex_);
  return lru_.size();
}

void ImageTemplateCache::Clear() {
  std::lock_guard<race::Mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  memo_.fill(SpanMemo{});
  memo_next_ = 0;
  hits_ = 0;
  misses_ = 0;
  quarantined_ = 0;
}

ImageTemplateCache& GlobalImageTemplateCache() {
  static ImageTemplateCache* cache = new ImageTemplateCache();
  return *cache;
}

}  // namespace imk
