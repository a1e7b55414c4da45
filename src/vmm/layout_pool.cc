#include "src/vmm/layout_pool.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "src/base/crc32.h"
#include "src/base/fault_injection.h"
#include "src/base/stopwatch.h"
#include "src/kernel/kconfig.h"
#include "src/trace/trace.h"

namespace imk {
namespace {

// True when `image` still matches its render-time chunk CRCs. kSampled
// probes the cursor-selected chunk; kFull re-hashes every chunk.
bool VerifyLayout(const RenderedLayout& layout, uint64_t cursor,
                  ImageTemplateCache::IntegrityMode mode) {
  const ByteSpan image(layout.image);
  if (layout.chunk_crcs.empty()) {
    return image.empty();
  }
  if (mode == ImageTemplateCache::IntegrityMode::kFull) {
    return AllChunkCrcsOk(image, layout.chunk_crcs);
  }
  return ChunkCrcOk(image, layout.chunk_crcs, cursor % layout.chunk_crcs.size());
}

bool SameFgParams(const FgKaslrParams& a, const FgKaslrParams& b) {
  return a.kallsyms == b.kallsyms && a.fixup_orc == b.fixup_orc;
}

bool SameBootParams(const DirectBootParams& a, const DirectBootParams& b) {
  return a.requested == b.requested &&
         a.fgkaslr_disabled_cmdline == b.fgkaslr_disabled_cmdline &&
         SameFgParams(a.fg, b.fg) && a.protocol == b.protocol &&
         a.use_note_constants == b.use_note_constants && a.stack_slack == b.stack_slack;
}

}  // namespace

uint64_t LayoutPool::DeriveLayoutSeed(uint64_t base_seed, uint64_t sequence) {
  // splitmix64, like the supervisor's per-attempt derivation: independent
  // layouts, reproducible stream, never 0 (0 means "host entropy" elsewhere).
  uint64_t z = base_seed + 0x9e3779b97f4a7c15ull * (sequence + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z = z ^ (z >> 31);
  return z != 0 ? z : 1;
}

LayoutPool::LayoutPool(std::shared_ptr<const ImageTemplate> tmpl, const RelocInfo& relocs,
                       const DirectBootParams& params, uint64_t guest_mem_size,
                       LayoutPoolOptions options)
    : options_(std::move(options)),
      params_(params),
      guest_mem_size_(guest_mem_size),
      relocs_(relocs) {
  std::lock_guard<race::Mutex> lock(mutex_);
  tmpl_ = std::move(tmpl);
}

LayoutPool::~LayoutPool() {
  std::unique_lock<race::Mutex> lock(mutex_);
  draining_ = true;
  idle_cv_.wait(lock, [&] { return tasks_outstanding_ == 0; });
}

void LayoutPool::WaitIdle() {
  std::unique_lock<race::Mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] { return tasks_outstanding_ == 0; });
}

LayoutPool::Stats LayoutPool::stats() const {
  std::lock_guard<race::Mutex> lock(mutex_);
  Stats out = stats_;
  out.ready = static_cast<uint32_t>(ready_.size());
  out.pressured = pressured_;
  return out;
}

uint64_t LayoutPool::ReclaimMemory(uint64_t want_bytes) {
  // Governor ladder tier (governor mutex held, rank 30 < 45). Flushing the
  // newest-first keeps the oldest render for the next grab when only part of
  // the pool must go; a layout already grabbed is a VM's problem, not ours.
  std::lock_guard<race::Mutex> lock(mutex_);
  uint64_t released = 0;
  while (!ready_.empty() && released < want_bytes) {
    released += ready_.back()->image.size();
    ready_.pop_back();
    ++stats_.shed;
  }
  return released;
}

void LayoutPool::OnMemoryPressure(bool under_pressure) {
  std::lock_guard<race::Mutex> lock(mutex_);
  if (pressured_ == under_pressure) {
    return;
  }
  pressured_ = under_pressure;
  if (!under_pressure) {
    ScheduleRefillLocked();  // epoch closed: grow back toward depth
  }
}

bool LayoutPool::MatchesLocked(const std::shared_ptr<const ImageTemplate>& tmpl,
                               const DirectBootParams& params, uint64_t guest_mem_size) {
  if (tmpl == nullptr || tmpl_ == nullptr) {
    ++stats_.key_mismatches;
    return false;
  }
  if (!SameBootParams(params, params_) || guest_mem_size != guest_mem_size_) {
    ++stats_.key_mismatches;
    return false;
  }
  if (tmpl.get() == tmpl_.get()) {
    return true;
  }
  if (tmpl->crc32 != 0 && tmpl->crc32 == tmpl_->crc32 && tmpl->file_size == tmpl_->file_size) {
    // Same cache key, different object: the cache quarantined and rebuilt
    // the entry this pool rendered from. Anything rendered off the old
    // (possibly rotted) pristine bytes is suspect — flush it all and adopt
    // the fresh template; refill re-renders from it.
    ready_.clear();
    tmpl_ = tmpl;
    ++stats_.invalidations;
    return false;
  }
  // A different kernel entirely: not ours to serve (and not ours to flush).
  ++stats_.key_mismatches;
  return false;
}

void LayoutPool::ScheduleRefillLocked() {
  ThreadPool* pool = options_.refill_pool;
  if (pool == nullptr || pool->workers() <= 1 || draining_ || pressured_) {
    return;  // no background lanes (or a pressure epoch): Prefill-only
  }
  const uint32_t batch = std::max<uint32_t>(1, options_.refill_batch);
  while (ready_.size() + renders_inflight_ < options_.depth) {
    const uint32_t deficit =
        options_.depth - static_cast<uint32_t>(ready_.size()) - renders_inflight_;
    const uint32_t count = std::min(batch, deficit);
    renders_inflight_ += count;
    ++tasks_outstanding_;
    pool->Submit([this, count] { RefillTask(count); });
  }
}

void LayoutPool::RefillTask(uint32_t count) {
  for (uint32_t i = 0; i < count; ++i) {
    std::shared_ptr<const ImageTemplate> tmpl;
    uint64_t sequence = 0;
    {
      std::lock_guard<race::Mutex> lock(mutex_);
      if (draining_) {
        renders_inflight_ -= count - i;
        break;
      }
      tmpl = tmpl_;
      sequence = next_sequence_++;
    }
    Result<std::shared_ptr<RenderedLayout>> layout = Render(std::move(tmpl), sequence);
    if (layout.ok()) {
      PushRendered(std::move(*layout));
    } else {
      std::lock_guard<race::Mutex> lock(mutex_);
      --renders_inflight_;
      ++stats_.refill_errors;
    }
  }
  std::lock_guard<race::Mutex> lock(mutex_);
  --tasks_outstanding_;
  idle_cv_.notify_all();
}

Result<std::shared_ptr<RenderedLayout>> LayoutPool::Render(
    std::shared_ptr<const ImageTemplate> tmpl, uint64_t sequence) {
  // Models a failed background render (allocation failure, entropy outage);
  // the pool just stays shallower and launches fall back inline.
  IMK_FAULT_POINT("pool.refill");
  IMK_TRACE_SPAN("pool", "pool.render");
  Stopwatch timer;
  const ImageTemplate& t = *tmpl;
  if (t.mem_size == 0 || t.pristine.size() != t.mem_size) {
    return ParseError("layout pool: template has no loadable image");
  }
  auto layout = std::make_shared<RenderedLayout>();
  layout->sequence = sequence;
  layout->seed = DeriveLayoutSeed(options_.seed, sequence);
  layout->tmpl = tmpl;
  layout->image.assign(t.pristine.begin(), t.pristine.end());
  // The flat render replays the inline pipeline exactly — same constraint
  // assembly, same RNG consumption order (choose, then shuffle) — so a
  // pooled boot is bit-identical to an inline boot with the derived seed.
  LoadedImageView view(MutableByteSpan(layout->image.data(), layout->image.size()), t.link_base);
  Rng rng(layout->seed);
  KernelConstantsNote constants = DefaultKernelConstants();
  if (params_.use_note_constants && t.note_constants.has_value()) {
    constants = *t.note_constants;
  }
  OffsetConstraints constraints;
  constraints.image_mem_size = t.mem_size;
  constraints.guest_mem_size = guest_mem_size_;
  constraints.reserved_tail = params_.stack_slack;
  constraints.constants = constants;
  IMK_ASSIGN_OR_RETURN(layout->choice, ChooseRandomOffsets(constraints, rng));

  if (params_.requested == RandoMode::kFgKaslr && !params_.fgkaslr_disabled_cmdline) {
    if (!t.fg.has_value()) {
      return FailedPreconditionError(
          "layout pool: kernel has no per-function sections (not built with fgkaslr support)");
    }
    FgExecContext fg_context;
    fg_context.pristine = ByteSpan(t.pristine);
    IMK_ASSIGN_OR_RETURN(FgKaslrResult fg,
                         ShuffleFunctionsPreparsed(*t.fg, view, params_.fg, rng, fg_context));
    layout->fg = std::move(fg);
  }

  RelocApplyOptions reloc_options;
  if (layout->fg.has_value()) {
    IMK_ASSIGN_OR_RETURN(layout->reloc_stats,
                         ApplyRelocationsShuffled(view, relocs_, layout->choice.virt_slide,
                                                  layout->fg->map, reloc_options));
  } else {
    IMK_ASSIGN_OR_RETURN(
        layout->reloc_stats,
        ApplyRelocations(view, relocs_, layout->choice.virt_slide, reloc_options));
  }

  // Stamp first, corrupt after: an injected corruption lands on a stamped
  // image, so grab-time re-verification catches and quarantines it — the
  // exact path a real bit-flip between render and launch would take.
  layout->chunk_crcs = StampChunkCrcs(ByteSpan(layout->image));
  IMK_FAULT_CORRUPT("pool.render", layout->image.data(), layout->image.size());
  layout->render_ns = timer.ElapsedNs();
  layout->mem_charge = ScopedMemCharge(options_.accountant, layout->image.size());
  return layout;
}

void LayoutPool::PushRendered(std::shared_ptr<RenderedLayout> layout) {
  std::lock_guard<race::Mutex> lock(mutex_);
  --renders_inflight_;
  ++stats_.rendered;
  if (layout->tmpl.get() != tmpl_.get() || draining_) {
    // The pool flushed (template quarantined) or is shutting down while this
    // render was in flight; its layout would alias dead pristine bytes.
    ++stats_.stale_dropped;
    return;
  }
  if (ready_.size() < options_.depth) {
    ready_.push_back(std::move(layout));
  } else {
    ++stats_.stale_dropped;
  }
}

Status LayoutPool::Prefill(uint32_t target) {
  for (;;) {
    std::shared_ptr<const ImageTemplate> tmpl;
    uint64_t sequence = 0;
    {
      std::lock_guard<race::Mutex> lock(mutex_);
      const uint64_t want = std::min<uint64_t>(target, options_.depth);
      if (ready_.size() + renders_inflight_ >= want || draining_ || pressured_) {
        return OkStatus();
      }
      ++renders_inflight_;
      tmpl = tmpl_;
      sequence = next_sequence_++;
    }
    Result<std::shared_ptr<RenderedLayout>> layout = Render(std::move(tmpl), sequence);
    if (!layout.ok()) {
      std::lock_guard<race::Mutex> lock(mutex_);
      --renders_inflight_;
      ++stats_.refill_errors;
      return layout.status();
    }
    PushRendered(std::move(*layout));
  }
}

std::shared_ptr<const RenderedLayout> LayoutPool::TryGrab(
    const std::shared_ptr<const ImageTemplate>& tmpl, const DirectBootParams& params,
    uint64_t guest_mem_size) {
  for (;;) {
    std::shared_ptr<RenderedLayout> layout;
    uint64_t cursor = 0;
    {
      std::lock_guard<race::Mutex> lock(mutex_);
      if (!MatchesLocked(tmpl, params, guest_mem_size)) {
        ++stats_.misses;
        ScheduleRefillLocked();
        return nullptr;
      }
      if (ready_.empty()) {
        ++stats_.misses;
        ScheduleRefillLocked();
        return nullptr;
      }
      layout = std::move(ready_.front());
      ready_.pop_front();
      cursor = ++verify_cursor_;
    }
    // Verification runs outside the lock: the popped layout is exclusively
    // ours, and a full re-hash must not stall concurrent grabs.
    if (VerifyLayout(*layout, cursor, options_.integrity)) {
      std::lock_guard<race::Mutex> lock(mutex_);
      ++stats_.hits;
      ScheduleRefillLocked();
      return layout;  // one-shot: this sequence index is never served again
    }
    std::lock_guard<race::Mutex> lock(mutex_);
    ++stats_.quarantined;
    IMK_TRACE_INSTANT("pool", "pool.quarantine");
    // Loop: try the next ready layout (or miss out to inline fallback).
  }
}

}  // namespace imk
