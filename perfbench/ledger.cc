#include "perfbench/ledger.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>

#include "perfbench/arith.h"
#include "perfbench/reference.h"
#include "src/trace/export.h"
#include "src/trace/trace.h"

namespace imkbench {
namespace {

namespace trace = imk::trace;

constexpr double kMiB = 1024.0 * 1024.0;

// Ledger rows in print order: the span whose self time the row is, and what
// that self time holds. microvm.boot's self time is the unattributed part of
// Boot(): its derived children cover the timeline's measured phases.
struct Row {
  const char* span;
  const char* label;
};
constexpr Row kRows[] = {
    {"bench.queue", "bench.queue        due time to worker pickup"},
    {"microvm.create", "microvm.create     MicroVm / GuestMemory construction"},
    {"supervisor.run", "supervisor.self    admission, VM construction, unattributed"},
    {"microvm.boot", "microvm.unattrib   Boot() minus the timeline's measured phases"},
    {"boot.monitor", "monitor.other      board, storage read, relocs parse, vCPU set-up"},
    {"loader.call", "loader.other       DirectLoadKernel time in no stage"},
    {"loader.parse", "loader.parse       template build or hit check"},
    {"loader.choose", "loader.choose      slide choice"},
    {"loader.map", "loader.map         CoW map / copy of the image"},
    {"loader.fg", "loader.fg          FG shuffle and table fixups"},
    {"loader.reloc", "loader.reloc       relocation walk"},
    {"boot.guest", "guest.run          Linux boot phase (decode+dispatch+work)"},
    {"microvm.teardown", "microvm.teardown   VM / memory destruction"},
    {"launch", "bench.harness      checksum check and bookkeeping"},
};

bool Is(const char* a, const char* b) { return std::strcmp(a, b) == 0; }

bool IsCallSpan(const char* name) {
  return Is(name, "microvm.boot") || Is(name, "supervisor.run") || Is(name, "loader.call");
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// The service capacity of the open loop's workers, per second.
double Capacity(const PhaseResult& phase, uint32_t workers) {
  double service_ns = 0;
  for (const OpRecord& r : phase.ops) {
    service_ns += static_cast<double>(r.end_ns - (r.start_ns + r.queue_ns));
  }
  return Ratio(static_cast<double>(workers) * static_cast<double>(phase.ops.size()),
               service_ns / 1e9);
}

}  // namespace

double PercentileOr0(const std::vector<double>& samples, double q, bool* withheld) {
  const std::optional<double> p = Percentile(samples, q);
  if (!p.has_value()) {
    *withheld = true;
  }
  return p.value_or(0.0);
}

double AchievedRate(const PhaseResult& phase) {
  const auto ok = std::count_if(phase.ops.begin(), phase.ops.end(),
                                [](const OpRecord& r) { return r.ok; });
  return Ratio(static_cast<double>(ok), phase.window_s);
}

std::vector<Metric> WallClock(const PhaseResult& phase) {
  std::vector<double> latency_ms;
  for (const OpRecord& r : phase.ops) {
    latency_ms.push_back(Ms(r.latency_ns));
  }
  const size_t n = phase.ops.size();
  bool withheld = false;
  return {
      {"ops_per_s", AchievedRate(phase), "1/s", n},
      {"op_ms.p50", PercentileOr0(latency_ms, 0.5, &withheld), "ms", n},
      {"op_ms.p90", PercentileOr0(latency_ms, 0.9, &withheld), "ms", n},
      {"peak_rss_mib", static_cast<double>(phase.peak_rss_bytes) / kMiB, "MiB", 0},
  };
}

std::string BuildLedger(const Fixture& fixture, const PhaseResult& untraced,
                        const PhaseResult& traced, const std::string& trace_path,
                        std::vector<Metric>* metrics, FILE* out) {
  const Workload workload = fixture.config().workload;
  const bool boots = workload != Workload::kFleetLaunch;
  const std::vector<trace::Event> events = trace::Tracer::Instance().Collect();

  std::map<uint64_t, const OpRecord*> by_index;
  for (const OpRecord& r : traced.ops) {
    by_index[r.index] = &r;
  }
  std::map<uint32_t, std::vector<const trace::Event*>> launches;
  struct InProgram {
    uint64_t count = 0;
    uint64_t total_ns = 0;
  };
  std::map<std::string, InProgram> in_program;
  // MicroVm::Boot acquires the template before the loader runs, so its
  // loader_timings carry no parse time; the template span supplies it.
  std::map<uint32_t, uint64_t> template_ns;
  for (const trace::Event& e : events) {
    if (e.kind != trace::EventKind::kSpan) {
      continue;
    }
    if (Is(e.category, "bench")) {
      launches[e.vm_id].push_back(&e);
    } else {
      InProgram& p = in_program[e.name];
      ++p.count;
      p.total_ns += e.dur_ns;
      if (boots && Is(e.name, "template.get_or_build")) {
        template_ns[e.vm_id] += e.dur_ns;
      }
    }
  }
  const auto parse_ns = [&](const OpRecord& r) {
    const auto it = template_ns.find(static_cast<uint32_t>(r.index));
    return std::max(r.loader.parse_ns, it == template_ns.end() ? uint64_t{0} : it->second);
  };

  // Fold every launch: its benchmark spans plus the stage split Boot() or
  // DirectLoadKernel returned, placed as derived children inside the call
  // span (durations measured by the program, positions back to back).
  std::vector<trace::Event> derived;
  std::map<std::string, uint64_t> self_ns;
  uint64_t launch_ns = 0;
  uint64_t closure_gap_ns = 0;
  size_t folded = 0;
  for (const auto& [vm, spans] : launches) {
    const auto it = by_index.find(vm);
    const trace::Event* root = nullptr;
    const trace::Event* call = nullptr;
    std::vector<FoldSpan> fold;
    for (const trace::Event* e : spans) {
      fold.push_back({e->name, e->ts_ns, e->dur_ns, e->depth});
      root = Is(e->name, "launch") ? e : root;
      call = IsCallSpan(e->name) ? e : call;
    }
    if (it == by_index.end() || root == nullptr || call == nullptr) {
      continue;  // a launch that lost spans to a full ring is not folded
    }
    const OpRecord& r = *it->second;
    const auto add = [&](const char* name, uint64_t start, uint64_t dur, uint16_t depth) {
      if (dur == 0) {
        return;
      }
      trace::Event d = *call;
      d.name = name;
      d.category = "derived";
      d.ts_ns = start;
      d.dur_ns = dur;
      d.depth = depth;
      derived.push_back(d);
      fold.push_back({name, start, dur, depth});
    };
    const auto add_stages = [&](uint64_t at, uint16_t depth) {
      const std::pair<const char*, uint64_t> stages[] = {
          {"loader.parse", parse_ns(r)}, {"loader.choose", r.loader.choose_ns},
          {"loader.map", r.loader.load_ns},    {"loader.fg", r.loader.fg_ns},
          {"loader.reloc", r.loader.reloc_ns}};
      for (const auto& [name, ns] : stages) {
        add(name, at, ns, depth);
        at += ns;
      }
    };
    const auto depth = static_cast<uint16_t>(call->depth + 1);
    if (boots) {
      add("boot.monitor", call->ts_ns, r.monitor_ns, depth);
      add_stages(call->ts_ns, static_cast<uint16_t>(depth + 1));
      add("boot.guest", call->ts_ns + r.monitor_ns, r.guest_ns, depth);
    } else {
      add_stages(call->ts_ns, depth);
    }
    AssignParents(&fold);
    const std::vector<uint64_t> self = SelfTimes(fold);
    uint64_t sum = 0;
    for (size_t i = 0; i < fold.size(); ++i) {
      self_ns[fold[i].name] += self[i];
      sum += self[i];
    }
    launch_ns += root->dur_ns;
    closure_gap_ns += sum > root->dur_ns ? sum - root->dur_ns : root->dur_ns - sum;
    ++folded;
  }

  std::fprintf(out, "\nledger %s: self time per launch over %zu traced launches\n",
               WorkloadName(workload), folded);
  uint64_t rows_ns = 0;
  for (const Row& row : kRows) {
    const auto it = self_ns.find(row.span);
    if (it == self_ns.end()) {
      continue;
    }
    rows_ns += it->second;
    std::fprintf(out, "  %-72s %10.4f ms %6.2f%%\n", row.label,
                 Ms(it->second) / static_cast<double>(folded),
                 100.0 * Ratio(static_cast<double>(it->second), static_cast<double>(launch_ns)));
  }
  std::fprintf(out, "  %-72s %10.4f ms (launch span %.4f ms, closure gap %.6f%%)\n", "sum of rows",
               Ms(rows_ns) / static_cast<double>(std::max<size_t>(folded, 1)),
               Ms(launch_ns) / static_cast<double>(std::max<size_t>(folded, 1)),
               100.0 * Ratio(static_cast<double>(closure_gap_ns), static_cast<double>(launch_ns)));
  std::fprintf(out, "  in-program spans (not summed; they overlap the rows above):\n");
  for (const auto& [name, p] : in_program) {
    std::fprintf(out, "    %-28s %8llu spans %12.3f ms total%s\n", name.c_str(),
                 static_cast<unsigned long long>(p.count), Ms(p.total_ns),
                 name == "blockcache.decode" ? "  [FLAG: sampled 1-in-64, unweighted]" : "");
  }
  if (traced.trace_dropped > 0) {
    std::fprintf(out, "  [FLAG: %llu trace events dropped ring-full]\n",
                 static_cast<unsigned long long>(traced.trace_dropped));
  }

  if (!trace_path.empty()) {
    std::vector<trace::Event> all = events;
    all.insert(all.end(), derived.begin(), derived.end());
    std::ofstream file(trace_path);
    file << trace::ToChromeJson(all);
    std::fprintf(out, "  chrome trace: %s (%zu events)\n", trace_path.c_str(), all.size());
  }

  // ---- per-layer metrics ----
  std::vector<double> guest_ms, call_ms, parse_ms, choose_ms, map_ms, fg_ms, reloc_ms, other_ms,
      create_ms, boot_ms, teardown_ms, unattributed_ms;
  double instructions = 0, guest_ns = 0, block_hits = 0, block_misses = 0, invalidations = 0,
         shared = 0, private_blocks = 0, modeled_io_ms = 0, dirty_frac = 0, mapped_shared = 0,
         load_dirty = 0, fg_dirty = 0, reloc_dirty = 0, attempts = 0, retried = 0,
         watchdog = 0;
  size_t n = 0;
  for (const OpRecord& r : traced.ops) {
    attempts += r.attempts;
    retried += r.attempts > 1 ? 1 : 0;
    watchdog += r.watchdog_trips;
    if (!r.ok) {
      continue;
    }
    ++n;
    imk::LoaderTimings t = r.loader;
    t.parse_ns = parse_ns(r);
    const uint64_t in_monitor = boots ? r.monitor_ns : r.call_ns;
    call_ms.push_back(Ms(in_monitor));
    parse_ms.push_back(Ms(t.parse_ns));
    choose_ms.push_back(Ms(t.choose_ns));
    map_ms.push_back(Ms(t.load_ns));
    fg_ms.push_back(Ms(t.fg_ns));
    reloc_ms.push_back(Ms(t.reloc_ns));
    other_ms.push_back(Ms(in_monitor > t.total() ? in_monitor - t.total() : 0));
    create_ms.push_back(Ms(r.create_ns));
    teardown_ms.push_back(Ms(r.teardown_ns));
    if (boots) {
      guest_ms.push_back(Ms(r.guest_ns));
      boot_ms.push_back(Ms(r.call_ns));
      const uint64_t timeline = r.monitor_ns + r.guest_ns;
      unattributed_ms.push_back(Ms(r.call_ns > timeline ? r.call_ns - timeline : 0));
    }
    instructions += static_cast<double>(r.guest.instructions);
    guest_ns += static_cast<double>(r.guest_ns);
    block_hits += static_cast<double>(r.guest.block_cache_hits);
    block_misses += static_cast<double>(r.guest.block_cache_misses);
    invalidations += static_cast<double>(r.guest.block_cache_invalidations);
    shared += static_cast<double>(r.guest.blocks_shared);
    private_blocks += static_cast<double>(r.guest.blocks_private);
    modeled_io_ms += Ms(r.modeled_io_ns);
    dirty_frac += Ratio(static_cast<double>(r.image_dirty_frames),
                        static_cast<double>(r.mem.image_frames));
    mapped_shared += static_cast<double>(r.mem.mapped_shared_frames);
    load_dirty += static_cast<double>(r.mem.load_dirty_frames);
    fg_dirty += static_cast<double>(r.mem.fg_dirty_frames);
    reloc_dirty += static_cast<double>(r.mem.reloc_dirty_frames);
  }
  const double per = static_cast<double>(std::max<size_t>(n, 1));
  const double ops = static_cast<double>(std::max<size_t>(traced.ops.size(), 1));
  const LayerCounters& b = traced.before;
  const LayerCounters& a = traced.after;
  const auto delta = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  bool withheld = false;
  const auto p50 = [&](const std::vector<double>& v) {
    return v.empty() ? 0.0 : PercentileOr0(v, 0.5, &withheld);
  };
  const double pool_grabs = delta(a.pool.hits, b.pool.hits) + delta(a.pool.misses, b.pool.misses);
  std::vector<double> queue_ms;
  for (const OpRecord& r : untraced.ops) {
    queue_ms.push_back(Ms(r.queue_ns));
  }
  const bool open_loop = workload == Workload::kChurn;
  const uint32_t workers = fixture.config().workers();
  const double untraced_rate = Capacity(untraced, workers);
  // Process CPU per completed operation at reference speed: the two windows
  // may have run at different host speeds.
  const auto cpu_per_ok = [](const PhaseResult& phase) {
    const auto ok = std::count_if(phase.ops.begin(), phase.ops.end(),
                                  [](const OpRecord& r) { return r.ok; });
    return AtReference(Ratio(phase.cpu_s, static_cast<double>(ok)),
                       MedianProbeMs(phase.probe_ns));
  };
  const std::vector<Metric> wall = WallClock(untraced);
  const auto& cat = a.governor.categories;
  const auto peak_mib = [&](imk::MemCategory c) {
    return static_cast<double>(cat[static_cast<size_t>(c)].high_water_bytes) / kMiB;
  };

  const std::vector<Metric> layer = {
      {"guest.run_ms.p50", p50(guest_ms), "ms", guest_ms.size()},
      {"guest.instructions", instructions / per, "count", n},
      {"guest.mips", Ratio(instructions * 1e3, guest_ns), "Minstr/s", n},
      {"guest.block_hits", block_hits / per, "count", n},
      {"guest.block_misses", block_misses / per, "count", n},
      {"guest.block_miss_rate", Ratio(block_misses, block_hits + block_misses), "fraction", n},
      {"guest.invalidations", invalidations / per, "count", n},
      {"guest.share_rate", Ratio(shared, shared + private_blocks), "fraction", n},
      {"decode_tier.hits", delta(a.decode.hits, b.decode.hits), "count", 0},
      {"decode_tier.misses", delta(a.decode.misses, b.decode.misses), "count", 0},
      {"decode_tier.resident_blocks", static_cast<double>(a.decode.blocks), "count", 0},
      {"loader.call_ms.p50", p50(call_ms), "ms", call_ms.size()},
      {"loader.parse_ms.p50", p50(parse_ms), "ms", parse_ms.size()},
      {"loader.choose_ms.p50", p50(choose_ms), "ms", choose_ms.size()},
      {"loader.map_ms.p50", p50(map_ms), "ms", map_ms.size()},
      {"loader.fg_ms.p50", p50(fg_ms), "ms", fg_ms.size()},
      {"loader.reloc_ms.p50", p50(reloc_ms), "ms", reloc_ms.size()},
      {"loader.other_ms.p50", p50(other_ms), "ms", other_ms.size()},
      {"template.hits", delta(a.template_hits, b.template_hits), "count", 0},
      {"template.misses", delta(a.template_misses, b.template_misses), "count", 0},
      {"template.quarantined", delta(a.template_quarantined, b.template_quarantined), "count", 0},
      {"storage.modeled_io_ms", modeled_io_ms / per, "ms", n},
      {"microvm.create_ms.p50", p50(create_ms), "ms", create_ms.size()},
      {"microvm.boot_ms.p50", p50(boot_ms), "ms", boot_ms.size()},
      {"microvm.teardown_ms.p50", p50(teardown_ms), "ms", teardown_ms.size()},
      {"microvm.unattributed_ms.p50", p50(unattributed_ms), "ms", unattributed_ms.size()},
      {"cow.image_dirty_frac", dirty_frac / per, "fraction", n},
      {"cow.mapped_shared_frames", mapped_shared / per, "count", n},
      {"cow.load_dirty_frames", load_dirty / per, "count", n},
      {"cow.fg_dirty_frames", fg_dirty / per, "count", n},
      {"cow.reloc_dirty_frames", reloc_dirty / per, "count", n},
      {"pool.hit_rate", Ratio(delta(a.pool.hits, b.pool.hits), pool_grabs), "fraction",
       static_cast<size_t>(pool_grabs)},
      {"pool.grabs", pool_grabs, "count", 0},
      {"pool.renders", delta(a.pool.rendered, b.pool.rendered), "count", 0},
      {"pool.shed", delta(a.pool.shed, b.pool.shed), "count", 0},
      {"pool.quarantined", delta(a.pool.quarantined, b.pool.quarantined), "count", 0},
      {"pool.refill_errors", delta(a.pool.refill_errors, b.pool.refill_errors), "count", 0},
      {"governor.reclaim_runs", delta(a.governor.reclaim_runs, b.governor.reclaim_runs), "count",
       0},
      {"governor.reclaimed_mib",
       delta(a.governor.reclaimed_bytes, b.governor.reclaimed_bytes) / kMiB, "MiB", 0},
      {"governor.tier_sheds", delta(a.governor.tier_sheds, b.governor.tier_sheds), "count", 0},
      {"governor.admit_waits", delta(a.governor.admit_waits, b.governor.admit_waits), "count", 0},
      {"governor.admit_rejects", delta(a.governor.admit_rejects, b.governor.admit_rejects),
       "count", 0},
      {"governor.peak_mib.guest_frames", peak_mib(imk::MemCategory::kGuestFrames), "MiB", 0},
      {"governor.peak_mib.template_images", peak_mib(imk::MemCategory::kTemplateImages), "MiB",
       0},
      {"governor.peak_mib.layout_renders", peak_mib(imk::MemCategory::kLayoutRenders), "MiB", 0},
      {"governor.peak_mib.decode_tables", peak_mib(imk::MemCategory::kDecodeTables), "MiB", 0},
      {"supervisor.attempts_per_boot", open_loop ? attempts / ops : 0.0, "count",
       traced.ops.size()},
      {"supervisor.retried", retried, "count", 0},
      {"supervisor.watchdog_trips", watchdog, "count", 0},
      {"wall.ops_per_s", wall[0].value, wall[0].unit, wall[0].samples},
      {"wall.op_ms.p50", wall[1].value, wall[1].unit, wall[1].samples},
      {"wall.op_ms.p90", wall[2].value, wall[2].unit, wall[2].samples},
      {"proc.peak_rss_mib", wall[3].value, wall[3].unit, wall[3].samples},
      {"bench.probe_ms", MedianProbeMs(untraced.probe_ns), "ms", untraced.probe_ns.size()},
      {"bench.queue_ms.p50", open_loop ? PercentileOr0(queue_ms, 0.5, &withheld) : 0.0, "ms",
       queue_ms.size()},
      {"bench.queue_ms.p90", open_loop ? PercentileOr0(queue_ms, 0.9, &withheld) : 0.0, "ms",
       queue_ms.size()},
      {"bench.gen_lag_ms.p90",
       open_loop ? PercentileOr0(untraced.gen_lag_ms, 0.9, &withheld) : 0.0, "ms",
       untraced.gen_lag_ms.size()},
      {"bench.trace_overhead_pct", 100.0 * (Ratio(cpu_per_ok(traced), cpu_per_ok(untraced)) - 1),
       "%", traced.ops.size()},
      {"bench.utilization", open_loop ? Ratio(fixture.config().churn_rate, untraced_rate) : 0.0,
       "fraction", untraced.ops.size()},
      {"trace.dropped_events", static_cast<double>(traced.trace_dropped), "count", 0},
  };
  metrics->insert(metrics->end(), layer.begin(), layer.end());
  if (withheld) {
    std::fprintf(out, "  note: a percentile with fewer than %zu samples beyond it reads 0\n",
                 kMinBeyondTail);
  }
  if (folded == 0 || 1000 * closure_gap_ns > launch_ns) {
    return "ledger does not close: self times differ from the launch spans by " +
           std::to_string(closure_gap_ns) + " ns over " + std::to_string(folded) + " launches";
  }
  return "";
}

}  // namespace imkbench
