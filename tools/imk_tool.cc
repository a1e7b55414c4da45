// imk_tool — developer CLI over the imkaslr public API.
//
// Subcommands:
//   build    --profile=aws --rando=kaslr --scale=0.1 --out=DIR
//            Builds a kernel; writes vmlinux, vmlinux.relocs, and bzImages.
//   readelf  FILE
//            Summarizes an ELF image (headers, segments, sections, notes).
//   disasm   FILE [--section=NAME] [--max=N]
//            Disassembles a kernel's text section(s).
//   relocs   FILE
//            Summarizes a vmlinux.relocs blob.
//   boot     --kernel=FILE [--relocs=FILE] [--threads=N] [--seed=N]
//            [LAUNCH FLAGS] [--trace=FILE] [--metrics]
//            Boots the image with in-monitor randomization and reports the
//            layout and timeline. --threads=N shards the randomization
//            pipeline over N lanes (0 = hardware concurrency; results are
//            bit-identical for every N). --rando defaults to none.
//            --trace=FILE records imktrace spans (loader stages, relocation,
//            pool grabs, supervisor rungs, governor ladder runs) and writes
//            Chrome trace_event JSON — open it in chrome://tracing or
//            https://ui.perfetto.dev; --metrics prints the process-wide
//            metrics registry in Prometheus text exposition after the run.
//            Both flags also apply to `storm`; a traced boot stays
//            bit-identical to an untraced one.
//   storm    --kernel=FILE [--relocs=FILE] [--vms=16] [--threads=4]
//            [--churn=K] [LAUNCH FLAGS] [--trace=FILE] [--metrics]
//            Boot-storm fleet drill: boots --vms microVMs of the image across
//            --threads workers sharing one image-template cache, and reports
//            warm throughput, per-boot latency, and the per-VM resident
//            (privately materialized) memory vs frames still aliased
//            zero-copy to the shared kernel template. VM i boots with seed
//            --seed + i (--seed defaults to 1, --rando to kaslr). Supervised
//            storms add per-outcome tallies: first-try / retried / degraded
//            / failed, watchdog trips, and template-cache quarantines. A
//            --layout-pool storm shares one pool across every measured
//            launch and reports pool hit/miss tallies. The block engine
//            shares one storm-wide decode cache, and the report breaks
//            blocks into shared vs privately decoded (the decode-cache
//            analogue of the page-sharing census). --churn=K
//            launches-and-halts each VM slot K times (vms*K measured launches
//            against the same shared caches — the long-running-host lane).
//
//   LAUNCH FLAGS, read by one parser for boot, storm and racecheck (whose
//            lanes set their own --rando, --mem, --layout-pool,
//            --no-block-cache and --mem-budget):
//            [--rando=none|kaslr|fgkaslr] [--mem=256] [--seed=N]
//            [--no-template-cache] [--no-block-cache]
//            [--layout-pool=N] [--pool-refill=N]
//            [--mem-budget=MIB] [--mem-soft-pct=F] [--admit-wait-ms=N]
//            [--faults=SPEC] [--fault-seed=N] [--max-retries=N]
//            [--watchdog-ms=N] [--watchdog-insns=N] [--degrade=strict|ladder]
//            --seed=N fixes the randomization seed (0 = host entropy), so a
//            seeded boot lays out the same way every run, supervised or not.
//            --no-template-cache re-parses the ELF on every boot instead of
//            reusing the image template; --no-block-cache runs the legacy
//            per-instruction interpreter instead of the predecoded block
//            engine. Supervision flags route each boot through the
//            BootSupervisor: --faults arms the seeded fault injector
//            (grammar in src/base/fault_injection.h, e.g.
//            "loader.reloc:error:n=1;vcpu.enter:delay:us=50000"),
//            --watchdog-ms/--watchdog-insns bound each attempt, --max-retries
//            bounds attempts per ladder rung, and --degrade picks whether a
//            failing randomization level may fall back (fgkaslr -> kaslr ->
//            nokaslr) or must fail (strict). --layout-pool=N launches through
//            an ahead-of-time randomized layout pool of depth N (a pool hit
//            maps a pre-rendered image; a drained pool falls back inline;
//            under supervision the ladder becomes pool-hit -> inline ->
//            lower modes); --pool-refill sets the background batch size.
//            --mem-budget=MIB runs under a fleet MemGovernor with that hard
//            watermark: guest frames are byte-accounted, the soft watermark
//            (--mem-soft-pct, a fraction of the budget, default 0.75)
//            triggers pressure-tiered cache reclamation (layout pool ->
//            decode tables -> template images), the hard watermark gates
//            admission (--admit-wait-ms bounded wait; a storm launch still
//            over budget is tallied rejected-mem), supervised boots gain the
//            caches-off pressure rung, and the report adds per-category
//            current/peak resident bytes plus reclaim/admission counters.
//   verify   --kernel=FILE [--relocs=FILE] [--rando=kaslr] [--seed=N]
//            [--mem=256] [--threads=N] [--json] [--corrupt=MODE]
//            Randomizes the image in-monitor (no guest execution), then runs
//            the static KASLR-correctness analyzer over the result. Exits 0
//            on a clean report, 1 on findings. --corrupt injects one fault
//            first (skip-abs64 | double-inverse32 | overlap-section |
//            stale-pointer) to demonstrate detection.
//   verify --uniqueness [--vms=16] [--threads=4] [--scale=0.02]
//            [--layout-pool=N] [--seed=N] [--json]
//            Cross-VM layout uniqueness audit: builds a synthetic fgkaslr
//            kernel in-process, runs a pooled launch-only storm of --vms
//            VMs (pool depth defaults to --vms), and checks that no two VMs
//            share a (slide, FG permutation digest) layout — the ASLR
//            property the pool's one-shot handout guarantees. Exits 0 iff
//            every layout is unique.
//   racecheck [--vms=16] [--threads=4] [--scale=0.02] [--load-threads=N]
//            [--json] [--drill=order|lockset]
//            Concurrency audit (DESIGN.md §11): builds a synthetic kernel
//            in-process and runs an instrumented boot storm over kaslr,
//            fgkaslr, pooled-fgkaslr, kaslr-blockcache, and a governed churn
//            lane (the pooled lane exercises the LayoutPool's refill/grab
//            concurrency, the blockcache lane the SharedBlockCache's
//            cross-VM decode map, the churn lane a tight-budget MemGovernor
//            reclaiming every cache tier mid-storm — all under the lock-rank
//            auditor), reporting rank inversions,
//            lock-order cycles,
//            unranked locks, and Eraser-style lockset violations. Exits 0
//            on a clean report. Meaningful detection needs a build with
//            -DIMK_RACE_AUDIT=ON (otherwise the wrappers are passthrough
//            and the report says so). --drill skips the storm and fires a
//            seeded known-bad pattern instead, exiting 0 iff the detector
//            caught it — the self-test CI runs.
//
// boot and storm also accept --race-audit to wrap the run in the same
// audit window and append its report (exit 1 if it has findings).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/elf/elf_note.h"
#include "src/elf/elf_reader.h"
#include "src/elf/elf_types.h"
#include "src/isa/disassembler.h"
#include "src/kernel/bzimage.h"
#include "src/kernel/kernel_builder.h"
#include "src/base/fault_injection.h"
#include "src/race/drill.h"
#include "src/race/tracker.h"
#include "src/trace/export.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/verify/image_verifier.h"
#include "src/vmm/boot_storm.h"
#include "src/vmm/boot_supervisor.h"
#include "src/vmm/loader.h"
#include "src/vmm/microvm.h"

namespace {

using imk::Bytes;
using imk::ByteSpan;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "imk_tool: %s\n", message.c_str());
  std::exit(1);
}

Bytes ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    Die("cannot open " + path);
  }
  return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, ByteSpan data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    Die("cannot write " + path);
  }
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

// Minimal --key=value parser.
class Args {
 public:
  Args(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) == 0) {
        const char* eq = std::strchr(arg, '=');
        if (eq != nullptr) {
          values_[std::string(arg + 2, eq)] = eq + 1;
        } else {
          values_[arg + 2] = "1";
        }
      } else {
        positional_.push_back(arg);
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  const std::vector<std::string>& positional() const { return positional_; }
  // Overrides one flag ("" reads as absent).
  void Set(const std::string& key, const std::string& value) { values_[key] = value; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

imk::KernelProfile ParseProfile(const std::string& name) {
  if (name == "lupine") {
    return imk::KernelProfile::kLupine;
  }
  if (name == "aws") {
    return imk::KernelProfile::kAws;
  }
  if (name == "ubuntu") {
    return imk::KernelProfile::kUbuntu;
  }
  Die("unknown profile: " + name);
}

imk::RandoMode ParseRando(const std::string& name) {
  if (name == "nokaslr" || name == "none") {
    return imk::RandoMode::kNone;
  }
  if (name == "kaslr") {
    return imk::RandoMode::kKaslr;
  }
  if (name == "fgkaslr") {
    return imk::RandoMode::kFgKaslr;
  }
  Die("unknown randomization mode: " + name);
}

// What every VM of a boot, storm or racecheck lane is launched with.
struct LaunchSpec {
  imk::MicroVmConfig vm;
  imk::SupervisorOptions supervisor;
  bool supervise = false;  // a supervision flag was given
  // Set by --mem-budget; vm.mem_governor points here. Declare the spec
  // before any VM or storm so the governor outlives everything charged to it.
  std::unique_ptr<imk::MemGovernor> governor;
};

// The one parse of the LAUNCH FLAGS (header comment). `base` carries the
// subcommand's defaults for --rando, --mem and the load-lane count, which
// `load_threads_flag` names (nullptr: the subcommand has no such flag).
// --faults also arms the process-wide fault injector.
LaunchSpec ParseLaunchSpec(const Args& args, const imk::MicroVmConfig& base,
                           const char* load_threads_flag) {
  LaunchSpec spec;
  imk::MicroVmConfig& vm = spec.vm;
  vm = base;
  vm.rando = ParseRando(args.Get("rando", imk::RandoModeName(base.rando)));
  vm.mem_size_bytes =
      static_cast<uint64_t>(args.GetDouble("mem", static_cast<double>(base.mem_size_bytes >> 20)))
      << 20;
  vm.seed = static_cast<uint64_t>(args.GetDouble("seed", 0));
  if (load_threads_flag != nullptr) {
    vm.load_threads = static_cast<uint32_t>(args.GetDouble(load_threads_flag, base.load_threads));
  }
  vm.use_template_cache = args.Get("no-template-cache").empty();
  vm.use_block_cache = args.Get("no-block-cache").empty();
  vm.layout_pool_depth = static_cast<uint32_t>(args.GetDouble("layout-pool", 0));
  vm.layout_pool_refill_batch = static_cast<uint32_t>(args.GetDouble("pool-refill", 2));
  const uint64_t mem_budget = static_cast<uint64_t>(args.GetDouble("mem-budget", 0)) << 20;
  if (mem_budget > 0) {
    imk::MemGovernorOptions governor_options;
    governor_options.budget_bytes = mem_budget;
    governor_options.soft_pct = args.GetDouble("mem-soft-pct", 0.75);
    spec.governor = std::make_unique<imk::MemGovernor>(governor_options);
    vm.mem_governor = spec.governor.get();
  }

  imk::SupervisorOptions& sup = spec.supervisor;
  sup.max_retries = static_cast<uint32_t>(args.GetDouble("max-retries", 2));
  sup.watchdog_wall_ms = static_cast<uint64_t>(args.GetDouble("watchdog-ms", 0));
  sup.watchdog_instructions = static_cast<uint64_t>(args.GetDouble("watchdog-insns", 0));
  sup.admit_wait_ms = static_cast<uint64_t>(args.GetDouble("admit-wait-ms", 50));
  auto policy = imk::ParseDegradePolicy(args.Get("degrade", "ladder"));
  if (!policy.ok()) {
    Die(policy.status().ToString());
  }
  sup.policy = *policy;
  const std::string faults = args.Get("faults");
  spec.supervise = !faults.empty() || !args.Get("max-retries").empty() ||
                   !args.Get("watchdog-ms").empty() || !args.Get("watchdog-insns").empty() ||
                   !args.Get("degrade").empty();
  if (!faults.empty()) {
    const uint64_t fault_seed = static_cast<uint64_t>(args.GetDouble("fault-seed", 1));
    auto plan = imk::FaultPlan::Parse(faults, fault_seed);
    if (!plan.ok()) {
      Die(plan.status().ToString());
    }
    imk::FaultInjector::Instance().Arm(std::move(*plan));
    std::printf("faults armed (seed %llu): %s\n", static_cast<unsigned long long>(fault_seed),
                faults.c_str());
  }
  return spec;
}

void PrintMemStats(const imk::MemGovernor::Stats& mem) {
  std::printf("memory: %llu / %llu bytes resident (peak %llu; soft %llu, hard %llu)\n",
              static_cast<unsigned long long>(mem.current_total_bytes),
              static_cast<unsigned long long>(mem.budget_bytes),
              static_cast<unsigned long long>(mem.high_water_total_bytes),
              static_cast<unsigned long long>(mem.soft_watermark_bytes),
              static_cast<unsigned long long>(mem.hard_watermark_bytes));
  for (size_t c = 0; c < imk::kMemCategoryCount; ++c) {
    std::printf("  %-16s %10s resident, %10s peak\n",
                imk::MemCategoryName(static_cast<imk::MemCategory>(c)),
                imk::HumanSize(mem.categories[c].current_bytes).c_str(),
                imk::HumanSize(mem.categories[c].high_water_bytes).c_str());
  }
  std::printf(
      "  reclaim: %llu runs shed %s over %llu tiers; admission: %llu ok (%llu waited), "
      "%llu rejected%s\n",
      static_cast<unsigned long long>(mem.reclaim_runs),
      imk::HumanSize(mem.reclaimed_bytes).c_str(),
      static_cast<unsigned long long>(mem.tier_sheds),
      static_cast<unsigned long long>(mem.admits),
      static_cast<unsigned long long>(mem.admit_waits),
      static_cast<unsigned long long>(mem.admit_rejects),
      mem.under_pressure ? " [STILL UNDER PRESSURE]" : "");
}

int CmdBuild(const Args& args) {
  const std::string out_dir = args.Get("out", ".");
  imk::KernelConfig config = imk::KernelConfig::Make(
      ParseProfile(args.Get("profile", "aws")), ParseRando(args.Get("rando", "kaslr")),
      args.GetDouble("scale", 0.1));
  auto info = imk::BuildKernel(config);
  if (!info.ok()) {
    Die(info.status().ToString());
  }
  const std::string base = out_dir + "/" + config.Name();
  WriteFile(base + ".vmlinux", ByteSpan(info->vmlinux));
  std::printf("wrote %s.vmlinux (%s, %zu functions, entry 0x%llx)\n", base.c_str(),
              imk::HumanSize(info->vmlinux.size()).c_str(), info->functions.size(),
              static_cast<unsigned long long>(info->entry_vaddr));
  if (!info->relocs.empty()) {
    Bytes blob = imk::SerializeRelocs(info->relocs);
    WriteFile(base + ".relocs", ByteSpan(blob));
    std::printf("wrote %s.relocs (%zu entries, %s)\n", base.c_str(), info->relocs.total(),
                imk::HumanSize(blob.size()).c_str());
  }
  for (const char* codec : {"none", "lz4"}) {
    auto image =
        imk::BuildBzImage(ByteSpan(info->vmlinux), info->relocs, codec,
                          imk::LoaderKind::kStandard);
    if (!image.ok()) {
      Die(image.status().ToString());
    }
    Bytes blob = imk::SerializeBzImage(*image);
    WriteFile(base + ".bzimage-" + codec, ByteSpan(blob));
    std::printf("wrote %s.bzimage-%s (%s)\n", base.c_str(), codec,
                imk::HumanSize(blob.size()).c_str());
  }
  return 0;
}

int CmdReadElf(const Args& args) {
  if (args.positional().empty()) {
    Die("readelf: missing file");
  }
  Bytes image = ReadFile(args.positional()[0]);
  auto elf = imk::ElfReader::Parse(ByteSpan(image));
  if (!elf.ok()) {
    Die(elf.status().ToString());
  }
  std::printf("machine 0x%x, entry 0x%llx, %zu segments, %zu sections\n", elf->machine(),
              static_cast<unsigned long long>(elf->entry()), elf->program_headers().size(),
              elf->sections().size());
  std::printf("\nsegments:\n");
  for (const auto& phdr : elf->program_headers()) {
    std::printf("  type %u flags %u vaddr 0x%llx paddr 0x%llx filesz %s memsz %s\n", phdr.p_type,
                phdr.p_flags, static_cast<unsigned long long>(phdr.p_vaddr),
                static_cast<unsigned long long>(phdr.p_paddr),
                imk::HumanSize(phdr.p_filesz).c_str(), imk::HumanSize(phdr.p_memsz).c_str());
  }
  std::printf("\nsections (first 20):\n");
  size_t shown = 0;
  size_t fn_sections = 0;
  for (const auto& section : elf->sections()) {
    if (section.name.rfind(".text.fn_", 0) == 0) {
      ++fn_sections;
      continue;
    }
    if (shown++ < 20) {
      std::printf("  %-16s type %u addr 0x%llx size %s\n", section.name.c_str(),
                  section.header.sh_type, static_cast<unsigned long long>(section.header.sh_addr),
                  imk::HumanSize(section.header.sh_size).c_str());
    }
  }
  if (fn_sections > 0) {
    std::printf("  ... plus %zu .text.fn_* function sections (fgkaslr build)\n", fn_sections);
  }
  for (const auto& section : elf->sections()) {
    if (section.header.sh_type != imk::kShtNote) {
      continue;
    }
    auto data = elf->SectionData(section);
    auto notes = imk::ParseNoteSection(*data);
    if (notes.ok()) {
      std::printf("\nnotes:\n");
      for (const auto& note : *notes) {
        std::printf("  %s type 0x%x (%zu bytes)\n", note.name.c_str(), note.type,
                    note.desc.size());
      }
      if (auto constants = imk::FindKernelConstants(*notes)) {
        std::printf("  kernel constants: phys_start 0x%llx align 0x%llx map 0x%llx max %s\n",
                    static_cast<unsigned long long>(constants->physical_start),
                    static_cast<unsigned long long>(constants->physical_align),
                    static_cast<unsigned long long>(constants->start_kernel_map),
                    imk::HumanSize(constants->kernel_image_size).c_str());
      }
    }
  }
  return 0;
}

int CmdDisasm(const Args& args) {
  if (args.positional().empty()) {
    Die("disasm: missing file");
  }
  Bytes image = ReadFile(args.positional()[0]);
  auto elf = imk::ElfReader::Parse(ByteSpan(image));
  if (!elf.ok()) {
    Die(elf.status().ToString());
  }
  const std::string wanted = args.Get("section", ".text");
  const size_t max_insns = static_cast<size_t>(args.GetDouble("max", 40));
  auto section = elf->FindSection(wanted);
  if (!section.ok()) {
    Die(section.status().ToString());
  }
  auto data = elf->SectionData(**section);
  if (!data.ok()) {
    Die(data.status().ToString());
  }
  auto insns = imk::Disassemble(*data, (*section)->header.sh_addr);
  if (!insns.ok()) {
    Die(insns.status().ToString());
  }
  for (size_t i = 0; i < insns->size() && i < max_insns; ++i) {
    std::printf("%016llx  %s\n", static_cast<unsigned long long>((*insns)[i].vaddr),
                (*insns)[i].text.c_str());
  }
  if (insns->size() > max_insns) {
    std::printf("... %zu more instructions\n", insns->size() - max_insns);
  }
  return 0;
}

int CmdRelocs(const Args& args) {
  if (args.positional().empty()) {
    Die("relocs: missing file (a vmlinux.relocs blob, or an ELF with --extract)");
  }
  Bytes blob = ReadFile(args.positional()[0]);
  imk::Result<imk::RelocInfo> relocs = imk::ParseRelocs(ByteSpan(blob));
  if (!args.Get("extract").empty()) {
    // The `relocs` tool flow of Figure 8: derive the blob from the ELF.
    auto elf = imk::ElfReader::Parse(ByteSpan(blob));
    if (!elf.ok()) {
      Die(elf.status().ToString());
    }
    relocs = imk::ExtractRelocsFromElf(*elf);
    if (relocs.ok() && !args.Get("out").empty()) {
      imk::Bytes serialized = imk::SerializeRelocs(*relocs);
      WriteFile(args.Get("out"), ByteSpan(serialized));
      std::printf("wrote %s (%s)\n", args.Get("out").c_str(),
                  imk::HumanSize(serialized.size()).c_str());
    }
  }
  if (!relocs.ok()) {
    Die(relocs.status().ToString());
  }
  std::printf("%zu relocations: %zu abs64, %zu abs32, %zu inverse32\n", relocs->total(),
              relocs->abs64.size(), relocs->abs32.size(), relocs->inverse32.size());
  if (!relocs->abs64.empty()) {
    std::printf("abs64 range: 0x%llx .. 0x%llx\n",
                static_cast<unsigned long long>(relocs->abs64.front()),
                static_cast<unsigned long long>(relocs->abs64.back()));
  }
  return 0;
}

// --race-audit support: opens an audit window for the command's duration;
// FinishAudit prints the report and forces a failing exit on findings.
void MaybeBeginAudit(const Args& args, std::optional<imk::race::AuditScope>& audit) {
  if (!args.Get("race-audit").empty()) {
    if (!imk::race::AuditCompiledIn()) {
      std::fprintf(stderr,
                   "warning: --race-audit on a build without IMK_RACE_AUDIT; lock wrappers "
                   "are passthrough and only drills can be observed\n");
    }
    audit.emplace();
  }
}

int FinishAudit(std::optional<imk::race::AuditScope>& audit, bool json, int rc) {
  if (!audit.has_value()) {
    return rc;
  }
  const imk::race::RaceReport& report = audit->Finish();
  std::printf("%s\n", json ? report.ToJson().c_str() : report.ToString().c_str());
  return report.clean() ? rc : 1;
}

// --trace=FILE / --metrics plumbing, shared by boot and storm. Tracing is
// started before the measured work and exported after; ring memory is
// charged to the governor's trace_buffers category when one is active.
void MaybeStartTrace(const Args& args, imk::MemGovernor* governor) {
  if (args.Get("trace").empty()) {
    return;
  }
  imk::trace::TracerOptions options;
  if (governor != nullptr) {
    options.accountant = governor->shared_accountant(imk::MemCategory::kTraceBuffers);
  }
  imk::trace::Tracer::Instance().Start(options);
}

// Stops the tracer, appends `extra` (timeline bridge events), and writes
// Chrome trace_event JSON to the --trace path. Load the file in
// chrome://tracing or https://ui.perfetto.dev.
void MaybeFinishTrace(const Args& args, std::vector<imk::trace::Event> extra) {
  const std::string path = args.Get("trace");
  if (path.empty()) {
    return;
  }
  imk::trace::Tracer& tracer = imk::trace::Tracer::Instance();
  tracer.Stop();
  std::vector<imk::trace::Event> events = tracer.Collect();
  events.insert(events.end(), extra.begin(), extra.end());
  const std::string json = imk::trace::ToChromeJson(events);
  WriteFile(path, ByteSpan(reinterpret_cast<const uint8_t*>(json.data()), json.size()));
  auto& registry = imk::trace::MetricsRegistry::Global();
  registry.counter("imk_trace_events_total", "trace events exported")->Inc(events.size());
  registry.counter("imk_trace_dropped_total", "trace events dropped ring-full")
      ->Inc(tracer.dropped());
  std::printf("trace: %zu events from %zu threads (%llu dropped) -> %s\n", events.size(),
              tracer.thread_count(), static_cast<unsigned long long>(tracer.dropped()),
              path.c_str());
}

void MaybePrintMetrics(const Args& args) {
  if (args.Get("metrics").empty()) {
    return;
  }
  std::printf("%s", imk::trace::MetricsRegistry::Global().PrometheusText().c_str());
}

int CmdBoot(const Args& args) {
  const std::string kernel_path = args.Get("kernel");
  if (kernel_path.empty()) {
    Die("boot: --kernel=FILE required");
  }
  std::optional<imk::race::AuditScope> audit;
  MaybeBeginAudit(args, audit);
  const bool json = !args.Get("json").empty();
  // Declared before the VM/supervisor below so its governor outlives them:
  // the VM's frame accounting releases into the governor at teardown.
  LaunchSpec spec = ParseLaunchSpec(args, imk::MicroVmConfig{}, "threads");
  imk::MicroVmConfig& config = spec.vm;
  imk::Storage storage;
  Bytes kernel = ReadFile(kernel_path);
  // Auto-detect bzImage vs vmlinux by magic.
  config.boot_mode =
      (kernel.size() > 8 && kernel[0] == 0x49 && kernel[1] == 0x4d && kernel[2] == 0x4b)
          ? imk::BootMode::kBzImage
          : imk::BootMode::kDirect;
  storage.Put("kernel", std::move(kernel));
  config.kernel_image = "kernel";
  const std::string relocs_path = args.Get("relocs");
  if (!relocs_path.empty()) {
    storage.Put("relocs", ReadFile(relocs_path));
    config.relocs_image = "relocs";
  }
  MaybeStartTrace(args, spec.governor.get());
  if (spec.supervise) {
    imk::BootSupervisor supervisor(storage, config, spec.supervisor);
    imk::BootOutcome outcome = supervisor.Run();
    std::printf("%s\n", outcome.ToString().c_str());
    if (spec.governor != nullptr) {
      PrintMemStats(spec.governor->stats());
    }
    imk::FaultInjector::Instance().Disarm();
    MaybeFinishTrace(args, outcome.report.has_value()
                               ? imk::TimelineToTraceEvents(outcome.report->timeline, 0,
                                                            imk::trace::kNoVmId)
                               : std::vector<imk::trace::Event>{});
    MaybePrintMetrics(args);
    return FinishAudit(audit, json, outcome.ok ? 0 : 1);
  }
  imk::MicroVm vm(storage, config);
  auto report = vm.Boot();
  if (!report.ok()) {
    Die(report.status().ToString());
  }
  std::printf("boot %s: %s\n", report->init_done ? "OK" : "INCOMPLETE",
              report->timeline.ToString().c_str());
  std::printf("virt slide +0x%llx, phys load 0x%llx, %llu relocations, %u sections shuffled\n",
              static_cast<unsigned long long>(report->choice.virt_slide),
              static_cast<unsigned long long>(report->choice.phys_load_addr),
              static_cast<unsigned long long>(report->reloc_stats.total()),
              report->sections_shuffled);
  if (config.layout_pool_depth > 0) {
    std::printf("layout pool: %s\n",
                report->layout_pool_hit ? "HIT (pre-rendered layout mapped)"
                                        : "miss (inline randomization)");
  }
  std::printf("guest checksum 0x%llx over %llu instructions\n",
              static_cast<unsigned long long>(report->init_checksum),
              static_cast<unsigned long long>(report->guest_stats.instructions));
  if (config.use_block_cache) {
    std::printf("block cache: %llu hits / %llu misses / %llu invalidations, "
                "%llu shared / %llu private blocks\n",
                static_cast<unsigned long long>(report->guest_stats.block_cache_hits),
                static_cast<unsigned long long>(report->guest_stats.block_cache_misses),
                static_cast<unsigned long long>(report->guest_stats.block_cache_invalidations),
                static_cast<unsigned long long>(report->guest_stats.blocks_shared),
                static_cast<unsigned long long>(report->guest_stats.blocks_private));
  }
  if (spec.governor != nullptr) {
    PrintMemStats(spec.governor->stats());
  }
  MaybeFinishTrace(args, imk::TimelineToTraceEvents(report->timeline, 0, imk::trace::kNoVmId));
  MaybePrintMetrics(args);
  return FinishAudit(audit, json, 0);
}

int CmdStorm(const Args& args) {
  const std::string kernel_path = args.Get("kernel");
  if (kernel_path.empty()) {
    Die("storm: --kernel=FILE required");
  }
  std::optional<imk::race::AuditScope> audit;
  MaybeBeginAudit(args, audit);
  const bool json = !args.Get("json").empty();
  Bytes vmlinux = ReadFile(kernel_path);
  Bytes relocs_blob;
  const std::string relocs_path = args.Get("relocs");
  if (!relocs_path.empty()) {
    relocs_blob = ReadFile(relocs_path);
  }
  imk::MicroVmConfig base;
  base.rando = imk::RandoMode::kKaslr;
  LaunchSpec spec = ParseLaunchSpec(args, base, /*load_threads_flag=*/nullptr);
  imk::StormOptions options;
  options.vms = static_cast<uint32_t>(args.GetDouble("vms", 16));
  options.threads = static_cast<uint32_t>(args.GetDouble("threads", 4));
  options.seed_base = static_cast<uint64_t>(args.GetDouble("seed", 1));
  options.churn_cycles = static_cast<uint32_t>(args.GetDouble("churn", 1));
  options.vm = spec.vm;
  options.supervise = spec.supervise;
  options.supervisor = spec.supervisor;
  MaybeStartTrace(args, spec.governor.get());
  auto stats = imk::RunBootStorm(ByteSpan(vmlinux), ByteSpan(relocs_blob), options);
  imk::FaultInjector::Instance().Disarm();
  if (!stats.ok()) {
    Die(stats.status().ToString());
  }
  MaybeFinishTrace(args, {});
  MaybePrintMetrics(args);
  std::printf("storm: %u VMs over %u threads (%u launches) in %.1f ms -> %.1f boots/sec\n",
              stats->vms, stats->threads, stats->launches,
              static_cast<double>(stats->wall_ns) / 1e6, stats->boots_per_sec());
  std::printf("boot latency: p50 %.2f ms, p99 %.2f ms\n", stats->boot_ms.percentile(50),
              stats->boot_ms.percentile(99));
  std::printf("image: %s, dirty %.1f%% per VM (%.0f of %llu frames; %.0f still shared)\n",
              imk::HumanSize(stats->image_bytes).c_str(), stats->image_dirty_fraction() * 100,
              stats->image_dirty_frames.mean(),
              static_cast<unsigned long long>(stats->image_frames),
              stats->image_shared_frames.mean());
  std::printf("resident %.2f MiB per VM; template cache %llu hits / %llu misses\n",
              stats->resident_mb.mean(), static_cast<unsigned long long>(stats->cache_hits),
              static_cast<unsigned long long>(stats->cache_misses));
  if (options.vm.use_block_cache) {
    std::printf(
        "decode cache: %llu hits / %llu misses / %llu invalidations; blocks %llu shared / "
        "%llu private (%.1f%% shared), %llu resident in the shared tier\n",
        static_cast<unsigned long long>(stats->block_cache_hits),
        static_cast<unsigned long long>(stats->block_cache_misses),
        static_cast<unsigned long long>(stats->block_cache_invalidations),
        static_cast<unsigned long long>(stats->blocks_shared),
        static_cast<unsigned long long>(stats->blocks_private),
        stats->block_share_rate() * 100,
        static_cast<unsigned long long>(stats->shared_blocks_resident));
  }
  if (options.vm.layout_pool_depth > 0) {
    std::printf(
        "layout pool: %llu hits / %llu misses (%.1f%% hit rate), %llu rendered during the "
        "storm, %llu refill errors, %llu quarantined\n",
        static_cast<unsigned long long>(stats->pool_hits),
        static_cast<unsigned long long>(stats->pool_misses), stats->pool_hit_rate() * 100,
        static_cast<unsigned long long>(stats->pool_rendered_during),
        static_cast<unsigned long long>(stats->pool_refill_errors),
        static_cast<unsigned long long>(stats->pool_quarantined));
  }
  if (stats->mem.has_value()) {
    PrintMemStats(*stats->mem);
  }
  if (options.supervise || stats->outcomes.rejected_mem > 0) {
    const auto& t = stats->outcomes;
    std::printf(
        "outcomes: %u first-try, %u retried, %u degraded, %u failed, %u rejected-mem "
        "(%u/%u accounted)\n",
        t.ok_first_try, t.ok_retried, t.ok_degraded, t.failed, t.rejected_mem, t.accounted(),
        stats->launches);
    std::printf(
        "          %u attempts, %u watchdog trips, %u mem-rejected attempts, "
        "%llu quarantines, %llu faults fired\n",
        t.attempts_total, t.watchdog_trips, t.mem_rejected_attempts,
        static_cast<unsigned long long>(t.cache_quarantines),
        static_cast<unsigned long long>(t.faults_injected));
    return FinishAudit(audit, json, t.failed == 0 ? 0 : 1);
  }
  return FinishAudit(audit, json, 0);
}

int CmdRaceCheck(const Args& args) {
  const bool json = !args.Get("json").empty();

  // Self-test mode: fire a seeded known-bad pattern and demand the detector
  // catches it. Works in every build (the drills call the Tracker directly).
  const std::string drill = args.Get("drill");
  if (!drill.empty()) {
    imk::race::AuditScope audit;
    if (drill == "order") {
      imk::race::LockOrderInversionDrill();
    } else if (drill == "lockset") {
      imk::race::UnguardedWriteDrill();
    } else {
      Die("racecheck: unknown --drill (order|lockset)");
    }
    const imk::race::RaceReport& report = audit.Finish();
    std::printf("%s\n", json ? report.ToJson().c_str() : report.ToString().c_str());
    const bool caught =
        drill == "order"
            ? report.CountOf(imk::race::RaceKind::kRankInversion) > 0 &&
                  report.CountOf(imk::race::RaceKind::kOrderCycle) > 0
            : report.CountOf(imk::race::RaceKind::kUnguardedWrite) > 0;
    std::printf("racecheck drill '%s': %s\n", drill.c_str(),
                caught ? "DETECTED (detector works)" : "MISSED (detector broken)");
    return caught ? 0 : 1;
  }

  if (!imk::race::AuditCompiledIn()) {
    std::fprintf(stderr,
                 "warning: this build lacks IMK_RACE_AUDIT; the storm lanes below observe "
                 "nothing (reconfigure with -DIMK_RACE_AUDIT=ON)\n");
  }
  imk::StormOptions options;
  options.vms = static_cast<uint32_t>(args.GetDouble("vms", 16));
  options.threads = static_cast<uint32_t>(args.GetDouble("threads", 4));
  imk::MicroVmConfig base;
  base.load_threads = 2;
  const double scale = args.GetDouble("scale", 0.02);
  const std::string pool_depth = std::to_string(options.vms);

  bool all_clean = true;
  struct Lane {
    const char* name;
    const char* rando;
    bool pooled;          // one layout pool of depth --vms
    bool block_cache;     // block engine + storm-wide shared decode cache on?
    uint32_t churn;       // launch/halt cycles per VM slot (<=1 = one wave)
    const char* budget_mib;  // MemGovernor hard watermark ("0" = ungoverned)
    bool traced = false;  // run with the imktrace tracer recording
  };
  const Lane lanes[] = {
      {"kaslr", "kaslr", false, false, 1, "0"},
      {"fgkaslr", "fgkaslr", false, false, 1, "0"},
      // Pooled lane: background refill races measured grabs, so the
      // LayoutPool's kLayoutPool rank and guards get audited under load.
      {"fgkaslr-pooled", "fgkaslr", true, false, 1, "0"},
      // Block-cache lane: every VM's block engine grabs from / installs
      // into one SharedBlockCache, auditing the kBlockCache rank and the
      // decode-map guards under storm concurrency.
      {"kaslr-blockcache", "kaslr", false, true, 1, "0"},
      // Churn lane under a deliberately tight MemGovernor budget: workers
      // charge/release frame bytes while the ladder walks cache locks from
      // the kMemGovernor rank, auditing the governor's lock order (admission
      // gate, reclamation into pool + decode + template tiers) under load.
      {"fgkaslr-churn-governed", "fgkaslr", true, true, 3, "48"},
      // Traced lane: every worker emits into its lock-free ring while the
      // audit watches, proving the trace emit path adds no lock-order or
      // lockset findings under storm concurrency (ISSUE: instrumented
      // racecheck of a traced storm stays CLEAN).
      {"fgkaslr-traced", "fgkaslr", true, true, 1, "0", true},
  };
  for (const Lane& lane : lanes) {
    // Each lane is the command line with its launch flags overridden.
    Args lane_args = args;
    lane_args.Set("mem", "192");
    lane_args.Set("rando", lane.rando);
    lane_args.Set("layout-pool", lane.pooled ? pool_depth : "0");
    lane_args.Set("no-block-cache", lane.block_cache ? "" : "1");
    lane_args.Set("mem-budget", lane.budget_mib);
    const LaunchSpec spec = ParseLaunchSpec(lane_args, base, "load-threads");
    auto info = imk::BuildKernel(
        imk::KernelConfig::Make(imk::KernelProfile::kAws, spec.vm.rando, scale));
    if (!info.ok()) {
      Die(info.status().ToString());
    }
    Bytes relocs_blob = imk::SerializeRelocs(info->relocs);
    options.vm = spec.vm;
    options.supervise = spec.supervise;
    options.supervisor = spec.supervisor;
    options.churn_cycles = lane.churn;
    imk::race::AuditScope audit;
    if (lane.traced) {
      imk::trace::Tracer::Instance().Start();
    }
    auto stats = imk::RunBootStorm(ByteSpan(info->vmlinux), ByteSpan(relocs_blob), options);
    if (lane.traced) {
      imk::trace::Tracer::Instance().Stop();
    }
    const imk::race::RaceReport& report = audit.Finish();
    if (!stats.ok()) {
      Die(std::string("racecheck ") + lane.name + " storm: " + stats.status().ToString());
    }
    std::printf("lane %s: %u VMs x %u threads, %llu cache hits / %llu misses", lane.name,
                stats->vms, stats->threads, static_cast<unsigned long long>(stats->cache_hits),
                static_cast<unsigned long long>(stats->cache_misses));
    if (lane.pooled) {
      std::printf(", pool %llu hits / %llu misses",
                  static_cast<unsigned long long>(stats->pool_hits),
                  static_cast<unsigned long long>(stats->pool_misses));
    }
    if (lane.block_cache) {
      std::printf(", decode cache %llu shared grabs / %llu resident",
                  static_cast<unsigned long long>(stats->shared_block_hits),
                  static_cast<unsigned long long>(stats->shared_blocks_resident));
    }
    if (stats->mem.has_value()) {
      std::printf(", governor %llu reclaim runs / %llu rejects / peak %s",
                  static_cast<unsigned long long>(stats->mem->reclaim_runs),
                  static_cast<unsigned long long>(stats->mem->admit_rejects),
                  imk::HumanSize(stats->mem->high_water_total_bytes).c_str());
    }
    if (lane.traced) {
      std::printf(", %zu trace events from %zu threads",
                  imk::trace::Tracer::Instance().Collect().size(),
                  imk::trace::Tracer::Instance().thread_count());
    }
    std::printf("\n%s\n", json ? report.ToJson().c_str() : report.ToString().c_str());
    all_clean = all_clean && report.clean();
  }
  std::printf("racecheck: %s\n", all_clean ? "CLEAN" : "FINDINGS");
  return all_clean ? 0 : 1;
}

// Does the 8-byte word at link vaddr `slot` overlap any relocation field?
bool TouchesRelocField(const imk::RelocInfo& relocs, uint64_t slot) {
  for (const auto* list : {&relocs.abs64, &relocs.abs32, &relocs.inverse32}) {
    for (uint64_t field : *list) {
      if (field < slot + 8 && slot < field + 8) {
        return true;
      }
    }
  }
  return false;
}

// verify --uniqueness: the cross-VM layout-uniqueness audit over a pooled
// launch-only storm (every measured layout comes from the pool's one-shot
// handout; the checker proves no two VMs shared one).
int CmdVerifyUniqueness(const Args& args) {
  const double scale = args.GetDouble("scale", 0.02);
  const uint32_t vms = static_cast<uint32_t>(args.GetDouble("vms", 16));
  auto info = imk::BuildKernel(
      imk::KernelConfig::Make(imk::KernelProfile::kAws, imk::RandoMode::kFgKaslr, scale));
  if (!info.ok()) {
    Die(info.status().ToString());
  }
  Bytes relocs_blob = imk::SerializeRelocs(info->relocs);
  imk::StormOptions options;
  options.vm.rando = imk::RandoMode::kFgKaslr;
  options.vms = vms;
  options.threads = static_cast<uint32_t>(args.GetDouble("threads", 4));
  options.vm.mem_size_bytes = 192ull << 20;
  options.launch_only = true;
  options.vm.layout_pool_depth =
      static_cast<uint32_t>(args.GetDouble("layout-pool", static_cast<double>(vms)));
  options.keep_layouts = true;
  options.seed_base = static_cast<uint64_t>(args.GetDouble("seed", 1));
  auto stats = imk::RunBootStorm(ByteSpan(info->vmlinux), ByteSpan(relocs_blob), options);
  if (!stats.ok()) {
    Die(stats.status().ToString());
  }
  imk::VerifyReport report = imk::CheckLayoutUniqueness(stats->layouts);
  std::printf("uniqueness: %zu layouts from a depth-%u pool (%llu hits / %llu misses)\n",
              stats->layouts.size(), options.vm.layout_pool_depth,
              static_cast<unsigned long long>(stats->pool_hits),
              static_cast<unsigned long long>(stats->pool_misses));
  std::printf("%s\n", !args.Get("json").empty() ? report.ToJson().c_str()
                                                : report.ToString().c_str());
  return report.clean() ? 0 : 1;
}

int CmdVerify(const Args& args) {
  if (!args.Get("uniqueness").empty()) {
    return CmdVerifyUniqueness(args);
  }
  const std::string kernel_path = args.Get("kernel");
  if (kernel_path.empty()) {
    Die("verify: --kernel=FILE required");
  }
  Bytes vmlinux = ReadFile(kernel_path);

  imk::RelocInfo relocs;
  bool have_relocs = false;
  const std::string relocs_path = args.Get("relocs");
  if (!relocs_path.empty()) {
    Bytes blob = ReadFile(relocs_path);
    auto parsed = imk::ParseRelocs(ByteSpan(blob));
    if (!parsed.ok()) {
      Die(parsed.status().ToString());
    }
    relocs = std::move(*parsed);
    have_relocs = true;
  } else {
    // Figure 8's in-monitor `relocs` flow: derive from the ELF itself.
    auto elf = imk::ElfReader::Parse(ByteSpan(vmlinux));
    if (!elf.ok()) {
      Die(elf.status().ToString());
    }
    auto extracted = imk::ExtractRelocsFromElf(*elf);
    if (!extracted.ok()) {
      Die(extracted.status().ToString());
    }
    relocs = std::move(*extracted);
    have_relocs = !relocs.empty();
  }

  const imk::RandoMode rando = ParseRando(args.Get("rando", "kaslr"));
  const uint64_t mem_bytes = static_cast<uint64_t>(args.GetDouble("mem", 256)) << 20;
  imk::GuestMemory memory(mem_bytes);
  imk::DirectBootParams params;
  params.requested = rando;
  const uint64_t seed = static_cast<uint64_t>(args.GetDouble("seed", 0));
  imk::Rng rng(seed != 0 ? seed : imk::HostEntropySeed());
  const uint32_t threads = static_cast<uint32_t>(args.GetDouble("threads", 1));
  std::optional<imk::ThreadPool> pool;
  imk::DirectLoadResources resources;
  if (threads != 1) {
    pool.emplace(threads);
    resources.pool = &*pool;
  }
  auto loaded =
      imk::DirectLoadKernel(memory, ByteSpan(vmlinux), have_relocs ? &relocs : nullptr,
                            params, rng, resources);
  if (!loaded.ok()) {
    Die(loaded.status().ToString());
  }
  auto image = memory.Slice(loaded->choice.phys_load_addr, loaded->image_mem_size);
  if (!image.ok()) {
    Die(image.status().ToString());
  }

  // Optional fault injection, to demonstrate each detector class.
  const imk::ShuffleMap* map = loaded->fg.has_value() ? &loaded->fg->map : nullptr;
  imk::ShuffleMap corrupted_map;
  const uint64_t base = loaded->link_text_vaddr;
  const uint64_t slide = loaded->choice.virt_slide;
  auto field_ptr = [&](uint64_t link_vaddr) {
    const uint64_t moved = map != nullptr ? map->Translate(link_vaddr) : link_vaddr;
    return image->data() + (moved - base);
  };
  const std::string corrupt = args.Get("corrupt");
  if (corrupt == "skip-abs64") {
    if (relocs.abs64.empty() || slide == 0) {
      Die("skip-abs64 needs abs64 relocations and a nonzero slide (pick another --seed)");
    }
    uint8_t* p = field_ptr(relocs.abs64.front());
    imk::StoreLe64(p, imk::LoadLe64(p) - slide);  // un-apply: as if the walk skipped it
  } else if (corrupt == "double-inverse32") {
    if (relocs.inverse32.empty() || slide == 0) {
      Die("double-inverse32 needs inverse32 relocations and a nonzero slide");
    }
    uint8_t* p = field_ptr(relocs.inverse32.front());
    imk::StoreLe32(p, imk::LoadLe32(p) - static_cast<uint32_t>(slide));  // second application
  } else if (corrupt == "overlap-section") {
    if (map == nullptr || map->ranges().size() < 2) {
      Die("overlap-section requires an fgkaslr image (--rando=fgkaslr)");
    }
    std::vector<imk::ShuffledRange> ranges = map->ranges();
    ranges[1].new_vaddr = ranges[0].new_vaddr;
    corrupted_map = imk::ShuffleMap(std::move(ranges));
    map = &corrupted_map;
  } else if (corrupt == "stale-pointer") {
    if (slide == 0) {
      Die("stale-pointer needs a nonzero slide (pick another --seed)");
    }
    auto elf = imk::ElfReader::Parse(ByteSpan(vmlinux));
    auto data_section = elf->FindSection(".data");
    if (!data_section.ok()) {
      Die(data_section.status().ToString());
    }
    const uint64_t lo = (*data_section)->header.sh_addr;
    const uint64_t hi = lo + (*data_section)->header.sh_size;
    uint64_t slot = 0;
    for (uint64_t candidate = (lo + 7) & ~7ull; candidate + 8 <= hi; candidate += 8) {
      if (!TouchesRelocField(relocs, candidate)) {
        slot = candidate;
        break;
      }
    }
    if (slot == 0) {
      Die("stale-pointer: no relocation-free 8-byte slot in .data");
    }
    imk::StoreLe64(field_ptr(slot), base + 16);  // a link-time text address
  } else if (!corrupt.empty()) {
    Die("unknown --corrupt mode: " + corrupt);
  }

  imk::VerifyInput input;
  input.original_elf = ByteSpan(vmlinux);
  input.randomized = ByteSpan(image->data(), image->size());
  input.base_vaddr = base;
  input.relocs = have_relocs ? &relocs : nullptr;
  input.map = map;
  input.choice = loaded->choice;
  input.guest_mem_size = mem_bytes;
  input.kallsyms_deferred = loaded->fg.has_value() && loaded->fg->kallsyms_pending;
  auto report = imk::VerifyImage(input);
  if (!report.ok()) {
    Die(report.status().ToString());
  }
  if (!args.Get("json").empty()) {
    std::printf("%s\n", report->ToJson().c_str());
  } else {
    std::printf("%s\n", report->ToString().c_str());
  }
  return report->clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: imk_tool <build|readelf|disasm|relocs|boot|storm|verify|racecheck>"
                 " [options]\n"
                 "run with a subcommand to see its options in the header comment\n");
    return 1;
  }
  const std::string command = argv[1];
  Args args(argc, argv, 2);
  if (command == "build") {
    return CmdBuild(args);
  }
  if (command == "readelf") {
    return CmdReadElf(args);
  }
  if (command == "disasm") {
    return CmdDisasm(args);
  }
  if (command == "relocs") {
    return CmdRelocs(args);
  }
  if (command == "boot") {
    return CmdBoot(args);
  }
  if (command == "storm") {
    return CmdStorm(args);
  }
  if (command == "verify") {
    return CmdVerify(args);
  }
  if (command == "racecheck") {
    return CmdRaceCheck(args);
  }
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 1;
}
