// Tests for the imkrace concurrency audit (DESIGN.md §11): the rank table,
// the report, the detector — proven against seeded known-bad patterns both
// directly (drills) and through the boot-storm fault points — and the
// wrapper migration (an instrumented storm must come back clean).
//
// The Tracker is compiled in every build; only the *wrapper* hooks need
// IMK_RACE_AUDIT. Tests that rely on wrapper instrumentation skip
// themselves in passthrough builds — scripts/ci_check.sh's race-drill
// stage runs them for real.
#include <algorithm>
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/base/fault_injection.h"
#include "src/base/frame_store.h"
#include "src/base/threadpool.h"
#include "src/kernel/kernel_builder.h"
#include "src/kernel/relocs.h"
#include "src/race/drill.h"
#include "src/race/lock_ranks.h"
#include "src/race/mutex.h"
#include "src/race/report.h"
#include "src/race/tracker.h"
#include "src/vmm/boot_storm.h"

namespace imk {
namespace {

// ---- rank table ----

TEST(LockRankTest, TableIsStrictlyIncreasingAndComplete) {
  ASSERT_GT(race::kLockRankCount, 0u);
  uint32_t prev = 0;
  std::set<std::string> names;
  for (const race::LockRankInfo& info : race::kLockRankTable) {
    EXPECT_GT(race::LockRankValue(info.rank), prev)
        << "rank table must be sorted, strictly increasing, nonzero";
    prev = race::LockRankValue(info.rank);
    EXPECT_NE(info.name, nullptr);
    EXPECT_NE(info.guards, nullptr);
    EXPECT_TRUE(names.insert(info.name).second) << "duplicate rank name " << info.name;
  }
}

TEST(LockRankTest, EveryDeclaredRankResolvesItsName) {
  for (const race::LockRankInfo& info : race::kLockRankTable) {
    EXPECT_STREQ(race::LockRankName(info.rank), info.name);
  }
  EXPECT_STREQ(race::LockRankName(race::LockRank::kUnranked), "unranked");
}

// ---- report ----

TEST(RaceReportTest, CleanReportSaysSo) {
  race::RaceReport report;
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.total_findings(), 0u);
  EXPECT_NE(report.ToString().find("CLEAN"), std::string::npos);
  EXPECT_NE(report.ToJson().find("\"clean\":true"), std::string::npos);
}

TEST(RaceReportTest, CountsAllButCapsRecording) {
  race::RaceReport report;
  for (int i = 0; i < 100; ++i) {
    report.Add({race::RaceKind::kRankInversion, "subject-" + std::to_string(i), "msg"});
  }
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.total_findings(), 100u);
  EXPECT_EQ(report.CountOf(race::RaceKind::kRankInversion), 100u);
  EXPECT_EQ(report.CountOf(race::RaceKind::kUnguardedWrite), 0u);
  EXPECT_EQ(report.findings().size(), race::RaceReport::kMaxRecordedPerKind);
  EXPECT_NE(report.ToString().find("more (recording capped)"), std::string::npos);
}

TEST(RaceReportTest, JsonCarriesFindingsCountsAndGraph) {
  race::RaceReport report;
  report.Add({race::RaceKind::kUnguardedWrite, "region \"x\"", "line1\nline2"});
  report.edges().push_back({"drill-outer", "drill-inner", 3});
  report.coverage().acquisitions = 7;
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"unguarded-write\":1"), std::string::npos);
  EXPECT_NE(json.find("\\\"x\\\""), std::string::npos) << "quotes must be escaped";
  EXPECT_NE(json.find("\\n"), std::string::npos) << "newlines must be escaped";
  EXPECT_NE(json.find("\"from\":\"drill-outer\""), std::string::npos);
  EXPECT_NE(json.find("\"acquisitions\":7"), std::string::npos);
}

// ---- detector: seeded lock-order inversion (direct drill) ----

TEST(RaceDetectorTest, CatchesSeededLockOrderInversion) {
  race::AuditScope audit;
  race::LockOrderInversionDrill();
  const race::RaceReport& report = audit.Finish();
  EXPECT_GE(report.CountOf(race::RaceKind::kRankInversion), 1u);
  EXPECT_GE(report.CountOf(race::RaceKind::kOrderCycle), 1u)
      << "both edge directions were recorded; the cycle must close";
  EXPECT_EQ(report.coverage().acquisitions, 4u);
  EXPECT_EQ(report.coverage().order_edges, 2u);
  // Both orders of the drill pair appear in the graph.
  std::set<std::string> edges;
  for (const race::OrderEdge& edge : report.edges()) {
    edges.insert(edge.from + ">" + edge.to);
  }
  EXPECT_TRUE(edges.count("drill-outer>drill-inner"));
  EXPECT_TRUE(edges.count("drill-inner>drill-outer"));
}

// ---- detector: seeded unguarded write (direct drill) ----

TEST(RaceDetectorTest, CatchesSeededUnguardedWrite) {
  race::AuditScope audit;
  race::UnguardedWriteDrill();
  const race::RaceReport& report = audit.Finish();
  EXPECT_GE(report.CountOf(race::RaceKind::kUnguardedWrite), 1u);
  ASSERT_FALSE(report.findings().empty());
  EXPECT_EQ(report.findings()[0].subject, "race.drill_word");
}

TEST(RaceDetectorTest, SingleThreadedAccessNeedsNoLock) {
  race::AuditScope audit;
  race::Tracker& tracker = race::Tracker::Instance();
  int word = 0;
  for (int i = 0; i < 10; ++i) {
    tracker.OnSharedAccess("test.exclusive", &word, 0, race::LockRank::kDrillOuter,
                           /*write=*/true);
  }
  const race::RaceReport& report = audit.Finish();
  EXPECT_EQ(report.CountOf(race::RaceKind::kUnguardedWrite), 0u)
      << "Eraser owner-thread exemption: exclusive access is never a race";
  EXPECT_EQ(report.coverage().accesses_checked, 10u);
}

TEST(RaceDetectorTest, CommonLockAcrossThreadsKeepsLocksetNonEmpty) {
  race::AuditScope audit;
  race::Tracker& tracker = race::Tracker::Instance();
  int word = 0;
  int guard = 0;  // any stable address works as a lock identity for the hooks
  const auto access = [&] {
    tracker.OnAcquire(&guard, race::LockRank::kDrillOuter);
    tracker.OnSharedAccess("test.guarded", &word, 0, race::LockRank::kDrillOuter,
                           /*write=*/true);
    tracker.OnRelease(&guard);
  };
  access();
  std::thread other([&] {
    access();
    access();
  });
  other.join();
  access();
  const race::RaceReport& report = audit.Finish();
  EXPECT_EQ(report.CountOf(race::RaceKind::kUnguardedWrite), 0u);
}

TEST(RaceDetectorTest, FlagsUnrankedLockAcquisition) {
  race::AuditScope audit;
  race::Tracker& tracker = race::Tracker::Instance();
  int lock = 0;
  tracker.OnAcquire(&lock, race::LockRank::kUnranked);
  tracker.OnRelease(&lock);
  const race::RaceReport& report = audit.Finish();
  EXPECT_EQ(report.CountOf(race::RaceKind::kUnrankedLock), 1u);
}

TEST(RaceDetectorTest, LegalNestingIsClean) {
  race::AuditScope audit;
  race::Tracker& tracker = race::Tracker::Instance();
  int outer = 0;
  int inner = 0;
  tracker.OnAcquire(&outer, race::LockRank::kDrillOuter);
  tracker.OnAcquire(&inner, race::LockRank::kDrillInner);
  tracker.OnRelease(&inner);
  tracker.OnRelease(&outer);
  const race::RaceReport& report = audit.Finish();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_EQ(report.coverage().order_edges, 1u);
}

// ---- fault-point registry ----

TEST(FaultRegistryTest, RegistryMatchesArmedDrillPoints) {
  const std::vector<std::string>& points = KnownFaultPoints();
  EXPECT_TRUE(std::is_sorted(points.begin(), points.end()));
  const std::set<std::string> set(points.begin(), points.end());
  EXPECT_EQ(set.size(), points.size()) << "no duplicates";
  // The drill triggers boot_storm checks must be registered, or arming them
  // from --faults would be the exact silent no-op the registry exists for.
  EXPECT_TRUE(set.count("race.order_drill"));
  EXPECT_TRUE(set.count("race.lockset_drill"));
  // Spot-check long-standing points.
  EXPECT_TRUE(set.count("storage.read"));
  EXPECT_TRUE(set.count("vcpu.enter"));
  EXPECT_TRUE(set.count("threadpool.chunk"));
}

// ---- wrappers ----

TEST(RaceMutexTest, WrappersSatisfyLockableAndCondVar) {
  race::Mutex mutex{race::LockRank::kDrillOuter};
  race::CondVar cv;
  bool ready = false;
  std::thread signaler([&] {
    std::lock_guard<race::Mutex> lock(mutex);
    ready = true;
    cv.notify_one();
  });
  {
    std::unique_lock<race::Mutex> lock(mutex);
    cv.wait(lock, [&] { return ready; });
  }
  signaler.join();
  EXPECT_TRUE(ready);
  EXPECT_TRUE(mutex.try_lock());
  mutex.unlock();

  race::SharedMutex shared{race::LockRank::kDrillInner};
  shared.lock_shared();
  EXPECT_TRUE(shared.try_lock_shared());
  shared.unlock_shared();
  shared.unlock_shared();
  shared.lock();
  shared.unlock();
}

TEST(RaceMutexTest, InstrumentedWrapperFeedsTracker) {
  if (!race::AuditCompiledIn()) {
    GTEST_SKIP() << "wrappers are passthrough without IMK_RACE_AUDIT";
  }
  race::AuditScope audit;
  {
    race::Mutex outer{race::LockRank::kDrillOuter};
    race::Mutex inner{race::LockRank::kDrillInner};
    std::lock_guard<race::Mutex> lock_outer(outer);
    std::lock_guard<race::Mutex> lock_inner(inner);
  }
  const race::RaceReport& report = audit.Finish();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_EQ(report.coverage().acquisitions, 2u);
  EXPECT_TRUE(report.coverage().instrumented);
}

// ---- seeded drills through the storm fault points ----

StormOptions SmallStorm() {
  StormOptions options;
  options.vms = 4;
  options.threads = 2;
  options.vm.mem_size_bytes = 64ull << 20;
  options.vm.rando = RandoMode::kNone;
  options.launch_only = true;
  options.warmup_per_thread = 0;
  return options;
}

Bytes TinyKernel() {
  auto info = BuildKernel(KernelConfig::Make(KernelProfile::kAws, RandoMode::kNone, 0.02));
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  return info->vmlinux;
}

TEST(RaceStormDrillTest, OrderDrillFaultPointSurfacesInStormAudit) {
  Bytes vmlinux = TinyKernel();
  auto plan = FaultPlan::Parse("race.order_drill:error:n=1", 7);
  ASSERT_TRUE(plan.ok());
  race::AuditScope audit;
  FaultScope faults(*plan);
  auto stats = RunBootStorm(ByteSpan(vmlinux), ByteSpan(), SmallStorm());
  const race::RaceReport& report = audit.Finish();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(report.CountOf(race::RaceKind::kRankInversion), 1u) << report.ToString();
  EXPECT_GE(report.CountOf(race::RaceKind::kOrderCycle), 1u);
}

TEST(RaceStormDrillTest, LocksetDrillFaultPointSurfacesInStormAudit) {
  Bytes vmlinux = TinyKernel();
  auto plan = FaultPlan::Parse("race.lockset_drill:error:n=1", 7);
  ASSERT_TRUE(plan.ok());
  race::AuditScope audit;
  FaultScope faults(*plan);
  auto stats = RunBootStorm(ByteSpan(vmlinux), ByteSpan(), SmallStorm());
  const race::RaceReport& report = audit.Finish();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(report.CountOf(race::RaceKind::kUnguardedWrite), 1u) << report.ToString();
}

// ---- the product is clean under instrumentation ----

TEST(RaceAuditCleanTest, InstrumentedConcurrentStormIsClean) {
  if (!race::AuditCompiledIn()) {
    GTEST_SKIP() << "needs -DIMK_RACE_AUDIT=ON to observe the product's locks";
  }
  auto info = BuildKernel(KernelConfig::Make(KernelProfile::kAws, RandoMode::kKaslr, 0.02));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  Bytes relocs_blob = SerializeRelocs(info->relocs);
  StormOptions options;
  options.vms = 8;
  options.threads = 4;
  options.vm.load_threads = 2;
  options.vm.mem_size_bytes = 192ull << 20;
  options.vm.rando = RandoMode::kKaslr;
  race::AuditScope audit;
  auto stats = RunBootStorm(ByteSpan(info->vmlinux), ByteSpan(relocs_blob), options);
  const race::RaceReport& report = audit.Finish();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_GT(report.coverage().acquisitions, 0u) << "the audit must have observed the storm";
  EXPECT_GT(report.coverage().accesses_checked, 0u);
  EXPECT_TRUE(report.coverage().instrumented);
}

TEST(RaceAuditCleanTest, InstrumentedFrameStoreAndPoolAreClean) {
  if (!race::AuditCompiledIn()) {
    GTEST_SKIP() << "needs -DIMK_RACE_AUDIT=ON to observe the product's locks";
  }
  race::AuditScope audit;
  {
    FrameStore store(8ull << 20);
    ThreadPool pool(4);
    pool.ParallelFor(store.size() / FrameStore::kFrameBytes, [&](uint64_t begin, uint64_t end) {
      for (uint64_t frame = begin; frame < end; ++frame) {
        auto ptr = store.WritablePtr(frame * FrameStore::kFrameBytes, FrameStore::kFrameBytes);
        ASSERT_TRUE(ptr.ok());
        (*ptr)[0] = static_cast<uint8_t>(frame);
      }
    });
    EXPECT_EQ(store.dirty_frames(), store.frame_count());
  }
  const race::RaceReport& report = audit.Finish();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_GT(report.coverage().acquisitions, 0u);
}

}  // namespace
}  // namespace imk
