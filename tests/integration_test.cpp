//===- tests/integration_test.cpp - Cross-module integration tests --------===//

#include "core/Lab.h"
#include "core/MatrixRunner.h"
#include "trace/RefTrace.h"
#include "vm/PageSim.h"
#include "workload/Driver.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace allocsim;

TEST(IntegrationTest, CapturedTraceReplaysToIdenticalCacheResults) {
  // Execution-driven and trace-driven simulation must agree exactly: run a
  // workload once writing a binary trace, then replay the trace into a
  // fresh cache and compare miss counts.
  MemoryBus Bus;
  SimHeap Heap(Bus);
  CostModel Cost;

  DirectMappedCache LiveCache({16 * 1024, 32, 1});
  std::stringstream TraceBuffer;
  BinaryTraceWriter Writer(TraceBuffer);
  Bus.attach(&LiveCache);
  Bus.attach(&Writer);

  std::unique_ptr<Allocator> Alloc =
      createAllocator(AllocatorKind::GnuGxx, Heap, Cost);
  const AppProfile &Profile = getProfile(WorkloadId::Make);
  EngineOptions Options;
  Options.Scale = 4;
  WorkloadEngine Engine(Profile, Options);
  Driver Drive(*Alloc, Bus, Cost, Profile.instrPerRef());
  Engine.generate([&](const AllocEvent &Event) { Drive.execute(Event); });

  ASSERT_GT(Writer.written(), 100000u);

  DirectMappedCache ReplayCache({16 * 1024, 32, 1});
  BinaryTraceReader Reader(TraceBuffer);
  uint64_t Replayed = replayTrace(Reader, ReplayCache);

  EXPECT_EQ(Replayed, Writer.written());
  EXPECT_EQ(ReplayCache.stats().Accesses, LiveCache.stats().Accesses);
  EXPECT_EQ(ReplayCache.stats().Misses, LiveCache.stats().Misses);
}

TEST(IntegrationTest, EventScriptReplayGivesIdenticalAllocatorState) {
  // Capturing the event stream to its text form and replaying it against a
  // fresh allocator must reproduce the heap exactly.
  const AppProfile &Profile = getProfile(WorkloadId::Gawk);
  EngineOptions Options;
  Options.Scale = 256;
  Options.ClampScaleForLiveHeap = false;
  WorkloadEngine Engine(Profile, Options);
  std::vector<AllocEvent> Events = Engine.generateAll();

  std::stringstream Script;
  writeAllocEvents(Script, Events);
  std::vector<AllocEvent> Reloaded = readAllocEvents(Script);
  ASSERT_EQ(Reloaded, Events);

  auto RunEvents = [&](const std::vector<AllocEvent> &Stream) {
    MemoryBus Bus;
    SimHeap Heap(Bus);
    CostModel Cost;
    std::unique_ptr<Allocator> Alloc =
        createAllocator(AllocatorKind::FirstFit, Heap, Cost);
    Driver Drive(*Alloc, Bus, Cost, Profile.instrPerRef());
    for (const AllocEvent &Event : Stream)
      Drive.execute(Event);
    return std::pair<uint32_t, uint64_t>(Alloc->heapBytes(),
                                         Bus.totalAccesses());
  };
  EXPECT_EQ(RunEvents(Events), RunEvents(Reloaded));
}

TEST(IntegrationTest, CacheAndPagingObserveSameStream) {
  ExperimentConfig Config;
  Config.Workload = WorkloadId::Make;
  Config.Allocator = AllocatorKind::Bsd;
  Config.Engine.Scale = 4;
  Config.Caches = {CacheConfig{64 * 1024, 32, 1}};
  Config.PagingMemoryKb = {4096};
  RunResult Result = runExperiment(Config);
  // Word-sized accesses never straddle: cache accesses == bus refs, and
  // the page simulator saw the same stream.
  EXPECT_EQ(Result.Caches[0].Stats.Accesses, Result.TotalRefs);
  EXPECT_GT(Result.DistinctPages, 10u);
  // With memory as large as the whole address space used, only cold
  // faults remain: faults/ref <= distinct pages / refs.
  EXPECT_LE(Result.Paging[0].FaultsPerRef,
            double(Result.DistinctPages) / double(Result.TotalRefs) + 1e-12);
}

TEST(IntegrationTest, PaperShapeFirstFitHasWorstLocality) {
  // The paper's headline, at reduced scale: FIRSTFIT's miss rate exceeds
  // every segregated-storage allocator's on the fragmentation-heavy
  // GhostScript workload.
  ExperimentConfig Config;
  Config.Workload = WorkloadId::GsSmall;
  Config.Allocator = AllocatorKind::FirstFit;
  Config.Engine.Scale = 8;
  Config.Caches = {CacheConfig{16 * 1024, 32, 1}};
  RunResult FirstFit = runExperiment(Config);

  for (AllocatorKind Kind : {AllocatorKind::QuickFit, AllocatorKind::Bsd,
                             AllocatorKind::GnuLocal}) {
    Config.Allocator = Kind;
    RunResult Other = runExperiment(Config);
    EXPECT_GT(FirstFit.Caches[0].Stats.missRate(),
              Other.Caches[0].Stats.missRate())
        << allocatorKindName(Kind);
  }
}

TEST(IntegrationTest, PaperShapeBsdIsInstructionLeanest) {
  // Figure 1: BSD spends the smallest fraction of instructions in
  // malloc/free; GNU LOCAL the largest among the segregated allocators.
  MatrixSpec Spec;
  Spec.Workloads = {WorkloadId::Espresso};
  Spec.Allocators = {PaperAllocators, PaperAllocators + 5};
  Spec.Base.Engine.Scale = 32;
  Spec.SaltSeedPerWorkload = false;
  ResultStore Store = runMatrix(Spec);
  ASSERT_EQ(Store.failedCount(), 0u);
  // PaperAllocators order: FirstFit, QuickFit, GnuGxx, Bsd, GnuLocal.
  auto Fraction = [&](size_t A) {
    return Store.at(0, A).Result.allocInstrFraction();
  };
  for (size_t I = 0; I != Store.size(); ++I) {
    if (I != 3) {
      EXPECT_LT(Fraction(3), Fraction(I));
    }
  }
  EXPECT_GT(Fraction(4), Fraction(1)); // GnuLocal vs QuickFit
  EXPECT_GT(Fraction(4), Fraction(3)); // GnuLocal vs BSD
}

TEST(IntegrationTest, PaperShapeBoundaryTagsCostLittle) {
  // Table 6: emulated boundary tags on GNU LOCAL raise the miss penalty's
  // share of execution time by a small amount (0.1% - ~2%).
  ExperimentConfig Config;
  Config.Workload = WorkloadId::Espresso;
  Config.Allocator = AllocatorKind::GnuLocal;
  Config.Engine.Scale = 16;
  Config.Caches = {CacheConfig{64 * 1024, 32, 1}};

  RunResult Plain = runExperiment(Config);
  Config.EmulateBoundaryTags = true;
  RunResult Tagged = runExperiment(Config);

  double PlainSeconds = Plain.estimatedSeconds(0);
  double TaggedSeconds = Tagged.estimatedSeconds(0);
  EXPECT_GT(TaggedSeconds, PlainSeconds) << "tags must not be free";
  EXPECT_LT(TaggedSeconds, PlainSeconds * 1.08)
      << "tags must stay a minor cost, as in Table 6";
}

TEST(IntegrationTest, BiggerCachesNeverHurtAcrossAllocators) {
  ExperimentConfig Config;
  Config.Workload = WorkloadId::Gawk;
  Config.Engine.Scale = 64;
  Config.Caches = paperCacheSweep();
  for (AllocatorKind Kind : PaperAllocators) {
    Config.Allocator = Kind;
    RunResult Result = runExperiment(Config);
    for (size_t I = 1; I < Result.Caches.size(); ++I)
      EXPECT_LE(Result.Caches[I].Stats.missRate(),
                Result.Caches[I - 1].Stats.missRate() * 1.02)
          << allocatorKindName(Kind) << " cache " << I;
  }
}
