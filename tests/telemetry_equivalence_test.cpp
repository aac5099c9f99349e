//===- tests/telemetry_equivalence_test.cpp - Probes never perturb --------===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// The telemetry contract has two halves:
//
//  1. **Observation never perturbs.** Probes only read quantities the
//     simulation already computes; attaching a registry (at any level) must
//     leave every measurement bit-identical — RunResult fields, the golden
//     allocsim-matrix-v1 serialization, and the raw trace bytes — for all
//     five paper allocators, under batched and scalar delivery alike. This
//     is what lets telemetry=off stay byte-for-byte on the committed golden
//     history while telemetry=full is trustworthy: full sees the *same*
//     run, not a perturbed one.
//
//  2. **What the probes report is right.** The collected distributions are
//     cross-checked against independent sources: base counters against
//     AllocatorStats, search-length sums against blocksSearched(), per-set
//     conflict totals against cache miss counts, and the paper's Fig. 6-8
//     mechanism claim (FIRSTFIT's long freelist searches vs QUICKFIT's
//     exact-size reuse) against the actual means.
//
//===----------------------------------------------------------------------===//

#include "core/MatrixRunner.h"
#include "trace/RefTrace.h"
#include "workload/Driver.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace allocsim;

namespace {

/// Field-by-field exact comparison of every *measurement* in two
/// RunResults (everything except the Telemetry snapshot itself). Doubles
/// compare with ==: identical integer inputs must give identical derived
/// values.
void expectMeasurementsIdentical(const RunResult &A, const RunResult &B,
                                 const std::string &Label) {
  SCOPED_TRACE(Label);
  EXPECT_EQ(A.AppInstructions, B.AppInstructions);
  EXPECT_EQ(A.AllocInstructions, B.AllocInstructions);
  EXPECT_EQ(A.TotalRefs, B.TotalRefs);
  EXPECT_EQ(A.AppRefs, B.AppRefs);
  EXPECT_EQ(A.AllocRefs, B.AllocRefs);
  EXPECT_EQ(A.TagRefs, B.TagRefs);

  EXPECT_EQ(A.Alloc.MallocCalls, B.Alloc.MallocCalls);
  EXPECT_EQ(A.Alloc.FreeCalls, B.Alloc.FreeCalls);
  EXPECT_EQ(A.Alloc.BytesRequested, B.Alloc.BytesRequested);
  EXPECT_EQ(A.Alloc.LiveBytes, B.Alloc.LiveBytes);
  EXPECT_EQ(A.Alloc.MaxLiveBytes, B.Alloc.MaxLiveBytes);
  EXPECT_EQ(A.HeapBytes, B.HeapBytes);
  EXPECT_EQ(A.BlocksSearched, B.BlocksSearched);

  ASSERT_EQ(A.Caches.size(), B.Caches.size());
  for (size_t I = 0; I != A.Caches.size(); ++I) {
    SCOPED_TRACE("cache " + A.Caches[I].Config.describe());
    const CacheStats &SA = A.Caches[I].Stats;
    const CacheStats &SB = B.Caches[I].Stats;
    EXPECT_EQ(SA.Accesses, SB.Accesses);
    EXPECT_EQ(SA.Misses, SB.Misses);
    for (unsigned Source = 0; Source != NumAccessSources; ++Source) {
      EXPECT_EQ(SA.AccessesBySource[Source], SB.AccessesBySource[Source]);
      EXPECT_EQ(SA.MissesBySource[Source], SB.MissesBySource[Source]);
    }
    EXPECT_EQ(A.Caches[I].Time.seconds(), B.Caches[I].Time.seconds());
  }

  ASSERT_EQ(A.Paging.size(), B.Paging.size());
  for (size_t I = 0; I != A.Paging.size(); ++I) {
    EXPECT_EQ(A.Paging[I].MemoryKb, B.Paging[I].MemoryKb);
    EXPECT_EQ(A.Paging[I].FaultsPerRef, B.Paging[I].FaultsPerRef);
  }
  EXPECT_EQ(A.DistinctPages, B.DistinctPages);
  EXPECT_EQ(A.CheckViolations, B.CheckViolations);
  EXPECT_EQ(A.CheckWalks, B.CheckWalks);
  EXPECT_EQ(A.CheckReports, B.CheckReports);
}

ExperimentConfig paperConfig(WorkloadId Workload, AllocatorKind Allocator) {
  ExperimentConfig Config;
  Config.Workload = Workload;
  Config.Allocator = Allocator;
  Config.Engine.Scale = 128;
  Config.Engine.Seed = 1592932958;
  Config.Caches = {CacheConfig{16 * 1024, 32, 1},
                   CacheConfig{64 * 1024, 32, 2}};
  Config.PagingMemoryKb = {256, 1024};
  return Config;
}

/// Runs \p Config at every telemetry level and requires the measurements to
/// be identical; returns the full-level result for content checks.
RunResult expectLevelsEquivalent(ExperimentConfig Config,
                                 const std::string &Label) {
  Config.Telemetry = TelemetryLevel::Off;
  RunResult Off = runExperiment(Config);
  EXPECT_TRUE(Off.Telemetry.empty());
  Config.Telemetry = TelemetryLevel::Summary;
  RunResult Summary = runExperiment(Config);
  Config.Telemetry = TelemetryLevel::Full;
  RunResult Full = runExperiment(Config);
  expectMeasurementsIdentical(Off, Summary, Label + "/off-vs-summary");
  expectMeasurementsIdentical(Off, Full, Label + "/off-vs-full");
  EXPECT_FALSE(Full.Telemetry.empty());
  return Full;
}

} // namespace

TEST(TelemetryEquivalenceTest, AllPaperAllocatorsBatchedAndScalar) {
  for (AllocatorKind Kind : PaperAllocators)
    for (bool Batched : {false, true}) {
      ExperimentConfig Config = paperConfig(WorkloadId::Espresso, Kind);
      Config.BatchedDelivery = Batched;
      expectLevelsEquivalent(Config,
                             std::string("espresso/") +
                                 allocatorKindName(Kind) +
                                 (Batched ? "/batched" : "/scalar"));
    }
}

TEST(TelemetryEquivalenceTest, BoundaryTagEmulationUnperturbed) {
  // Table 6 configuration: the tag-emulation stream plus the tag-touch
  // probes in the same code path must not interact.
  ExperimentConfig Config =
      paperConfig(WorkloadId::Espresso, AllocatorKind::GnuLocal);
  Config.EmulateBoundaryTags = true;
  expectLevelsEquivalent(Config, "espresso/GnuLocal+tags");
}

TEST(TelemetryEquivalenceTest, TelemetryItselfDeliveryIndependent) {
  // Stronger than measurement identity: the collected telemetry (per-set
  // conflict profiles, page-run lengths, everything) must also be identical
  // under scalar and batched delivery.
  for (AllocatorKind Kind : PaperAllocators) {
    ExperimentConfig Config = paperConfig(WorkloadId::GsSmall, Kind);
    Config.Telemetry = TelemetryLevel::Full;
    Config.BatchedDelivery = false;
    RunResult Scalar = runExperiment(Config);
    Config.BatchedDelivery = true;
    RunResult Batched = runExperiment(Config);
    EXPECT_EQ(Scalar.Telemetry, Batched.Telemetry)
        << allocatorKindName(Kind);
  }
}

TEST(TelemetryEquivalenceTest, WordRunsLeaveTelemetryUnchanged) {
  // Batched delivery carries the driver's sweeps as word runs; scalar
  // delivery expands them into words. The probes that watch that stream
  // most closely must read the same either way: vm.page_run_len (page-run
  // lengths, here at 64-byte pages so runs cross pages), the per-set miss
  // profiles of both cache engines at 16- and 64-byte blocks, and the
  // driver's per-operation instruction histograms (the fixed-point charge).
  const struct {
    std::vector<CacheConfig> Caches;
    CacheEngineKind Engine;
  } Shapes[] = {
      {{{4096, 16, 1}, {16 * 1024, 16, 1}}, CacheEngineKind::PerConfig},
      {{{8192, 64, 1}, {16 * 1024, 64, 2}}, CacheEngineKind::StackDist},
  };
  for (const auto &Shape : Shapes)
    for (AllocatorKind Kind : {AllocatorKind::FirstFit, AllocatorKind::Bsd}) {
      SCOPED_TRACE(allocatorKindName(Kind));
      ExperimentConfig Config = paperConfig(WorkloadId::Gawk, Kind);
      Config.Caches = Shape.Caches;
      Config.CacheEngine = Shape.Engine;
      Config.PageBytes = 64;
      Config.Telemetry = TelemetryLevel::Full;
      Config.BatchedDelivery = false;
      RunResult Scalar = runExperiment(Config);
      Config.BatchedDelivery = true;
      RunResult Batched = runExperiment(Config);
      EXPECT_EQ(Scalar.Telemetry, Batched.Telemetry);
      for (const char *Name :
           {"vm.page_run_len", "cache.0.set_misses", "cache.1.set_misses",
            "driver.touch_instr", "driver.stack_instr", "driver.malloc_instr",
            "driver.free_instr"}) {
        EXPECT_GT(Batched.Telemetry.histogram(Name).Count, 0u) << Name;
        EXPECT_EQ(Scalar.Telemetry.histogram(Name),
                  Batched.Telemetry.histogram(Name))
            << Name;
      }
      expectMeasurementsIdentical(Scalar, Batched, "scalar-vs-batched");
    }
}

TEST(TelemetryEquivalenceTest, GoldenMatrixBytesUnchangedByTelemetry) {
  // The committed golden history is written with telemetry off; a full-
  // telemetry run of the same matrix must serialize the very same bytes
  // (the telemetry snapshot lives in its own export, not in the matrix
  // forms).
  MatrixSpec Spec;
  Spec.Workloads = {WorkloadId::Espresso, WorkloadId::GsSmall};
  Spec.Allocators = {AllocatorKind::FirstFit, AllocatorKind::QuickFit,
                     AllocatorKind::Bsd};
  Spec.Caches = {CacheConfig{16 * 1024, 32, 1}};
  Spec.PagingMemoryKb = {256};
  Spec.Base.Engine.Scale = 128;
  Spec.Base.Engine.Seed = 1592932958;

  auto Serialize = [&](TelemetryLevel Level) {
    Spec.Base.Telemetry = Level;
    ResultStore Store = runMatrix(Spec, MatrixOptions{});
    EXPECT_EQ(Store.failedCount(), 0u);
    std::ostringstream Golden, Json, Csv;
    Store.writeGoldenJson(Golden);
    Store.writeJson(Json);
    Store.writeCsv(Csv);
    return Golden.str() + "\x1f" + Json.str() + "\x1f" + Csv.str();
  };
  std::string Off = Serialize(TelemetryLevel::Off);
  std::string Full = Serialize(TelemetryLevel::Full);
  EXPECT_EQ(Off, Full);
}

TEST(TelemetryEquivalenceTest, TraceBytesUnchangedByTelemetry) {
  // The reference stream itself — as serialized by the trace writer — must
  // not contain a single extra or reordered record when probes are live.
  auto Capture = [](TelemetryLevel Level) {
    std::ostringstream Out(std::ios::binary);
    BinaryTraceWriter Writer(Out);
    MemoryBus Bus;
    Bus.setBatchCapacity(AccessBatch::MaxCapacity);
    Bus.attach(&Writer);
    SimHeap Heap(Bus);
    CostModel Cost;
    std::unique_ptr<Telemetry> Telem;
    if (Level != TelemetryLevel::Off)
      Telem = std::make_unique<Telemetry>(Level);
    Heap.attachTelemetry(Telem.get());
    std::unique_ptr<Allocator> Alloc =
        createAllocator(AllocatorKind::QuickFit, Heap, Cost);
    Alloc->attachTelemetry(Telem.get());
    const AppProfile &Profile = getProfile(WorkloadId::Espresso);
    EngineOptions Options;
    Options.Scale = 512;
    WorkloadEngine Engine(Profile, Options);
    Driver Drive(*Alloc, Bus, Cost, Profile.instrPerRef());
    Drive.attachTelemetry(Telem.get());
    Engine.generate([&](const AllocEvent &Event) { Drive.execute(Event); });
    Bus.flush();
    return Out.str();
  };
  std::string Off = Capture(TelemetryLevel::Off);
  std::string Full = Capture(TelemetryLevel::Full);
  ASSERT_FALSE(Off.empty());
  EXPECT_EQ(Off, Full);
}

//===----------------------------------------------------------------------===//
// Cross-checks: probe output vs independent measurements
//===----------------------------------------------------------------------===//

TEST(TelemetryCrossCheckTest, BaseCountersMatchAllocatorStats) {
  for (AllocatorKind Kind : PaperAllocators) {
    SCOPED_TRACE(allocatorKindName(Kind));
    ExperimentConfig Config = paperConfig(WorkloadId::Espresso, Kind);
    Config.Telemetry = TelemetryLevel::Full;
    RunResult Result = runExperiment(Config);
    const TelemetrySnapshot &T = Result.Telemetry;
    EXPECT_EQ(T.counterValue("alloc.mallocs"), Result.Alloc.MallocCalls);
    EXPECT_EQ(T.counterValue("alloc.frees"), Result.Alloc.FreeCalls);
    // Every malloc records one search-length sample, and the samples sum to
    // the independent BlocksExamined tally.
    EXPECT_EQ(T.histogram("alloc.search_len").Count,
              Result.Alloc.MallocCalls);
    EXPECT_EQ(T.histogram("alloc.search_len").Sum, Result.BlocksSearched);
    // Per-set conflict profiles partition each cache's misses.
    for (size_t C = 0; C != Result.Caches.size(); ++C)
      EXPECT_EQ(
          T.histogram("cache." + std::to_string(C) + ".set_misses").Sum,
          Result.Caches[C].Stats.Misses)
          << "cache " << C;
  }
}

TEST(TelemetryCrossCheckTest, QuickFitClassHitsPartitionMallocs) {
  // Every QUICKFIT malloc is either an exact-size fast hit or a miss routed
  // to the general backend — the two counters must partition the malloc
  // count exactly, and the backend's own malloc counter must equal the miss
  // count.
  ExperimentConfig Config =
      paperConfig(WorkloadId::GsSmall, AllocatorKind::QuickFit);
  Config.Telemetry = TelemetryLevel::Full;
  RunResult Result = runExperiment(Config);
  const TelemetrySnapshot &T = Result.Telemetry;
  uint64_t Hits = T.counterValue("alloc.class_hits");
  uint64_t Misses = T.counterValue("alloc.class_misses");
  EXPECT_GT(Hits, 0u);
  EXPECT_EQ(Hits + Misses, Result.Alloc.MallocCalls);
  EXPECT_EQ(T.counterValue("alloc.general.mallocs"), Misses);
}

TEST(TelemetryCrossCheckTest, FirstFitSearchesLongerThanQuickFit) {
  // The paper's Fig. 6-8 mechanism claim, checked on the small ghostscript
  // workload: FIRSTFIT walks a long freelist per malloc, QUICKFIT's
  // exact-size lists make most mallocs zero-search, so FIRSTFIT's mean
  // search length must be strictly larger.
  auto MeanSearchLen = [](AllocatorKind Kind) {
    ExperimentConfig Config = paperConfig(WorkloadId::GsSmall, Kind);
    Config.Telemetry = TelemetryLevel::Full;
    RunResult Result = runExperiment(Config);
    const HistogramSnapshot &Hist =
        Result.Telemetry.histogram("alloc.search_len");
    EXPECT_GT(Hist.Count, 0u);
    return Hist.mean();
  };
  double FirstFitMean = MeanSearchLen(AllocatorKind::FirstFit);
  double QuickFitMean = MeanSearchLen(AllocatorKind::QuickFit);
  EXPECT_GT(FirstFitMean, QuickFitMean);
  EXPECT_GT(FirstFitMean, 1.0);
}

TEST(TelemetryCrossCheckTest, SbrkProbesMatchHeapGrowth) {
  // The heap's sbrk telemetry must reconcile with the final heap size: the
  // chunk histogram's sum is exactly the number of bytes the break moved.
  ExperimentConfig Config =
      paperConfig(WorkloadId::Espresso, AllocatorKind::FirstFit);
  Config.Telemetry = TelemetryLevel::Full;
  RunResult Result = runExperiment(Config);
  const TelemetrySnapshot &T = Result.Telemetry;
  EXPECT_EQ(T.counterValue("mem.sbrk_bytes"), Result.HeapBytes);
  EXPECT_EQ(T.histogram("mem.sbrk_chunk").Sum, Result.HeapBytes);
  EXPECT_EQ(T.histogram("mem.sbrk_chunk").Count,
            T.counterValue("mem.sbrk_calls"));
}

TEST(TelemetryCrossCheckTest, DriverEventCountMatchesOpHistograms) {
  // The driver's per-op-kind instruction histograms must jointly account
  // for every executed event, and their total instruction mass must equal
  // the run's instruction split.
  ExperimentConfig Config =
      paperConfig(WorkloadId::Espresso, AllocatorKind::Bsd);
  Config.Telemetry = TelemetryLevel::Full;
  RunResult Result = runExperiment(Config);
  const TelemetrySnapshot &T = Result.Telemetry;
  uint64_t OpSamples = 0, OpInstr = 0;
  for (const char *Name : {"driver.malloc_instr", "driver.free_instr",
                           "driver.touch_instr", "driver.stack_instr"}) {
    OpSamples += T.histogram(Name).Count;
    OpInstr += T.histogram(Name).Sum;
  }
  EXPECT_EQ(OpSamples, T.counterValue("driver.events"));
  EXPECT_GT(OpSamples, 0u);
  // Every instruction is charged inside some driver-executed operation.
  EXPECT_EQ(OpInstr, Result.totalInstructions());
  EXPECT_EQ(T.histogram("driver.malloc_instr").Count,
            Result.Alloc.MallocCalls);
  EXPECT_EQ(T.histogram("driver.free_instr").Count, Result.Alloc.FreeCalls);
}
