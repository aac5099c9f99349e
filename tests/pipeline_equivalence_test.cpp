//===- tests/pipeline_equivalence_test.cpp - Batched == scalar ------------===//
//
// The batched reference pipeline is a pure throughput optimization: the
// paper's methodology depends on bit-identical miss and fault counts across
// allocators, so batching is only admissible if it changes *nothing* but
// wall-clock time. This suite runs the same experiments twice — once with
// scalar delivery (capacity-1 batches that expand every word run, the
// historical word-at-a-time bus and the oracle) and once with full
// batching, where the driver's sweeps travel as word runs — and requires
// every field of the results to be exactly equal: instruction splits,
// Table-2 reference tallies, per-cache per-source miss counts, page-fault
// curves, heap-check verdicts, and the serialized trace bytes.
//
//===----------------------------------------------------------------------===//

#include "cache/StackSim.h"
#include "core/MatrixRunner.h"
#include "support/Rng.h"
#include "trace/RefTrace.h"
#include "vm/PageSim.h"
#include "workload/Driver.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace allocsim;

namespace {

/// Field-by-field exact comparison of two RunResults. Doubles are compared
/// with ==: both runs execute the identical arithmetic on identical
/// integers, so even the derived rates must agree to the last bit.
void expectIdentical(const RunResult &Scalar, const RunResult &Batched,
                     const std::string &Label) {
  SCOPED_TRACE(Label);
  EXPECT_EQ(Scalar.AppInstructions, Batched.AppInstructions);
  EXPECT_EQ(Scalar.AllocInstructions, Batched.AllocInstructions);
  EXPECT_EQ(Scalar.TotalRefs, Batched.TotalRefs);
  EXPECT_EQ(Scalar.AppRefs, Batched.AppRefs);
  EXPECT_EQ(Scalar.AllocRefs, Batched.AllocRefs);
  EXPECT_EQ(Scalar.TagRefs, Batched.TagRefs);

  EXPECT_EQ(Scalar.Alloc.MallocCalls, Batched.Alloc.MallocCalls);
  EXPECT_EQ(Scalar.Alloc.FreeCalls, Batched.Alloc.FreeCalls);
  EXPECT_EQ(Scalar.Alloc.BytesRequested, Batched.Alloc.BytesRequested);
  EXPECT_EQ(Scalar.Alloc.LiveBytes, Batched.Alloc.LiveBytes);
  EXPECT_EQ(Scalar.Alloc.MaxLiveBytes, Batched.Alloc.MaxLiveBytes);
  EXPECT_EQ(Scalar.HeapBytes, Batched.HeapBytes);
  EXPECT_EQ(Scalar.BlocksSearched, Batched.BlocksSearched);

  ASSERT_EQ(Scalar.Caches.size(), Batched.Caches.size());
  for (size_t I = 0; I != Scalar.Caches.size(); ++I) {
    SCOPED_TRACE("cache " + Scalar.Caches[I].Config.describe());
    const CacheStats &S = Scalar.Caches[I].Stats;
    const CacheStats &B = Batched.Caches[I].Stats;
    EXPECT_EQ(S.Accesses, B.Accesses);
    EXPECT_EQ(S.Misses, B.Misses);
    for (unsigned Source = 0; Source != NumAccessSources; ++Source) {
      EXPECT_EQ(S.AccessesBySource[Source], B.AccessesBySource[Source]);
      EXPECT_EQ(S.MissesBySource[Source], B.MissesBySource[Source]);
    }
    EXPECT_EQ(Scalar.Caches[I].Time.seconds(), Batched.Caches[I].Time.seconds());
  }

  ASSERT_EQ(Scalar.Paging.size(), Batched.Paging.size());
  for (size_t I = 0; I != Scalar.Paging.size(); ++I) {
    EXPECT_EQ(Scalar.Paging[I].MemoryKb, Batched.Paging[I].MemoryKb);
    EXPECT_EQ(Scalar.Paging[I].FaultsPerRef, Batched.Paging[I].FaultsPerRef);
  }
  EXPECT_EQ(Scalar.DistinctPages, Batched.DistinctPages);

  EXPECT_EQ(Scalar.CheckViolations, Batched.CheckViolations);
  EXPECT_EQ(Scalar.CheckWalks, Batched.CheckWalks);
  EXPECT_EQ(Scalar.CheckReports, Batched.CheckReports);
}

/// Runs \p Config under both delivery modes and requires identity.
void expectEquivalent(ExperimentConfig Config, const std::string &Label) {
  Config.BatchedDelivery = false;
  RunResult Scalar = runExperiment(Config);
  Config.BatchedDelivery = true;
  RunResult Batched = runExperiment(Config);
  expectIdentical(Scalar, Batched, Label);
}

ExperimentConfig paperConfig(WorkloadId Workload, AllocatorKind Allocator) {
  ExperimentConfig Config;
  Config.Workload = Workload;
  Config.Allocator = Allocator;
  Config.Engine.Scale = 128;
  Config.Engine.Seed = 1592932958;
  Config.Caches = paperCacheSweep();
  Config.PagingMemoryKb = {256, 1024};
  return Config;
}

} // namespace

TEST(PipelineEquivalenceTest, AllPaperAllocatorsOnEspresso) {
  for (AllocatorKind Kind : PaperAllocators)
    expectEquivalent(paperConfig(WorkloadId::Espresso, Kind),
                     std::string("espresso/") + allocatorKindName(Kind));
}

TEST(PipelineEquivalenceTest, AllPaperAllocatorsOnGsSmall) {
  // The Fig. 6-8 subject: the full multi-cache sweep on the ghostscript
  // workload, where the batched fast paths run hottest.
  for (AllocatorKind Kind : PaperAllocators)
    expectEquivalent(paperConfig(WorkloadId::GsSmall, Kind),
                     std::string("gs-small/") + allocatorKindName(Kind));
}

TEST(PipelineEquivalenceTest, BoundaryTagEmulationIdentical) {
  // Table 6: the tag-emulation reference stream (third access source) must
  // batch identically too.
  ExperimentConfig Config =
      paperConfig(WorkloadId::Espresso, AllocatorKind::GnuLocal);
  Config.EmulateBoundaryTags = true;
  expectEquivalent(Config, "espresso/GnuLocal+tags");
}

TEST(PipelineEquivalenceTest, HeapCheckFullIdentical) {
  // With --check=full the ShadowHeap validates every reference and the
  // invariant walkers run on the operation clock; batching must neither
  // change any verdict nor move a walk.
  for (AllocatorKind Kind :
       {AllocatorKind::FirstFit, AllocatorKind::Bsd, AllocatorKind::QuickFit}) {
    ExperimentConfig Config = paperConfig(WorkloadId::Espresso, Kind);
    Config.Engine.Scale = 256;
    Config.Check.Level = CheckLevel::Full;
    Config.Check.IntervalOps = 64;
    Config.Check.AbortOnViolation = false;
    expectEquivalent(Config,
                     std::string("check-full/") + allocatorKindName(Kind));
  }
}

TEST(PipelineEquivalenceTest, GoldenMatrixSerializesIdentically) {
  // The golden paper_small matrix (the allocsim-matrix-v1 snapshot slice):
  // the integer-only serialization of a scalar run and a batched run must
  // be byte-identical, which also pins the batched pipeline to the
  // committed tests/golden/paper_small.json history.
  MatrixSpec Spec;
  Spec.Workloads = {WorkloadId::Espresso, WorkloadId::GsSmall};
  Spec.Allocators = {AllocatorKind::FirstFit, AllocatorKind::QuickFit,
                     AllocatorKind::Bsd};
  Spec.Caches = {CacheConfig{16 * 1024, 32, 1}};
  Spec.PagingMemoryKb = {256};
  Spec.Base.Engine.Scale = 128;
  Spec.Base.Engine.Seed = 1592932958;

  MatrixOptions Options;
  Options.Jobs = 2;

  Spec.Base.BatchedDelivery = false;
  ResultStore ScalarStore = runMatrix(Spec, Options);
  ASSERT_EQ(ScalarStore.failedCount(), 0u);
  Spec.Base.BatchedDelivery = true;
  ResultStore BatchedStore = runMatrix(Spec, Options);
  ASSERT_EQ(BatchedStore.failedCount(), 0u);

  std::ostringstream Scalar, Batched;
  ScalarStore.writeGoldenJson(Scalar);
  BatchedStore.writeGoldenJson(Batched);
  EXPECT_EQ(Scalar.str(), Batched.str());
}

TEST(PipelineEquivalenceTest, RunsMatchWordsAcrossCacheGeometries) {
  // Sinks split word runs at their own block size: 4-, 16- and 64-byte
  // blocks, the nested sweep at 16 bytes, set-associative members on the
  // word-expansion path, the stack engine, and small pages.
  const struct {
    const char *Name;
    std::vector<CacheConfig> Caches;
    CacheEngineKind Engine;
    uint32_t PageBytes;
  } Shapes[] = {
      {"16B nested", {{4096, 16, 1}, {16 * 1024, 16, 1}},
       CacheEngineKind::PerConfig, 4096},
      {"mixed 4B/64B",
       {{1024, 4, 1}, {16 * 1024, 64, 1}, {32 * 1024, 64, 4}},
       CacheEngineKind::PerConfig, 64},
      {"64B stack family",
       {{8192, 64, 1}, {16 * 1024, 64, 2}, {32 * 1024, 64, 4}},
       CacheEngineKind::StackDist, 256},
  };
  for (const auto &Shape : Shapes)
    for (AllocatorKind Kind : {AllocatorKind::FirstFit, AllocatorKind::Bsd}) {
      ExperimentConfig Config = paperConfig(WorkloadId::GsSmall, Kind);
      Config.Caches = Shape.Caches;
      Config.CacheEngine = Shape.Engine;
      Config.PageBytes = Shape.PageBytes;
      expectEquivalent(Config, std::string(Shape.Name) + "/" +
                                   allocatorKindName(Kind));
    }
}

TEST(PipelineEquivalenceTest, RunsBesideHeapCheckFlushPoints) {
  // Touches right before a free and right after a malloc: the runs staged
  // by the touch must be validated before the free's state transition, as
  // the words were under scalar delivery. Includes a touch that wraps the
  // object's end and stack runs that turn at both ends of the window.
  std::vector<AllocEvent> Events;
  for (uint32_t Id = 1; Id != 200; ++Id) {
    Events.push_back(AllocEvent::makeMalloc(Id, 4 + 12 * (Id % 23)));
    Events.push_back(
        AllocEvent::makeTouch(Id, 1 + 37 * (Id % 11), AccessKind::Write));
    Events.push_back(AllocEvent::makeStackTouch(300 + Id, AccessKind::Read));
    if (Id % 3 == 0) {
      Events.push_back(
          AllocEvent::makeTouch(Id - 1, 128, AccessKind::Read));
      Events.push_back(AllocEvent::makeFree(Id - 1));
    }
  }
  for (AllocatorKind Kind :
       {AllocatorKind::FirstFit, AllocatorKind::GnuLocal, AllocatorKind::Bsd}) {
    ExperimentConfig Config = paperConfig(WorkloadId::Espresso, Kind);
    Config.Check.Level = CheckLevel::Full;
    Config.Check.IntervalOps = 1;
    Config.Check.AbortOnViolation = false;
    Config.BatchedDelivery = false;
    RunResult Scalar = runScriptExperiment(Config, Events);
    Config.BatchedDelivery = true;
    RunResult Batched = runScriptExperiment(Config, Events);
    EXPECT_EQ(Scalar.CheckViolations, 0u);
    expectIdentical(Scalar, Batched,
                    std::string("flush points/") + allocatorKindName(Kind));
  }
}

TEST(PipelineEquivalenceTest, BinaryTraceBytesIdentical) {
  // The trace writer is a sink like any other: a batched capture, whose
  // records are word runs, must serialize the very same bytes as a scalar
  // capture.
  auto Capture = [](bool Batch) {
    std::ostringstream Out(std::ios::binary);
    BinaryTraceWriter Writer(Out);
    MemoryBus Bus;
    if (Batch)
      Bus.setBatchCapacity(AccessBatch::MaxCapacity);
    Bus.attach(&Writer);
    SimHeap Heap(Bus);
    CostModel Cost;
    std::unique_ptr<Allocator> Alloc =
        createAllocator(AllocatorKind::FirstFit, Heap, Cost);
    const AppProfile &Profile = getProfile(WorkloadId::Espresso);
    EngineOptions Options;
    Options.Scale = 512;
    WorkloadEngine Engine(Profile, Options);
    Driver Drive(*Alloc, Bus, Cost, Profile.instrPerRef());
    Engine.generate([&](const AllocEvent &Event) { Drive.execute(Event); });
    Bus.flush();
    return Out.str();
  };
  std::string Scalar = Capture(false);
  std::string Batched = Capture(true);
  ASSERT_FALSE(Scalar.empty());
  EXPECT_EQ(Scalar, Batched);
}

TEST(PipelineEquivalenceTest, TextTraceBytesIdentical) {
  // Same for the text writer: one line per word either way.
  auto Capture = [](bool Batch) {
    std::ostringstream Out;
    TextTraceWriter Writer(Out);
    MemoryBus Bus;
    if (Batch)
      Bus.setBatchCapacity(AccessBatch::MaxCapacity);
    Bus.attach(&Writer);
    SimHeap Heap(Bus);
    CostModel Cost;
    std::unique_ptr<Allocator> Alloc =
        createAllocator(AllocatorKind::QuickFit, Heap, Cost);
    const AppProfile &Profile = getProfile(WorkloadId::Gawk);
    EngineOptions Options;
    Options.Scale = 2048;
    WorkloadEngine Engine(Profile, Options);
    Driver Drive(*Alloc, Bus, Cost, Profile.instrPerRef());
    Engine.generate([&](const AllocEvent &Event) { Drive.execute(Event); });
    Bus.flush();
    return Out.str();
  };
  std::string Scalar = Capture(false);
  std::string Batched = Capture(true);
  ASSERT_FALSE(Scalar.empty());
  EXPECT_EQ(Scalar, Batched);
}

TEST(PipelineEquivalenceTest, ReplayedRunsMatchWordByWordDelivery) {
  // replayTrace's reader re-forms the captured words into word runs. Every
  // run-aware sink (StackSim, a lone direct-mapped cache, the nested sweep,
  // and PageSim), the set-associative cache and the victim cache must end
  // with the statistics that word-by-word delivery (next() + access())
  // gives them.
  std::ostringstream Out(std::ios::binary);
  uint64_t Written = 0;
  {
    BinaryTraceWriter Writer(Out);
    MemoryBus Bus;
    Bus.setBatchCapacity(AccessBatch::MaxCapacity);
    Bus.attach(&Writer);
    SimHeap Heap(Bus);
    CostModel Cost;
    std::unique_ptr<Allocator> Alloc =
        createAllocator(AllocatorKind::Bsd, Heap, Cost);
    const AppProfile &Profile = getProfile(WorkloadId::Gawk);
    EngineOptions Options;
    Options.Scale = 512;
    WorkloadEngine Engine(Profile, Options);
    Driver Drive(*Alloc, Bus, Cost, Profile.instrPerRef());
    Engine.generate([&](const AllocEvent &Event) { Drive.execute(Event); });
    Bus.flush();
    Written = Writer.written();
  }
  const std::string Trace = Out.str();
  ASSERT_GT(Written, 100000u);

  const CacheConfig Single{16 * 1024, 32, 1};
  struct Sinks {
    StackSim Stack{stackCacheSweep()};
    CacheBank Lone, Nested, Assoc;
    VictimCache Victim{CacheConfig{16 * 1024, 32, 1}, 4};
    PageSim Pages;
  };
  auto Build = [&](Sinks &S) {
    S.Lone.addCache(Single);
    for (const CacheConfig &Config : paperCacheSweep())
      S.Nested.addCache(Config);
    S.Assoc.addCache(CacheConfig{16 * 1024, 32, 4});
  };
  Sinks Words, Runs;
  Build(Words);
  Build(Runs);
  ASSERT_TRUE(Runs.Nested.usesNestedSweep());
  {
    std::istringstream In(Trace);
    BinaryTraceReader Reader(In);
    MemAccess Word;
    uint64_t N = 0;
    while (Reader.next(Word)) {
      for (AccessSink *Sink :
           std::initializer_list<AccessSink *>{&Words.Stack, &Words.Lone,
                                               &Words.Nested, &Words.Assoc,
                                               &Words.Victim, &Words.Pages})
        Sink->access(Word);
      ++N;
    }
    EXPECT_EQ(N, Written);
  }
  for (AccessSink *Sink : std::initializer_list<AccessSink *>{
           &Runs.Stack, &Runs.Lone, &Runs.Nested, &Runs.Assoc, &Runs.Victim,
           &Runs.Pages}) {
    std::istringstream In(Trace);
    BinaryTraceReader Reader(In);
    EXPECT_EQ(replayTrace(Reader, *Sink), Written);
  }

  auto ExpectSame = [](const CacheStats &A, const CacheStats &B,
                       const std::string &Label) {
    EXPECT_EQ(A.Accesses, B.Accesses) << Label;
    EXPECT_EQ(A.Misses, B.Misses) << Label;
    EXPECT_EQ(A.AccessesBySource, B.AccessesBySource) << Label;
    EXPECT_EQ(A.MissesBySource, B.MissesBySource) << Label;
  };
  for (size_t I = 0; I != Words.Stack.size(); ++I)
    ExpectSame(Words.Stack.statsFor(I), Runs.Stack.statsFor(I),
               "stack " + std::to_string(I));
  ExpectSame(Words.Lone.cache(0).stats(), Runs.Lone.cache(0).stats(), "lone");
  for (size_t I = 0; I != Words.Nested.size(); ++I)
    ExpectSame(Words.Nested.cache(I).stats(), Runs.Nested.cache(I).stats(),
               "nested " + std::to_string(I));
  ExpectSame(Words.Assoc.cache(0).stats(), Runs.Assoc.cache(0).stats(),
             "4-way");
  ExpectSame(Words.Victim.stats(), Runs.Victim.stats(), "victim");
  EXPECT_EQ(Words.Victim.victimHits(), Runs.Victim.victimHits());
  EXPECT_EQ(Words.Pages.references(), Runs.Pages.references());
  EXPECT_EQ(Words.Pages.distinctPages(), Runs.Pages.distinctPages());
  EXPECT_EQ(Words.Pages.zeroDistanceHits(), Runs.Pages.zeroDistanceHits());
  for (uint64_t Pages : {1u, 4u, 16u, 64u, 256u})
    EXPECT_EQ(Words.Pages.faults(Pages), Runs.Pages.faults(Pages)) << Pages;
}

TEST(PipelineEquivalenceTest, RunsOfExactly127And128Words) {
  // 127 words fill one record; 128 take a full record and a one-word one.
  // Counters, record counts and the delivered words match the word bus.
  for (bool Descending : {false, true}) {
    SCOPED_TRACE(Descending ? "descending" : "ascending");
    MemoryBus Runs, Words;
    Runs.setBatchCapacity(AccessBatch::MaxCapacity);
    CollectingSink RunSink, WordSink;
    Runs.attach(&RunSink);
    Words.attach(&WordSink);
    const Addr Start = Descending ? HeapBase + 4096 : HeapBase;
    for (MemoryBus *Bus : {&Runs, &Words}) {
      Bus->emitRun(Start, 127, Descending, AccessKind::Read,
                   AccessSource::Application);
      Bus->emitRun(Start, 128, Descending, AccessKind::Write,
                   AccessSource::Application);
    }
    EXPECT_EQ(Runs.pendingAccesses(), 3u);
    EXPECT_EQ(Words.pendingAccesses(), 0u);
    EXPECT_EQ(Runs.totalAccesses(), 255u);
    EXPECT_EQ(Runs.reads(), 127u);
    EXPECT_EQ(Runs.writes(), 128u);
    EXPECT_EQ(Runs.accessesFrom(AccessSource::Application), 255u);
    Runs.flush();
    ASSERT_EQ(RunSink.records().size(), 255u);
    ASSERT_EQ(WordSink.records().size(), 255u);
    for (size_t I = 0; I != 255; ++I) {
      const MemAccess &Run = RunSink.records()[I];
      const MemAccess &Word = WordSink.records()[I];
      const Addr Offset = 4 * static_cast<Addr>(I < 127 ? I : I - 127);
      EXPECT_EQ(Word.Address, Descending ? Start - Offset : Start + Offset);
      EXPECT_EQ(Run.Address, Word.Address) << I;
      EXPECT_EQ(Run.Kind, Word.Kind) << I;
      EXPECT_EQ(Run.Run, 1);
    }
  }
}

TEST(PipelineEquivalenceTest, UnalignedRunStartsAreEmittedWordByWord) {
  // A run record holds aligned words, so an unaligned start is emitted as
  // single references, ascending or descending, with the same stream.
  for (bool Descending : {false, true}) {
    MemoryBus Bus;
    Bus.setBatchCapacity(AccessBatch::MaxCapacity);
    Bus.emitRun(HeapBase + 2, 5, Descending, AccessKind::Read,
                AccessSource::Application);
    EXPECT_EQ(Bus.pendingAccesses(), 5u);
    EXPECT_EQ(Bus.totalAccesses(), 5u);
    CollectingSink Sink;
    Bus.attach(&Sink);
    Bus.emitRun(HeapBase + 2, 5, Descending, AccessKind::Read,
                AccessSource::Application);
    Bus.flush();
    ASSERT_EQ(Sink.records().size(), 10u);
    for (size_t I = 0; I != 5; ++I)
      EXPECT_EQ(Sink.records()[5 + I].Address,
                Descending ? HeapBase + 2 - 4 * static_cast<Addr>(I)
                           : HeapBase + 2 + 4 * static_cast<Addr>(I));
  }
}

TEST(PipelineEquivalenceTest, ReferencesWrappingPastTheTopCountEveryFrame) {
  // A reference whose bytes run past 0xFFFFFFFF touches the top frame and
  // then frame 0 in every sink; the last word of the address space touches
  // one frame; and word runs ending at or wrapping past the top match their
  // word-by-word delivery.
  const CacheConfig Config{16 * 1024, 32, 1};
  const struct {
    MemAccess Record;
    uint64_t Frames;
  } Cases[] = {
      {{0xFFFFFFFEu, 4, AccessKind::Read, AccessSource::Application}, 2},
      {{0xFFFFFFFCu, 4, AccessKind::Read, AccessSource::Application}, 1},
      {{0xFFFFFFFCu - 4 * 9, 4, AccessKind::Read, AccessSource::Application,
        10},
       10},
      {{0xFFFFFFF8u, 4, AccessKind::Write, AccessSource::Allocator, 4}, 4},
      {{0x00000004u, 4, AccessKind::Write, AccessSource::Application, -3},
       3},
  };
  for (const auto &Case : Cases) {
    SCOPED_TRACE(std::to_string(Case.Record.Address) + " run " +
                 std::to_string(Case.Record.Run));
    CacheBank WordBank, RunBank;
    WordBank.addCache(Config);
    RunBank.addCache(Config);
    StackSim WordStack({Config}), RunStack({Config});
    PageSim WordPages, RunPages;
    forEachWord(Case.Record, [&](const MemAccess &Word) {
      WordBank.access(Word);
      WordStack.access(Word);
      WordPages.access(Word);
    });
    RunBank.accessBatch(&Case.Record, 1);
    RunStack.accessBatch(&Case.Record, 1);
    RunPages.accessBatch(&Case.Record, 1);
    for (const CacheBank *Bank : {&WordBank, &RunBank})
      EXPECT_EQ(Bank->cache(0).stats().Accesses, Case.Frames);
    for (const StackSim *Stack : {&WordStack, &RunStack})
      EXPECT_EQ(Stack->totalFrames(), Case.Frames);
    EXPECT_EQ(WordBank.cache(0).stats().Misses,
              RunBank.cache(0).stats().Misses);
    EXPECT_EQ(WordStack.coldMisses(), RunStack.coldMisses());
    const uint64_t PageRefs = Case.Record.words() == 1 ? Case.Frames
                                                       : Case.Record.words();
    EXPECT_EQ(WordPages.references(), PageRefs);
    EXPECT_EQ(RunPages.references(), PageRefs);
    EXPECT_EQ(WordPages.distinctPages(), RunPages.distinctPages());
    EXPECT_EQ(WordPages.zeroDistanceHits(), RunPages.zeroDistanceHits());
  }
}

TEST(PipelineEquivalenceTest, PageSimRunsMatchWordByWordDelivery) {
  // Ascending and descending runs that cross page boundaries, at 4K, 64-
  // and 4-byte pages (one word per page: no run collapses), with the
  // run-length telemetry attached.
  for (uint32_t PageBytes : {4096u, 64u, 4u}) {
    SCOPED_TRACE(std::to_string(PageBytes) + "-byte pages");
    std::vector<MemAccess> Records;
    Rng R(PageBytes);
    for (int I = 0; I != 5000; ++I) {
      MemAccess Acc;
      Acc.Address = HeapBase + 4 * static_cast<Addr>(R.nextBelow(8192));
      const int Words = 1 + static_cast<int>(R.nextBelow(MaxRunWords));
      Acc.Run = static_cast<int8_t>(R.nextBool(0.4) ? -Words : Words);
      Records.push_back(Acc);
    }
    Telemetry WordTelem(TelemetryLevel::Full), RunTelem(TelemetryLevel::Full);
    PageSim Words(PageBytes), Runs(PageBytes);
    Words.attachTelemetry(&WordTelem);
    Runs.attachTelemetry(&RunTelem);
    for (const MemAccess &Record : Records)
      forEachWord(Record,
                  [&](const MemAccess &Word) { Words.accessBatch(&Word, 1); });
    Runs.accessBatch(Records.data(), Records.size());
    Words.flushRunTelemetry();
    Runs.flushRunTelemetry();
    EXPECT_EQ(Words.references(), Runs.references());
    EXPECT_EQ(Words.distinctPages(), Runs.distinctPages());
    EXPECT_EQ(Words.zeroDistanceHits(), Runs.zeroDistanceHits());
    for (uint64_t Pages : {1u, 2u, 8u, 64u, 1024u})
      EXPECT_EQ(Words.faults(Pages), Runs.faults(Pages)) << Pages;
    EXPECT_EQ(WordTelem.snapshot(), RunTelem.snapshot());
  }
}

TEST(PipelineEquivalenceTest, PageSimRunSkipMatchesScalar) {
  // Direct unit-level check of the PageSim batch fast path, including
  // page-straddling records that must fall back to the scalar split.
  PageSim Scalar(4096), Batched(4096);
  std::vector<MemAccess> Stream;
  Addr Base = 0x1000'0000;
  for (uint32_t I = 0; I != 4000; ++I) {
    // Long same-page runs with periodic page changes and straddles.
    Addr A = Base + (I % 7 == 0 ? (I * 4096u) % (64 * 4096u) : (I * 4) % 4096);
    uint8_t Size = (I % 97 == 0) ? 16 : 4;
    if (I % 511 == 0)
      A = Base + 4094; // straddles into the next page
    Stream.push_back(MemAccess{A, Size, AccessKind::Read,
                               AccessSource::Application});
  }
  for (const MemAccess &Access : Stream)
    Scalar.access(Access);
  for (size_t I = 0; I < Stream.size(); I += 100)
    Batched.accessBatch(Stream.data() + I,
                        std::min<size_t>(100, Stream.size() - I));

  EXPECT_EQ(Scalar.references(), Batched.references());
  EXPECT_EQ(Scalar.distinctPages(), Batched.distinctPages());
  EXPECT_EQ(Scalar.zeroDistanceHits(), Batched.zeroDistanceHits());
  for (uint64_t Pages : {0u, 1u, 2u, 8u, 64u, 1024u})
    EXPECT_EQ(Scalar.faults(Pages), Batched.faults(Pages)) << Pages;
}
