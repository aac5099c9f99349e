//===- tests/cache_engine_equivalence_test.cpp - StackSim vs CacheBank ----===//
//
// The exactness contract behind the stack-distance engine: for any cache
// family sharing block size and set count, StackSim's derived statistics —
// total and split by AccessSource — must equal per-config CacheBank
// simulation *bit-exactly*, at the sink level (synthesized streams, scalar
// and batched delivery) and end to end (corpus scripts and the full
// Figure 6-8 sweep across all seven allocator kinds, through
// runScriptExperiment/runExperiment with CacheEngine PerConfig vs
// StackDist).
//
// A failure here means the one-pass engine and the reference simulators
// disagree about LRU semantics; neither side is trusted over the other —
// the stack engine double-enters the cache bank's books.
//
//===----------------------------------------------------------------------===//

#include "analyze/TraceLint.h"
#include "cache/StackSim.h"
#include "core/Lab.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

using namespace allocsim;

namespace {

/// The seven allocator kinds the acceptance contract quantifies over: the
/// paper's five plus the two modern CacheLab backends.
std::vector<AllocatorKind> sevenAllocators() {
  std::vector<AllocatorKind> Kinds(PaperAllocators, PaperAllocators + 5);
  Kinds.push_back(AllocatorKind::BitmapFit);
  Kinds.push_back(AllocatorKind::SpaceFit);
  return Kinds;
}

/// The three family shapes under test: the Figure 6-8 family (512 sets,
/// assoc 1..16), a fully-associative chain (1 set each — Assoc equals
/// numBlocks, the inclusion property in its purest form), and a deliberate
/// mixed-associativity family that shares sets but skips powers.
std::vector<CacheConfig> fullyAssocFamily() {
  return {CacheConfig{512, 32, 16}, CacheConfig{1024, 32, 32},
          CacheConfig{2048, 32, 64}};
}

std::vector<CacheConfig> sparseFamily() {
  return {CacheConfig{16 * 1024, 32, 1}, CacheConfig{64 * 1024, 32, 4},
          CacheConfig{256 * 1024, 32, 16}};
}

void expectStatsEqual(const CacheStats &Per, const CacheStats &Dist,
                      const std::string &What) {
  SCOPED_TRACE(What);
  EXPECT_EQ(Per.Accesses, Dist.Accesses);
  EXPECT_EQ(Per.Misses, Dist.Misses);
  for (unsigned S = 0; S != NumAccessSources; ++S) {
    EXPECT_EQ(Per.AccessesBySource[S], Dist.AccessesBySource[S])
        << "source " << S;
    EXPECT_EQ(Per.MissesBySource[S], Dist.MissesBySource[S])
        << "source " << S;
  }
}

/// Synthesizes a reference stream that exercises every dimension the frame
/// split and set mapping care about: all three sources, sizes that straddle
/// block boundaries, reuse at many distances, and addresses whose Size
/// extension wraps past 0xFFFFFFFF into frame 0.
std::vector<MemAccess> synthesizeStream(uint64_t Seed, size_t Count) {
  Rng R(Seed);
  std::vector<MemAccess> Stream;
  Stream.reserve(Count);
  // A handful of hot bases makes reuse distances realistic instead of
  // uniformly cold.
  const Addr Bases[] = {HeapBase, HeapBase + 4096, StackBase, 0xFFFFFFF0u};
  for (size_t I = 0; I != Count; ++I) {
    MemAccess Acc;
    const Addr Base = Bases[R.nextBelow(4)];
    Acc.Address = Base + static_cast<Addr>(R.nextBelow(32 * 1024));
    Acc.Size = static_cast<uint8_t>(1 + R.nextBelow(64));
    Acc.Kind = R.nextBool(0.3) ? AccessKind::Write : AccessKind::Read;
    Acc.Source = static_cast<AccessSource>(R.nextBelow(NumAccessSources));
    Stream.push_back(Acc);
  }
  return Stream;
}

/// Delivers \p Stream to both engines — scalar and batched — and asserts
/// member-by-member equality of every derived statistic.
void checkFamilyOnStream(const std::vector<CacheConfig> &Family,
                         const std::vector<MemAccess> &Stream,
                         const std::string &What) {
  ASSERT_EQ(describeStackFamilyProblem(Family), "");

  CacheBank ScalarBank, BatchedBank;
  for (const CacheConfig &Config : Family) {
    ScalarBank.addCache(Config);
    BatchedBank.addCache(Config);
  }
  StackSim ScalarStack(Family), BatchedStack(Family);

  for (const MemAccess &Acc : Stream) {
    ScalarBank.access(Acc);
    ScalarStack.access(Acc);
  }
  constexpr size_t Chunk = 256;
  for (size_t Offset = 0; Offset < Stream.size(); Offset += Chunk) {
    size_t Count = std::min(Chunk, Stream.size() - Offset);
    BatchedBank.accessBatch(Stream.data() + Offset, Count);
    BatchedStack.accessBatch(Stream.data() + Offset, Count);
  }

  for (size_t I = 0; I != Family.size(); ++I) {
    const std::string Member = What + ", member " + Family[I].describe();
    expectStatsEqual(ScalarBank.cache(I).stats(), ScalarStack.statsFor(I),
                     Member + " (scalar)");
    expectStatsEqual(BatchedBank.cache(I).stats(), BatchedStack.statsFor(I),
                     Member + " (batched)");
    // The two StackSim delivery paths must agree with each other too.
    expectStatsEqual(ScalarStack.statsFor(I), BatchedStack.statsFor(I),
                     Member + " (stack scalar vs batched)");
  }
}

/// Seeded bus records as the driver and allocators emit them, plus the
/// irregular single references a replayed trace may hold: ascending and
/// descending word runs of 1..127 words that cross block boundaries
/// mid-run, runs that end at or wrap past 0xFFFFFFFF, and single
/// references of 1..64 bytes at any alignment.
std::vector<MemAccess> synthesizeRunStream(uint64_t Seed, size_t Count) {
  Rng R(Seed);
  std::vector<MemAccess> Stream;
  Stream.reserve(Count);
  const Addr Bases[] = {HeapBase, HeapBase + 4096, StackBase,
                        0xFFFFFFFCu - 8 * 1024};
  for (size_t I = 0; I != Count; ++I) {
    MemAccess Acc;
    Acc.Address =
        Bases[R.nextBelow(4)] + static_cast<Addr>(R.nextBelow(16 * 1024));
    Acc.Kind = R.nextBool(0.3) ? AccessKind::Write : AccessKind::Read;
    Acc.Source = static_cast<AccessSource>(R.nextBelow(NumAccessSources));
    if (R.nextBool(0.2)) {
      Acc.Size = static_cast<uint8_t>(1 + R.nextBelow(64));
    } else {
      Acc.Address &= ~Addr{3};
      const int Words = 1 + static_cast<int>(R.nextBelow(MaxRunWords));
      Acc.Run = static_cast<int8_t>(R.nextBool(0.3) ? -Words : Words);
    }
    Stream.push_back(Acc);
  }
  return Stream;
}

/// The single references a record stream stands for.
std::vector<MemAccess> expandRuns(const std::vector<MemAccess> &Records) {
  std::vector<MemAccess> Words;
  for (const MemAccess &Record : Records)
    forEachWord(Record, [&](const MemAccess &Word) { Words.push_back(Word); });
  return Words;
}

/// Run-vs-word: the record stream goes to one bank and one StackSim
/// through accessBatch; its word expansion goes to another pair one word
/// at a time through access(), the per-word oracle. Every member's
/// statistics and per-set miss profile must agree across all four.
void checkRunsAgainstWords(const std::vector<CacheConfig> &Family,
                           const std::vector<MemAccess> &Records,
                           const std::string &What) {
  ASSERT_EQ(describeStackFamilyProblem(Family), "");
  CacheBank WordBank, RunBank;
  for (const CacheConfig &Config : Family) {
    WordBank.cache(WordBank.addCache(Config)).enableSetProfile();
    RunBank.cache(RunBank.addCache(Config)).enableSetProfile();
  }
  StackSim WordStack(Family), RunStack(Family);
  WordStack.enableSetProfile();
  RunStack.enableSetProfile();

  for (const MemAccess &Word : expandRuns(Records)) {
    WordBank.access(Word);
    WordStack.access(Word);
  }
  constexpr size_t Chunk = 256;
  for (size_t Offset = 0; Offset < Records.size(); Offset += Chunk) {
    const size_t Count = std::min(Chunk, Records.size() - Offset);
    RunBank.accessBatch(Records.data() + Offset, Count);
    RunStack.accessBatch(Records.data() + Offset, Count);
  }

  for (size_t I = 0; I != Family.size(); ++I) {
    const std::string Member = What + ", member " + Family[I].describe();
    const CacheStats &Words = WordBank.cache(I).stats();
    expectStatsEqual(Words, RunBank.cache(I).stats(), Member + " (bank)");
    expectStatsEqual(Words, WordStack.statsFor(I), Member + " (word stack)");
    expectStatsEqual(Words, RunStack.statsFor(I), Member + " (run stack)");
    EXPECT_EQ(WordBank.cache(I).setMissProfile(),
              RunBank.cache(I).setMissProfile())
        << Member;
    EXPECT_EQ(WordBank.cache(I).setMissProfile(),
              RunStack.setMissProfile(I))
        << Member;
  }
  EXPECT_EQ(WordStack.distanceTotals(), RunStack.distanceTotals()) << What;
  EXPECT_EQ(WordStack.coldMisses(), RunStack.coldMisses()) << What;
}

std::vector<std::filesystem::path> corpusScripts() {
  std::vector<std::filesystem::path> Paths;
  for (const auto &Entry :
       std::filesystem::directory_iterator(ALLOCSIM_CORPUS_DIR))
    if (Entry.path().extension() == ".events")
      Paths.push_back(Entry.path());
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}

std::vector<AllocEvent> loadScript(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In) << "cannot read " << Path;
  DiagEngine Diags;
  std::vector<LocatedAllocEvent> Located = lintTraceScript(In, Diags);
  EXPECT_EQ(Diags.errorCount(), 0u)
      << "corpus script must be sound: " << Diags.firstError();
  std::vector<AllocEvent> Events;
  Events.reserve(Located.size());
  for (const LocatedAllocEvent &Event : Located)
    Events.push_back(Event.Event);
  return Events;
}

/// Runs the same experiment under both engines and asserts per-cache
/// bit-exactness of everything RunResult carries for a cache.
void checkRunPair(const ExperimentConfig &Base, const std::string &What,
                  const std::vector<AllocEvent> *Script = nullptr) {
  ExperimentConfig PerCfg = Base;
  PerCfg.CacheEngine = CacheEngineKind::PerConfig;
  ExperimentConfig Stack = Base;
  Stack.CacheEngine = CacheEngineKind::StackDist;

  RunResult Per = Script ? runScriptExperiment(PerCfg, *Script)
                         : runExperiment(PerCfg);
  RunResult Dist = Script ? runScriptExperiment(Stack, *Script)
                          : runExperiment(Stack);

  ASSERT_EQ(Per.Caches.size(), Dist.Caches.size());
  EXPECT_EQ(Per.TotalRefs, Dist.TotalRefs);
  for (size_t I = 0; I != Per.Caches.size(); ++I) {
    const std::string Member =
        What + ", member " + Per.Caches[I].Config.describe();
    EXPECT_EQ(Per.Caches[I].Config, Dist.Caches[I].Config);
    expectStatsEqual(Per.Caches[I].Stats, Dist.Caches[I].Stats, Member);
    EXPECT_EQ(Per.Caches[I].Time.totalCycles(), Dist.Caches[I].Time.totalCycles())
        << Member;
  }
}

} // namespace

TEST(CacheEngineEquivalenceTest, SynthesizedStreams) {
  const struct {
    const char *Name;
    std::vector<CacheConfig> Family;
  } Families[] = {
      {"fig678", stackCacheSweep()},
      {"fully-assoc", fullyAssocFamily()},
      {"sparse", sparseFamily()},
      {"single", {CacheConfig{16 * 1024, 32, 1}}},
  };
  for (const auto &Entry : Families)
    for (uint64_t Seed : {1u, 42u, 20260808u})
      checkFamilyOnStream(Entry.Family, synthesizeStream(Seed, 40000),
                          std::string(Entry.Name) + " seed " +
                              std::to_string(Seed));
}

TEST(CacheEngineEquivalenceTest, TinyStreamEdges) {
  // Empty stream, one access, and one whose bytes wrap past 0xFFFFFFFF
  // (the top frame, then frame 0).
  const std::vector<CacheConfig> Family = stackCacheSweep();
  checkFamilyOnStream(Family, {}, "empty stream");
  checkFamilyOnStream(Family, {MemAccess{HeapBase, 4}}, "one access");
  MemAccess Wrap;
  Wrap.Address = 0xFFFFFFFFu;
  Wrap.Size = 8;
  checkFamilyOnStream(Family, {Wrap}, "wrapping access");
}

TEST(CacheEngineEquivalenceTest, WordRunsMatchWordByWordDelivery) {
  // One probe per block a run touches is exact at every block size: 4-byte
  // blocks (no run collapses), 16, 32 and 64. Direct-mapped-only families
  // run the bank's nested sweep; the others its per-cache loop, with the
  // set-associative members on the word-expansion path.
  const struct {
    const char *Name;
    std::vector<CacheConfig> Family;
  } Families[] = {
      {"fig678", stackCacheSweep()},
      {"4B blocks", {CacheConfig{1024, 4, 1}, CacheConfig{2048, 4, 2}}},
      {"16B blocks",
       {CacheConfig{4096, 16, 1}, CacheConfig{8192, 16, 2},
        CacheConfig{32 * 1024, 16, 8}}},
      {"64B blocks", {CacheConfig{8192, 64, 1}, CacheConfig{16 * 1024, 64, 2}}},
      {"single dm", {CacheConfig{16 * 1024, 32, 1}}},
      {"fully-assoc", fullyAssocFamily()},
  };
  for (const auto &Entry : Families)
    for (uint64_t Seed : {3u, 77u})
      checkRunsAgainstWords(Entry.Family, synthesizeRunStream(Seed, 20000),
                            std::string(Entry.Name) + " seed " +
                                std::to_string(Seed));
}

TEST(CacheEngineEquivalenceTest, NestedSweepRunsMatchWordByWordDelivery) {
  // The nested direct-mapped sweep (a bank of direct-mapped caches of one
  // block size) against the same caches probed word by word.
  for (uint32_t Block : {4u, 16u, 32u, 64u}) {
    SCOPED_TRACE(std::to_string(Block) + "B blocks");
    CacheBank WordBank, RunBank;
    for (uint32_t Size : {1024u, 4096u, 16384u}) {
      WordBank.cache(WordBank.addCache({Size, Block, 1})).enableSetProfile();
      RunBank.cache(RunBank.addCache({Size, Block, 1})).enableSetProfile();
    }
    ASSERT_TRUE(RunBank.usesNestedSweep());
    const std::vector<MemAccess> Records = synthesizeRunStream(Block, 20000);
    for (const MemAccess &Word : expandRuns(Records))
      WordBank.accessBatch(&Word, 1);
    RunBank.accessBatch(Records.data(), Records.size());
    for (size_t I = 0; I != WordBank.size(); ++I) {
      expectStatsEqual(WordBank.cache(I).stats(), RunBank.cache(I).stats(),
                       WordBank.cache(I).config().describe());
      EXPECT_EQ(WordBank.cache(I).setMissProfile(),
                RunBank.cache(I).setMissProfile());
    }
  }
}

TEST(CacheEngineEquivalenceTest, VictimCacheRunsMatchWordByWordDelivery) {
  // Victim caches take runs through AccessSink's word expansion.
  for (uint32_t Block : {16u, 32u}) {
    VictimCache Words({4096, Block, 1}, 4), Runs({4096, Block, 1}, 4);
    const std::vector<MemAccess> Records = synthesizeRunStream(Block, 20000);
    for (const MemAccess &Word : expandRuns(Records))
      Words.access(Word);
    Runs.accessBatch(Records.data(), Records.size());
    expectStatsEqual(Words.stats(), Runs.stats(),
                     "victim, " + std::to_string(Block) + "B blocks");
    EXPECT_EQ(Words.victimHits(), Runs.victimHits());
  }
}

TEST(CacheEngineEquivalenceTest, CorpusScriptsAllAllocators) {
  for (const auto &Path : corpusScripts()) {
    std::vector<AllocEvent> Events = loadScript(Path);
    for (AllocatorKind Allocator : sevenAllocators()) {
      for (bool Batched : {false, true}) {
        SCOPED_TRACE(Path.filename().string() + " vs " +
                     allocatorKindName(Allocator) +
                     (Batched ? " (batched)" : " (scalar)"));
        ExperimentConfig Config;
        Config.Allocator = Allocator;
        Config.Caches = stackCacheSweep();
        Config.BatchedDelivery = Batched;
        checkRunPair(Config, Path.filename().string(), &Events);
      }
    }
  }
}

TEST(CacheEngineEquivalenceTest, Fig678SweepAllSevenAllocators) {
  // The acceptance sweep: the full Figure 6-8 family under every allocator
  // kind, through the real workload engine (reduced scale — the reference
  // mix is identical in kind, just shorter).
  for (AllocatorKind Allocator : sevenAllocators()) {
    SCOPED_TRACE(allocatorKindName(Allocator));
    ExperimentConfig Config;
    Config.Workload = WorkloadId::GsSmall;
    Config.Allocator = Allocator;
    Config.Engine.Scale = 64;
    Config.Caches = stackCacheSweep();
    checkRunPair(Config, allocatorKindName(Allocator));
  }
}

TEST(CacheEngineEquivalenceTest, FullyAssociativeEndToEnd) {
  // Assoc == numBlocks() members (one set each): the degenerate geometry
  // satellite meets the inclusion property head on.
  ExperimentConfig Config;
  Config.Workload = WorkloadId::Espresso;
  Config.Engine.Scale = 64;
  Config.Caches = fullyAssocFamily();
  checkRunPair(Config, "fully-assoc end-to-end");
}

TEST(CacheEngineEquivalenceTest, SetMissTelemetryMatches) {
  // Under full telemetry both engines must surface identical
  // cache.<I>.set_misses histograms (and identical merged snapshots except
  // for the stack engine's own cache.stackdist.* additions).
  std::vector<AllocEvent> Events = loadScript(corpusScripts().front());
  ExperimentConfig Base;
  Base.Allocator = AllocatorKind::FirstFit;
  Base.Caches = stackCacheSweep();
  Base.Telemetry = TelemetryLevel::Full;

  ExperimentConfig PerCfg = Base;
  PerCfg.CacheEngine = CacheEngineKind::PerConfig;
  ExperimentConfig Stack = Base;
  Stack.CacheEngine = CacheEngineKind::StackDist;
  RunResult Per = runScriptExperiment(PerCfg, Events);
  RunResult Dist = runScriptExperiment(Stack, Events);

  for (size_t I = 0; I != Base.Caches.size(); ++I) {
    std::string Name = "cache." + std::to_string(I) + ".set_misses";
    EXPECT_EQ(Per.Telemetry.histogram(Name), Dist.Telemetry.histogram(Name))
        << Name;
  }
  // The stack engine's probes exist and are self-consistent: every frame
  // is either found at a finite distance or cold.
  uint64_t Frames = Dist.Telemetry.counterValue("cache.stackdist.frames");
  uint64_t Cold = Dist.Telemetry.counterValue("cache.stackdist.cold");
  EXPECT_EQ(Frames, Per.Caches[0].Stats.Accesses);
  EXPECT_EQ(Dist.Telemetry.counterValue("cache.stackdist.members"),
            Base.Caches.size());
  const HistogramSnapshot &Distances =
      Dist.Telemetry.histogram("cache.stackdist.distance");
  EXPECT_EQ(Distances.Count + Cold, Frames);
}

TEST(CacheEngineEquivalenceTest, FamilyProblemDiagnostics) {
  EXPECT_EQ(describeStackFamilyProblem({}), "");
  EXPECT_EQ(describeStackFamilyProblem(stackCacheSweep()), "");
  EXPECT_EQ(describeStackFamilyProblem(fullyAssocFamily()), "");

  // paperCacheSweep is all direct-mapped: set counts differ.
  EXPECT_NE(describeStackFamilyProblem(paperCacheSweep()), "");
  // Mixed block sizes.
  EXPECT_NE(describeStackFamilyProblem(
                {CacheConfig{16 * 1024, 32, 1}, CacheConfig{32 * 1024, 64, 2}}),
            "");
  // Duplicates.
  EXPECT_NE(describeStackFamilyProblem(
                {CacheConfig{16 * 1024, 32, 1}, CacheConfig{16 * 1024, 32, 1}}),
            "");
  // Invalid member.
  EXPECT_NE(describeStackFamilyProblem({CacheConfig{16 * 1024, 0, 1}}), "");
}

TEST(CacheEngineEquivalenceTest, ChooseCacheEngineFollowsGeometry) {
  // The stack engine serves every stack-legal family with an associative
  // member.
  std::vector<CacheConfig> Dense;
  for (uint32_t Assoc = 1; Assoc <= 128; Assoc *= 2)
    Dense.push_back(CacheConfig{64 * 32 * Assoc, 32, Assoc});
  EXPECT_EQ(chooseCacheEngine(stackCacheSweep()), CacheEngineKind::StackDist);
  EXPECT_EQ(chooseCacheEngine(Dense), CacheEngineKind::StackDist);
  EXPECT_EQ(chooseCacheEngine({CacheConfig{64 * 1024, 32, 4}}),
            CacheEngineKind::StackDist);

  // Everything else stays per-config: the paper's direct-mapped sweep
  // (CacheBank's nested sweep), a lone direct-mapped cache, mixed block
  // sizes, and no caches at all.
  EXPECT_EQ(chooseCacheEngine(paperCacheSweep()), CacheEngineKind::PerConfig);
  EXPECT_EQ(chooseCacheEngine({CacheConfig{16 * 1024, 32, 1}}),
            CacheEngineKind::PerConfig);
  EXPECT_EQ(chooseCacheEngine(
                {CacheConfig{16 * 1024, 32, 1}, CacheConfig{32 * 1024, 64, 2}}),
            CacheEngineKind::PerConfig);
  EXPECT_EQ(chooseCacheEngine({}), CacheEngineKind::PerConfig);
}
