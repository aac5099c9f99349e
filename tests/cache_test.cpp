//===- tests/cache_test.cpp - Cache simulator tests -----------------------===//

#include "cache/CacheSim.h"
#include "cache/StackSim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

using namespace allocsim;

namespace {

MemAccess read4(Addr Address,
                AccessSource Source = AccessSource::Application) {
  return {Address, 4, AccessKind::Read, Source};
}

/// Seeded stream over a few hot regions (one just below 0xffffffe0, so
/// frames reach the top block and some accesses wrap the 32-bit space),
/// with all three sources and sizes up to 40 bytes that straddle blocks.
std::vector<MemAccess> randomStream(uint64_t Seed, size_t Count) {
  const Addr Bases[] = {HeapBase, HeapBase + 300 * 1024, StackBase,
                        0xFFFFFFE0u - 64 * 1024};
  std::vector<MemAccess> Stream;
  uint64_t State = Seed;
  for (size_t I = 0; I != Count; ++I) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t Bits = State >> 16;
    MemAccess Acc;
    // Offsets up to 640K around a base: conflicts in every paper cache.
    const Addr Offset = static_cast<Addr>((Bits >> 8) % (640 * 1024));
    Acc.Address = Bases[Bits % 4] + Offset;
    Acc.Size = static_cast<uint8_t>((Bits >> 40) % 8 == 0
                                        ? 1 + (Bits >> 44) % 40
                                        : 4);
    Acc.Kind = (Bits >> 50) & 1 ? AccessKind::Write : AccessKind::Read;
    Acc.Source = static_cast<AccessSource>((Bits >> 52) % NumAccessSources);
    Stream.push_back(Acc);
  }
  return Stream;
}

std::unique_ptr<CacheSim> makeCache(const CacheConfig &Config) {
  if (Config.Assoc == 1)
    return std::make_unique<DirectMappedCache>(Config);
  return std::make_unique<SetAssocCache>(Config);
}

/// Feeds \p Stream to a bank over \p Configs in uneven batches (with some
/// scalar deliveries mixed in) and to standalone caches through scalar
/// access(); every member's counters and set profile must agree.
void expectBankMatchesScalar(const std::vector<CacheConfig> &Configs,
                             const std::vector<MemAccess> &Stream,
                             bool ExpectNested, bool Profile) {
  CacheBank Bank;
  std::vector<std::unique_ptr<CacheSim>> Oracle;
  for (const CacheConfig &Config : Configs) {
    size_t Index = Bank.addCache(Config);
    Oracle.push_back(makeCache(Config));
    if (Profile) {
      Bank.cache(Index).enableSetProfile();
      Oracle.back()->enableSetProfile();
    }
  }
  EXPECT_EQ(Bank.usesNestedSweep(), ExpectNested);
  for (const MemAccess &Acc : Stream)
    for (auto &Cache : Oracle)
      Cache->access(Acc);
  size_t I = 0, Step = 0;
  while (I != Stream.size()) {
    const size_t Chunk =
        std::min<size_t>(Stream.size() - I, 1 + Step * 37 % 300);
    if (Step % 5 == 4) {
      Bank.access(Stream[I]);
      ++I;
    } else {
      Bank.accessBatch(Stream.data() + I, Chunk);
      I += Chunk;
    }
    ++Step;
  }
  ASSERT_EQ(Bank.size(), Configs.size());
  for (size_t M = 0; M != Configs.size(); ++M) {
    SCOPED_TRACE(Configs[M].describe());
    EXPECT_EQ(Bank.cache(M).config(), Configs[M]) << "index order kept";
    const CacheStats &Got = Bank.cache(M).stats();
    const CacheStats &Want = Oracle[M]->stats();
    EXPECT_EQ(Got.Accesses, Want.Accesses);
    EXPECT_EQ(Got.Misses, Want.Misses);
    EXPECT_EQ(Got.AccessesBySource, Want.AccessesBySource);
    EXPECT_EQ(Got.MissesBySource, Want.MissesBySource);
    EXPECT_EQ(Bank.cache(M).setMissProfile(), Oracle[M]->setMissProfile());
  }
}

} // namespace

TEST(CacheConfigTest, Validity) {
  EXPECT_TRUE((CacheConfig{16 * 1024, 32, 1}).valid());
  EXPECT_TRUE((CacheConfig{64 * 1024, 32, 4}).valid());
  EXPECT_FALSE((CacheConfig{1000, 32, 1}).valid());   // not a power of two
  EXPECT_FALSE((CacheConfig{16 * 1024, 24, 1}).valid());
  EXPECT_FALSE((CacheConfig{32, 32, 2}).valid());     // assoc > blocks
}

TEST(CacheConfigTest, Geometry) {
  CacheConfig Config{16 * 1024, 32, 1};
  EXPECT_EQ(Config.numBlocks(), 512u);
  EXPECT_EQ(Config.numSets(), 512u);
  CacheConfig Assoc{16 * 1024, 32, 4};
  EXPECT_EQ(Assoc.numSets(), 128u);
}

TEST(CacheConfigTest, DegenerateGeometriesAreRejectedWithoutCrashing) {
  // Regression: numBlocks()/numSets() used to divide by zero (and the
  // CacheSim constructor took log2 of BlockBytes before validating), so the
  // reportFatalError path itself crashed on exactly the configs it existed
  // to reject. All of these must return cleanly from the queries and be
  // flagged invalid.
  CacheConfig ZeroAssoc{16 * 1024, 32, 0};
  EXPECT_FALSE(ZeroAssoc.valid());
  EXPECT_EQ(ZeroAssoc.numSets(), 0u);

  CacheConfig ZeroBlock{16 * 1024, 0, 1};
  EXPECT_FALSE(ZeroBlock.valid());
  EXPECT_EQ(ZeroBlock.numBlocks(), 0u);
  EXPECT_EQ(ZeroBlock.numSets(), 0u);

  CacheConfig BlockLargerThanCache{32, 64, 1};
  EXPECT_FALSE(BlockLargerThanCache.valid());
  EXPECT_EQ(BlockLargerThanCache.numBlocks(), 0u);

  CacheConfig ZeroEverything{0, 0, 0};
  EXPECT_FALSE(ZeroEverything.valid());
  EXPECT_EQ(ZeroEverything.numBlocks(), 0u);
  EXPECT_EQ(ZeroEverything.numSets(), 0u);
}

TEST(CacheConfigDeathTest, ConstructorDiagnosesDegenerateGeometry) {
  // The fatal message must actually be produced (validate before deriving
  // BlockShift), naming the offending geometry.
  EXPECT_DEATH({ DirectMappedCache Cache({16 * 1024, 0, 1}); },
               "invalid cache configuration");
  EXPECT_DEATH({ SetAssocCache Cache({16 * 1024, 32, 0}); },
               "invalid cache configuration");
  EXPECT_DEATH({ DirectMappedCache Cache({32, 64, 1}); },
               "invalid cache configuration");
  EXPECT_DEATH({ SetAssocCache Cache({16 * 1024, 24, 1}); },
               "invalid cache configuration");
}

TEST(CacheConfigTest, FullyAssociativeIsLegal) {
  // Assoc == numBlocks() is the fully-associative boundary, not an error.
  CacheConfig Full{512, 32, 16};
  EXPECT_TRUE(Full.valid());
  EXPECT_EQ(Full.numBlocks(), 16u);
  EXPECT_EQ(Full.numSets(), 1u);

  SetAssocCache Cache(Full);
  // 16 distinct blocks cycle without a single conflict eviction; block 17
  // evicts the least recent.
  for (int Round = 0; Round < 3; ++Round)
    for (Addr A = 0; A < 16 * 32; A += 32)
      Cache.access(read4(A));
  EXPECT_EQ(Cache.stats().Misses, 16u) << "cold misses only";
  Cache.access(read4(16 * 32)); // evicts block 0
  Cache.access(read4(0));
  EXPECT_EQ(Cache.stats().Misses, 18u);
}

TEST(CacheConfigTest, DescribePrintsSubKilobyteSizesInBytes) {
  EXPECT_EQ((CacheConfig{512, 32, 16}).describe(), "512B 16-way, 32B blocks");
  EXPECT_EQ((CacheConfig{64 * 1024, 32, 1}).describe(),
            "64K direct-mapped, 32B blocks");
  EXPECT_EQ((CacheConfig{64 * 1024, 32, 4}).describe(),
            "64K 4-way, 32B blocks");
  // Total on invalid configs too — it builds the fatal-error message.
  EXPECT_EQ((CacheConfig{0, 0, 0}).describe(), "0B 0-way, 0B blocks");
}

TEST(CacheConfigTest, EqualityComparesAllFields) {
  CacheConfig A{16 * 1024, 32, 1};
  EXPECT_EQ(A, (CacheConfig{16 * 1024, 32, 1}));
  EXPECT_NE(A, (CacheConfig{32 * 1024, 32, 1}));
  EXPECT_NE(A, (CacheConfig{16 * 1024, 64, 1}));
  EXPECT_NE(A, (CacheConfig{16 * 1024, 32, 2}));
}

TEST(DirectMappedCacheTest, ColdMissThenHit) {
  DirectMappedCache Cache({1024, 32, 1});
  Cache.access(read4(0x1000));
  Cache.access(read4(0x1000));
  Cache.access(read4(0x1004)); // same 32-byte block
  EXPECT_EQ(Cache.stats().Accesses, 3u);
  EXPECT_EQ(Cache.stats().Misses, 1u);
}

TEST(DirectMappedCacheTest, ConflictEviction) {
  // 1024-byte cache: addresses 1024 apart map to the same set.
  DirectMappedCache Cache({1024, 32, 1});
  Cache.access(read4(0x0000));
  Cache.access(read4(0x0400)); // evicts 0x0000
  Cache.access(read4(0x0000)); // misses again
  EXPECT_EQ(Cache.stats().Misses, 3u);
}

TEST(DirectMappedCacheTest, DistinctSetsDoNotConflict) {
  DirectMappedCache Cache({1024, 32, 1});
  for (Addr A = 0; A < 1024; A += 32)
    Cache.access(read4(A));
  for (Addr A = 0; A < 1024; A += 32)
    Cache.access(read4(A));
  EXPECT_EQ(Cache.stats().Misses, 32u) << "second sweep must fully hit";
}

TEST(DirectMappedCacheTest, StraddlingAccessTouchesTwoBlocks) {
  DirectMappedCache Cache({1024, 32, 1});
  Cache.access({0x1e, 4, AccessKind::Read, AccessSource::Application});
  EXPECT_EQ(Cache.stats().Accesses, 2u);
  EXPECT_EQ(Cache.stats().Misses, 2u);
}

TEST(DirectMappedCacheTest, WriteAllocates) {
  DirectMappedCache Cache({1024, 32, 1});
  Cache.access({0x40, 4, AccessKind::Write, AccessSource::Application});
  Cache.access(read4(0x44));
  EXPECT_EQ(Cache.stats().Misses, 1u) << "write must install the block";
}

TEST(DirectMappedCacheTest, PerSourceAttribution) {
  DirectMappedCache Cache({1024, 32, 1});
  Cache.access(read4(0x000, AccessSource::Application));
  Cache.access(read4(0x400, AccessSource::Allocator)); // evicts
  Cache.access(read4(0x000, AccessSource::Application));
  EXPECT_EQ(Cache.stats().accessesFrom(AccessSource::Application), 2u);
  EXPECT_EQ(Cache.stats().missesFrom(AccessSource::Application), 2u);
  EXPECT_EQ(Cache.stats().missesFrom(AccessSource::Allocator), 1u);
}

TEST(DirectMappedCacheTest, ResetClears) {
  DirectMappedCache Cache({1024, 32, 1});
  Cache.access(read4(0x0));
  Cache.reset();
  EXPECT_EQ(Cache.stats().Accesses, 0u);
  Cache.access(read4(0x0));
  EXPECT_EQ(Cache.stats().Misses, 1u) << "contents cleared";
}

TEST(SetAssocCacheTest, LruKeepsWorkingSetOfAssocSize) {
  // One-set cache (2 blocks, 2-way): any two blocks co-reside.
  SetAssocCache Cache({64, 32, 2});
  Cache.access(read4(0x00));
  Cache.access(read4(0x40));
  Cache.access(read4(0x00));
  Cache.access(read4(0x40));
  EXPECT_EQ(Cache.stats().Misses, 2u);
}

TEST(SetAssocCacheTest, LruEvictsLeastRecent) {
  SetAssocCache Cache({64, 32, 2});
  Cache.access(read4(0x00)); // miss {00}
  Cache.access(read4(0x40)); // miss {40,00}
  Cache.access(read4(0x00)); // hit  {00,40}
  Cache.access(read4(0x80)); // miss, evicts 0x40 -> {80,00}
  Cache.access(read4(0x00)); // hit
  Cache.access(read4(0x40)); // miss
  EXPECT_EQ(Cache.stats().Misses, 4u);
}

TEST(SetAssocCacheTest, HigherAssociativityNeverWorseOnSequentialConflict) {
  // A classic conflict pattern: k+1 blocks mapping to one set of a
  // direct-mapped cache, reused cyclically.
  DirectMappedCache Direct({1024, 32, 1});
  SetAssocCache Assoc({1024, 32, 4});
  for (int Round = 0; Round < 50; ++Round)
    for (Addr A : {0x0000u, 0x0400u, 0x0800u})
      for (auto *Cache : std::initializer_list<CacheSim *>{&Direct, &Assoc})
        Cache->access(read4(A));
  EXPECT_LT(Assoc.stats().Misses, Direct.stats().Misses);
}

TEST(VictimCacheTest, AbsorbsConflictPairThrashing) {
  // Two blocks aliasing to one set thrash a plain direct-mapped cache but
  // co-reside once a single victim entry exists (Jouppi's motivating
  // case).
  DirectMappedCache Plain({1024, 32, 1});
  VictimCache Victim({1024, 32, 1}, 1);
  for (int Round = 0; Round < 50; ++Round)
    for (Addr A : {0x0000u, 0x0400u})
      for (CacheSim *Cache :
           std::initializer_list<CacheSim *>{&Plain, &Victim}) {
        Cache->access(read4(A));
      }
  EXPECT_EQ(Plain.stats().Misses, 100u) << "plain cache must thrash";
  EXPECT_EQ(Victim.stats().Misses, 2u)
      << "only the two cold misses; the buffer holds the displaced block "
         "from the very first conflict";
  EXPECT_EQ(Victim.victimHits(), 98u);
}

TEST(VictimCacheTest, BufferIsLru) {
  // Three aliasing blocks against a 2-entry buffer: the working set fits
  // (main slot + 2 victims), so after warm-up everything hits.
  VictimCache Victim({1024, 32, 1}, 2);
  for (int Round = 0; Round < 20; ++Round)
    for (Addr A : {0x0000u, 0x0400u, 0x0800u})
      Victim.access(read4(A));
  EXPECT_EQ(Victim.stats().Misses, 3u);

  // Four aliasing blocks overflow it: cyclic access misses every time.
  VictimCache Small({1024, 32, 1}, 2);
  for (int Round = 0; Round < 20; ++Round)
    for (Addr A : {0x0000u, 0x0400u, 0x0800u, 0x0c00u})
      Small.access(read4(A));
  EXPECT_EQ(Small.stats().Misses, 80u);
}

TEST(VictimCacheTest, NeverWorseThanPlainDirectMapped) {
  // Property: on an arbitrary stream, adding a victim buffer can only
  // remove misses (inclusion of the plain cache's contents).
  DirectMappedCache Plain({2048, 32, 1});
  VictimCache Victim({2048, 32, 1}, 4);
  uint64_t State = 424242;
  for (int I = 0; I < 50000; ++I) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    Addr A = static_cast<Addr>((State >> 24) & 0xFFFF) * 4;
    Plain.access(read4(A));
    Victim.access(read4(A));
  }
  EXPECT_LE(Victim.stats().Misses, Plain.stats().Misses);
  EXPECT_EQ(Victim.stats().Misses + Victim.victimHits(),
            Plain.stats().Misses)
      << "every absorbed miss must be a victim hit on this stream";
}

TEST(CacheBankTest, SimulatesManyGeometriesAtOnce) {
  CacheBank Bank;
  size_t Small = Bank.addCache({1024, 32, 1});
  size_t Large = Bank.addCache({8192, 32, 1});
  // Working set of 2 KB: thrashes the 1 KB cache, fits the 8 KB one.
  for (int Round = 0; Round < 20; ++Round)
    for (Addr A = 0; A < 2048; A += 32)
      Bank.access(read4(A));
  EXPECT_GT(Bank.cache(Small).stats().missRate(),
            Bank.cache(Large).stats().missRate());
  EXPECT_EQ(Bank.cache(Large).stats().Misses, 64u) << "cold misses only";
}

TEST(CacheBankDeathTest, RejectsDuplicateConfigurations) {
  // Regression: a duplicate geometry used to be silently accepted, double-
  // counting that config in every sweep table.
  CacheBank Bank;
  Bank.addCache({16 * 1024, 32, 1});
  Bank.addCache({64 * 1024, 32, 1});
  EXPECT_DEATH(Bank.addCache({16 * 1024, 32, 1}),
               "duplicate cache configuration");
}

TEST(CacheBankTest, PaperSweepShape) {
  std::vector<CacheConfig> Sweep = paperCacheSweep();
  ASSERT_EQ(Sweep.size(), 5u);
  EXPECT_EQ(Sweep.front().SizeBytes, 16u * 1024);
  EXPECT_EQ(Sweep.back().SizeBytes, 256u * 1024);
  for (const CacheConfig &Config : Sweep) {
    EXPECT_EQ(Config.BlockBytes, 32u);
    EXPECT_EQ(Config.Assoc, 1u);
    EXPECT_TRUE(Config.valid());
  }
}

TEST(StackSimTest, SweepShapeMatchesPaperFamily) {
  std::vector<CacheConfig> Sweep = stackCacheSweep();
  ASSERT_EQ(Sweep.size(), 5u);
  EXPECT_EQ(Sweep.front(), (CacheConfig{16 * 1024, 32, 1}))
      << "smallest member is the paper's direct-mapped config";
  EXPECT_EQ(Sweep.back(), (CacheConfig{256 * 1024, 32, 16}));
  for (const CacheConfig &Config : Sweep) {
    EXPECT_TRUE(Config.valid());
    EXPECT_EQ(Config.numSets(), 512u) << "one shared set count";
    EXPECT_EQ(Config.BlockBytes, 32u);
  }
  EXPECT_EQ(describeStackFamilyProblem(Sweep), "");
}

TEST(StackSimTest, DerivesPerMemberStatsFromOnePass) {
  // One-set family (64B two-way and 128B four-way share a single set at
  // 32B blocks): distances are directly checkable by hand.
  const std::vector<CacheConfig> Family = {CacheConfig{64, 32, 2},
                                           CacheConfig{128, 32, 4}};
  StackSim Stack(Family);
  // Blocks A B C A: A's reuse distance is 2 — a miss at assoc 2, a hit at
  // assoc 4. B C are cold-then-never-reused.
  for (Addr A : {0x00u, 0x40u, 0x80u, 0x00u})
    Stack.access({A, 4, AccessKind::Read, AccessSource::Application});
  EXPECT_EQ(Stack.statsFor(0).Accesses, 4u);
  EXPECT_EQ(Stack.statsFor(0).Misses, 4u) << "2-way: A evicted before reuse";
  EXPECT_EQ(Stack.statsFor(1).Accesses, 4u);
  EXPECT_EQ(Stack.statsFor(1).Misses, 3u) << "4-way: only the cold misses";
  EXPECT_EQ(Stack.statsFor(1).missesFrom(AccessSource::Application), 3u);

  Stack.reset();
  EXPECT_EQ(Stack.statsFor(0).Accesses, 0u);
  Stack.access({0x00, 4, AccessKind::Read, AccessSource::Allocator});
  EXPECT_EQ(Stack.statsFor(0).missesFrom(AccessSource::Allocator), 1u)
      << "reset must clear stack contents and per-source counters";
}

TEST(StackSimDeathTest, RejectsIllFormedFamilies) {
  EXPECT_DEATH({ StackSim Stack({}); }, "at least one cache configuration");
  // Mixed set counts (the paper sweep is all direct-mapped => sets vary).
  EXPECT_DEATH({ StackSim Stack(paperCacheSweep()); }, "one set count");
  // Mixed block sizes.
  EXPECT_DEATH(
      {
        StackSim Stack(
            {CacheConfig{16 * 1024, 32, 1}, CacheConfig{32 * 1024, 64, 2}});
      },
      "one block size");
  // Duplicates and invalid members funnel through the same validator.
  EXPECT_DEATH(
      {
        StackSim Stack(
            {CacheConfig{16 * 1024, 32, 1}, CacheConfig{16 * 1024, 32, 1}});
      },
      "duplicate cache configuration");
  EXPECT_DEATH({ StackSim Stack({CacheConfig{16 * 1024, 0, 1}}); },
               "invalid cache configuration");
}

TEST(CacheBankTest, MissRateMonotoneInCacheSizeForLoopWorkload) {
  // For a simple looping workload, bigger direct-mapped caches of the same
  // geometry should not miss more (no pathological aliasing here).
  CacheBank Bank;
  for (const CacheConfig &Config : paperCacheSweep())
    Bank.addCache(Config);
  for (int Round = 0; Round < 10; ++Round)
    for (Addr A = 0; A < 96 * 1024; A += 16)
      Bank.access(read4(0x10000000 + A));
  for (size_t I = 1; I < Bank.size(); ++I)
    EXPECT_LE(Bank.cache(I).stats().missRate(),
              Bank.cache(I - 1).stats().missRate() + 1e-12);
}

TEST(CacheBankTest, NestedSweepMatchesScalarOnRandomStreams) {
  for (uint64_t Seed : {1u, 42u, 20261017u})
    for (bool Profile : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(Seed) +
                   (Profile ? " profiled" : ""));
      expectBankMatchesScalar(paperCacheSweep(), randomStream(Seed, 60000),
                              /*ExpectNested=*/true, Profile);
    }
}

TEST(CacheBankTest, NestedSweepKeepsInsertionOrderWhenAddedLargestFirst) {
  std::vector<CacheConfig> Configs = paperCacheSweep();
  std::reverse(Configs.begin(), Configs.end());
  // Small caches, too, so the stream's reuse hits and misses everywhere.
  Configs.push_back({1024, 32, 1});
  Configs.insert(Configs.begin() + 2, {2048, 32, 1});
  expectBankMatchesScalar(Configs, randomStream(7, 40000), true, true);
}

TEST(CacheBankTest, NestedSweepAtTheTopOfTheAddressSpace) {
  // Every frame in the last 2K below 0xffffffff, including the top block
  // 0xffffffe0 and accesses whose end wraps past it.
  std::vector<MemAccess> Stream;
  uint64_t State = 5;
  for (int I = 0; I != 20000; ++I) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    MemAccess Acc;
    Acc.Address = 0xFFFFFFFFu - static_cast<Addr>((State >> 33) % 2048);
    Acc.Size = static_cast<uint8_t>(1 + (State >> 20) % 64);
    Acc.Source = static_cast<AccessSource>((State >> 40) % NumAccessSources);
    Stream.push_back(Acc);
  }
  const std::vector<CacheConfig> Configs = {
      {64, 32, 1}, {256, 32, 1}, {1024, 32, 1}, {16 * 1024, 32, 1}};
  expectBankMatchesScalar(Configs, Stream, true, true);
}

TEST(CacheBankTest, BanksOutsideTheNestedSweepFallBack) {
  const std::vector<MemAccess> Stream = randomStream(99, 30000);
  // Mixed direct-mapped and set-associative.
  expectBankMatchesScalar({{16 * 1024, 32, 1}, {64 * 1024, 32, 4}}, Stream,
                          false, true);
  // Mixed block sizes.
  expectBankMatchesScalar({{16 * 1024, 32, 1}, {64 * 1024, 64, 1}}, Stream,
                          false, false);
  // A single cache.
  expectBankMatchesScalar({{16 * 1024, 32, 1}}, Stream, false, true);
  // Two caches of one block size at other than 32 bytes nest.
  expectBankMatchesScalar({{16 * 1024, 16, 1}, {8 * 1024, 16, 1}}, Stream,
                          true, false);
}

TEST(CacheBankTest, NestedSweepSurvivesResetAll) {
  CacheBank Bank;
  for (const CacheConfig &Config : paperCacheSweep())
    Bank.addCache(Config);
  const std::vector<MemAccess> Stream = randomStream(3, 5000);
  Bank.accessBatch(Stream.data(), Stream.size());
  std::vector<CacheStats> First;
  for (size_t I = 0; I != Bank.size(); ++I)
    First.push_back(Bank.cache(I).stats());
  Bank.resetAll();
  Bank.accessBatch(Stream.data(), Stream.size());
  for (size_t I = 0; I != Bank.size(); ++I) {
    EXPECT_EQ(Bank.cache(I).stats().Misses, First[I].Misses);
    EXPECT_EQ(Bank.cache(I).stats().Accesses, First[I].Accesses);
  }
}
