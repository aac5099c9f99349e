//===- tests/vm_test.cpp - Page-fault simulator tests ---------------------===//

#include "vm/PageSim.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

using namespace allocsim;

namespace {

void touchPage(PageSim &Sim, uint64_t Page) {
  Sim.access({static_cast<Addr>(Page * 4096), 4, AccessKind::Read,
              AccessSource::Application});
}

/// Reference LRU simulation: direct stack implementation.
/// Seeded LCG page stream over \p Span pages starting at \p FirstPage.
std::vector<uint64_t> randomPages(uint64_t Seed, size_t Count,
                                  uint64_t FirstPage, uint64_t Span) {
  std::vector<uint64_t> Pages;
  uint64_t State = Seed;
  for (size_t I = 0; I != Count; ++I) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    Pages.push_back(FirstPage + (State >> 33) % Span);
  }
  return Pages;
}

uint64_t referenceLruFaults(const std::vector<uint64_t> &Pages,
                            uint64_t MemoryPages) {
  std::vector<uint64_t> Stack;
  uint64_t Faults = 0;
  for (uint64_t Page : Pages) {
    auto It = std::find(Stack.begin(), Stack.end(), Page);
    if (It == Stack.end()) {
      ++Faults;
    } else {
      auto Depth = static_cast<uint64_t>(It - Stack.begin());
      if (Depth >= MemoryPages)
        ++Faults;
      Stack.erase(It);
    }
    Stack.insert(Stack.begin(), Page);
  }
  return Faults;
}

} // namespace

TEST(PageSimTest, ColdFaultsOnly) {
  PageSim Sim;
  for (uint64_t Page = 0; Page < 10; ++Page)
    touchPage(Sim, Page);
  EXPECT_EQ(Sim.references(), 10u);
  EXPECT_EQ(Sim.distinctPages(), 10u);
  EXPECT_EQ(Sim.faults(10), 10u);
  EXPECT_EQ(Sim.faults(100), 10u);
}

TEST(PageSimTest, RepeatedPageHitsWithOnePage) {
  PageSim Sim;
  for (int I = 0; I < 5; ++I)
    touchPage(Sim, 7);
  EXPECT_EQ(Sim.faults(1), 1u);
}

TEST(PageSimTest, CyclicSweepThrashesSmallMemory) {
  // The classic LRU pathology: cycling over N+1 pages with N resident
  // faults on every reference.
  PageSim Sim;
  constexpr int Rounds = 10, Pages = 5;
  for (int Round = 0; Round < Rounds; ++Round)
    for (uint64_t Page = 0; Page < Pages; ++Page)
      touchPage(Sim, Page);
  EXPECT_EQ(Sim.faults(Pages - 1), uint64_t(Rounds * Pages));
  EXPECT_EQ(Sim.faults(Pages), uint64_t(Pages)) << "fits: cold only";
}

TEST(PageSimTest, StackDistanceDefinition) {
  PageSim Sim;
  touchPage(Sim, 1);
  touchPage(Sim, 2);
  touchPage(Sim, 3);
  touchPage(Sim, 1); // two distinct pages (2,3) since last touch of 1
  // A distance-2 re-reference faults with two resident pages, not three.
  EXPECT_EQ(Sim.faults(2) - Sim.faults(3), 1u);
  EXPECT_EQ(Sim.faults(3), Sim.distinctPages()) << "no other re-fault";
}

TEST(PageSimTest, MatchesReferenceLruOnRandomTrace) {
  // Property: Fenwick stack distances must agree with a brute-force LRU
  // stack at every memory size.
  std::vector<uint64_t> Pages;
  uint64_t State = 12345;
  for (int I = 0; I < 3000; ++I) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    Pages.push_back((State >> 33) % 40);
  }
  PageSim Sim;
  for (uint64_t Page : Pages)
    touchPage(Sim, Page);
  for (uint64_t Memory : {1u, 2u, 3u, 5u, 10u, 20u, 39u, 40u, 64u})
    EXPECT_EQ(Sim.faults(Memory), referenceLruFaults(Pages, Memory))
        << "memory=" << Memory;
}

TEST(PageSimTest, CompactionPreservesResults) {
  // Force many compactions with a tiny slot capacity and compare against a
  // same-trace simulator with a huge capacity.
  PageSim Small(4096, 64), Big(4096, 1 << 20);
  uint64_t State = 99;
  for (int I = 0; I < 20000; ++I) {
    State = State * 2862933555777941757ull + 3037000493ull;
    uint64_t Page = (State >> 33) % 25;
    touchPage(Small, Page);
    touchPage(Big, Page);
  }
  for (uint64_t Memory : {1u, 4u, 12u, 24u, 25u})
    EXPECT_EQ(Small.faults(Memory), Big.faults(Memory));
}

TEST(PageSimTest, InclusionProperty) {
  // Mattson: fault count is non-increasing in memory size.
  PageSim Sim;
  uint64_t State = 7;
  for (int I = 0; I < 5000; ++I) {
    State = State * 6364136223846793005ull + 1;
    touchPage(Sim, (State >> 30) % 100);
  }
  uint64_t Prev = ~0ull;
  for (uint64_t Memory = 1; Memory <= 110; ++Memory) {
    uint64_t Faults = Sim.faults(Memory);
    EXPECT_LE(Faults, Prev);
    Prev = Faults;
  }
  EXPECT_EQ(Sim.faults(110), Sim.distinctPages()) << "cold faults remain";
}

TEST(PageSimTest, FaultRatePerReference) {
  PageSim Sim;
  for (int I = 0; I < 4; ++I)
    touchPage(Sim, 0);
  EXPECT_DOUBLE_EQ(Sim.faultRate(1), 0.25);
  EXPECT_DOUBLE_EQ(Sim.faultRateForMemoryKb(4), 0.25);
}

TEST(PageSimTest, PageGranularityFromAddresses) {
  PageSim Sim; // 4 KB pages
  Sim.access({0x1000, 4, AccessKind::Read, AccessSource::Application});
  Sim.access({0x1ffc, 4, AccessKind::Write, AccessSource::Application});
  Sim.access({0x2000, 4, AccessKind::Read, AccessSource::Application});
  EXPECT_EQ(Sim.distinctPages(), 2u);
}

TEST(PageSimTest, ZeroDistanceFastPathCountsCorrectly) {
  PageSim Sim;
  // Ten consecutive touches of one page, then one of another, then back.
  for (int I = 0; I < 10; ++I)
    touchPage(Sim, 1);
  touchPage(Sim, 2);
  touchPage(Sim, 1);
  EXPECT_EQ(Sim.zeroDistanceHits(), 9u);
  EXPECT_EQ(Sim.references(), 12u);
  EXPECT_EQ(Sim.faults(1), 3u) << "cold 1, cold 2, re-fault on 1";
  EXPECT_EQ(Sim.faults(2), 2u) << "both pages resident";
}

TEST(PageSimTest, ZeroMemoryAlwaysFaults) {
  PageSim Sim;
  for (int I = 0; I < 8; ++I)
    touchPage(Sim, 3);
  EXPECT_EQ(Sim.faults(0), 8u);
}

TEST(PageSimTest, TopOfAddressSpace) {
  // The highest pages of the 32-bit space index the last radix leaf; mix
  // them with low pages and check against the brute-force stack.
  const uint64_t TopPage = 0xFFFFFFFFull >> 12;
  std::vector<uint64_t> Pages = randomPages(31, 4000, TopPage - 20, 21);
  for (size_t I = 0; I < Pages.size(); I += 7)
    Pages[I] = I % 3; // low pages interleaved
  PageSim Sim;
  for (uint64_t Page : Pages)
    touchPage(Sim, Page);
  for (uint64_t Memory : {1u, 2u, 5u, 12u, 23u, 24u, 30u})
    EXPECT_EQ(Sim.faults(Memory), referenceLruFaults(Pages, Memory))
        << "memory=" << Memory;
  EXPECT_EQ(Sim.distinctPages(),
            std::set<uint64_t>(Pages.begin(), Pages.end()).size());
}

TEST(PageSimTest, AccessesAtTheTopOfTheAddressSpace) {
  // An access ending exactly at 0xffffffff touches the last page; one that
  // runs past it touches the last page and then page 0 (page numbers are
  // taken modulo the 32-bit space, the same frame split the cache engines
  // use). Scalar and batched delivery agree on both.
  const std::vector<MemAccess> Stream = {
      {0xFFFFFFFCu, 4, AccessKind::Read, AccessSource::Application},
      {0xFFFFF000u, 4, AccessKind::Read, AccessSource::Application},
      {0xFFFFFFFEu, 4, AccessKind::Write, AccessSource::Application},
      {0x00000000u, 4, AccessKind::Read, AccessSource::Application},
      {0xFFFFFFFFu, 1, AccessKind::Read, AccessSource::Application}};
  PageSim Scalar, Batched;
  for (const MemAccess &Acc : Stream)
    Scalar.access(Acc);
  Batched.accessBatch(Stream.data(), Stream.size());
  for (const PageSim *Sim : {&Scalar, &Batched}) {
    EXPECT_EQ(Sim->references(), 6u) << "the wrapping access touches two";
    EXPECT_EQ(Sim->distinctPages(), 2u);
    EXPECT_EQ(Sim->zeroDistanceHits(), 3u);
    EXPECT_EQ(Sim->faults(1), 3u) << "cold, cold, re-fault at distance 1";
    EXPECT_EQ(Sim->faults(2), 2u);
  }
}

TEST(PageSimTest, SixtyFourBytePages) {
  // Small pages give a 26-bit page number and a different radix split.
  std::vector<uint64_t> Pages = randomPages(64, 5000, 0, 60);
  for (uint64_t &Page : Pages)
    Page += (Page % 2) ? (HeapBase >> 6) : (0xFFFFFFFFull >> 6) - 59;
  PageSim Sim(64);
  for (uint64_t Page : Pages)
    Sim.access({static_cast<Addr>(Page << 6), 4, AccessKind::Read,
                AccessSource::Application});
  for (uint64_t Memory : {1u, 3u, 10u, 30u, 59u, 60u, 64u})
    EXPECT_EQ(Sim.faults(Memory), referenceLruFaults(Pages, Memory))
        << "memory=" << Memory;
  EXPECT_EQ(Sim.distinctPages(),
            std::set<uint64_t>(Pages.begin(), Pages.end()).size());
  // Crossing a 64-byte boundary touches two pages.
  PageSim Straddle(64);
  Straddle.access({0x7E, 4, AccessKind::Read, AccessSource::Application});
  EXPECT_EQ(Straddle.references(), 2u);
}

TEST(PageSimTest, GrowsFromTinyCapacityThroughRepeatedCompaction) {
  // A 16-slot tree must compact and double many times as the working set
  // widens phase by phase; distances must stay exact throughout.
  std::vector<uint64_t> Pages;
  for (uint64_t Span : {8u, 40u, 150u, 500u, 30u}) {
    std::vector<uint64_t> Phase = randomPages(Span, 6000, 100, Span);
    Pages.insert(Pages.end(), Phase.begin(), Phase.end());
  }
  PageSim Small(4096, 16), Big;
  for (uint64_t Page : Pages) {
    touchPage(Small, Page);
    touchPage(Big, Page);
  }
  for (uint64_t Memory : {1u, 4u, 16u, 64u, 149u, 150u, 400u, 499u, 500u})
    EXPECT_EQ(Small.faults(Memory), referenceLruFaults(Pages, Memory))
        << "memory=" << Memory;
  for (uint64_t Memory = 0; Memory <= 501; ++Memory)
    ASSERT_EQ(Small.faults(Memory), Big.faults(Memory)) << Memory;
  EXPECT_EQ(Small.distinctPages(), 500u);
  EXPECT_EQ(Small.distinctPages(), Big.distinctPages());
}
