//===- tests/workload_test.cpp - Workload engine and driver tests ---------===//

#include "support/Rng.h"
#include "trace/RefTrace.h"
#include "workload/Driver.h"
#include "workload/Engine.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

using namespace allocsim;

namespace {

EngineOptions testOptions(uint32_t Scale = 128) {
  EngineOptions Options;
  Options.Scale = Scale;
  Options.ClampScaleForLiveHeap = false;
  return Options;
}

} // namespace

TEST(ProfilesTest, RegistryCoversAllWorkloads) {
  for (WorkloadId Id :
       {WorkloadId::Espresso, WorkloadId::Gs, WorkloadId::Ptc,
        WorkloadId::Gawk, WorkloadId::Make, WorkloadId::GsSmall,
        WorkloadId::GsMedium, WorkloadId::Cfrac}) {
    const AppProfile &Profile = getProfile(Id);
    EXPECT_STREQ(Profile.Name, workloadName(Id));
    EXPECT_FALSE(Profile.SizeMix.empty());
    EXPECT_GT(Profile.meanRequestBytes(), 0.0);
    EXPECT_GT(Profile.refsPerAlloc(), 10.0);
    EXPECT_GT(Profile.instrPerRef(), 1.0);
    EXPECT_LE(Profile.freeFraction(), 1.0);
  }
}

TEST(ProfilesTest, NameParsingRoundTrips) {
  for (WorkloadId Id : PaperWorkloads)
    EXPECT_EQ(parseWorkload(workloadName(Id)), Id);
  EXPECT_EQ(parseWorkload("ghostscript"), WorkloadId::Gs);
}

TEST(ProfilesTest, Table2NumbersEncoded) {
  // Spot-check the transcription of the paper's Table 2.
  const AppProfile &Espresso = getProfile(WorkloadId::Espresso);
  EXPECT_EQ(Espresso.PaperObjectsAllocated, 1673000u);
  EXPECT_EQ(Espresso.PaperObjectsFreed, 1666000u);
  EXPECT_EQ(Espresso.PaperMaxHeapKb, 396u);
  const AppProfile &Ptc = getProfile(WorkloadId::Ptc);
  EXPECT_EQ(Ptc.PaperObjectsFreed, 0u) << "PTC never frees";
  const AppProfile &GsSmall = getProfile(WorkloadId::GsSmall);
  EXPECT_EQ(GsSmall.PaperObjectsAllocated, 109000u);
}

TEST(ProfilesTest, MeanSizeConsistentWithMaxHeap) {
  // Surviving objects times mean request size should land within a factor
  // of ~1.6 of the paper's live heap (allocator overhead explains the
  // rest) — the calibration invariant behind the size mixes.
  for (WorkloadId Id : PaperWorkloads) {
    const AppProfile &Profile = getProfile(Id);
    double Surviving = double(Profile.PaperObjectsAllocated) -
                       double(Profile.PaperObjectsFreed);
    double PredictedKb = Surviving * Profile.meanRequestBytes() / 1024.0;
    EXPECT_GT(PredictedKb, Profile.PaperMaxHeapKb * 0.6) << Profile.Name;
    EXPECT_LT(PredictedKb, Profile.PaperMaxHeapKb * 1.6) << Profile.Name;
  }
}

TEST(WorkloadEngineTest, DeterministicForSameSeed) {
  WorkloadEngine A(getProfile(WorkloadId::Espresso), testOptions());
  WorkloadEngine B(getProfile(WorkloadId::Espresso), testOptions());
  EXPECT_EQ(A.generateAll(), B.generateAll());
}

TEST(WorkloadEngineTest, DifferentSeedsDiffer) {
  EngineOptions Options = testOptions();
  WorkloadEngine A(getProfile(WorkloadId::Espresso), Options);
  Options.Seed = 999;
  WorkloadEngine B(getProfile(WorkloadId::Espresso), Options);
  EXPECT_NE(A.generateAll(), B.generateAll());
}

TEST(WorkloadEngineTest, StreamIsWellFormed) {
  for (WorkloadId Id : PaperWorkloads) {
    WorkloadEngine Engine(getProfile(Id), testOptions());
    std::vector<AllocEvent> Events = Engine.generateAll();
    std::string Why;
    EXPECT_TRUE(validateAllocEvents(Events, &Why))
        << workloadName(Id) << ": " << Why;
  }
}

TEST(WorkloadEngineTest, TotalsMatchScaledPaperCounts) {
  WorkloadEngine Engine(getProfile(WorkloadId::Espresso), testOptions(128));
  const AppProfile &Profile = getProfile(WorkloadId::Espresso);
  EXPECT_EQ(Engine.totalAllocations(), Profile.PaperObjectsAllocated / 128);

  uint64_t Mallocs = 0, Frees = 0;
  Engine.generate([&](const AllocEvent &Event) {
    Mallocs += Event.Kind == AllocEventKind::Malloc;
    Frees += Event.Kind == AllocEventKind::Free;
  });
  EXPECT_EQ(Mallocs, Engine.totalAllocations());
  EXPECT_EQ(Frees, Engine.totalFrees());
  // The run must end with the paper's surviving-object count.
  uint64_t Surviving =
      Profile.PaperObjectsAllocated - Profile.PaperObjectsFreed;
  EXPECT_EQ(Mallocs - Frees, Surviving);
}

TEST(WorkloadEngineTest, ScaleClampPreservesPtcHeap) {
  // PTC frees nothing: the clamp must force scale 1.
  EngineOptions Options;
  Options.Scale = 64;
  Options.ClampScaleForLiveHeap = true;
  WorkloadEngine Engine(getProfile(WorkloadId::Ptc), Options);
  EXPECT_EQ(Engine.effectiveScale(), 1u);
  EXPECT_EQ(Engine.totalAllocations(),
            getProfile(WorkloadId::Ptc).PaperObjectsAllocated);
}

TEST(WorkloadEngineTest, ReferenceVolumeTracksPaperRatio) {
  const AppProfile &Profile = getProfile(WorkloadId::Gawk);
  WorkloadEngine Engine(Profile, testOptions(64));
  uint64_t Words = 0, Mallocs = 0;
  Engine.generate([&](const AllocEvent &Event) {
    switch (Event.Kind) {
    case AllocEventKind::Touch:
    case AllocEventKind::StackTouch:
      Words += Event.Amount;
      break;
    case AllocEventKind::Malloc:
      ++Mallocs;
      break;
    case AllocEventKind::Free:
      break;
    }
  });
  double RefsPerAlloc = double(Words) / double(Mallocs);
  EXPECT_NEAR(RefsPerAlloc, Profile.refsPerAlloc(),
              Profile.refsPerAlloc() * 0.1)
      << "reference budget drifted from the Table 2 ratio";
}

TEST(WorkloadEngineTest, SizeProfileMatchesEventStream) {
  WorkloadEngine Engine(getProfile(WorkloadId::Make), testOptions(4));
  Histogram FromEvents;
  Engine.generate([&](const AllocEvent &Event) {
    if (Event.Kind == AllocEventKind::Malloc)
      FromEvents.add(Event.Amount);
  });
  Histogram Profiled = Engine.sizeProfile();
  EXPECT_EQ(Profiled.total(), FromEvents.total());
  for (const auto &[Size, Count] : Profiled)
    EXPECT_EQ(FromEvents.count(Size), Count) << "size " << Size;
}

TEST(WorkloadEngineTest, MeanDrawnSizeMatchesProfile) {
  const AppProfile &Profile = getProfile(WorkloadId::Gs);
  WorkloadEngine Engine(Profile, testOptions(16));
  Histogram Sizes = Engine.sizeProfile();
  double Sum = 0;
  for (const auto &[Size, Count] : Sizes)
    Sum += double(Size) * double(Count);
  double Mean = Sum / double(Sizes.total());
  EXPECT_NEAR(Mean, Profile.meanRequestBytes(),
              Profile.meanRequestBytes() * 0.15);
}

TEST(WorkloadEngineTest, DeathClustersFreeAdjacentObjects) {
  // A profile that always frees in clusters must emit runs of frees whose
  // object ids are consecutive in allocation order.
  AppProfile Profile = getProfile(WorkloadId::Gawk);
  Profile.ClusterDeathProb = 1.0;
  Profile.DieYoungProb = 0.0;
  WorkloadEngine Engine(Profile, testOptions(256));

  std::vector<uint32_t> Freed;
  Engine.generate([&](const AllocEvent &Event) {
    if (Event.Kind == AllocEventKind::Free)
      Freed.push_back(Event.Id);
  });
  ASSERT_GT(Freed.size(), 100u);

  // Count ascending-by-one adjacencies in the free order; cluster deaths
  // should make them dominant.
  size_t Adjacent = 0;
  for (size_t I = 1; I != Freed.size(); ++I)
    Adjacent += Freed[I] == Freed[I - 1] + 1;
  EXPECT_GT(Adjacent, Freed.size() / 2)
      << "death clusters are not freeing adjacent objects";
}

TEST(WorkloadEngineTest, ClusterProbZeroStillWellFormed) {
  AppProfile Profile = getProfile(WorkloadId::Espresso);
  Profile.ClusterDeathProb = 0.0;
  WorkloadEngine Engine(Profile, testOptions(256));
  std::string Why;
  EXPECT_TRUE(validateAllocEvents(Engine.generateAll(), &Why)) << Why;
}

TEST(WorkloadEngineTest, CfracExtensionProfileRuns) {
  WorkloadEngine Engine(getProfile(WorkloadId::Cfrac), testOptions(128));
  std::vector<AllocEvent> Events = Engine.generateAll();
  std::string Why;
  EXPECT_TRUE(validateAllocEvents(Events, &Why)) << Why;
  // cfrac frees nearly everything.
  EXPECT_GT(Engine.totalFrees(),
            Engine.totalAllocations() * 9 / 10);
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

namespace {

struct DriverHarness {
  MemoryBus Bus;
  SimHeap Heap{Bus};
  CostModel Cost;
  std::unique_ptr<Allocator> Alloc =
      createAllocator(AllocatorKind::Bsd, Heap, Cost);
  Driver Drive{*Alloc, Bus, Cost, 4.0};
};

} // namespace

TEST(DriverTest, ExecutesLifecycle) {
  DriverHarness H;
  H.Drive.execute(AllocEvent::makeMalloc(1, 32));
  EXPECT_EQ(H.Drive.liveObjects(), 1u);
  Addr Ptr = H.Drive.addressOf(1);
  EXPECT_TRUE(H.Heap.contains(Ptr, 32));
  H.Drive.execute(AllocEvent::makeFree(1));
  EXPECT_EQ(H.Drive.liveObjects(), 0u);
}

TEST(DriverTest, TouchEmitsApplicationRefs) {
  DriverHarness H;
  H.Drive.execute(AllocEvent::makeMalloc(1, 32));
  uint64_t Before = H.Bus.accessesFrom(AccessSource::Application);
  H.Drive.execute(AllocEvent::makeTouch(1, 8, AccessKind::Write));
  EXPECT_EQ(H.Bus.accessesFrom(AccessSource::Application), Before + 8);
  EXPECT_EQ(H.Drive.appRefs(), 8u);
}

TEST(DriverTest, TouchWrapsWithinObject) {
  DriverHarness H;
  H.Drive.execute(AllocEvent::makeMalloc(1, 8)); // 2 words
  CollectingSink Sink;
  H.Bus.attach(&Sink);
  H.Drive.execute(AllocEvent::makeTouch(1, 5, AccessKind::Read));
  Addr Base = H.Drive.addressOf(1);
  ASSERT_EQ(Sink.records().size(), 5u);
  for (const MemAccess &Access : Sink.records()) {
    EXPECT_GE(Access.Address, Base);
    EXPECT_LT(Access.Address, Base + 8);
  }
}

TEST(DriverTest, StackTouchesStayInWindow) {
  DriverHarness H;
  CollectingSink Sink;
  H.Bus.attach(&Sink);
  H.Drive.execute(AllocEvent::makeStackTouch(2000, AccessKind::Read));
  ASSERT_EQ(Sink.records().size(), 2000u);
  for (const MemAccess &Access : Sink.records()) {
    EXPECT_GE(Access.Address, StackBase);
    EXPECT_LT(Access.Address, StackBase + 2048);
  }
}

TEST(DriverTest, ChargesInstructionsPerRef) {
  DriverHarness H;
  H.Drive.execute(AllocEvent::makeStackTouch(1000, AccessKind::Read));
  // 4.0 instructions per ref.
  EXPECT_EQ(H.Cost.appInstructions(), 4000u);
}

TEST(DriverTest, FractionalInstrPerRefAccumulates) {
  MemoryBus Bus;
  SimHeap Heap(Bus);
  CostModel Cost;
  std::unique_ptr<Allocator> Alloc =
      createAllocator(AllocatorKind::Bsd, Heap, Cost);
  Driver Drive(*Alloc, Bus, Cost, 3.37);
  Drive.execute(AllocEvent::makeStackTouch(10000, AccessKind::Read));
  EXPECT_NEAR(double(Cost.appInstructions()), 33700.0, 2.0);
}

TEST(DriverTest, ChargesExactlyTheDoubleRecurrence) {
  // The fixed-point charge per touch must reproduce the per-reference
  // double recurrence the driver used to run, for a ratio whose additions
  // round (gawk's) and one whose additions never do (ptc's).
  for (WorkloadId Id : {WorkloadId::Gawk, WorkloadId::Ptc}) {
    const double PerRef = getProfile(Id).instrPerRef();
    MemoryBus Bus;
    SimHeap Heap(Bus);
    CostModel Cost;
    std::unique_ptr<Allocator> Alloc =
        createAllocator(AllocatorKind::Bsd, Heap, Cost);
    Driver Drive(*Alloc, Bus, Cost, PerRef);
    double Debt = 0;
    uint64_t Expected = 0;
    Rng R(17);
    for (int I = 0; I != 2000; ++I) {
      const uint32_t Words = 1 + static_cast<uint32_t>(R.nextBelow(700));
      Drive.execute(AllocEvent::makeStackTouch(Words, AccessKind::Read));
      for (uint32_t W = 0; W != Words; ++W) {
        Debt += PerRef;
        const auto Whole = static_cast<uint64_t>(Debt);
        Expected += Whole;
        Debt -= static_cast<double>(Whole);
      }
    }
    EXPECT_EQ(Cost.appInstructions(), Expected) << workloadName(Id);
  }
}

TEST(DriverTest, TouchEmitsOneRunPerObjectPass) {
  // 300 words over a 200-word object: one pass split at the 127-word
  // record cap, then the wrapped pass.
  DriverHarness H;
  H.Bus.setBatchCapacity(AccessBatch::MaxCapacity);
  H.Drive.execute(AllocEvent::makeMalloc(1, 800));
  const Addr Base = H.Drive.addressOf(1);
  H.Bus.flush();
  CollectingSink Sink;
  H.Bus.attach(&Sink);
  H.Drive.execute(AllocEvent::makeTouch(1, 300, AccessKind::Write));
  EXPECT_EQ(H.Bus.pendingAccesses(), 3u);
  EXPECT_EQ(H.Bus.accessesFrom(AccessSource::Application), 300u);
  H.Bus.flush();
  ASSERT_EQ(Sink.records().size(), 300u);
  for (uint32_t I = 0; I != 300; ++I) {
    EXPECT_EQ(Sink.records()[I].Address, Base + 4 * (I % 200)) << I;
    EXPECT_EQ(Sink.records()[I].Kind, AccessKind::Write);
    EXPECT_EQ(Sink.records()[I].Run, 1);
  }
}

TEST(DriverTest, StackRunsFollowTheWordZigZag) {
  // The per-direction runs expand to exactly the word-at-a-time zig-zag:
  // up to the window's top word, down to offset 0, up again.
  DriverHarness H;
  H.Bus.setBatchCapacity(AccessBatch::MaxCapacity);
  CollectingSink Sink;
  H.Bus.attach(&Sink);
  std::vector<Addr> Expected;
  uint32_t Pos = 0;
  int Dir = 1;
  Rng R(5);
  for (int I = 0; I != 300; ++I) {
    const uint32_t Words = 1 + static_cast<uint32_t>(R.nextBelow(1500));
    H.Drive.execute(AllocEvent::makeStackTouch(Words, AccessKind::Read));
    for (uint32_t W = 0; W != Words; ++W) {
      Expected.push_back(StackBase + Pos);
      if (Pos + 4 >= 2048)
        Dir = -1;
      else if (Pos == 0)
        Dir = 1;
      Pos = static_cast<uint32_t>(static_cast<int>(Pos) + 4 * Dir);
    }
  }
  H.Bus.flush();
  ASSERT_EQ(Sink.records().size(), Expected.size());
  for (size_t I = 0; I != Expected.size(); ++I)
    ASSERT_EQ(Sink.records()[I].Address, Expected[I]) << "word " << I;
}

TEST(DriverTest, FreeOfUnknownIdIsFatal) {
  DriverHarness H;
  EXPECT_DEATH(H.Drive.execute(AllocEvent::makeFree(42)), "unknown");
}
