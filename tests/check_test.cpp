//===- tests/check_test.cpp - Heap-integrity checking tests ---------------===//
//
// Each corruption class the HeapCheck subsystem claims to catch is injected
// deliberately — a clobbered link word, a forged boundary tag, a double
// free, a skipped coalesce, metadata/user overlap — and the test asserts
// the precise diagnostic: kind, offending allocator, and address.
//
//===----------------------------------------------------------------------===//

#include "check/HeapCheck.h"

#include "alloc/BitmapFit.h"
#include "alloc/Bsd.h"
#include "alloc/FirstFit.h"
#include "alloc/GnuLocal.h"
#include "alloc/QuickFit.h"
#include "alloc/SpaceFit.h"
#include "core/Lab.h"

#include <gtest/gtest.h>

using namespace allocsim;

namespace {

CheckPolicy recordingPolicy() {
  CheckPolicy Policy;
  Policy.Level = CheckLevel::Full;
  Policy.IntervalOps = 0; // tests run walks explicitly
  Policy.AbortOnViolation = false;
  return Policy;
}

/// Bus + heap + recording HeapCheck; allocators are attached per test.
struct CheckHarness {
  MemoryBus Bus;
  SimHeap Heap{Bus};
  CostModel Cost;
  HeapCheck Check{recordingPolicy(), Heap, Bus};

  const CheckViolation *find(ViolationKind Kind) const {
    for (const CheckViolation &V : Check.violations())
      if (V.Kind == Kind)
        return &V;
    return nullptr;
  }
  bool has(ViolationKind Kind) const { return find(Kind) != nullptr; }
};

/// First node of a coalescing allocator's freelist; asserts non-empty.
Addr firstFreeNode(const SimHeap &Heap, Addr Sentinel) {
  Addr Node = Heap.peek32(Sentinel + 4);
  EXPECT_NE(Node, Sentinel) << "freelist unexpectedly empty";
  return Node;
}

} // namespace

//===----------------------------------------------------------------------===//
// Policy plumbing
//===----------------------------------------------------------------------===//

TEST(CheckPolicyTest, LevelNamesRoundTrip) {
  EXPECT_EQ(parseCheckLevel("off"), CheckLevel::Off);
  EXPECT_EQ(parseCheckLevel("fast"), CheckLevel::Fast);
  EXPECT_EQ(parseCheckLevel("FULL"), CheckLevel::Full);
  for (CheckLevel Level :
       {CheckLevel::Off, CheckLevel::Fast, CheckLevel::Full})
    EXPECT_EQ(parseCheckLevel(checkLevelName(Level)), Level);

  // The non-fatal form refuses without touching the level.
  CheckLevel Level = CheckLevel::Fast;
  EXPECT_FALSE(tryParseCheckLevel("paranoid", Level));
  EXPECT_EQ(Level, CheckLevel::Fast);
  EXPECT_TRUE(tryParseCheckLevel("Full", Level));
  EXPECT_EQ(Level, CheckLevel::Full);
}

TEST(CheckPolicyDeathTest, UnknownLevelIsFatal) {
  EXPECT_DEATH(parseCheckLevel("paranoid"), "unknown check level");
}

//===----------------------------------------------------------------------===//
// Shadow state transitions
//===----------------------------------------------------------------------===//

TEST(ShadowHeapTest, TracksObjectLifeCycle) {
  CheckHarness H;
  FirstFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  Addr A = Alloc.malloc(16);
  EXPECT_EQ(H.Check.shadow().byteState(A), ByteState::UserLive);
  EXPECT_EQ(H.Check.shadow().byteState(A + 15), ByteState::UserLive);
  // The block header the allocator wrote through the bus is metadata, as
  // is the statically poked freelist sentinel.
  EXPECT_EQ(H.Check.shadow().byteState(A - 4), ByteState::Metadata);
  EXPECT_EQ(H.Check.shadow().byteState(Alloc.freelistSentinel()),
            ByteState::Metadata);

  Alloc.free(A);
  // Free-ing rewrites link words through the bus; bytes not reused for
  // bookkeeping keep the freed marking.
  EXPECT_EQ(H.Check.shadow().byteState(A + 8), ByteState::UserFreed);
  EXPECT_TRUE(H.Check.violations().empty());
}

TEST(ShadowHeapTest, CleanRunStaysClean) {
  CheckHarness H;
  FirstFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  std::vector<Addr> Ptrs;
  for (uint32_t I = 1; I <= 40; ++I)
    Ptrs.push_back(Alloc.malloc(8 * I));
  for (size_t I = 0; I < Ptrs.size(); I += 2)
    Alloc.free(Ptrs[I]);
  H.Check.runWalk();
  for (size_t I = 1; I < Ptrs.size(); I += 2)
    Alloc.free(Ptrs[I]);
  H.Check.runWalk();
  EXPECT_EQ(H.Check.violationCount(), 0u);
}

//===----------------------------------------------------------------------===//
// Injected corruption: the five headline classes
//===----------------------------------------------------------------------===//

TEST(CheckCorruptionTest, ClobberedLinkWordIsCaught) {
  CheckHarness H;
  FirstFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  Addr A = Alloc.malloc(32);
  Alloc.malloc(32); // keep a neighbor allocated
  Alloc.free(A);

  Addr Node = firstFreeNode(H.Heap, Alloc.freelistSentinel());
  H.Heap.poke32(Node + 4, 0xDEADBEEF); // misaligned, outside the heap
  H.Check.runWalk();

  const CheckViolation *V = H.find(ViolationKind::FreelistCorrupt);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->AllocatorName, "FirstFit");
  EXPECT_EQ(V->Address, Node);
  EXPECT_NE(V->message().find("FirstFit"), std::string::npos);
  EXPECT_NE(V->message().find("corrupt freelist link"), std::string::npos);
}

TEST(CheckCorruptionTest, ForgedBoundaryTagIsCaught) {
  CheckHarness H;
  FirstFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  Addr A = Alloc.malloc(48);
  Alloc.malloc(48);
  Alloc.free(A);

  Addr Node = firstFreeNode(H.Heap, Alloc.freelistSentinel());
  uint32_t Tag = H.Heap.peek32(Node);
  uint32_t Size = CoalescingAllocator::tagSize(Tag);
  H.Heap.poke32(Node + Size - 4, Tag ^ 0x100); // footer disagrees now
  H.Check.runWalk();

  const CheckViolation *V = H.find(ViolationKind::BoundaryTagMismatch);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->AllocatorName, "FirstFit");
  EXPECT_EQ(V->Address, Node);
}

TEST(CheckCorruptionTest, DoubleFreeIsCaught) {
  CheckHarness H;
  FirstFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  Addr A = Alloc.malloc(24);
  Alloc.free(A);
  Alloc.free(A); // recorded, not fatal, and the free is skipped

  const CheckViolation *V = H.find(ViolationKind::DoubleFree);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->AllocatorName, "FirstFit");
  EXPECT_EQ(V->Address, A);
  EXPECT_NE(V->message().find("double free"), std::string::npos);
  EXPECT_EQ(Alloc.stats().FreeCalls, 1u);
}

TEST(CheckCorruptionTest, InvalidFreeIsCaught) {
  CheckHarness H;
  FirstFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  Alloc.malloc(24);
  Alloc.free(HeapBase + 0x400); // never an object
  const CheckViolation *V = H.find(ViolationKind::InvalidFree);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->Address, HeapBase + 0x400);
}

TEST(CheckCorruptionTest, SkippedCoalesceIsCaught) {
  CheckHarness H;
  FirstFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  Addr A = Alloc.malloc(32);
  Alloc.malloc(32);
  Alloc.free(A);

  Addr Node = firstFreeNode(H.Heap, Alloc.freelistSentinel());
  uint32_t Size = CoalescingAllocator::tagSize(H.Heap.peek32(Node));
  // Make the following block look free without putting it on the list —
  // exactly the state a skipped coalesce leaves behind.
  Addr NextHeader = Node + Size;
  H.Heap.poke32(NextHeader, H.Heap.peek32(NextHeader) & ~1u);
  H.Check.runWalk();

  const CheckViolation *V = H.find(ViolationKind::MissedCoalesce);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->AllocatorName, "FirstFit");
  EXPECT_EQ(V->Address, Node);
}

TEST(CheckCorruptionTest, MetadataStoreIntoLiveObjectIsCaught) {
  CheckHarness H;
  FirstFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  Addr A = Alloc.malloc(32);
  // A buggy allocator writing bookkeeping into a live object.
  H.Heap.store32(A + 8, 0x12345678, AccessSource::Allocator);

  const CheckViolation *V = H.find(ViolationKind::MetadataUserOverlap);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->Address, A + 8);
  EXPECT_NE(V->message().find("live user data"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Bus-level sanitizer checks
//===----------------------------------------------------------------------===//

TEST(CheckBusTest, UseAfterFreeIsCaught) {
  CheckHarness H;
  FirstFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  Addr A = Alloc.malloc(32);
  H.Bus.emit(A + 8, 4, AccessKind::Read, AccessSource::Application);
  EXPECT_TRUE(H.Check.violations().empty()) << "live touch is legal";

  Alloc.free(A);
  H.Bus.emit(A + 8, 4, AccessKind::Read, AccessSource::Application);
  const CheckViolation *V = H.find(ViolationKind::UseAfterFree);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->Address, A + 8);
  EXPECT_EQ(V->Source, AccessSource::Application);
}

TEST(CheckBusTest, ApplicationTouchOfMetadataIsCaught) {
  CheckHarness H;
  FirstFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  Alloc.malloc(32);
  // An application load from a freelist sentinel word.
  H.Bus.emit(Alloc.freelistSentinel(), 4, AccessKind::Read,
             AccessSource::Application);
  const CheckViolation *V = H.find(ViolationKind::MetadataUserOverlap);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->Address, Alloc.freelistSentinel());
}

TEST(CheckBusTest, WildAccessIsCaught) {
  CheckHarness H;
  FirstFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  Alloc.malloc(16);
  // Interior of the never-allocated tail free block: within the segment
  // but neither object nor bookkeeping.
  Addr Tail = firstFreeNode(H.Heap, Alloc.freelistSentinel());
  H.Bus.emit(Tail + 16, 4, AccessKind::Write, AccessSource::Application);
  EXPECT_TRUE(H.has(ViolationKind::WildAccess));
}

TEST(CheckBusTest, OutOfSegmentAccessIsCaught) {
  CheckHarness H;
  FirstFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  Alloc.malloc(16);
  Addr Past = H.Heap.brk() + 64;
  H.Bus.emit(Past, 4, AccessKind::Read, AccessSource::Application);
  const CheckViolation *V = H.find(ViolationKind::OutOfSegment);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->Address, Past);
}

TEST(CheckBusTest, StackAccessesAreIgnored) {
  CheckHarness H;
  FirstFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);
  H.Bus.emit(StackBase, 4, AccessKind::Write, AccessSource::Application);
  H.Bus.emit(StackBase + 512, 4, AccessKind::Read,
             AccessSource::Application);
  EXPECT_TRUE(H.Check.violations().empty());
}

//===----------------------------------------------------------------------===//
// Per-allocator walkers beyond the coalescing family
//===----------------------------------------------------------------------===//

TEST(CheckWalkerTest, BsdChainCorruptionIsCaught) {
  CheckHarness H;
  Bsd Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  Addr A = Alloc.malloc(20);
  Alloc.free(A);
  Addr Node = A - 4; // freed block heads its bucket's LIFO chain
  H.Heap.poke32(Node, 0xDEADBEEF); // clobber the next-free link
  H.Check.runWalk();

  const CheckViolation *V = H.find(ViolationKind::FreelistCorrupt);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->AllocatorName, "BSD");
}

TEST(CheckWalkerTest, QuickFitHeaderForgeryIsCaught) {
  CheckHarness H;
  QuickFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  Addr A = Alloc.malloc(8);
  Alloc.free(A);
  Addr Node = A - 4;
  // Forge the persistent class header of the free fast block.
  H.Heap.poke32(Node, QuickFit::fastHeader(5));
  H.Check.runWalk();

  const CheckViolation *V = H.find(ViolationKind::SizeClassMismatch);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->AllocatorName, "QuickFit");
  EXPECT_EQ(V->Address, Node);
}

TEST(CheckWalkerTest, QuickFitDelegationStaysClean) {
  CheckHarness H;
  QuickFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  // Large requests delegate to the GNU G++ backend; the duplicate user
  // range annotations from the nested malloc/free must stay idempotent.
  Addr Big = Alloc.malloc(400);
  Addr Small = Alloc.malloc(12);
  Alloc.free(Big);
  Alloc.free(Small);
  Alloc.malloc(400);
  H.Check.runWalk();
  EXPECT_EQ(H.Check.violationCount(), 0u);
}

TEST(CheckWalkerTest, GnuLocalDescriptorCorruptionIsCaught) {
  CheckHarness H;
  GnuLocal Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  Addr A = Alloc.malloc(16); // a fragment; its block becomes Fragmented
  uint32_t Index = (A - H.Heap.base()) >> GnuLocal::BlockShift;
  Addr Desc = Alloc.descTableAddr() + 16 * Index;
  ASSERT_EQ(H.Heap.peek32(Desc), GnuLocal::TypeFragmented);
  H.Heap.poke32(Desc, 9); // unknown descriptor type
  H.Check.runWalk();

  const CheckViolation *V = H.find(ViolationKind::DescriptorCorrupt);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->AllocatorName, "GnuLocal");
  EXPECT_EQ(V->Address, Desc);
}

TEST(CheckWalkerTest, GnuLocalFragmentAccountingIsCaught) {
  CheckHarness H;
  GnuLocal Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  Addr A = Alloc.malloc(16);
  uint32_t Index = (A - H.Heap.base()) >> GnuLocal::BlockShift;
  Addr Desc = Alloc.descTableAddr() + 16 * Index;
  // Walk is clean before the descriptor's free count is tampered with.
  H.Check.runWalk();
  ASSERT_EQ(H.Check.violationCount(), 0u);
  H.Heap.poke32(Desc + 8, H.Heap.peek32(Desc + 8) - 1);
  H.Check.runWalk();
  EXPECT_TRUE(H.has(ViolationKind::AccountingMismatch));
}

TEST(CheckWalkerTest, BitmapFitAccountingTamperIsCaught) {
  CheckHarness H;
  BitmapFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  Addr A = Alloc.malloc(16); // slot 0 of bucket 0's first slab
  Addr Slab = A - BitmapFit::SlabHeaderBytes;
  // Clear the live slot's occupancy bit: the bitmap population no longer
  // matches the used count (and the "free" slot overlaps a live object).
  H.Heap.poke32(Slab + 16, H.Heap.peek32(Slab + 16) & ~1u);
  H.Check.runWalk();

  const CheckViolation *V = H.find(ViolationKind::AccountingMismatch);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->AllocatorName, "BitmapFit");
}

TEST(CheckWalkerTest, BitmapFitHeaderForgeryIsCaught) {
  CheckHarness H;
  BitmapFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  Addr A = Alloc.malloc(16);
  Addr Slab = A - BitmapFit::SlabHeaderBytes;
  // The slab map says bucket 0; a header claiming another bucket is forged.
  H.Heap.poke32(Slab, BitmapFit::slabHeaderWord(3));
  H.Check.runWalk();

  const CheckViolation *V = H.find(ViolationKind::DescriptorCorrupt);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->AllocatorName, "BitmapFit");
}

TEST(CheckWalkerTest, BitmapFitTrailingBitClearIsCaught) {
  CheckHarness H;
  BitmapFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  // Bucket 15 has only 7 real slots; bits 7..31 are permanently set.
  Addr A = Alloc.malloc(512);
  Addr Slab = A - BitmapFit::SlabHeaderBytes;
  H.Heap.poke32(Slab + 16, H.Heap.peek32(Slab + 16) & ~(1u << 31));
  H.Check.runWalk();
  EXPECT_TRUE(H.has(ViolationKind::DescriptorCorrupt));
}

TEST(CheckWalkerTest, BitmapFitSlabListClobberIsCaught) {
  CheckHarness H;
  BitmapFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  Addr A = Alloc.malloc(16);
  Addr Slab = A - BitmapFit::SlabHeaderBytes;
  H.Heap.poke32(Slab + 8, 0x1234); // garbage next-slab link
  H.Check.runWalk();

  const CheckViolation *V = H.find(ViolationKind::FreelistCorrupt);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->AllocatorName, "BitmapFit");
}

TEST(CheckWalkerTest, SpaceFitLinkClobberIsCaught) {
  CheckHarness H;
  SpaceFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  Addr A = Alloc.malloc(40);
  Alloc.free(A);
  Addr Node = firstFreeNode(H.Heap, Alloc.freelistSentinel());
  H.Heap.poke32(Node + 4, 0xDEADBEEF); // clobber the next link
  H.Check.runWalk();

  const CheckViolation *V = H.find(ViolationKind::FreelistCorrupt);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->AllocatorName, "SpaceFit");
}

TEST(CheckWalkerTest, SpaceFitOrderViolationIsCaught) {
  CheckHarness H;
  SpaceFit Alloc(H.Heap, H.Cost);
  H.Check.attachAllocator(Alloc);

  // Two coalescing-fenced holes of different sizes plus the chunk tail:
  // at least three free blocks, sorted ascending.
  Addr Big = Alloc.malloc(200);
  Addr Guard1 = Alloc.malloc(40);
  Addr Small = Alloc.malloc(56);
  Addr Guard2 = Alloc.malloc(40);
  (void)Guard1;
  (void)Guard2;
  Alloc.free(Big);
  Alloc.free(Small);
  H.Check.runWalk();
  ASSERT_EQ(H.Check.violationCount(), 0u);

  // Swap the first two nodes: the list stays a perfectly well-formed
  // circular doubly-linked chain, but the size order is broken — only the
  // SpaceFit-specific sortedness invariant can see it.
  Addr S = Alloc.freelistSentinel();
  Addr N1 = H.Heap.peek32(S + 4);
  Addr N2 = H.Heap.peek32(N1 + 4);
  Addr N3 = H.Heap.peek32(N2 + 4);
  ASSERT_NE(N2, S);
  ASSERT_NE(N3, S);
  H.Heap.poke32(S + 4, N2);
  H.Heap.poke32(N2 + 8, S);
  H.Heap.poke32(N2 + 4, N1);
  H.Heap.poke32(N1 + 8, N2);
  H.Heap.poke32(N1 + 4, N3);
  H.Heap.poke32(N3 + 8, N1);
  H.Check.runWalk();

  const CheckViolation *V = H.find(ViolationKind::FreelistCorrupt);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->AllocatorName, "SpaceFit");
}

//===----------------------------------------------------------------------===//
// Abort mode
//===----------------------------------------------------------------------===//

TEST(CheckAbortDeathTest, FirstViolationIsFatalByDefault) {
  MemoryBus Bus;
  SimHeap Heap(Bus);
  CostModel Cost;
  CheckPolicy Policy;
  Policy.Level = CheckLevel::Fast;
  HeapCheck Check(Policy, Heap, Bus);
  FirstFit Alloc(Heap, Cost);
  Check.attachAllocator(Alloc);

  Addr A = Alloc.malloc(24);
  Alloc.free(A);
  EXPECT_DEATH(Alloc.free(A), "double free");
}

//===----------------------------------------------------------------------===//
// Lab integration: full workloads, every allocator, zero violations
//===----------------------------------------------------------------------===//

TEST(CheckLabTest, FullCheckCleanForEveryAllocator) {
  for (AllocatorKind Kind :
       {AllocatorKind::FirstFit, AllocatorKind::QuickFit,
        AllocatorKind::GnuGxx, AllocatorKind::Bsd, AllocatorKind::GnuLocal,
        AllocatorKind::BestFit, AllocatorKind::Custom,
        AllocatorKind::BitmapFit, AllocatorKind::SpaceFit}) {
    ExperimentConfig Config;
    Config.Workload = WorkloadId::Espresso;
    Config.Allocator = Kind;
    Config.Engine.Scale = 256;
    Config.Check.Level = CheckLevel::Full;
    Config.Check.IntervalOps = 64;
    RunResult Result = runExperiment(Config);
    EXPECT_EQ(Result.CheckViolations, 0u)
        << allocatorKindName(Kind) << ": "
        << (Result.CheckReports.empty() ? "" : Result.CheckReports.front());
    EXPECT_GT(Result.CheckWalks, 1u) << allocatorKindName(Kind);
  }
}

TEST(CheckLabTest, CheckingLeavesMeasurementsBitIdentical) {
  ExperimentConfig Config;
  Config.Workload = WorkloadId::Cfrac;
  Config.Allocator = AllocatorKind::GnuGxx;
  Config.Engine.Scale = 128;
  Config.Caches.push_back({16 * 1024, 32, 1});
  RunResult Off = runExperiment(Config);

  Config.Check.Level = CheckLevel::Full;
  Config.Check.IntervalOps = 32;
  RunResult Full = runExperiment(Config);

  EXPECT_EQ(Off.TotalRefs, Full.TotalRefs);
  EXPECT_EQ(Off.AppRefs, Full.AppRefs);
  EXPECT_EQ(Off.AllocRefs, Full.AllocRefs);
  EXPECT_EQ(Off.AppInstructions, Full.AppInstructions);
  EXPECT_EQ(Off.AllocInstructions, Full.AllocInstructions);
  EXPECT_EQ(Off.HeapBytes, Full.HeapBytes);
  ASSERT_EQ(Off.Caches.size(), Full.Caches.size());
  EXPECT_EQ(Off.Caches[0].Stats.Misses, Full.Caches[0].Stats.Misses);
  EXPECT_EQ(Off.Caches[0].Stats.Accesses, Full.Caches[0].Stats.Accesses);
  EXPECT_GT(Full.CheckWalks, 0u);
}
