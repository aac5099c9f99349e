//===- vm/PageSim.cpp - LRU stack-distance page simulator -----------------===//

#include "vm/PageSim.h"

#include "stats/Telemetry.h"
#include "support/Error.h"

#include <cassert>

using namespace allocsim;

PageSim::PageSim(uint32_t SimPageBytes, uint32_t SlotCapacity)
    : PageBytes(SimPageBytes) {
  if (PageBytes < 4 || (PageBytes & (PageBytes - 1)) != 0)
    reportFatalError("page size must be a power of two of at least 4 bytes");
  if (SlotCapacity < 16)
    reportFatalError("slot capacity too small");
  PageShift = static_cast<uint32_t>(__builtin_ctz(PageBytes));
  // Split the page number's bits evenly between the two radix levels, so
  // neither the leaf pointer array nor one leaf exceeds 2^16 entries.
  const uint32_t PageBits = 32 - PageShift;
  LeafBits = (PageBits + 1) / 2;
  Leaves.resize(size_t{1} << (PageBits - LeafBits));
  resizeSlots(size_t{SlotCapacity} + 1);
}

uint32_t &PageSim::slotOf(uint32_t Page) {
  std::unique_ptr<uint32_t[]> &Leaf = Leaves[Page >> LeafBits];
  if (!Leaf)
    Leaf = std::make_unique<uint32_t[]>(size_t{1} << LeafBits);
  return Leaf[Page & ((uint32_t{1} << LeafBits) - 1)];
}

void PageSim::resizeSlots(size_t NumSlots) {
  SlotPage.resize(NumSlots);
  LiveBits.assign((NumSlots + 63) / 64, 0);
  WordTree.assign(LiveBits.size() + 1, 0);
}

void PageSim::markSlot(uint32_t Slot, bool Live) {
  const uint64_t Bit = uint64_t{1} << (Slot & 63);
  uint64_t &Word = LiveBits[Slot >> 6];
  Word = Live ? (Word | Bit) : (Word & ~Bit);
  const uint32_t Delta = Live ? 1 : ~uint32_t{0}; // +1 or -1 mod 2^32
  for (size_t I = (Slot >> 6) + 1; I < WordTree.size(); I += I & (~I + 1))
    WordTree[I] += Delta;
}

uint32_t PageSim::liveUpTo(uint32_t Slot) const {
  const uint32_t WordIndex = Slot >> 6;
  uint32_t Sum = static_cast<uint32_t>(__builtin_popcountll(
      LiveBits[WordIndex] & (~uint64_t{0} >> (63 - (Slot & 63)))));
  // WordTree[I] covers words [I - lowbit(I), I); sum the words below.
  for (uint32_t I = WordIndex; I != 0; I -= I & (~I + 1))
    Sum += WordTree[I];
  return Sum;
}

void PageSim::compact() {
  // Renumber live slots 1..P preserving order. A slot is live iff its page
  // still maps back to it; a page's later touches left earlier slots stale.
  uint32_t Live = 0;
  for (uint32_t Old = 1; Old != NextSlot; ++Old) {
    const uint32_t Page = SlotPage[Old];
    uint32_t &Slot = slotOf(Page);
    if (Slot != Old)
      continue;
    Slot = ++Live;
    SlotPage[Live] = Page;
  }
  NextSlot = Live + 1;
  assert(ActiveSlots == Live && "active slot count diverged");

  // Keep at least half the slots free after compaction, so compactions
  // stay amortized O(1) per reference as the working set grows.
  size_t NumSlots = SlotPage.size();
  while (2 * (size_t{Live} + 1) > NumSlots)
    NumSlots *= 2;
  resizeSlots(NumSlots);

  // Slots 1..Live are live. Build the word tree in O(words): each node
  // passes its finished sum on to its parent.
  for (uint32_t Slot = 1; Slot <= Live; ++Slot)
    LiveBits[Slot >> 6] |= uint64_t{1} << (Slot & 63);
  for (size_t I = 1; I != WordTree.size(); ++I) {
    WordTree[I] += static_cast<uint32_t>(__builtin_popcountll(LiveBits[I - 1]));
    const size_t Parent = I + (I & (~I + 1));
    if (Parent < WordTree.size())
      WordTree[Parent] += WordTree[I];
  }
}

void PageSim::attachTelemetry(Telemetry *Registry) {
  RunLenHist = Registry ? Registry->histogram("vm.page_run_len") : nullptr;
}

void PageSim::noteRunPage(uint64_t Page, uint64_t Touches) {
  if (CurrentRunLen != 0 && Page == CurrentRunPage) {
    CurrentRunLen += Touches;
    return;
  }
  if (CurrentRunLen != 0)
    RunLenHist->record(CurrentRunLen);
  CurrentRunPage = Page;
  CurrentRunLen = Touches;
}

void PageSim::flushRunTelemetry() {
  if (RunLenHist && CurrentRunLen != 0)
    RunLenHist->record(CurrentRunLen);
  CurrentRunLen = 0;
}

void PageSim::touchPage(uint32_t Page, uint32_t Touches) {
  References += Touches;
  if (RunLenHist)
    noteRunPage(Page, Touches);
  // Fast path: a re-reference to the most recent page has stack distance
  // zero and leaves the LRU order unchanged. This covers the bulk of a
  // program's references (object sweeps, stack traffic).
  if (HaveRecent && Page == MostRecentPage) {
    ZeroDistanceHits += Touches;
    return;
  }
  // Touches after the first re-reference the page this one makes most
  // recent.
  ZeroDistanceHits += Touches - 1;
  if (NextSlot == SlotPage.size())
    compact();

  uint32_t &Slot = slotOf(Page);
  if (Slot == 0) {
    ++ColdFaults;
    DistanceCounts.push_back(0);
  } else {
    // Distance = number of distinct pages referenced after this page's
    // previous access = active slots beyond its slot. It is below the
    // distinct-page count, the size of DistanceCounts.
    const uint32_t Distance = ActiveSlots - liveUpTo(Slot);
    assert(Distance != 0 && Distance < DistanceCounts.size() &&
           "stack distance out of range");
    ++DistanceCounts[Distance];
    markSlot(Slot, false);
    --ActiveSlots;
  }
  Slot = NextSlot++;
  SlotPage[Slot] = Page;
  markSlot(Slot, true);
  ++ActiveSlots;
  MostRecentPage = Page;
  HaveRecent = true;
}

void PageSim::access(const MemAccess &Acc) {
  // A multi-byte access that straddles a page boundary touches both pages;
  // with 4 KB pages and word accesses this is effectively never taken, but
  // correctness is cheap. A run touches each page it crosses as many times
  // in a row as it has words there.
  const FrameWalk Walk = frameWalk(Acc, PageShift);
  for (uint32_t I = 0; I != Walk.Count; ++I)
    touchPage(Walk.frame(I), Walk.touches(I));
}

void PageSim::accessBatch(const MemAccess *Batch, size_t Count) {
  for (size_t I = 0; I != Count; ++I)
    access(Batch[I]);
}

uint64_t PageSim::faults(uint64_t MemoryPages) const {
  // LRU hit iff stack distance < resident pages. A memory of zero pages
  // faults on every reference.
  if (MemoryPages == 0)
    return References;
  // Zero-distance re-references always hit for MemoryPages >= 1.
  uint64_t Faults = ColdFaults;
  for (uint64_t Distance = MemoryPages; Distance < DistanceCounts.size();
       ++Distance)
    Faults += DistanceCounts[Distance];
  return Faults;
}

double PageSim::faultRate(uint64_t MemoryPages) const {
  if (References == 0)
    return 0.0;
  return static_cast<double>(faults(MemoryPages)) /
         static_cast<double>(References);
}

double PageSim::faultRateForMemoryKb(uint64_t MemoryKb) const {
  return faultRate(MemoryKb * 1024 / PageBytes);
}
