//===- vm/PageSim.h - LRU stack-distance page simulator ---------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-pass LRU page-fault simulation, the role VMSIM plays in the paper
/// ("a fast implementation of a stack simulation algorithm"). Mattson's
/// inclusion property for LRU means a single pass that records the stack
/// distance of every reference yields the page-fault count for *every*
/// memory size at once — which is how the paper draws fault-rate-vs-memory
/// curves (Figures 2 and 3).
///
/// Every page's most recent reference owns one access-time slot; a page's
/// stack distance is the number of live slots after its own. Live slots are
/// a bitmap, counted by popcount within a 64-slot word and by a Fenwick
/// tree over the words (O(log n) per reference). Compaction renumbers the
/// live slots 1..P in access order and doubles the slots whenever live
/// pages pass half of them, so the bitmap, the tree, the slot->page array
/// and the dense per-distance counts stay proportional to the number of
/// distinct pages, not the trace length. The page->slot map is a two-level
/// radix table over the 32-bit page number whose leaves are allocated on
/// first touch, so it grows with the address ranges touched (one leaf per
/// 2^LeafBits pages).
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_VM_PAGESIM_H
#define ALLOCSIM_VM_PAGESIM_H

#include "mem/AccessSink.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace allocsim {

class Telemetry;
class TelemetryHistogram;

/// LRU page-fault simulator over the reference stream.
class PageSim final : public AccessSink {
public:
  /// \p PageBytes must be a power of two of at least a word (4 bytes); the
  /// paper uses 4 KB pages.
  /// \p SlotCapacity is the initial number of slots (at least 16); it
  /// doubles at compaction as the working set grows. Tests shrink it to
  /// exercise compaction and growth.
  explicit PageSim(uint32_t PageBytes = 4096, uint32_t SlotCapacity = 1024);

  void access(const MemAccess &Access) override;

  /// Passes word runs to access() whole: a run is split at page boundaries
  /// and each page it touches costs one stack update; the run's other words
  /// in that page are zero-distance hits, so they collapse to counter
  /// additions (DESIGN.md §10). Bit-identical to scalar delivery, which
  /// makes the same decision word by word.
  void accessBatch(const MemAccess *Batch, size_t Count) override;

  /// Number of references processed.
  uint64_t references() const { return References; }

  /// Number of distinct pages ever touched (each one cold-faulted once).
  uint64_t distinctPages() const { return ColdFaults; }

  /// Number of page faults for an LRU-managed memory of \p MemoryPages
  /// resident pages. Cold (first-touch) faults are always included.
  uint64_t faults(uint64_t MemoryPages) const;

  /// Fault rate (faults per reference) for the given resident-set size in
  /// pages.
  double faultRate(uint64_t MemoryPages) const;

  /// Fault rate with memory expressed in kilobytes, as the paper's figures
  /// plot it.
  double faultRateForMemoryKb(uint64_t MemoryKb) const;

  /// Re-references to the most recently used page (stack distance zero).
  uint64_t zeroDistanceHits() const { return ZeroDistanceHits; }

  uint32_t pageBytes() const { return PageBytes; }

  /// Attaches (or detaches, with nullptr) a telemetry registry; at full
  /// level a "vm.page_run_len" histogram then records the length of every
  /// maximal run of consecutive page-touches to one page. Runs are tracked
  /// at the per-reference level in both the scalar and batched paths (and
  /// persist across batch boundaries), so the histogram is delivery-mode
  /// independent. Call flushRunTelemetry before reading the snapshot to
  /// close the trailing run.
  void attachTelemetry(Telemetry *Registry);

  /// Records the still-open trailing run, if any.
  void flushRunTelemetry();

private:
  /// \p Touches consecutive references to \p Page: the first finds the
  /// page's stack distance and makes it most recent, the rest hit it at
  /// distance zero.
  void touchPage(uint32_t Page, uint32_t Touches);

  /// Per-page-touch run tracking for the run-length histogram.
  void noteRunPage(uint64_t Page, uint64_t Touches);

  /// The page's most recent slot (1-based; 0 = never touched), allocating
  /// its radix leaf on first touch.
  uint32_t &slotOf(uint32_t Page);

  /// Sizes the slot arrays to \p NumSlots slot numbers (slot 0 unused),
  /// all dead.
  void resizeSlots(size_t NumSlots);
  /// Marks \p Slot live or dead in the bitmap and the word tree.
  void markSlot(uint32_t Slot, bool Live);
  /// Live slots numbered at most \p Slot.
  uint32_t liveUpTo(uint32_t Slot) const;
  void compact();

  uint32_t PageBytes;
  uint32_t PageShift;

  /// page-number -> most recent slot: Leaves[Page >> LeafBits] holds
  /// 2^LeafBits slots, null until a page in its range is touched.
  uint32_t LeafBits;
  std::vector<std::unique_ptr<uint32_t[]>> Leaves;
  /// slot -> page last given that slot (stale once the page moves on).
  std::vector<uint32_t> SlotPage;
  /// Bit S set iff slot S is some page's most recent slot.
  std::vector<uint64_t> LiveBits;
  /// Fenwick tree over LiveBits' words: live-slot counts, 1-based.
  std::vector<uint32_t> WordTree;
  uint32_t NextSlot = 1;
  uint32_t ActiveSlots = 0;

  /// DistanceCounts[D]: re-references at stack distance D >= 1 (distance =
  /// distinct pages referenced since the previous reference to the same
  /// page). Sized to distinctPages(), which bounds every distance.
  std::vector<uint64_t> DistanceCounts;
  uint64_t ColdFaults = 0;
  uint64_t References = 0;
  uint64_t ZeroDistanceHits = 0;
  uint64_t MostRecentPage = 0;
  bool HaveRecent = false;

  /// Run-length telemetry; RunLenHist null when telemetry is off.
  TelemetryHistogram *RunLenHist = nullptr;
  uint64_t CurrentRunPage = 0;
  uint64_t CurrentRunLen = 0;
};

} // namespace allocsim

#endif // ALLOCSIM_VM_PAGESIM_H
