//===- mem/AccessBatch.h - Fixed-capacity reference batch -------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The staging buffer of the batched reference pipeline. The MemoryBus
/// appends every emitted reference to one AccessBatch and hands the filled
/// span to each sink through AccessSink::accessBatch, turning one virtual
/// call per sink per *reference* into one per sink per *batch* — the
/// difference between the simulator's inner loop being dispatch-bound and
/// being bound by the actual cache/paging bookkeeping.
///
/// The batch is a fixed-capacity ring: flush() always drains it completely,
/// so the write cursor simply wraps to the start after every delivery. The
/// *effective* capacity is tunable at runtime between 1 (scalar delivery,
/// bit-compatible with the pre-batching bus and the reference for the
/// equivalence tests) and MaxCapacity (the measurement default).
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_MEM_ACCESSBATCH_H
#define ALLOCSIM_MEM_ACCESSBATCH_H

#include "mem/MemAccess.h"

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace allocsim {

/// Fixed-capacity staging buffer for MemAccess records.
struct AccessBatch {
  /// Hard capacity of the ring. 256 records (2 KB) keeps the batch resident
  /// in L1 while amortizing virtual dispatch ~256x; measured throughput is
  /// flat beyond this point.
  static constexpr size_t MaxCapacity = 256;

  std::array<MemAccess, MaxCapacity> Records;
  size_t Fill = 0;

  const MemAccess *data() const { return Records.data(); }
  size_t size() const { return Fill; }
  bool empty() const { return Fill == 0; }

  /// Appends one record; the caller checks capacity (the bus flushes when
  /// its effective capacity is reached).
  void push(const MemAccess &Access) { Records[Fill++] = Access; }

  void clear() { Fill = 0; }
};

/// Fills an empty AccessBatch from a stream of single references, merging
/// consecutive words back into word-run records: the inverse of forEachWord
/// (DESIGN.md §10), and the one rule by which trace replay re-forms runs.
/// A reference extends the batch's last record when both are aligned 4-byte
/// references of one kind and source, it is the run's next word (ascending,
/// or descending from a single word; addresses wrap modulo 2^32) and the run
/// has fewer than MaxRunWords words. Otherwise it opens a new record.
///
/// The last record is held in scalars, so a decoding loop keeps it in
/// registers, and is stored when the next one opens or at finish(): a run
/// extended in the batch itself costs a decoding loop more than half its
/// speed.
class RunFiller {
public:
  explicit RunFiller(AccessBatch &Target) : Batch(Target) {
    assert(Target.empty() && "runs fill an empty batch");
  }

  bool full() const { return Fill == AccessBatch::MaxCapacity; }

  /// Appends the single reference \p Word; the caller checks full() first.
  void append(const MemAccess &Word) {
    assert(Word.Run == 1 && !full());
    const uint32_t Key = keyOf(Word);
    if (Key == ExtendKey) [[likely]] {
      if (Word.Address == Next) [[likely]]
        return extend(Word.Address);
      if (Words == 1 && Word.Address == First - 4) {
        Step = ~Addr{3};
        return extend(Word.Address);
      }
    }
    if (Fill != 0)
      Batch.Records[Fill - 1] = record();
    ++Fill;
    First = Word.Address;
    Next = First + 4;
    Step = 4;
    Words = 1;
    Attrs = Key;
    ExtendKey = Word.Size == 4 && (First & 3) == 0 ? Key : ClosedKey;
  }

  /// Stores the last record and sets the batch's fill.
  void finish() {
    if (Fill != 0)
      Batch.Records[Fill - 1] = record();
    Batch.Fill = Fill;
  }

private:
  /// A reference's size, source and kind as one comparable key (below
  /// 2^16), and a key no reference has. The key is laid out like a binary
  /// trace record's size and kind/source bytes, which keeps building it
  /// from a decoded record cheap.
  static uint32_t keyOf(const MemAccess &Word) {
    return Word.Size | (static_cast<uint32_t>(Word.Kind) << 4 |
                        static_cast<uint32_t>(Word.Source))
                           << 8;
  }
  static constexpr uint32_t ClosedKey = 1u << 16;

  void extend(Addr Address) {
    Next = Address + Step;
    if (++Words == MaxRunWords) [[unlikely]]
      ExtendKey = ClosedKey;
  }

  MemAccess record() const {
    const int Run = Step == 4 ? static_cast<int>(Words)
                              : -static_cast<int>(Words);
    return MemAccess{First, static_cast<uint8_t>(Attrs),
                     static_cast<AccessKind>(Attrs >> 12),
                     static_cast<AccessSource>((Attrs >> 8) & 0xF),
                     static_cast<int8_t>(Run)};
  }

  AccessBatch &Batch;
  size_t Fill = 0;
  /// The last record: Words references from First, Step bytes apart (4, or
  /// -4 once descending), with keyOf() Attrs. ExtendKey is Attrs while the
  /// aligned 4-byte word at Next would extend it, else ClosedKey.
  Addr First = 0, Next = 0, Step = 4;
  uint32_t Words = 0, Attrs = 0, ExtendKey = ClosedKey;
};

} // namespace allocsim

#endif // ALLOCSIM_MEM_ACCESSBATCH_H
