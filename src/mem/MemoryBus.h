//===- mem/MemoryBus.h - Reference fan-out and accounting ------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MemoryBus receives every data reference made by the simulated program and
/// allocator, keeps per-source/per-kind reference counts (the "Data Refs"
/// column of the paper's Table 2), and forwards each reference to all
/// attached sinks.
///
/// Delivery is batched: emitted records are staged in a fixed-capacity
/// AccessBatch and handed to the sinks through AccessSink::accessBatch when
/// the batch fills or flush() is called. A record may be a word run
/// (emitRun; DESIGN.md §10 states the run record and its exactness), and
/// every counter counts the references a record stands for. Counters update
/// at *emit* time, so totalAccesses() et al. are exact at any moment;
/// sink-side statistics become current at the next flush. The default batch
/// capacity is 1 — delivery then happens on every emit and every run is
/// expanded into its words, matching the historical word-at-a-time bus —
/// and the experiment drivers raise it to AccessBatch::MaxCapacity via
/// setBatchCapacity() for measurement runs (see DESIGN.md §10 for the
/// flush-point contract that keeps HeapCheck observers exact under
/// batching).
///
/// attach() and detach() are legal at any time, including from inside a
/// sink's accessBatch during a flush: a sink attached mid-flush starts
/// receiving with the *next* batch, a sink detached mid-flush receives
/// nothing further (not even the remainder of the current fan-out).
/// Emitting into the bus from inside a flush is not supported (the sinks
/// are pure consumers) and asserts.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_MEM_MEMORYBUS_H
#define ALLOCSIM_MEM_MEMORYBUS_H

#include "mem/AccessBatch.h"
#include "mem/AccessSink.h"

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

namespace allocsim {

/// Central reference stream: tallies, batches, and fans out accesses.
class MemoryBus final : public AccessSink {
public:
  /// Attaches \p Sink; it will receive every access emitted after this call
  /// (if attached during a flush, delivery starts with the next batch). The
  /// sink is not owned and must outlive the bus's use.
  void attach(AccessSink *Sink);

  /// Detaches a previously attached sink; it receives nothing after this
  /// call, even mid-fan-out. No-op if not attached. Pending (unflushed)
  /// references emitted while the sink was attached are *not* delivered to
  /// it; callers that need them call flush() first.
  void detach(AccessSink *Sink);

  void access(const MemAccess &Access) override { emit(Access); }

  /// Bulk replay entry (trace readers): counts and stages every record.
  /// Runs are accepted like emit() accepts them.
  void accessBatch(const MemAccess *Batch, size_t Count) override;

  /// Emit: counts the references the record stands for and stages it for
  /// delivery, flushing when the effective batch capacity is reached. Under
  /// scalar delivery (capacity 1) a run is delivered word by word.
  void emit(const MemAccess &Access) {
    assert(!Flushing && "emit into the bus from inside a flush");
    assert(Access.Run != 0 && "record of zero references");
    const uint32_t Words = Access.words();
    Total += Words;
    BySource[static_cast<unsigned>(Access.Source)] += Words;
    ByKind[static_cast<unsigned>(Access.Kind)] += Words;
    if (Capacity == 1 && Access.Run != 1) {
      deliverWords(Access);
      return;
    }
    Batch.push(Access);
    if (Batch.size() >= Capacity)
      flush();
  }

  /// Convenience emit.
  void emit(Addr Address, uint8_t Size, AccessKind Kind, AccessSource Source) {
    emit(MemAccess{Address, Size, Kind, Source});
  }

  /// Emits \p Words consecutive 4-byte references starting at \p First,
  /// ascending (or descending when \p Descending), as records of at most
  /// MaxRunWords words each. Same stream and counts as emitting the words
  /// one at a time. A run record holds aligned words, so an unaligned
  /// \p First is emitted word by word.
  void emitRun(Addr First, uint32_t Words, bool Descending, AccessKind Kind,
               AccessSource Source) {
    if ((First & 3) != 0) {
      for (; Words != 0; --Words, First = Descending ? First - 4 : First + 4)
        emit(First, 4, Kind, Source);
      return;
    }
    while (Words != 0) {
      const uint32_t Chunk = Words < MaxRunWords ? Words : MaxRunWords;
      const int Run = Descending && Chunk != 1 ? -static_cast<int>(Chunk)
                                               : static_cast<int>(Chunk);
      emit(MemAccess{First, 4, Kind, Source, static_cast<int8_t>(Run)});
      First = Descending ? First - 4 * Chunk : First + 4 * Chunk;
      Words -= Chunk;
    }
  }

  /// Delivers all staged references to every attached sink, in stream
  /// order. No-op when nothing is pending. Idempotent; cheap when empty.
  void flush();

  /// Sets the effective batch capacity, clamped to
  /// [1, AccessBatch::MaxCapacity]. 1 selects scalar delivery (one
  /// accessBatch of size 1 per emit — the reference semantics); larger
  /// values enable true batching. Pending references are flushed first so
  /// the change never reorders the stream.
  void setBatchCapacity(size_t NewCapacity);
  size_t batchCapacity() const { return Capacity; }

  /// Records staged but not yet delivered (a staged run is one record).
  size_t pendingAccesses() const { return Batch.size(); }

  /// Total references seen (emit-time; includes staged ones).
  uint64_t totalAccesses() const { return Total; }

  /// References from one source.
  uint64_t accessesFrom(AccessSource Source) const {
    return BySource[static_cast<unsigned>(Source)];
  }

  /// Reads (resp. writes) across all sources.
  uint64_t reads() const { return ByKind[0]; }
  uint64_t writes() const { return ByKind[1]; }

  /// Resets counters (sinks stay attached). References already staged stay
  /// staged and are still delivered on the next flush: counting is an
  /// emit-time concept, delivery a flush-time one.
  void resetCounters();

private:
  /// Attached sinks. A slot is nulled (not erased) when its sink detaches
  /// during a flush, so the fan-out loop stays valid; compactSinks() erases
  /// the holes once the flush completes.
  std::vector<AccessSink *> Sinks;
  /// Sinks attached during a flush, adopted when it completes.
  std::vector<AccessSink *> PendingAttach;
  AccessBatch Batch;
  size_t Capacity = 1;
  bool Flushing = false;
  bool SinksDirty = false;

  uint64_t Total = 0;
  std::array<uint64_t, NumAccessSources> BySource{};
  std::array<uint64_t, NumAccessKinds> ByKind{};

  bool isAttached(const AccessSink *Sink) const;
  void compactSinks();
  /// Scalar delivery of a run: one single-word delivery per word.
  void deliverWords(const MemAccess &Run);
};

} // namespace allocsim

#endif // ALLOCSIM_MEM_MEMORYBUS_H
