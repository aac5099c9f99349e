//===- mem/MemoryBus.cpp - Reference fan-out and accounting ---------------===//

#include "mem/MemoryBus.h"

#include <algorithm>

using namespace allocsim;

AccessSink::~AccessSink() = default;

bool MemoryBus::isAttached(const AccessSink *Sink) const {
  return std::find(Sinks.begin(), Sinks.end(), Sink) != Sinks.end() ||
         std::find(PendingAttach.begin(), PendingAttach.end(), Sink) !=
             PendingAttach.end();
}

void MemoryBus::attach(AccessSink *Sink) {
  if (isAttached(Sink))
    return;
  // Mid-flush attaches must not join the fan-out loop currently running
  // over Sinks: the new sink starts with the next batch.
  if (Flushing)
    PendingAttach.push_back(Sink);
  else
    Sinks.push_back(Sink);
}

void MemoryBus::detach(AccessSink *Sink) {
  PendingAttach.erase(
      std::remove(PendingAttach.begin(), PendingAttach.end(), Sink),
      PendingAttach.end());
  if (Flushing) {
    // Null the slot instead of erasing so the fan-out loop's indices stay
    // valid; the hole is compacted when the flush completes.
    for (AccessSink *&Slot : Sinks)
      if (Slot == Sink) {
        Slot = nullptr;
        SinksDirty = true;
      }
    return;
  }
  Sinks.erase(std::remove(Sinks.begin(), Sinks.end(), Sink), Sinks.end());
}

void MemoryBus::compactSinks() {
  Sinks.erase(std::remove(Sinks.begin(), Sinks.end(), nullptr), Sinks.end());
  SinksDirty = false;
}

void MemoryBus::flush() {
  if (Batch.empty())
    return;
  assert(!Flushing && "re-entrant flush");
  Flushing = true;
  // Index loop, not iterators: a sink's accessBatch may attach (deferred to
  // PendingAttach, so Sinks does not grow under us) or detach (slot nulled,
  // size unchanged) during the fan-out.
  for (size_t I = 0; I != Sinks.size(); ++I)
    if (AccessSink *Sink = Sinks[I])
      Sink->accessBatch(Batch.data(), Batch.size());
  Batch.clear();
  Flushing = false;
  if (SinksDirty)
    compactSinks();
  if (!PendingAttach.empty()) {
    Sinks.insert(Sinks.end(), PendingAttach.begin(), PendingAttach.end());
    PendingAttach.clear();
  }
}

void MemoryBus::deliverWords(const MemAccess &Run) {
  forEachWord(Run, [this](const MemAccess &Word) {
    Batch.push(Word);
    flush();
  });
}

void MemoryBus::accessBatch(const MemAccess *ReplayBatch, size_t Count) {
  for (size_t I = 0; I != Count; ++I)
    emit(ReplayBatch[I]);
}

void MemoryBus::setBatchCapacity(size_t NewCapacity) {
  flush();
  Capacity = std::clamp<size_t>(NewCapacity, 1, AccessBatch::MaxCapacity);
}

void MemoryBus::resetCounters() {
  Total = 0;
  BySource.fill(0);
  ByKind.fill(0);
}
