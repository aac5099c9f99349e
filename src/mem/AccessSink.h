//===- mem/AccessSink.h - Consumer interface for references -----*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The consumer interface for the reference stream. Cache simulators, the
/// page-fault simulator, and trace writers all implement AccessSink; the
/// MemoryBus fans each reference out to every attached sink, which is how
/// the paper simulated many cache sizes from a single program execution.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_MEM_ACCESSSINK_H
#define ALLOCSIM_MEM_ACCESSSINK_H

#include "mem/MemAccess.h"

#include <cstddef>

namespace allocsim {

/// Abstract consumer of memory references.
class AccessSink {
public:
  virtual ~AccessSink();

  /// Consumes one record. The sinks that handle word runs (the cache
  /// simulators, StackSim, PageSim) accept a run here too; a sink on the
  /// default accessBatch receives only single references.
  virtual void access(const MemAccess &Access) = 0;

  /// Consumes \p Count records at once, in stream order. A record may be a
  /// word run (MemAccess::Run, DESIGN.md §10); the default expands
  /// every run into its words and loops over access(), so a sink that does
  /// not override this sees the same per-word stream as scalar delivery.
  /// Overriding is purely a throughput optimization: hot sinks (direct-
  /// mapped caches, StackSim, the page simulator) provide batch loops that
  /// handle a run with one probe per block, and the equivalence suites
  /// prove every override bit-identical to the per-word path.
  virtual void accessBatch(const MemAccess *Batch, size_t Count) {
    for (size_t I = 0; I != Count; ++I)
      forEachWord(Batch[I], [this](const MemAccess &Word) { access(Word); });
  }
};

} // namespace allocsim

#endif // ALLOCSIM_MEM_ACCESSSINK_H
