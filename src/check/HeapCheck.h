//===- check/HeapCheck.h - Heap-integrity checking bundle -------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// HeapCheck bundles the two integrity layers into one switchable facility:
///
///  * fast — the ShadowHeap sanitizer taps the memory bus and the allocator
///    state hooks, validating every reference as it happens.
///  * full — fast, plus the per-allocator invariant walkers run over the
///    complete heap structure every CheckPolicy::IntervalOps operations and
///    once more at the end of the run.
///
/// Both layers observe through untraced accessors only: with checking
/// enabled the traced reference stream and the CostModel instruction counts
/// are bit-identical to an unchecked run.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_CHECK_HEAPCHECK_H
#define ALLOCSIM_CHECK_HEAPCHECK_H

#include "check/HeapChecker.h"
#include "check/ShadowHeap.h"
#include "check/Violation.h"

#include <memory>
#include <string>
#include <vector>

namespace allocsim {

class Allocator;
class MemoryBus;

/// How much integrity checking to run.
enum class CheckLevel {
  Off,  ///< No checking (the measurement default).
  Fast, ///< ShadowHeap sanitizer on every reference.
  Full, ///< Fast + periodic invariant walks.
};

const char *checkLevelName(CheckLevel Level);

/// Parses "off" / "fast" / "full" (case-insensitive); false on anything
/// else, leaving \p Level untouched.
bool tryParseCheckLevel(const std::string &Name, CheckLevel &Level);

/// Like tryParseCheckLevel, but fatal on anything else.
CheckLevel parseCheckLevel(const std::string &Name);

/// Configuration for a HeapCheck instance.
struct CheckPolicy {
  CheckLevel Level = CheckLevel::Off;
  /// Run the invariant walkers every this many malloc/free operations
  /// (Full only; 0 disables the periodic walks, leaving the final walk).
  uint32_t IntervalOps = 64;
  /// Abort with a fatal error on the first violation (the default for
  /// interactive use); tests and tooling record instead.
  bool AbortOnViolation = true;
  /// Violations retained verbatim when recording.
  size_t MaxViolations = 256;
};

/// The checking facility for one experiment: owns the violation log and the
/// shadow, taps the bus, and drives the walkers.
class HeapCheck {
public:
  /// Constructs the facility and taps \p Bus. Policy.Level must not be Off —
  /// callers skip construction entirely when checking is disabled.
  HeapCheck(const CheckPolicy &Policy, SimHeap &Heap, MemoryBus &Bus);
  ~HeapCheck();

  HeapCheck(const HeapCheck &) = delete;
  HeapCheck &operator=(const HeapCheck &) = delete;

  /// Attaches the shadow to \p Alloc and builds its invariant walker. The
  /// allocator must not be used (malloc/free/runWalk) after this HeapCheck
  /// is destroyed without first calling Alloc.attachShadow(nullptr).
  void attachAllocator(Allocator &Alloc);

  /// Called by the driver after every malloc/free operation; advances the
  /// operation clock and runs a periodic walk when one is due.
  void onOperation();

  /// Runs every attached allocator's invariant walker now.
  void runWalk();

  /// End-of-run hook: the final invariant walk (Full only).
  void finalCheck();

  ShadowHeap &shadow() { return Shadow; }
  const CheckPolicy &policy() const { return Policy; }
  uint64_t violationCount() const { return Log.count(); }
  const std::vector<CheckViolation> &violations() const {
    return Log.violations();
  }
  uint64_t operations() const { return Ops; }
  uint64_t walksRun() const { return Walks; }

private:
  CheckPolicy Policy;
  MemoryBus &Bus;
  SimHeap &Heap;
  ViolationLog Log;
  ShadowHeap Shadow;
  std::vector<std::unique_ptr<HeapChecker>> Checkers;
  uint64_t Ops = 0;
  uint64_t Walks = 0;
};

} // namespace allocsim

#endif // ALLOCSIM_CHECK_HEAPCHECK_H
