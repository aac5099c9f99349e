//===- check/HeapCheck.cpp - Heap-integrity checking bundle ---------------===//

#include "check/HeapCheck.h"

#include "alloc/Allocator.h"
#include "mem/MemoryBus.h"
#include "support/Error.h"

#include <algorithm>
#include <cctype>

using namespace allocsim;

const char *allocsim::checkLevelName(CheckLevel Level) {
  switch (Level) {
  case CheckLevel::Off:
    return "off";
  case CheckLevel::Fast:
    return "fast";
  case CheckLevel::Full:
    return "full";
  }
  unreachable("unknown check level");
}

bool allocsim::tryParseCheckLevel(const std::string &Name, CheckLevel &Level) {
  std::string Lower = Name;
  std::transform(Lower.begin(), Lower.end(), Lower.begin(),
                 [](unsigned char C) { return std::tolower(C); });
  for (CheckLevel Candidate :
       {CheckLevel::Off, CheckLevel::Fast, CheckLevel::Full})
    if (Lower == checkLevelName(Candidate)) {
      Level = Candidate;
      return true;
    }
  return false;
}

CheckLevel allocsim::parseCheckLevel(const std::string &Name) {
  CheckLevel Level = CheckLevel::Off;
  if (!tryParseCheckLevel(Name, Level))
    reportFatalError("unknown check level '" + Name +
                     "' (expected off, fast, or full)");
  return Level;
}

HeapCheck::HeapCheck(const CheckPolicy &CheckedPolicy, SimHeap &CheckedHeap,
                     MemoryBus &TapBus)
    : Policy(CheckedPolicy), Bus(TapBus), Heap(CheckedHeap),
      Log(Policy.AbortOnViolation, Policy.MaxViolations), Shadow(Heap, Log) {
  assert(Policy.Level != CheckLevel::Off &&
         "HeapCheck constructed with checking disabled");
  Bus.attach(&Shadow);
  // Under batched delivery the shadow drains the bus before every state
  // transition, which keeps its verdicts identical to scalar delivery (see
  // ShadowHeap::setFlushBus).
  Shadow.setFlushBus(&Bus);
}

HeapCheck::~HeapCheck() { Bus.detach(&Shadow); }

void HeapCheck::attachAllocator(Allocator &Alloc) {
  Checkers.push_back(createHeapChecker(Alloc));
  Shadow.setAllocatorName(Alloc.name());
  Alloc.attachShadow(&Shadow);
}

void HeapCheck::onOperation() {
  // The operation boundary is a flush point: references emitted during the
  // completed malloc/free must reach the shadow stamped with *this*
  // operation's index, and a due invariant walk must observe a fully
  // delivered stream.
  Bus.flush();
  ++Ops;
  Shadow.setOpIndex(Ops);
  if (Policy.Level == CheckLevel::Full && Policy.IntervalOps != 0 &&
      Ops % Policy.IntervalOps == 0)
    runWalk();
}

void HeapCheck::runWalk() {
  Bus.flush();
  ++Walks;
  CheckContext Ctx{Heap, &Shadow, Log, Ops};
  for (const std::unique_ptr<HeapChecker> &Checker : Checkers)
    Checker->check(Ctx);
}

void HeapCheck::finalCheck() {
  if (Policy.Level == CheckLevel::Full)
    runWalk();
}
