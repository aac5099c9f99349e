//===- cache/StackSim.cpp - One-pass stack-distance cache engine ----------===//

#include "cache/StackSim.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace allocsim;

namespace {

uint32_t log2Exact(uint32_t Value) {
  assert(Value != 0 && (Value & (Value - 1)) == 0 &&
         "log2Exact of non-power-of-two");
  return static_cast<uint32_t>(__builtin_ctz(Value));
}

} // namespace

std::string
allocsim::describeStackFamilyProblem(const std::vector<CacheConfig> &Family) {
  for (const CacheConfig &Config : Family)
    if (!Config.valid())
      return "invalid cache configuration: " + Config.describe();
  if (Family.empty())
    return "";
  const CacheConfig &First = Family.front();
  for (size_t I = 1; I != Family.size(); ++I) {
    const CacheConfig &Config = Family[I];
    if (Config.BlockBytes != First.BlockBytes)
      return "stack-distance family must share one block size: " +
             First.describe() + " vs " + Config.describe();
    if (Config.numSets() != First.numSets())
      return "stack-distance family must share one set count (vary only "
             "associativity): " +
             First.describe() + " has " + std::to_string(First.numSets()) +
             " sets, " + Config.describe() + " has " +
             std::to_string(Config.numSets());
    for (size_t J = 0; J != I; ++J)
      if (Family[J] == Config)
        return "duplicate cache configuration: " + Config.describe();
  }
  return "";
}

CacheEngineKind
allocsim::chooseCacheEngine(const std::vector<CacheConfig> &Caches) {
  bool Associative = std::any_of(
      Caches.begin(), Caches.end(),
      [](const CacheConfig &Config) { return Config.Assoc > 1; });
  return Associative && describeStackFamilyProblem(Caches).empty()
             ? CacheEngineKind::StackDist
             : CacheEngineKind::PerConfig;
}

StackSim::StackSim(const std::vector<CacheConfig> &SimFamily)
    : Family(SimFamily) {
  if (Family.empty())
    reportFatalError("stack-distance engine needs at least one cache "
                     "configuration");
  std::string Problem = describeStackFamilyProblem(Family);
  if (!Problem.empty())
    reportFatalError("stack-distance engine: " + Problem);

  NumSets = Family.front().numSets();
  SetMask = NumSets - 1;
  BlockShift = log2Exact(Family.front().BlockBytes);
  MemberAssoc.reserve(Family.size());
  for (const CacheConfig &Config : Family) {
    MemberAssoc.push_back(Config.Assoc);
    MaxAssoc = std::max(MaxAssoc, Config.Assoc);
  }
  Stacks.assign(static_cast<size_t>(NumSets) * MaxAssoc, 0);
  for (auto &Dist : DistBySource)
    Dist.assign(MaxAssoc, 0);
  SetMisses.resize(Family.size());
}

CacheStats StackSim::statsFor(size_t Index) const {
  const uint32_t Assoc = Family[Index].Assoc;
  CacheStats Stats;
  for (unsigned S = 0; S != NumAccessSources; ++S) {
    uint64_t Misses = InfBySource[S];
    for (uint32_t D = Assoc; D < MaxAssoc; ++D)
      Misses += DistBySource[S][D];
    Stats.AccessesBySource[S] = FramesBySource[S];
    Stats.MissesBySource[S] = Misses;
    Stats.Accesses += FramesBySource[S];
    Stats.Misses += Misses;
  }
  return Stats;
}

uint32_t StackSim::stackDepthOf(uint64_t Frame) {
  const uint32_t Set = static_cast<uint32_t>(Frame) & SetMask;
  const uint64_t TagPlusOne = Frame + 1;
  uint64_t *Stack = &Stacks[static_cast<size_t>(Set) * MaxAssoc];
  // MRU fast path: most frames re-reference the most recent block of
  // their set, and a depth-0 hit moves nothing.
  uint64_t Prev = Stack[0];
  if (Prev == TagPlusOne)
    return 0;
  // Search and reposition in one pass: slide each entry down while
  // scanning for the tag. A hit at depth D has shifted exactly [0..D); a
  // cold/overflow frame has shifted the whole stack, dropping the LRU tag
  // (exact — an entry at depth >= MaxAssoc misses in every member, which
  // is indistinguishable from never having been cached).
  Stack[0] = TagPlusOne;
  for (uint32_t D = 1; D != MaxAssoc; ++D) {
    const uint64_t Cur = Stack[D];
    Stack[D] = Prev;
    if (Cur == TagPlusOne)
      return D;
    Prev = Cur;
  }
  return MaxAssoc;
}

void StackSim::access(const MemAccess &Acc) { accessBatch(&Acc, 1); }

void StackSim::accessRun(const MemAccess &Acc) {
  // One stack search per frame; a run's follow-on touches of a frame find
  // it at depth 0.
  const unsigned Source = static_cast<unsigned>(Acc.Source);
  const FrameWalk Walk = frameWalk(Acc, BlockShift);
  for (uint32_t F = 0; F != Walk.Count; ++F) {
    const uint32_t Frame = Walk.frame(F);
    const uint32_t Depth = stackDepthOf(Frame);
    if (Depth == MaxAssoc)
      ++InfBySource[Source];
    else
      ++DistBySource[Source][Depth];
    if (ProfileEnabled)
      countSetMisses(Frame & SetMask, Depth);
  }
  FramesBySource[Source] += Acc.words();
  DistBySource[Source][0] += Walk.Repeats;
}

void StackSim::accessBatch(const MemAccess *Batch, size_t Count) {
  // Hoist everything loop-invariant, as DirectMappedCache::accessBatch
  // does: stack storage, mask, shift and depth cap live in registers for
  // the whole batch; the small per-source totals fold back once.
  uint64_t *StackData = Stacks.data();
  const uint32_t Mask = SetMask;
  const uint32_t Shift = BlockShift;
  const uint32_t Depths = MaxAssoc;
  uint64_t Frames[NumAccessSources] = {};
  uint64_t Cold[NumAccessSources] = {};
  for (size_t I = 0; I != Count; ++I) {
    const MemAccess &Acc = Batch[I];
    if (Acc.Run != 1) [[unlikely]] {
      accessRun(Acc);
      continue;
    }
    const unsigned Source = static_cast<unsigned>(Acc.Source);
    const FrameWalk Walk = frameWalk(Acc, Shift);
    for (uint32_t F = 0; F != Walk.Count; ++F) {
      const uint32_t Frame = Walk.frame(F);
      ++Frames[Source];
      const uint32_t Set = Frame & Mask;
      const uint64_t TagPlusOne = uint64_t{Frame} + 1;
      uint64_t *Stack = StackData + static_cast<size_t>(Set) * Depths;
      // MRU fast path: a depth-0 hit moves nothing and (Assoc >= 1 in
      // every valid config) misses in no member.
      uint64_t Prev = Stack[0];
      if (Prev == TagPlusOne) {
        ++DistBySource[Source][0];
        continue;
      }
      // Search and reposition in one pass, as stackDepthOf does.
      Stack[0] = TagPlusOne;
      uint32_t Depth = Depths;
      for (uint32_t D = 1; D != Depths; ++D) {
        const uint64_t Cur = Stack[D];
        Stack[D] = Prev;
        if (Cur == TagPlusOne) {
          Depth = D;
          break;
        }
        Prev = Cur;
      }
      if (Depth == Depths)
        ++Cold[Source];
      else
        ++DistBySource[Source][Depth];
      if (ProfileEnabled)
        countSetMisses(Set, Depth);
    }
  }
  for (unsigned S = 0; S != NumAccessSources; ++S) {
    FramesBySource[S] += Frames[S];
    InfBySource[S] += Cold[S];
  }
}

void StackSim::reset() {
  std::fill(Stacks.begin(), Stacks.end(), 0);
  FramesBySource.fill(0);
  InfBySource.fill(0);
  for (auto &Dist : DistBySource)
    std::fill(Dist.begin(), Dist.end(), 0);
  for (auto &Profile : SetMisses)
    std::fill(Profile.begin(), Profile.end(), 0);
}

void StackSim::enableSetProfile() {
  ProfileEnabled = true;
  for (auto &Profile : SetMisses)
    Profile.assign(NumSets, 0);
}

uint64_t StackSim::totalFrames() const {
  uint64_t Total = 0;
  for (uint64_t Frames : FramesBySource)
    Total += Frames;
  return Total;
}

uint64_t StackSim::coldMisses() const {
  uint64_t Total = 0;
  for (uint64_t Cold : InfBySource)
    Total += Cold;
  return Total;
}

std::vector<uint64_t> StackSim::distanceTotals() const {
  std::vector<uint64_t> Totals(MaxAssoc, 0);
  for (const auto &Dist : DistBySource)
    for (uint32_t D = 0; D != MaxAssoc; ++D)
      Totals[D] += Dist[D];
  return Totals;
}

std::vector<CacheConfig> allocsim::stackCacheSweep() {
  std::vector<CacheConfig> Configs;
  uint32_t Assoc = 1;
  for (uint32_t Kb = 16; Kb <= 256; Kb *= 2, Assoc *= 2)
    Configs.push_back(CacheConfig{Kb * 1024, 32, Assoc});
  return Configs;
}
