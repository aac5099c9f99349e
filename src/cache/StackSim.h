//===- cache/StackSim.h - One-pass stack-distance cache engine --*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-pass stack-distance simulation in the Mattson et al. lineage that
/// TYCHO (and through it the paper's simulator) descends from. LRU caches
/// that share a set-indexing function satisfy the *inclusion property*: the
/// contents of an A-way set are always a superset of the contents of the
/// same set at any smaller associativity. StackSim exploits this to derive
/// exact miss counts for an entire family of cache sizes from a single pass
/// over the reference stream: it maintains one LRU stack per set, records
/// the depth (stack distance) at which each block frame is found, and reads
/// off Misses(A) = #{references with distance >= A} afterwards.
///
/// The family must therefore share the set-indexing function: same block
/// size and same set count, varying only associativity (so capacities are
/// S * B, 2*S*B, 4*S*B, ...). Within that contract the counts — total and
/// split by AccessSource — are bit-exactly what per-config CacheBank
/// simulation produces, which the engine-equivalence suite enforces.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_CACHE_STACKSIM_H
#define ALLOCSIM_CACHE_STACKSIM_H

#include "cache/CacheSim.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace allocsim {

/// Checks whether \p Family can be simulated in one stack-distance pass:
/// every member valid, all members sharing block size and set count, no
/// duplicate geometries. Returns an empty string when the family is fine
/// (an empty family is trivially fine), else a human-readable description
/// of the first problem. MatrixRunner uses this to fail a cell gracefully
/// before the StackSim constructor would reportFatalError on the same input.
std::string describeStackFamilyProblem(const std::vector<CacheConfig> &Family);

/// The engine a parsed cache list runs on: StackDist for a stack-legal
/// family with an associative member, where the one pass beats probing
/// every member (bench_cache_engines' pair, single4w and fig678 rows);
/// PerConfig for everything else — an empty list, a lone direct-mapped
/// cache (the single16k row, where the stack is slower), the paper's
/// all-direct-mapped sweep (CacheBank's nested sweep) and mixed
/// geometries.
CacheEngineKind chooseCacheEngine(const std::vector<CacheConfig> &Caches);

/// One-pass multi-configuration LRU simulator over a cache family sharing
/// block size and set count (see file comment). Attachable to the memory
/// bus wherever a CacheBank would go; statsFor(I) afterwards yields exactly
/// what CacheBank::cache(I).stats() would have been.
class StackSim final : public AccessSink {
public:
  /// \p Family must pass describeStackFamilyProblem and be non-empty;
  /// violations are fatal (callers wanting a diagnosis instead call the
  /// checker first).
  explicit StackSim(const std::vector<CacheConfig> &Family);

  size_t size() const { return Family.size(); }
  const CacheConfig &config(size_t Index) const { return Family[Index]; }

  /// Derives the member's hit/miss counters from the distance histogram:
  /// a reference found at 0-based stack depth D hits every member with
  /// Assoc > D and misses the rest; cold/overflow references miss everyone.
  CacheStats statsFor(size_t Index) const;

  /// A one-record accessBatch.
  void access(const MemAccess &Access) override;

  /// Batch fast path with the stack storage, set mask and block shift
  /// hoisted out of the record loop and one stack search per block a word
  /// run touches — same frame split and same stack update as the scalar
  /// path, so the counts are bit-identical.
  void accessBatch(const MemAccess *Batch, size_t Count) override;

  /// Empties every stack and zeroes all counters.
  void reset();

  /// Enables per-member per-set miss profiles (telemetry full level),
  /// mirroring CacheSim::enableSetProfile so both engines surface the same
  /// cache.<I>.set_misses telemetry. Costs size() * numSets() counters and
  /// one extra loop per frame; disabled (zero cost) by default.
  void enableSetProfile();

  /// Per-set miss counts of member \p Index; empty unless enableSetProfile
  /// was called.
  const std::vector<uint64_t> &setMissProfile(size_t Index) const {
    return SetMisses[Index];
  }

  // Telemetry accessors (cache.stackdist.* probes).

  /// Block frames simulated (== the Accesses count of every member).
  uint64_t totalFrames() const;
  /// Frames never seen before or found below every member's reach (the
  /// "infinite distance" bucket; a lower bound on every member's misses).
  uint64_t coldMisses() const;
  /// Finite-distance histogram summed over sources: element D counts frames
  /// found at 0-based stack depth D, for D in [0, maxAssoc()).
  std::vector<uint64_t> distanceTotals() const;
  /// Deepest stack kept per set == the family's largest associativity.
  uint32_t maxAssoc() const { return MaxAssoc; }
  /// Shared set count of the family.
  uint32_t numSets() const { return NumSets; }

private:
  /// Searches the frame's per-set LRU stack and returns the 0-based depth
  /// it was found at, or MaxAssoc for cold/overflow; repositions the frame
  /// at MRU either way.
  uint32_t stackDepthOf(uint64_t Frame);

  /// accessBatch's word-run arm, kept out of line so the batch loop over
  /// single references keeps its registers.
  [[gnu::noinline]] void accessRun(const MemAccess &Acc);

  /// Per-set profile: counts a miss of set \p Set in every member that a
  /// frame found at \p Depth misses.
  void countSetMisses(uint32_t Set, uint32_t Depth) {
    for (size_t M = 0; M != MemberAssoc.size(); ++M)
      if (MemberAssoc[M] <= Depth)
        ++SetMisses[M][Set];
  }

  std::vector<CacheConfig> Family;
  uint32_t NumSets = 1;
  uint32_t SetMask = 0;
  uint32_t BlockShift = 0;
  /// Largest member associativity; stacks deeper than this are truncated,
  /// which is exact: a frame at depth >= MaxAssoc misses in every member,
  /// indistinguishable from a cold frame.
  uint32_t MaxAssoc = 1;
  /// NumSets stacks of MaxAssoc entries each, MRU first, tag-plus-one
  /// encoded (0 = empty), flattened row-major.
  std::vector<uint64_t> Stacks;
  /// Frames counted per source (== AccessesBySource of every member).
  std::array<uint64_t, NumAccessSources> FramesBySource{};
  /// Finite-distance histograms: DistBySource[S][D] counts source-S frames
  /// found at 0-based depth D.
  std::array<std::vector<uint64_t>, NumAccessSources> DistBySource;
  /// Cold/overflow frames per source (distance "infinity").
  std::array<uint64_t, NumAccessSources> InfBySource{};
  /// Per-member associativity, hoisted for the set-profile loop.
  std::vector<uint32_t> MemberAssoc;
  /// Per-member per-set miss counts; inner vectors empty unless the profile
  /// is enabled.
  std::vector<std::vector<uint64_t>> SetMisses;
  bool ProfileEnabled = false;
};

/// The stack-engine analogue of paperCacheSweep(): 16K..256K with 32-byte
/// blocks as one legal family — 512 sets throughout, associativity 1, 2,
/// ..., 16. The 16K member coincides with the paper's direct-mapped
/// configuration; the larger members trade the paper's direct mapping for
/// LRU associativity so the whole sweep comes out of one pass.
std::vector<CacheConfig> stackCacheSweep();

} // namespace allocsim

#endif // ALLOCSIM_CACHE_STACKSIM_H
