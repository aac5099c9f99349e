//===- cache/CacheSim.cpp - Data-cache simulators -------------------------===//

#include "cache/CacheSim.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace allocsim;

namespace {

bool isPowerOfTwo(uint32_t Value) {
  return Value != 0 && (Value & (Value - 1)) == 0;
}

uint32_t log2Exact(uint32_t Value) {
  assert(isPowerOfTwo(Value) && "log2Exact of non-power-of-two");
  return static_cast<uint32_t>(__builtin_ctz(Value));
}

/// Set counts are powers of two below 2^31, so a bank holds at most 31
/// direct-mapped caches of one block size.
constexpr size_t MaxNestedMembers = 32;

} // namespace

bool CacheConfig::valid() const {
  return isPowerOfTwo(SizeBytes) && isPowerOfTwo(BlockBytes) &&
         isPowerOfTwo(Assoc) && BlockBytes >= 4 && SizeBytes >= BlockBytes &&
         Assoc <= numBlocks();
}

std::string CacheConfig::describe() const {
  // Print sub-1K capacities in bytes instead of a misleading "0K" — this
  // runs on configs that already failed valid(), and also on legal tiny
  // fully-associative ones (e.g. 512B 16-way).
  std::string Result = SizeBytes >= 1024
                           ? std::to_string(SizeBytes / 1024) + "K "
                           : std::to_string(SizeBytes) + "B ";
  Result += Assoc == 1 ? "direct-mapped" : (std::to_string(Assoc) + "-way");
  Result += ", " + std::to_string(BlockBytes) + "B blocks";
  return Result;
}

CacheSim::CacheSim(const CacheConfig &SimConfig) : Config(SimConfig) {
  // Validate before deriving the block shift: log2Exact on a zero or
  // non-power-of-two block size is undefined behavior, and degenerate
  // geometries must reach reportFatalError with a printable describe().
  if (!Config.valid())
    reportFatalError("invalid cache configuration: " + Config.describe());
  BlockShift = log2Exact(Config.BlockBytes);
}

inline void CacheSim::countProbe(uint32_t Frame, unsigned Source) {
  ++Stats.Accesses;
  ++Stats.AccessesBySource[Source];
  if (!probe(Frame)) {
    ++Stats.Misses;
    ++Stats.MissesBySource[Source];
    if (!SetMisses.empty())
      ++SetMisses[setIndexOf(Frame)];
  }
}

void CacheSim::access(const MemAccess &Acc) {
  const unsigned Source = static_cast<unsigned>(Acc.Source);
  // An access straddling a block boundary counts once per block touched,
  // like a trace with one entry per word. A run's follow-on touches of a
  // block re-reference the block just probed: hits that change no state
  // (DESIGN.md §10).
  const uint32_t Repeats = forEachFrame(
      Acc, BlockShift, [&](uint32_t Frame) { countProbe(Frame, Source); });
  Stats.Accesses += Repeats;
  Stats.AccessesBySource[Source] += Repeats;
}

void CacheSim::accessBatch(const MemAccess *Batch, size_t Count) {
  for (size_t I = 0; I != Count; ++I) {
    const MemAccess &Acc = Batch[I];
    if (Acc.Run == 1) {
      access(Acc);
      continue;
    }
    // Word by word; a run's aligned words each lie in one block.
    const unsigned Source = static_cast<unsigned>(Acc.Source);
    const Addr Step = Acc.Run > 0 ? 4 : ~Addr{3};
    Addr Word = Acc.Address;
    for (uint32_t W = 0, N = Acc.words(); W != N; ++W, Word += Step)
      countProbe(Word >> BlockShift, Source);
  }
}

void CacheSim::foldBatchStats(uint64_t Accesses, uint64_t Misses,
                              const uint64_t AccBySource[NumAccessSources],
                              const uint64_t MissBySource[NumAccessSources]) {
  Stats.Accesses += Accesses;
  Stats.Misses += Misses;
  for (unsigned S = 0; S != NumAccessSources; ++S) {
    Stats.AccessesBySource[S] += AccBySource[S];
    Stats.MissesBySource[S] += MissBySource[S];
  }
}

DirectMappedCache::DirectMappedCache(const CacheConfig &SimConfig)
    : CacheSim(SimConfig), IndexMask(SimConfig.numSets() - 1),
      Tags(SimConfig.numSets(), 0) {
  assert(Config.Assoc == 1 && "direct-mapped cache requires Assoc == 1");
}

void DirectMappedCache::reset() {
  std::fill(Tags.begin(), Tags.end(), 0);
  std::fill(SetMisses.begin(), SetMisses.end(), 0);
  Stats = CacheStats();
}

void DirectMappedCache::accessBatch(const MemAccess *Batch, size_t Count) {
  // Hoist everything loop-invariant: the tag array, index mask and block
  // shift live in registers for the whole batch, and statistics accumulate
  // into locals folded back once. Same frame split and same tag update as
  // the scalar access()/probe() pair, so the counts are bit-identical.
  uint64_t *TagArray = Tags.data();
  const uint32_t Mask = IndexMask;
  const uint32_t Shift = BlockShift;
  uint64_t *SetMissArray = SetMisses.empty() ? nullptr : SetMisses.data();
  uint64_t Accesses = 0, Misses = 0;
  uint64_t AccBySource[NumAccessSources] = {};
  uint64_t MissBySource[NumAccessSources] = {};
  for (size_t I = 0; I != Count; ++I) {
    const MemAccess &Acc = Batch[I];
    const unsigned Source = static_cast<unsigned>(Acc.Source);
    // A run's follow-on touches of a frame re-reference the block just
    // probed: hits that change no state (DESIGN.md §10).
    const uint32_t Repeats = forEachFrame(Acc, Shift, [&](uint32_t Frame) {
      ++Accesses;
      ++AccBySource[Source];
      const uint64_t TagPlusOne = uint64_t{Frame} + 1;
      const uint32_t Set = Frame & Mask;
      uint64_t &Slot = TagArray[Set];
      if (Slot != TagPlusOne) {
        Slot = TagPlusOne;
        ++Misses;
        ++MissBySource[Source];
        if (SetMissArray)
          ++SetMissArray[Set];
      }
    });
    if (Repeats != 0) {
      Accesses += Repeats;
      AccBySource[Source] += Repeats;
    }
  }
  foldBatchStats(Accesses, Misses, AccBySource, MissBySource);
}

void DirectMappedCache::accessBatchNested(DirectMappedCache *const *Members,
                                          size_t NumMembers,
                                          const MemAccess *Batch,
                                          size_t Count) {
  assert(NumMembers != 0 && NumMembers <= MaxNestedMembers &&
         "nested sweep member count out of range");
  struct Lane {
    uint64_t *Tags;
    uint64_t *SetMisses;
    uint32_t Mask;
  };
  Lane Lanes[MaxNestedMembers] = {};
  for (size_t M = 0; M != NumMembers; ++M) {
    DirectMappedCache &Cache = *Members[M];
    Lanes[M] = {Cache.Tags.data(),
                Cache.SetMisses.empty() ? nullptr : Cache.SetMisses.data(),
                Cache.IndexMask};
  }
  const uint32_t Shift = Members[0]->BlockShift;
  // FirstHit[S][D]: frames from source S whose first hit is member D (D ==
  // NumMembers: no member hit). Members before D missed, D and later hit.
  uint64_t FirstHit[NumAccessSources][MaxNestedMembers + 1] = {};
  for (size_t I = 0; I != Count; ++I) {
    const MemAccess &Acc = Batch[I];
    uint64_t *BySource = FirstHit[static_cast<unsigned>(Acc.Source)];
    // Same frame split as CacheSim::access. After a frame's first touch
    // every member holds it, so a run's follow-on touches first-hit the
    // smallest member.
    BySource[0] += forEachFrame(Acc, Shift, [&](uint32_t Frame) {
      const uint64_t TagPlusOne = uint64_t{Frame} + 1;
      size_t M = 0;
      for (; M != NumMembers; ++M) {
        const Lane &L = Lanes[M];
        const uint32_t Set = Frame & L.Mask;
        uint64_t &Slot = L.Tags[Set];
        if (Slot == TagPlusOne)
          break;
        Slot = TagPlusOne;
        if (L.SetMisses)
          ++L.SetMisses[Set];
      }
      ++BySource[M];
    });
  }
  // Every member sees every frame; member M missed those whose first hit
  // lies beyond it, a suffix sum over the first-hit counts.
  uint64_t AccBySource[NumAccessSources] = {};
  uint64_t Accesses = 0;
  for (unsigned S = 0; S != NumAccessSources; ++S) {
    for (size_t D = 0; D <= NumMembers; ++D)
      AccBySource[S] += FirstHit[S][D];
    Accesses += AccBySource[S];
  }
  uint64_t MissBySource[NumAccessSources] = {};
  for (size_t M = NumMembers; M-- != 0;) {
    uint64_t Misses = 0;
    for (unsigned S = 0; S != NumAccessSources; ++S) {
      MissBySource[S] += FirstHit[S][M + 1];
      Misses += MissBySource[S];
    }
    Members[M]->foldBatchStats(Accesses, Misses, AccBySource, MissBySource);
  }
}

bool DirectMappedCache::probe(uint64_t BlockFrame) {
  uint32_t Set = static_cast<uint32_t>(BlockFrame) & IndexMask;
  uint64_t TagPlusOne = BlockFrame + 1;
  if (Tags[Set] == TagPlusOne)
    return true;
  Tags[Set] = TagPlusOne;
  return false;
}

SetAssocCache::SetAssocCache(const CacheConfig &SimConfig)
    : CacheSim(SimConfig), NumSets(SimConfig.numSets()),
      Ways(static_cast<size_t>(SimConfig.numSets()) * SimConfig.Assoc, 0) {}

void SetAssocCache::reset() {
  std::fill(Ways.begin(), Ways.end(), 0);
  std::fill(SetMisses.begin(), SetMisses.end(), 0);
  Stats = CacheStats();
}

bool SetAssocCache::probe(uint64_t BlockFrame) {
  uint32_t Set = static_cast<uint32_t>(BlockFrame % NumSets);
  uint64_t TagPlusOne = BlockFrame + 1;
  uint64_t *SetWays = &Ways[static_cast<size_t>(Set) * Config.Assoc];
  for (uint32_t Way = 0; Way != Config.Assoc; ++Way) {
    if (SetWays[Way] != TagPlusOne)
      continue;
    // Hit: move to MRU position.
    for (uint32_t J = Way; J != 0; --J)
      SetWays[J] = SetWays[J - 1];
    SetWays[0] = TagPlusOne;
    return true;
  }
  // Miss: evict LRU (last way), shift, insert at MRU.
  for (uint32_t J = Config.Assoc - 1; J != 0; --J)
    SetWays[J] = SetWays[J - 1];
  SetWays[0] = TagPlusOne;
  return false;
}

VictimCache::VictimCache(const CacheConfig &SimConfig,
                         uint32_t VictimEntries)
    : CacheSim(SimConfig), IndexMask(SimConfig.numSets() - 1),
      Tags(SimConfig.numSets(), 0), Victims(VictimEntries, 0) {
  if (SimConfig.Assoc != 1)
    reportFatalError("victim cache requires a direct-mapped main array");
  if (VictimEntries == 0)
    reportFatalError("victim cache needs at least one buffer entry");
}

void VictimCache::reset() {
  std::fill(Tags.begin(), Tags.end(), 0);
  std::fill(Victims.begin(), Victims.end(), 0);
  std::fill(SetMisses.begin(), SetMisses.end(), 0);
  Stats = CacheStats();
  VictimHits = 0;
}

bool VictimCache::probe(uint64_t BlockFrame) {
  uint32_t Set = static_cast<uint32_t>(BlockFrame) & IndexMask;
  uint64_t TagPlusOne = BlockFrame + 1;
  if (Tags[Set] == TagPlusOne)
    return true;

  // Main-array miss: search the victim buffer.
  for (size_t I = 0; I != Victims.size(); ++I) {
    if (Victims[I] != TagPlusOne)
      continue;
    // Swap: the requested block returns to the main array, the displaced
    // main block takes its buffer slot (promoted to most recent).
    uint64_t Displaced = Tags[Set];
    Tags[Set] = TagPlusOne;
    for (size_t J = I; J != 0; --J)
      Victims[J] = Victims[J - 1];
    Victims[0] = Displaced;
    ++VictimHits;
    return true;
  }

  // Full miss: displaced main block enters the buffer (LRU evict).
  uint64_t Displaced = Tags[Set];
  Tags[Set] = TagPlusOne;
  if (Displaced != 0) {
    for (size_t J = Victims.size() - 1; J != 0; --J)
      Victims[J] = Victims[J - 1];
    Victims[0] = Displaced;
  }
  return false;
}

size_t CacheBank::addCache(const CacheConfig &SimConfig) {
  for (size_t I = 0; I != Caches.size(); ++I)
    if (Caches[I]->config() == SimConfig)
      reportFatalError("duplicate cache configuration (already at index " +
                       std::to_string(I) +
                       "): " + SimConfig.describe() +
                       " — a duplicate would double-count in sweep output");
  if (SimConfig.Assoc == 1)
    Caches.push_back(std::make_unique<DirectMappedCache>(SimConfig));
  else
    Caches.push_back(std::make_unique<SetAssocCache>(SimConfig));

  // Re-plan the nested sweep: it needs two or more direct-mapped caches of
  // one block size (distinct configs then have distinct set counts).
  Nested.clear();
  bool Nestable = Caches.size() >= 2;
  for (const auto &Cache : Caches)
    Nestable = Nestable && Cache->config().Assoc == 1 &&
               Cache->config().BlockBytes == SimConfig.BlockBytes;
  if (Nestable) {
    for (const auto &Cache : Caches)
      Nested.push_back(static_cast<DirectMappedCache *>(Cache.get()));
    std::sort(Nested.begin(), Nested.end(),
              [](const DirectMappedCache *A, const DirectMappedCache *B) {
                return A->config().numSets() < B->config().numSets();
              });
  }
  return Caches.size() - 1;
}

void CacheBank::access(const MemAccess &Acc) {
  for (auto &Cache : Caches)
    Cache->access(Acc);
}

void CacheBank::accessBatch(const MemAccess *Batch, size_t Count) {
  // A one-record batch (scalar delivery) gains nothing from the nested
  // sweep's per-batch set-up; probing per cache there also makes the
  // delivery-equivalence suite compare the nested sweep against per-cache
  // simulation.
  if (!Nested.empty() && Count > 1) {
    DirectMappedCache::accessBatchNested(Nested.data(), Nested.size(), Batch,
                                         Count);
    return;
  }
  for (auto &Cache : Caches)
    Cache->accessBatch(Batch, Count);
}

void CacheBank::resetAll() {
  for (auto &Cache : Caches)
    Cache->reset();
}

std::vector<CacheConfig> allocsim::paperCacheSweep() {
  std::vector<CacheConfig> Configs;
  for (uint32_t Kb = 16; Kb <= 256; Kb *= 2)
    Configs.push_back(CacheConfig{Kb * 1024, 32, 1});
  return Configs;
}
