//===- cache/CacheSim.h - Data-cache simulators -----------------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Data-cache simulators in the mold of TYCHO (Hill), which the paper
/// modified for execution-driven simulation. The paper's configuration is a
/// direct-mapped cache with 32-byte blocks; we additionally provide
/// set-associative LRU caches as an extension, and a CacheBank that
/// simulates many configurations from one reference stream in a single pass
/// (how the paper produced its miss-rate-vs-cache-size curves). A bank of
/// direct-mapped caches sharing one block size runs as one nested sweep,
/// smallest cache first, stopping at the first hit.
///
/// Misses are counted for both reads and writes (write-allocate); only the
/// data stream is modeled — the paper assumes a 0% instruction-cache miss
/// rate. Statistics are split by access source so that allocator-induced
/// and tag-induced misses can be attributed (Table 6).
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_CACHE_CACHESIM_H
#define ALLOCSIM_CACHE_CACHESIM_H

#include "mem/AccessSink.h"

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace allocsim {

/// Geometry of one cache.
struct CacheConfig {
  /// Total capacity in bytes; must be a power of two.
  uint32_t SizeBytes = 16 * 1024;
  /// Block (line) size in bytes; must be a power of two. The paper uses 32.
  uint32_t BlockBytes = 32;
  /// Associativity; 1 = direct-mapped (the paper's configuration).
  uint32_t Assoc = 1;

  /// Capacity in blocks; 0 for the degenerate BlockBytes == 0 geometry
  /// (which valid() rejects) rather than dividing by zero.
  uint32_t numBlocks() const {
    return BlockBytes == 0 ? 0 : SizeBytes / BlockBytes;
  }
  /// Number of sets; 0 for degenerate geometries (Assoc == 0 or
  /// BlockBytes == 0) rather than dividing by zero.
  uint32_t numSets() const { return Assoc == 0 ? 0 : numBlocks() / Assoc; }

  /// True if sizes are powers of two and the geometry is consistent.
  bool valid() const;

  /// E.g. "64K direct-mapped, 32B blocks"; sub-1K capacities print in
  /// bytes ("512B 16-way, 32B blocks"). Must stay total: it is called on
  /// configurations that already failed valid() to build the fatal-error
  /// message.
  std::string describe() const;

  bool operator==(const CacheConfig &Other) const = default;
};

/// How an experiment simulates its cache sweep.
enum class CacheEngineKind : uint8_t {
  /// One CacheSim per configuration (CacheBank): every reference probes
  /// every cache. Supports arbitrary mixed geometries.
  PerConfig,
  /// One-pass stack-distance engine (StackSim, see cache/StackSim.h): one
  /// capped LRU stack per set serves the whole family in a single pass.
  /// Requires the configurations to share block size and set count (vary
  /// only associativity); bit-exact with PerConfig where both apply.
  StackDist,
};

/// Hit/miss counters, split by access source.
struct CacheStats {
  uint64_t Accesses = 0;
  uint64_t Misses = 0;
  std::array<uint64_t, NumAccessSources> AccessesBySource{};
  std::array<uint64_t, NumAccessSources> MissesBySource{};

  double missRate() const {
    return Accesses == 0 ? 0.0
                         : static_cast<double>(Misses) /
                               static_cast<double>(Accesses);
  }

  uint64_t accessesFrom(AccessSource Source) const {
    return AccessesBySource[static_cast<unsigned>(Source)];
  }
  uint64_t missesFrom(AccessSource Source) const {
    return MissesBySource[static_cast<unsigned>(Source)];
  }
  bool operator==(const CacheStats &Other) const = default;
};

/// Common interface: a cache is an AccessSink with stats.
class CacheSim : public AccessSink {
public:
  explicit CacheSim(const CacheConfig &Config);

  const CacheConfig &config() const { return Config; }
  const CacheStats &stats() const { return Stats; }

  /// Empties the cache and zeroes statistics.
  virtual void reset() = 0;

  /// Splits a record into the block frames it covers and calls probe() for
  /// each; updates statistics. A word run probes each block it touches
  /// once and counts its other words there as hits (DESIGN.md §10).
  void access(const MemAccess &Access) final;

  /// Probes every word of a word run, as AccessSink's default expansion
  /// would, without building a record and a virtual call per word:
  /// set-associative and victim caches do not collapse runs (DESIGN.md §10
  /// says why). DirectMappedCache has its own loop.
  void accessBatch(const MemAccess *Batch, size_t Count) override;

  /// Enables the per-set miss profile (telemetry full level): misses are
  /// additionally counted per cache set, exposing the conflict structure
  /// behind the aggregate miss rate. Costs one counter array of numSets()
  /// entries; disabled (empty, zero cost on the probe paths) by default.
  void enableSetProfile() { SetMisses.assign(Config.numSets(), 0); }

  /// Per-set miss counts; empty unless enableSetProfile was called.
  const std::vector<uint64_t> &setMissProfile() const { return SetMisses; }

protected:
  /// Folds batch-local counters into Stats (shared by the subclasses'
  /// accessBatch loops, which accumulate into registers first).
  void foldBatchStats(uint64_t Accesses, uint64_t Misses,
                      const uint64_t AccessesBySource[NumAccessSources],
                      const uint64_t MissesBySource[NumAccessSources]);

  /// Returns true on hit; updates replacement state.
  virtual bool probe(uint64_t BlockFrame) = 0;

  /// One probe of \p Frame by a \p Source reference, with its statistics.
  void countProbe(uint32_t Frame, unsigned Source);

  /// Set index a frame maps to (for the per-set miss profile).
  virtual uint32_t setIndexOf(uint64_t BlockFrame) const = 0;

  CacheConfig Config;
  CacheStats Stats;
  uint32_t BlockShift = 0;
  /// Per-set miss counts; empty when the set profile is disabled.
  std::vector<uint64_t> SetMisses;
};

/// Direct-mapped cache: one tag per set. This is the paper's model.
class DirectMappedCache final : public CacheSim {
public:
  explicit DirectMappedCache(const CacheConfig &Config);

  void reset() override;

  /// Batch fast path: one pass over the records with the block shift, index
  /// mask and tag array hoisted out of the loop and probe() inlined, and one
  /// probe per block a word run touches — bit-identical to the scalar path
  /// by construction (the equivalence suite enforces it).
  void accessBatch(const MemAccess *Batch, size_t Count) override;

private:
  friend class CacheBank;

  /// Nested sweep over \p Members, which must share one block size, be
  /// ordered by strictly increasing set count, and have seen the same
  /// reference stream since their last reset. Set-refinement inclusion then
  /// makes a hit in one member a hit in every later one, and a hit changes
  /// no state, so each frame probes members in order up to its first hit.
  /// Bit-identical to calling accessBatch on every member.
  static void accessBatchNested(DirectMappedCache *const *Members,
                                size_t NumMembers, const MemAccess *Batch,
                                size_t Count);

  bool probe(uint64_t BlockFrame) override;
  uint32_t setIndexOf(uint64_t BlockFrame) const override {
    return static_cast<uint32_t>(BlockFrame) & IndexMask;
  }

  uint32_t IndexMask;
  /// Tag-plus-one per set; 0 means invalid.
  std::vector<uint64_t> Tags;
};

/// N-way set-associative cache with true-LRU replacement (extension beyond
/// the paper's direct-mapped study).
class SetAssocCache final : public CacheSim {
public:
  explicit SetAssocCache(const CacheConfig &Config);

  void reset() override;

private:
  bool probe(uint64_t BlockFrame) override;
  uint32_t setIndexOf(uint64_t BlockFrame) const override {
    return static_cast<uint32_t>(BlockFrame % NumSets);
  }

  uint32_t NumSets;
  /// Ways for each set, most-recently-used first; 0 means invalid.
  std::vector<uint64_t> Ways;
};

/// Direct-mapped cache augmented with a small fully-associative victim
/// buffer (Jouppi 1990, cited in the paper's introduction as the era's
/// answer to rising miss costs). A block evicted from the main array drops
/// into the victim buffer; a main-array miss that hits the buffer swaps
/// the two blocks and counts as a hit. Extension beyond the paper's
/// direct-mapped study: it shows how much of each allocator's miss rate is
/// conflict structure a tiny buffer can absorb.
class VictimCache final : public CacheSim {
public:
  /// \p Config must be direct-mapped; \p VictimEntries is the buffer size
  /// in blocks (Jouppi studied 1-15).
  VictimCache(const CacheConfig &Config, uint32_t VictimEntries);

  void reset() override;

  /// Main-array misses that the victim buffer absorbed.
  uint64_t victimHits() const { return VictimHits; }

private:
  bool probe(uint64_t BlockFrame) override;
  uint32_t setIndexOf(uint64_t BlockFrame) const override {
    return static_cast<uint32_t>(BlockFrame) & IndexMask;
  }

  uint32_t IndexMask;
  /// Tag-plus-one per set; 0 means invalid.
  std::vector<uint64_t> Tags;
  /// Victim buffer, most-recently-inserted first; 0 means invalid.
  std::vector<uint64_t> Victims;
  uint64_t VictimHits = 0;
};

/// Simulates several cache configurations simultaneously from one stream.
class CacheBank final : public AccessSink {
public:
  /// Adds a cache (direct-mapped if Assoc==1, else set-associative) and
  /// returns its index. A configuration equal to one already in the bank
  /// is fatal: a duplicate would silently double-count in sweep output, so
  /// callers building banks from user input must dedupe (or diagnose)
  /// first.
  size_t addCache(const CacheConfig &Config);

  /// Probes every cache in index order (the scalar oracle the batched
  /// path is checked against).
  void access(const MemAccess &Access) override;

  /// A bank of two or more direct-mapped caches sharing one block size runs
  /// batches of two or more records through the nested sweep
  /// (DirectMappedCache::accessBatchNested): most frames hit the smallest
  /// cache and touch one tag array instead of all of them. Otherwise the
  /// whole batch goes to each cache in turn, so one cache's tag array stays
  /// hot for hundreds of probes before the next cache's is touched.
  void accessBatch(const MemAccess *Batch, size_t Count) override;

  size_t size() const { return Caches.size(); }
  bool empty() const { return Caches.empty(); }
  /// True when accessBatch runs multi-record batches through the nested
  /// direct-mapped sweep.
  bool usesNestedSweep() const { return !Nested.empty(); }
  const CacheSim &cache(size_t Index) const { return *Caches[Index]; }
  CacheSim &cache(size_t Index) { return *Caches[Index]; }

  /// Resets every cache. The nested sweep relies on all members having
  /// seen the same stream, so reset the bank as a whole.
  void resetAll();

private:
  std::vector<std::unique_ptr<CacheSim>> Caches;
  /// The direct-mapped members by increasing set count when the bank
  /// qualifies for the nested sweep; empty otherwise.
  std::vector<DirectMappedCache *> Nested;
};

/// Builds the paper's sweep: direct-mapped caches of 16K, 32K, ..., 256K
/// with 32-byte blocks.
std::vector<CacheConfig> paperCacheSweep();

} // namespace allocsim

#endif // ALLOCSIM_CACHE_CACHESIM_H
