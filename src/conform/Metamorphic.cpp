//===- conform/Metamorphic.cpp - Metamorphic invariant suite --------------===//

#include "conform/Metamorphic.h"

#include "core/MatrixRunner.h"
#include "trace/AllocEvents.h"

#include <algorithm>
#include <sstream>
#include <thread>

using namespace allocsim;

namespace {

/// All allocators the metamorphic properties quantify over: the five paper
/// allocators plus the PAPERS.md modern extensions. The invariants are
/// policy-independent, so every backend must satisfy them.
std::vector<AllocatorKind> metamorphicAllocators() {
  std::vector<AllocatorKind> Kinds(std::begin(PaperAllocators),
                                   std::end(PaperAllocators));
  Kinds.push_back(AllocatorKind::BitmapFit);
  Kinds.push_back(AllocatorKind::SpaceFit);
  return Kinds;
}

/// The shared base matrix every matrix-level property transforms: two
/// workloads (one heavy churner, one light), every allocator, two cache
/// geometries, telemetry on so merged-snapshot equality is exercised.
MatrixSpec baseSpec(const MetamorphicOptions &Options) {
  MatrixSpec Spec;
  Spec.Workloads = {WorkloadId::Espresso, WorkloadId::Make};
  Spec.Allocators = metamorphicAllocators();
  Spec.Caches = {{16 * 1024, 32, 1}, {64 * 1024, 32, 1}};
  Spec.Base.Engine.Scale = Options.Scale;
  Spec.Base.Engine.Seed = Options.Seed;
  Spec.Base.Telemetry = TelemetryLevel::Summary;
  return Spec;
}

std::string goldenOf(const ResultStore &Store) {
  std::ostringstream OS;
  Store.writeGoldenJson(OS);
  return OS.str();
}

/// Exact-integer fingerprint of one cell outcome; two outcomes with equal
/// fingerprints and equal telemetry snapshots measured the same run.
std::string cellFingerprint(const CellOutcome &Cell) {
  std::ostringstream OS;
  OS << (Cell.Ok ? "ok" : Cell.Error) << " seed=" << Cell.Seed
     << " app=" << Cell.Result.AppInstructions
     << " alloc=" << Cell.Result.AllocInstructions
     << " refs=" << Cell.Result.TotalRefs << " tag=" << Cell.Result.TagRefs
     << " heap=" << Cell.Result.HeapBytes
     << " searched=" << Cell.Result.BlocksSearched
     << " mallocs=" << Cell.Result.Alloc.MallocCalls;
  for (const CacheResult &Cache : Cell.Result.Caches)
    OS << " c" << Cache.Config.SizeBytes << "/" << Cache.Config.Assoc << "="
       << Cache.Stats.Misses << "/" << Cache.Stats.Accesses;
  return OS.str();
}

std::string cellName(const ResultStore &Store, size_t W, size_t A, size_t P) {
  const MatrixSpec &Spec = Store.spec();
  return std::string(workloadName(Spec.Workloads[W])) + "/" +
         allocatorKindName(Spec.Allocators[A]) + "/p" +
         std::to_string(Spec.PenaltiesCycles[P]);
}

/// conform-meta-jobs: serial and parallel runs of the same spec are
/// bit-identical, both in the golden serialization and in the merged
/// telemetry fold. \p Whole, run at \p WholeJobs workers, is one side; the
/// other side runs serially when Whole ran in parallel, and at 8 workers
/// when Whole ran serially.
size_t checkJobsInvariance(const MatrixSpec &Spec, const ResultStore &Whole,
                           unsigned WholeJobs, DiagEngine &Diags) {
  MatrixOptions Other;
  Other.Jobs = WholeJobs > 1 ? 1 : 8;
  ResultStore OtherStore = runMatrix(Spec, Other);
  const std::string Legs = "--jobs=1 and --jobs=" +
                           std::to_string(std::max(WholeJobs, Other.Jobs));

  if (goldenOf(Whole) != goldenOf(OtherStore))
    Diags.error("conform-meta-jobs", {},
                "golden serialization differs between " + Legs);
  if (!(Whole.mergedTelemetry() == OtherStore.mergedTelemetry()))
    Diags.error("conform-meta-jobs", {},
                "merged telemetry differs between " + Legs);
  return 2;
}

/// conform-meta-split: an allocator-axis split reassembles to the unsplit
/// matrix, cell for cell, and the two halves' telemetry folds to the whole.
size_t checkSplitMerge(const MatrixSpec &Spec, const ResultStore &Whole,
                       const MatrixOptions &RunOptions, DiagEngine &Diags) {
  size_t Half = Spec.Allocators.size() / 2;
  MatrixSpec Lo = Spec, Hi = Spec;
  Lo.Allocators.assign(Spec.Allocators.begin(),
                       Spec.Allocators.begin() + Half);
  Hi.Allocators.assign(Spec.Allocators.begin() + Half,
                       Spec.Allocators.end());

  ResultStore LoStore = runMatrix(Lo, RunOptions);
  ResultStore HiStore = runMatrix(Hi, RunOptions);

  size_t Checked = 0;
  for (size_t W = 0; W != Spec.Workloads.size(); ++W) {
    for (size_t A = 0; A != Spec.Allocators.size(); ++A) {
      for (size_t P = 0; P != Spec.PenaltiesCycles.size(); ++P) {
        const CellOutcome &Expect = Whole.at(W, A, P);
        const CellOutcome &Got = A < Half ? LoStore.at(W, A, P)
                                          : HiStore.at(W, A - Half, P);
        ++Checked;
        if (cellFingerprint(Expect) != cellFingerprint(Got) ||
            !(Expect.Result.Telemetry == Got.Result.Telemetry))
          Diags.error("conform-meta-split", {},
                      "allocator-axis split changed cell " +
                          cellName(Whole, W, A, P) + ": [" +
                          cellFingerprint(Expect) + "] became [" +
                          cellFingerprint(Got) + "]");
      }
    }
  }

  TelemetrySnapshot Folded = LoStore.mergedTelemetry();
  Folded.merge(HiStore.mergedTelemetry());
  ++Checked;
  if (!(Folded == Whole.mergedTelemetry()))
    Diags.error("conform-meta-split", {},
                "telemetry of the two halves does not fold to the unsplit "
                "matrix's merged snapshot");
  return Checked;
}

/// conform-meta-permute: reversing the allocator axis permutes cells and
/// changes nothing else.
size_t checkPermutation(const MatrixSpec &Spec, const ResultStore &Whole,
                        const MatrixOptions &RunOptions, DiagEngine &Diags) {
  MatrixSpec Reversed = Spec;
  std::reverse(Reversed.Allocators.begin(), Reversed.Allocators.end());
  ResultStore ReversedStore = runMatrix(Reversed, RunOptions);

  size_t Checked = 0;
  size_t NumAlloc = Spec.Allocators.size();
  for (size_t W = 0; W != Spec.Workloads.size(); ++W) {
    for (size_t A = 0; A != NumAlloc; ++A) {
      for (size_t P = 0; P != Spec.PenaltiesCycles.size(); ++P) {
        const CellOutcome &Expect = Whole.at(W, A, P);
        const CellOutcome &Got = ReversedStore.at(W, NumAlloc - 1 - A, P);
        ++Checked;
        if (cellFingerprint(Expect) != cellFingerprint(Got))
          Diags.error("conform-meta-permute", {},
                      "allocator-axis permutation changed cell " +
                          cellName(Whole, W, A, P) + ": [" +
                          cellFingerprint(Expect) + "] became [" +
                          cellFingerprint(Got) + "]");
      }
    }
  }
  return Checked;
}

/// The matrix of one conform-meta-assoc chain: both base workloads, every
/// allocator, \p Caches as the sweep, telemetry off.
MatrixSpec chainSpec(const std::vector<CacheConfig> &Caches,
                     const MetamorphicOptions &Options) {
  MatrixSpec Spec;
  Spec.Workloads = {WorkloadId::Espresso, WorkloadId::Make};
  Spec.Allocators = metamorphicAllocators();
  Spec.Caches = Caches;
  Spec.Base.Engine.Scale = Options.Scale;
  Spec.Base.Engine.Seed = Options.Seed;
  return Spec;
}

/// conform-meta-assoc: with the set count held fixed, doubling
/// associativity (so capacity doubles too) can never increase LRU misses —
/// the stack inclusion property — for the cache chain of \p Store's spec,
/// ordered narrowest first.
size_t checkAssocInclusionFamily(const ResultStore &Store,
                                 DiagEngine &Diags) {
  const MatrixSpec &Spec = Store.spec();
  size_t Checked = 0;
  for (size_t W = 0; W != Spec.Workloads.size(); ++W) {
    for (size_t A = 0; A != Spec.Allocators.size(); ++A) {
      const CellOutcome &Cell = Store.at(W, A, 0);
      if (!Cell.Ok) {
        Diags.error("conform-meta-assoc", {},
                    "cell " + cellName(Store, W, A, 0) +
                        " failed: " + Cell.Error);
        continue;
      }
      for (size_t C = 0; C + 1 < Cell.Result.Caches.size(); ++C) {
        ++Checked;
        uint64_t Narrow = Cell.Result.Caches[C].Stats.Misses;
        uint64_t Wide = Cell.Result.Caches[C + 1].Stats.Misses;
        if (Wide > Narrow)
          Diags.error(
              "conform-meta-assoc", {},
              "LRU inclusion violated for " + cellName(Store, W, A, 0) +
                  ": " + Cell.Result.Caches[C].Config.describe() + " had " +
                  std::to_string(Narrow) + " misses but " +
                  Cell.Result.Caches[C + 1].Config.describe() + " had " +
                  std::to_string(Wide));
      }
    }
  }
  return Checked;
}

/// conform-meta-engine: switching the cache sweep engine from per-config
/// simulation to the one-pass stack-distance engine on a stack-legal family
/// changes no measurement — every cell fingerprint (instruction splits,
/// reference volumes, per-cache miss counts) is bit-identical. \p PerStore
/// is the per-config side; its spec is rerun on the stack engine. Telemetry
/// is off here: the stack engine adds its own probes (cache.stackdist.*),
/// so the snapshots legitimately differ while the measurements must not.
size_t checkEngineEquivalence(const ResultStore &PerStore,
                              const MatrixOptions &RunOptions,
                              DiagEngine &Diags) {
  const MatrixSpec &PerCfg = PerStore.spec();
  MatrixSpec Stack = PerCfg;
  Stack.Base.CacheEngine = CacheEngineKind::StackDist;
  ResultStore StackStore = runMatrix(Stack, RunOptions);

  size_t Checked = 0;
  for (size_t W = 0; W != PerCfg.Workloads.size(); ++W) {
    for (size_t A = 0; A != PerCfg.Allocators.size(); ++A) {
      for (size_t P = 0; P != PerCfg.PenaltiesCycles.size(); ++P) {
        ++Checked;
        const CellOutcome &Per = PerStore.at(W, A, P);
        const CellOutcome &Dist = StackStore.at(W, A, P);
        if (cellFingerprint(Per) != cellFingerprint(Dist))
          Diags.error("conform-meta-engine", {},
                      "cache engine changed cell " +
                          cellName(PerStore, W, A, P) + ": percfg [" +
                          cellFingerprint(Per) + "] vs stackdist [" +
                          cellFingerprint(Dist) + "]");
      }
    }
  }
  return Checked;
}

/// Deterministic scripted workload for the relabel property: interleaved
/// allocate/touch/free traffic over a few hundred objects with mixed sizes
/// and lifetimes. Pure function of the seed (SplitMix64 locally, no global
/// RNG), so both relabeled and plain runs replay the identical sequence.
std::vector<AllocEvent> synthesizeScript(uint64_t Seed) {
  auto Next = [State = Seed]() mutable {
    State += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  };

  struct LiveObject {
    uint32_t Id;
    uint32_t Words;
  };
  std::vector<AllocEvent> Events;
  std::vector<LiveObject> Live;
  uint32_t NextId = 1;
  for (unsigned I = 0; I != 2000; ++I) {
    uint64_t Roll = Next();
    if (Live.empty() || Roll % 100 < 45) {
      uint32_t Size = 8u + static_cast<uint32_t>(Next() % 24) * 8u;
      Events.push_back(AllocEvent::makeMalloc(NextId, Size));
      Live.push_back({NextId, Size / 4});
      ++NextId;
    } else if (Roll % 100 < 80) {
      const LiveObject &Victim = Live[Next() % Live.size()];
      uint32_t Words = 1u + static_cast<uint32_t>(Next() % Victim.Words);
      Events.push_back(AllocEvent::makeTouch(
          Victim.Id, Words,
          Next() % 2 ? AccessKind::Write : AccessKind::Read));
    } else {
      size_t Idx = Next() % Live.size();
      Events.push_back(AllocEvent::makeFree(Live[Idx].Id));
      Live.erase(Live.begin() + static_cast<ptrdiff_t>(Idx));
    }
  }
  for (const LiveObject &Object : Live)
    Events.push_back(AllocEvent::makeFree(Object.Id));
  return Events;
}

/// conform-meta-relabel: mapping every object id through a bijection (an
/// odd multiplier is invertible mod 2^32) must leave every measurement of a
/// scripted run unchanged for every allocator.
size_t checkRelabelInvariance(const MetamorphicOptions &Options,
                              DiagEngine &Diags) {
  std::vector<AllocEvent> Plain = synthesizeScript(Options.Seed);
  std::vector<AllocEvent> Relabeled = Plain;
  for (AllocEvent &Event : Relabeled)
    if (Event.Kind != AllocEventKind::StackTouch)
      Event.Id = Event.Id * 2654435761u;

  size_t Checked = 0;
  for (AllocatorKind Kind : metamorphicAllocators()) {
    ExperimentConfig Config;
    Config.Workload = WorkloadId::Espresso;
    Config.Allocator = Kind;
    Config.Caches = {{16 * 1024, 32, 1}};
    RunResult PlainResult = runScriptExperiment(Config, Plain);
    RunResult RelabeledResult = runScriptExperiment(Config, Relabeled);
    ++Checked;
    bool Same =
        PlainResult.TotalRefs == RelabeledResult.TotalRefs &&
        PlainResult.AllocInstructions == RelabeledResult.AllocInstructions &&
        PlainResult.HeapBytes == RelabeledResult.HeapBytes &&
        PlainResult.BlocksSearched == RelabeledResult.BlocksSearched &&
        PlainResult.Caches[0].Stats.Misses ==
            RelabeledResult.Caches[0].Stats.Misses &&
        PlainResult.Caches[0].Stats.Accesses ==
            RelabeledResult.Caches[0].Stats.Accesses;
    if (!Same)
      Diags.error("conform-meta-relabel", {},
                  std::string("object-id relabeling changed ") +
                      allocatorKindName(Kind) + " measurements: misses " +
                      std::to_string(PlainResult.Caches[0].Stats.Misses) +
                      " became " +
                      std::to_string(RelabeledResult.Caches[0].Stats.Misses) +
                      ", heap " + std::to_string(PlainResult.HeapBytes) +
                      " became " +
                      std::to_string(RelabeledResult.HeapBytes));
  }
  return Checked;
}

} // namespace

size_t allocsim::runMetamorphicSuite(const MetamorphicOptions &Options,
                                     DiagEngine &Diags) {
  MatrixOptions RunOptions;
  RunOptions.Jobs = Options.Jobs;

  MatrixSpec Spec = baseSpec(Options);
  ResultStore Whole = runMatrix(Spec, RunOptions);
  const unsigned WholeJobs = Options.Jobs != 0
                                 ? Options.Jobs
                                 : std::thread::hardware_concurrency();

  // The two conform-meta-assoc chains: 16K direct-mapped, 32K 2-way and 64K
  // 4-way with 32-byte blocks all have 512 sets, so the first is also the
  // stack-legal family conform-meta-engine runs on both engines; the
  // fully-associative chain (one set each, Assoc == numBlocks) is the pure
  // stack property.
  ResultStore SetChain = runMatrix(
      chainSpec({{16 * 1024, 32, 1}, {32 * 1024, 32, 2}, {64 * 1024, 32, 4}},
                Options),
      RunOptions);
  ResultStore FullChain =
      runMatrix(chainSpec({{512, 32, 16}, {1024, 32, 32}}, Options),
                RunOptions);

  size_t Checked = 0;
  Checked += checkJobsInvariance(Spec, Whole, WholeJobs, Diags);
  Checked += checkSplitMerge(Spec, Whole, RunOptions, Diags);
  Checked += checkPermutation(Spec, Whole, RunOptions, Diags);
  Checked += checkAssocInclusionFamily(SetChain, Diags);
  Checked += checkAssocInclusionFamily(FullChain, Diags);
  Checked += checkEngineEquivalence(SetChain, RunOptions, Diags);
  Checked += checkRelabelInvariance(Options, Diags);
  return Checked;
}
