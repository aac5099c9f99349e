//===- core/Lab.h - Experiment orchestration --------------------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public facade of allocsim: configure one experiment — an application
/// workload run against one allocator, observed by any set of cache
/// configurations and optionally by the page-fault simulator — and run it,
/// collecting everything the paper's figures and tables need: instruction
/// splits (Figure 1), fault-rate curves (Figures 2-3), miss rates (Figures
/// 6-8), time estimates (Figures 4-5, Tables 4-5), and per-source miss
/// attribution (Table 6).
///
/// Typical use:
/// \code
///   ExperimentConfig Config;
///   Config.Workload = WorkloadId::Gs;
///   Config.Allocator = AllocatorKind::QuickFit;
///   Config.Caches = paperCacheSweep();
///   RunResult Result = runExperiment(Config);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_CORE_LAB_H
#define ALLOCSIM_CORE_LAB_H

#include "alloc/Allocator.h"
#include "alloc/FirstFit.h"
#include "alloc/SizeClassMap.h"
#include "cache/CacheSim.h"
#include "check/HeapCheck.h"
#include "inject/FaultPlan.h"
#include "metrics/CostModel.h"
#include "stats/Telemetry.h"
#include "workload/Engine.h"
#include "workload/Workload.h"

#include <optional>
#include <string>
#include <vector>

namespace allocsim {

/// Full description of one run.
struct ExperimentConfig {
  WorkloadId Workload = WorkloadId::Espresso;
  AllocatorKind Allocator = AllocatorKind::FirstFit;

  /// Workload scaling/seeding (see EngineOptions).
  EngineOptions Engine;

  /// Cache geometries to observe (may be empty). Entries must be unique —
  /// a duplicate would double-count in sweep output and is fatal in the
  /// cache layer (MatrixRunner diagnoses it per cell instead).
  std::vector<CacheConfig> Caches;

  /// How the cache sweep is simulated. PerConfig (the default) runs one
  /// CacheSim per entry and accepts arbitrary mixed geometries. StackDist
  /// runs the whole sweep in one stack-distance pass (cache/StackSim.h) —
  /// the entries must then share block size and set count (vary only
  /// associativity). Every reported number is bit-identical between the
  /// engines where both apply; StackDist just gets there in one pass
  /// instead of size() passes. Not a user option: a parsed spec's caches
  /// axis sets it with chooseCacheEngine, and code that builds its own
  /// config keeps the default or sets it (the engine-equivalence suites),
  /// like BatchedDelivery.
  CacheEngineKind CacheEngine = CacheEngineKind::PerConfig;

  /// Memory sizes (KB) at which to sample the page-fault-rate curve; the
  /// page simulator runs only if non-empty.
  std::vector<uint32_t> PagingMemoryKb;
  uint32_t PageBytes = 4096;

  /// Cache miss penalty in cycles (the paper's "modest" value is 25).
  uint32_t MissPenaltyCycles = 25;

  /// Run GnuLocal with emulated 8-byte boundary tags (Table 6).
  bool EmulateBoundaryTags = false;

  /// Free-list discipline when Allocator == FirstFit (extension ablation;
  /// the paper's measured configuration is Roving).
  FirstFitPolicy FirstFitDiscipline = FirstFitPolicy::Roving;

  /// Size-class budget when Allocator == Custom (classes are synthesized
  /// from this same workload's request-size profile).
  size_t CustomExactClasses = 12;
  uint32_t CustomMaxFastBytes = 1024;
  /// Explicit class map for Allocator == Custom, overriding the profile
  /// synthesis (used by the size-class policy ablation).
  std::optional<SizeClassMap> CustomClasses;

  /// Heap-integrity checking (off by default; the checker observes through
  /// untraced accessors only, so enabling it leaves every measurement
  /// bit-identical).
  CheckPolicy Check;

  /// FaultLab fault-injection plan (inactive by default — see
  /// inject/FaultPlan.h for the spec grammar). With a corruption plan the
  /// check policy's AbortOnViolation is forced off so injected damage is
  /// recorded rather than fatal; with an OOM plan the heap gets a soft
  /// capacity limit and the driver degrades gracefully on failed mallocs.
  FaultPlan Inject;

  /// Telemetry probe level. Off (the default) leaves every probe pointer
  /// null — nothing on any measurement path reads or writes telemetry
  /// state, so results are bit-identical to a build without the subsystem
  /// (tests/telemetry_equivalence_test.cpp holds it there). Summary enables
  /// counters; Full adds histograms (search lengths, per-set cache
  /// conflicts, page-run lengths, per-op instruction costs).
  TelemetryLevel Telemetry = TelemetryLevel::Off;

  /// Deliver the reference stream to the sinks in batches of
  /// AccessBatch::MaxCapacity (the measurement default) instead of one
  /// record at a time. Every result is bit-identical either way —
  /// tests/pipeline_equivalence_test.cpp holds both paths to that — so this
  /// field is a test seam for the equivalence suites and the throughput
  /// benchmarks, set in code; no CLI flag or matrix axis reaches it.
  bool BatchedDelivery = true;
};

/// Miss statistics and derived time estimate for one cache geometry.
struct CacheResult {
  CacheConfig Config;
  CacheStats Stats;
  TimeEstimate Time;
  bool operator==(const CacheResult &Other) const = default;
};

/// One point of the fault-rate curve.
struct PagingPoint {
  uint32_t MemoryKb = 0;
  double FaultsPerRef = 0;
  bool operator==(const PagingPoint &Other) const = default;
};

/// Everything measured in one run.
struct RunResult {
  /// Instruction split (QP's role; Figure 1).
  uint64_t AppInstructions = 0;
  uint64_t AllocInstructions = 0;
  double allocInstrFraction() const {
    uint64_t Total = AppInstructions + AllocInstructions;
    return Total == 0 ? 0.0
                      : static_cast<double>(AllocInstructions) /
                            static_cast<double>(Total);
  }
  uint64_t totalInstructions() const {
    return AppInstructions + AllocInstructions;
  }

  /// Reference-stream volume (PIXIE's role; Table 2).
  uint64_t TotalRefs = 0;
  uint64_t AppRefs = 0;
  uint64_t AllocRefs = 0;
  uint64_t TagRefs = 0;

  /// Allocator usage (Table 2 heap/object columns).
  AllocatorStats Alloc;
  uint32_t HeapBytes = 0;
  /// Free-structure nodes examined (sequential-fit allocators only).
  uint64_t BlocksSearched = 0;

  /// Per-cache results, in config order.
  std::vector<CacheResult> Caches;

  /// Fault-rate curve samples, in config order.
  std::vector<PagingPoint> Paging;
  uint64_t DistinctPages = 0;

  /// Merged telemetry snapshot (empty when ExperimentConfig::Telemetry is
  /// Off). Integer-only and derived solely from simulated state, so it is
  /// deterministic across hosts and job counts.
  TelemetrySnapshot Telemetry;

  /// Heap-integrity findings (zero when checking is off or the heap is
  /// sound). Messages are the retained CheckViolation::message() strings.
  uint64_t CheckViolations = 0;
  uint64_t CheckWalks = 0;
  std::vector<std::string> CheckReports;

  /// FaultLab results (all zero/empty unless ExperimentConfig::Inject is
  /// enabled). Faults lists every injected corruption site in event order;
  /// the sites are bit-identical across job counts and check levels, only
  /// each record's Detected flag depends on the check level.
  uint64_t FaultsInjected = 0;
  uint64_t FaultsDetected = 0;
  std::vector<FaultRecord> Faults;
  /// Soft-limit sbrk denials and stream events dropped on failed objects.
  uint64_t SbrkDenied = 0;
  uint64_t DroppedEvents = 0;

  /// Estimated execution seconds on the paper's 25 MHz test vehicle using
  /// cache \p CacheIndex.
  double estimatedSeconds(size_t CacheIndex) const {
    return Caches.at(CacheIndex).Time.seconds();
  }
  bool operator==(const RunResult &Other) const = default;
};

/// Runs one experiment. This is the one rig that wires workload, allocator,
/// bus and sinks together (DESIGN.md §9). If the run throws mid-stream and
/// \p PartialOnError is non-null, the telemetry accumulated up to the
/// failure is snapshotted into it before the exception propagates (the
/// MatrixRunner's quarantine records are built from this). \p Observers are
/// caller-owned sinks attached after the run's caches and pager, in order;
/// the end-of-run flush delivers them the whole stream, and they change no
/// RunResult field. They are an argument, not a config field, so matrix
/// cells never share one.
RunResult runExperiment(const ExperimentConfig &Config,
                        TelemetrySnapshot *PartialOnError = nullptr,
                        const std::vector<AccessSink *> &Observers = {});

/// Runs one experiment whose event stream is \p Events (a parsed allocation
/// script) instead of a synthesized workload. The rig — caches, paging,
/// allocator, driver, telemetry, checking — is identical to runExperiment's;
/// Config.Workload contributes only its instructions-per-reference ratio.
/// For AllocatorKind::Custom without explicit classes, the size profile is
/// synthesized from the script's own malloc sizes. \p Events must validate
/// (see validateAllocEvents); the driver dies on unknown-object frees and
/// touches. This is the replay half of TraceLint's cross-check: the
/// analyzer's static predictions are asserted against this run's telemetry.
RunResult runScriptExperiment(const ExperimentConfig &Config,
                              const std::vector<AllocEvent> &Events);

} // namespace allocsim

#endif // ALLOCSIM_CORE_LAB_H
