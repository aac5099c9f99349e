//===- core/MatrixRunner.h - Parallel experiment-matrix engine --*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every paper figure and table is a matrix of allocator x workload x
/// cache-geometry experiments whose cells are fully independent. The
/// MatrixRunner expands a declarative MatrixSpec into ExperimentConfig cells
/// and executes them across a worker pool with per-cell isolation: each cell
/// builds its own SimHeap / MemoryBus / WorkloadEngine inside runExperiment,
/// and each cell's configuration — including its RNG seed — is fixed during
/// expansion, *before* any scheduling happens. Parallel results are
/// therefore bit-identical to serial ones by construction.
///
/// Seeding: a cell's workload seed is derived from (base seed, workload
/// ordinal) with SplitMix64. Streams are decorrelated across workloads but
/// identical across allocators and penalties within one workload — the
/// paper's methodological control (every allocator replays the identical
/// request sequence) — and never depend on completion order.
///
/// Failure policy: a cell that fails validation or whose runner throws is
/// recorded (error text attributed to the cell's coordinates) and the sweep
/// keeps going; callers inspect ResultStore::failedCount() and exit nonzero.
///
/// Typical use:
/// \code
///   MatrixSpec Spec;
///   Spec.Workloads = {WorkloadId::Gs, WorkloadId::Espresso};
///   Spec.Allocators = {PaperAllocators, PaperAllocators + 5};
///   Spec.Caches = paperCacheSweep();
///   MatrixOptions Options;
///   Options.Jobs = 8;
///   ResultStore Store = runMatrix(Spec, Options);
///   Store.writeJson(OutFile);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_CORE_MATRIXRUNNER_H
#define ALLOCSIM_CORE_MATRIXRUNNER_H

#include "core/Lab.h"
#include "support/Diag.h"

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace allocsim {

/// Declarative description of an experiment matrix. Cells are the cross
/// product Workloads x Allocators x PenaltiesCycles; every cell observes
/// all of Caches and PagingMemoryKb simultaneously (the CacheBank and
/// PageSim measure many geometries from one reference stream, so splitting
/// them into separate cells would only redo simulation work).
struct MatrixSpec {
  std::vector<WorkloadId> Workloads;
  std::vector<AllocatorKind> Allocators;
  /// Miss-penalty axis; affects only the time estimate, but sweeping it is
  /// how the paper's Section 4.3 sensitivity analysis is produced.
  std::vector<uint32_t> PenaltiesCycles = {25};
  std::vector<CacheConfig> Caches;
  std::vector<uint32_t> PagingMemoryKb;

  /// Everything else a cell inherits: engine scale/seed, boundary-tag
  /// emulation, heap checking, ... (Workload/Allocator/Caches/Paging/
  /// MissPenaltyCycles fields of Base are overwritten per cell.)
  ExperimentConfig Base;

  /// Derive each cell's engine seed from (Base seed, workload ordinal).
  /// When false every cell uses Base.Engine.Seed verbatim.
  bool SaltSeedPerWorkload = true;

  size_t cellCount() const {
    return Workloads.size() * Allocators.size() * PenaltiesCycles.size();
  }
};

/// Position of one cell in the matrix. Index is the deterministic linear
/// order: workload-major, then allocator, then penalty.
struct CellCoord {
  size_t Index = 0;
  size_t WorkloadIdx = 0;
  size_t AllocatorIdx = 0;
  size_t PenaltyIdx = 0;
};

/// One expanded cell: coordinates plus the fully-resolved configuration.
struct MatrixCell {
  CellCoord Coord;
  ExperimentConfig Config;
};

/// Expands \p Spec into cells in deterministic linear order, resolving each
/// cell's complete ExperimentConfig (including its seed) up front.
std::vector<MatrixCell> expandMatrix(const MatrixSpec &Spec);

/// What happened to one cell.
struct CellOutcome {
  CellCoord Coord;
  WorkloadId Workload = WorkloadId::Espresso;
  AllocatorKind Allocator = AllocatorKind::FirstFit;
  uint32_t PenaltyCycles = 25;
  uint64_t Seed = 0;
  bool Ok = false;
  /// Failure description; empty when Ok. When retries ran this is the last
  /// attempt's error (AttemptErrors holds every attempt's).
  std::string Error;
  /// Valid only when Ok.
  RunResult Result;

  /// Attempts consumed (1 without faults; up to 1 + FaultPlan::RetryLimit
  /// under a fault plan). 0 only when the cell failed validation.
  uint32_t Attempts = 0;
  /// One error per failed attempt, in attempt order (seed-stable).
  std::vector<std::string> AttemptErrors;
  /// Telemetry accumulated before the last failed attempt died; empty for
  /// ok cells (their full snapshot is in Result.Telemetry) and for cells
  /// whose runner never captured partial state. Serialized into the
  /// quarantine record so a crashed cell does not lose its counters.
  TelemetrySnapshot PartialTelemetry;
};

/// Aggregated matrix results, always in deterministic cell order regardless
/// of which worker finished first.
class ResultStore {
public:
  ResultStore() = default;
  explicit ResultStore(const MatrixSpec &Spec);

  const MatrixSpec &spec() const { return Spec; }
  size_t size() const { return Cells.size(); }
  const CellOutcome &cell(size_t Index) const { return Cells.at(Index); }
  /// Coordinate lookup.
  const CellOutcome &at(size_t WorkloadIdx, size_t AllocatorIdx,
                        size_t PenaltyIdx = 0) const;

  size_t failedCount() const;

  /// Full matrix serialization (schema "allocsim-matrix-v1"): axes, engine
  /// options, and per-cell counters, miss rates and time estimates.
  void writeJson(std::ostream &OS) const;

  /// Long-form CSV: one row per (cell, cache); cells without caches emit
  /// one row with empty cache columns.
  void writeCsv(std::ostream &OS) const;

  /// Integer-only serialization for golden-result tests: every field is an
  /// exact integer (no doubles), so snapshots diff with exact equality on
  /// any platform.
  void writeGoldenJson(std::ostream &OS) const;

  /// Folds every ok cell's telemetry snapshot into one. merge() is
  /// associative and commutative, so the result is identical at any
  /// --jobs count and in any completion order.
  TelemetrySnapshot mergedTelemetry() const;

  /// Telemetry serialization (schema "allocsim-telemetry-v1"): the run's
  /// telemetry level, one snapshot per cell, and the merged snapshot.
  /// Integer-only, like the golden matrix form.
  void writeTelemetryJson(std::ostream &OS) const;

  /// Long-form telemetry CSV: one row per (cell, instrument). Counter rows
  /// fill the value column; histogram rows fill count/sum/min/max/mean.
  void writeTelemetryCsv(std::ostream &OS) const;

  /// Filled by runMatrix; Index must match the expansion order.
  void put(size_t Index, CellOutcome Outcome);

private:
  MatrixSpec Spec;
  std::vector<CellOutcome> Cells;
};

/// Progress snapshot passed to the reporting callback.
struct MatrixProgress {
  size_t Completed = 0;
  size_t Total = 0;
  size_t Failed = 0;
  double ElapsedSeconds = 0;
  /// Naive remaining-time estimate; 0 until the first cell completes.
  double EtaSeconds = 0;
};

/// Execution knobs.
struct MatrixOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  unsigned Jobs = 0;
  /// Invoked (serialized under the runner's lock) after every cell.
  std::function<void(const MatrixProgress &)> Progress;
  /// Cell execution seam; defaults to runExperiment. The runner may fill
  /// the snapshot with partial telemetry before throwing (runExperiment
  /// does). Tests inject throwing runners to exercise the failure policy.
  std::function<RunResult(const ExperimentConfig &, TelemetrySnapshot &)>
      CellRunnerEx;
};

/// Executes every cell of \p Spec and returns the populated store.
ResultStore runMatrix(const MatrixSpec &Spec,
                      const MatrixOptions &Options = {});

/// Parses a cache spec "sizeKB[:blockBytes[:assoc]]" with diagnostics.
/// A size whose byte count does not fit 32 bits is out of range.
bool parseCacheSpec(const std::string &Spec, CacheConfig &Config,
                    std::string &Error);

/// Parses the value of the matrix axis \p Key into \p Spec, reporting each
/// bad item at its column on line 1 (\p ValueOffset is the value's 0-based
/// offset in the spec text). List axes replace their Spec list; caches
/// also reports a repeated geometry (spec-duplicate-cache, at the value)
/// and sets Spec.Base.CacheEngine to chooseCacheEngine of the new list,
/// and telemetry sets Spec.Base.Telemetry. allocsim_cli's single-axis flags
/// call this with the flag's text. Returns false, reporting nothing, when
/// \p Key names no axis.
bool parseMatrixAxis(const std::string &Key, const std::string &Value,
                     MatrixSpec &Spec, DiagEngine &Diags,
                     size_t ValueOffset = 0);

/// Parses the --matrix axis string:
///
///   workloads=gs,espresso;allocators=FirstFit,BSD;caches=16,64:32:2;
///   paging=512,1024;penalty=25,100
///
/// Axes are ';'-separated key=value pairs; workloads and allocators are
/// required, caches/paging default to empty, penalty defaults to {25}.
/// The scalar key telemetry=off|summary|full sets Spec.Base.Telemetry. The
/// cache engine is not an axis: the caches axis picks it from the
/// geometry (chooseCacheEngine, cache/StackSim.h). Workload engine options
/// (scale/seed/...) stay in Spec.Base and are not part of the axis string.
///
/// Every finding is reported into \p Diags, with line 1 / column pointing
/// into the spec string (E = error, W = warning):
///
///   spec-empty-axis         E  empty axis (stray or trailing ';')
///   spec-missing-equals     E  axis without '=' or with an empty key
///   spec-duplicate-axis     E  axis key given twice
///   spec-empty-value        E  axis with an empty value ("workloads=")
///   spec-unknown-axis       E  unrecognized axis key
///   spec-unknown-workload   E  name tryParseWorkload rejects
///   spec-unknown-allocator  E  name tryParseAllocatorKind rejects
///   spec-bad-cache          E  cache geometry parseCacheSpec rejects
///   spec-bad-number         E  bad paging/penalty entry
///   spec-bad-value          E  bad telemetry value
///   spec-duplicate-value    W  workload/allocator listed twice (the matrix
///                              would run duplicate cells)
///   spec-missing-workloads  E  required 'workloads' axis absent or unusable
///                              (the cross-product of cells would be empty)
///   spec-missing-allocators E  likewise for 'allocators'
///   spec-duplicate-cache    E  cache geometry listed twice
///
/// The first four are support/SpecParse.h's structural rules. Returns true
/// when no error (warnings allowed) was added.
bool parseMatrixSpec(const std::string &Text, MatrixSpec &Spec,
                     DiagEngine &Diags);

/// One-shot form: false with the first error's message.
bool parseMatrixSpec(const std::string &Text, MatrixSpec &Spec,
                     std::string &Error);

} // namespace allocsim

#endif // ALLOCSIM_CORE_MATRIXRUNNER_H
