//===- bench/BenchCommon.h - Shared benchmark harness pieces ----*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flag handling, formatting and the matrix runner shared by bench_paper
/// and the extension benchmarks. Every binary accepts:
///
///   --scale N      divide the paper's allocation counts by N (default 8;
///                  workloads that cannot be scaled without shrinking their
///                  live heap, like PTC, are clamped automatically)
///   --seed S       workload RNG seed
///   --csv true     emit CSV instead of aligned text
///   --jobs N       MatrixRunner worker threads for the matrix-backed benches
///                  (0 = all hardware threads; results are bit-identical
///                  at any job count)
///   --out-json P   also export the full experiment matrix as JSON to P
///
/// and prints the artifacts it regenerates, alongside the paper's published
/// values where the scanned text preserves them.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_BENCH_BENCHCOMMON_H
#define ALLOCSIM_BENCH_BENCHCOMMON_H

#include "core/Lab.h"
#include "core/MatrixRunner.h"
#include "support/CommandLine.h"
#include "support/Table.h"

#include <optional>
#include <string>

namespace allocsim {

/// Parsed common flags.
struct BenchOptions {
  uint32_t Scale = 8;
  uint64_t Seed = 0x5EEDBA5E;
  bool Csv = false;
  /// MatrixRunner worker threads (0 = all hardware threads).
  uint32_t Jobs = 0;
  /// When non-empty, matrix-backed benches also export their full
  /// ResultStore as JSON to this path.
  std::string OutJson;
  /// Telemetry probe level for every run (off keeps the paper numbers
  /// bit-identical; summary/full add counters/histograms to the export).
  TelemetryLevel Telemetry = TelemetryLevel::Off;
  /// When non-empty, matrix-backed benches also export per-cell + merged
  /// telemetry ("allocsim-telemetry-v1") to this path.
  std::string OutTelemetryJson;
};

/// Registers and parses the common flags (plus any caller-registered ones
/// through \p Cli). Returns nullopt if the program should exit: after
/// --help, or after reporting a bad flag (an unknown flag, a non-boolean
/// --csv, an integer out of its range such as --scale 0).
std::optional<BenchOptions> parseBenchOptions(int Argc, const char *const *Argv,
                                              CommandLine &Cli);

/// Reads --workload through tryParseWorkload; an unknown name is reported
/// through Cli.reportError and refused.
bool readWorkloadFlag(const CommandLine &Cli, WorkloadId &Workload);

/// Reads --cache-kb as the capacity of every geometry in \p Geometries,
/// refusing (through Cli.reportError) a count that makes any of them
/// invalid or does not fit 32 bits as a byte size.
bool readCacheKbFlag(const CommandLine &Cli, uint32_t &CacheKb,
                     std::vector<CacheConfig> &Geometries);

/// Prints a title banner and the scale note.
void printBanner(const std::string &Title, const BenchOptions &Options);

/// Renders \p Out per the --csv choice.
void renderTable(const Table &Out, const BenchOptions &Options,
                 const std::string &Title = "");

/// Builds the base experiment configuration for a workload under the
/// common options (no caches or paging attached).
ExperimentConfig baseConfig(WorkloadId Workload, const BenchOptions &Options);

/// Formats a fault rate the way the paper's log-scale figures label it.
std::string formatRate(double Value);

/// A matrix of \p Workloads x the five paper allocators under the common
/// options (no caches or paging attached). Every cell uses Options.Seed
/// verbatim, so a (workload, allocator) cell reads the same in every
/// matrix that holds it and in a lone runExperiment of baseConfig().
MatrixSpec benchMatrixSpec(const std::vector<WorkloadId> &Workloads,
                           const BenchOptions &Options);

/// Runs \p Spec through the MatrixRunner at Options.Jobs workers. Exports
/// the store to Options.OutJson and its telemetry to
/// Options.OutTelemetryJson when set, and dies with the cell's attribution
/// if any cell fails (the paper sweeps have no legitimately failing
/// cells).
ResultStore runBenchMatrix(const MatrixSpec &Spec,
                           const BenchOptions &Options);

} // namespace allocsim

#endif // ALLOCSIM_BENCH_BENCHCOMMON_H
