//===- tools/allocsim_cli.cpp - General experiment runner -----------------===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// A command-line front end over the MatrixRunner for ad-hoc experiment
// matrices beyond the canned paper benchmarks: any set of workloads and
// allocators, any list of cache geometries, optional page-fault curve and
// penalty sweep, executed across a worker pool with deterministic results
// (parallel output is bit-identical to --jobs=1).
//
// Examples:
//   allocsim_cli --workload gs --allocators FirstFit,BSD --caches 16,64
//   allocsim_cli --workload gawk --caches 64:32:4 --penalty 100
//   allocsim_cli --matrix "workloads=gs,espresso;allocators=FirstFit,BSD;
//                caches=16,64;penalty=25,100" --jobs=8 --out-json=out.json
//
// Cache syntax: sizeKB[:blockBytes[:assoc]], comma separated. Malformed
// specs (empty items, trailing commas, non-numeric fields) are rejected
// with a diagnostic and a nonzero exit, never silently dropped.
//
// --lint / --lint-json check the --matrix spec exhaustively (every problem
// reported, not just the first) and exit without running anything: 0 when
// the spec is clean, 1 when findings were reported, 2 on bad usage. A run
// checks its spec, or its single-axis flags, with the same parser
// (parseMatrixSpec / parseMatrixAxis) and refuses a bad one with exit 2.
//
// Exit status: 0 on success, 1 if any matrix cell failed, 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "analyze/LintReport.h"
#include "conform/Conformance.h"
#include "core/MatrixRunner.h"
#include "inject/FaultPlan.h"
#include "support/CommandLine.h"
#include "support/SpecParse.h"
#include "support/Table.h"

#include <cstdlib>
#include <fstream>
#include <iostream>

using namespace allocsim;

namespace {

/// Prints a usage diagnostic and returns the tool's usage-error exit code.
int usageError(const std::string &Message) {
  std::cerr << "allocsim_cli: error: " << Message << "\n";
  return 2;
}

/// Prints the errors in \p Diags as usage errors located in \p Input (the
/// flag the text came from); returns true when there were any.
bool reportUsageErrors(const DiagEngine &Diags, const std::string &Input) {
  for (const Diag &D : Diags.diags()) {
    if (D.Severity != DiagSeverity::Error)
      continue;
    std::cerr << "allocsim_cli: error: " << Input;
    if (D.Loc.Line != 0)
      std::cerr << ":" << D.Loc.Line << ":" << D.Loc.Column;
    std::cerr << ": " << D.Message << " [" << D.Rule << "]\n";
  }
  return Diags.errorCount() != 0;
}

bool writeStoreFile(const ResultStore &Store, const std::string &Path,
                    bool Csv) {
  std::ofstream Out(Path);
  if (!Out) {
    std::cerr << "allocsim_cli: error: cannot write '" << Path << "'\n";
    return false;
  }
  if (Csv)
    Store.writeCsv(Out);
  else
    Store.writeJson(Out);
  return true;
}

bool writeTelemetryFile(const ResultStore &Store, const std::string &Path,
                        bool Csv) {
  std::ofstream Out(Path);
  if (!Out) {
    std::cerr << "allocsim_cli: error: cannot write '" << Path << "'\n";
    return false;
  }
  if (Csv)
    Store.writeTelemetryCsv(Out);
  else
    Store.writeTelemetryJson(Out);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine Cli;
  Cli.addFlag("workload", "gs",
              "comma-separated workload names (espresso/gs/ptc/...)");
  Cli.addFlag("allocators", "FirstFit,QuickFit,GnuG++,BSD,GnuLocal",
              "comma-separated allocator names (also BestFit, Custom)");
  Cli.addFlag("caches", "16,64", "cache specs: sizeKB[:block[:assoc]]");
  Cli.addFlag("paging", "", "memory sizes (KB) for the page-fault curve");
  Cli.addFlag("penalty", "25", "cache miss penalties in cycles (list ok)");
  Cli.addFlag("matrix", "",
              "full experiment matrix, e.g. \"workloads=gs,espresso;"
              "allocators=FirstFit,BSD;caches=16,64;paging=512;"
              "penalty=25,100\"; overrides the single-axis flags above");
  Cli.addFlag("jobs", "0",
              "worker threads for the matrix (0 = all hardware threads); "
              "results are bit-identical at any job count");
  Cli.addFlag("out-json", "", "write the full matrix as JSON to this path");
  Cli.addFlag("out-csv", "", "write the full matrix as CSV to this path");
  Cli.addFlag("progress", "false", "report progress/ETA on stderr");
  Cli.addFlag("scale", "8", "divide paper allocation counts by this");
  Cli.addFlag("seed", "1592932958", "workload RNG seed");
  Cli.addFlag("tags", "false", "emulate boundary tags on GnuLocal");
  Cli.addFlag("check", "off",
              "heap integrity checking: off, fast (shadow sanitizer), or "
              "full (shadow + periodic invariant walks)");
  Cli.addFlag("check-interval", "64",
              "operations between invariant walks with --check=full");
  Cli.addFlag("telemetry", "off",
              "telemetry probes: off (default; zero overhead, bit-identical "
              "results), summary (counters) or full (counters + histograms)");
  Cli.addFlag("out-telemetry-json", "",
              "write per-cell + merged telemetry snapshots as JSON "
              "(schema allocsim-telemetry-v1) to this path");
  Cli.addFlag("out-telemetry-csv", "",
              "write long-form telemetry (one row per cell x instrument) "
              "as CSV to this path");
  Cli.addFlag("inject", "",
              "FaultLab fault plan, e.g. \"oom:after=65536;flip:rate=1e-4;"
              "smash:rate=1e-4;cell:rate=0.2;retry:limit=2;seed=7\"; fault "
              "sites are deterministic per seed and bit-identical at any "
              "--jobs count (defaults seed to --seed when unset)");
  Cli.addFlag("csv", "false", "emit the summary table as CSV");
  Cli.addFlag("lint", "false",
              "lint the --matrix spec exhaustively and exit without "
              "running (0 clean, 1 findings, 2 usage error)");
  Cli.addFlag("lint-json", "false",
              "like --lint, but emit the allocsim-lint-v1 JSON report");
  Cli.addFlag("conform", "false",
              "run the paper-replication conformance suites and exit "
              "without running a matrix (0 pass, 1 findings, 2 usage "
              "error); set ALLOCSIM_UPDATE_CONFORMANCE=1 to re-record the "
              "expectation files instead of checking them");
  Cli.addFlag("conform-json", "false",
              "like --conform, but emit the allocsim-conform-v1 JSON "
              "report");
  Cli.addFlag("conform-suite", "",
              "comma-separated conformance suites to run (missrate, "
              "exectime, tags, metamorphic); empty runs all");
  Cli.addFlag("conform-scale", "64",
              "workload scale divisor for the conformance suites; the "
              "committed expectations are recorded at 64, other scales "
              "run trend assertions only");
  Cli.addFlag("expectations", "tests/conformance/expectations",
              "directory of committed conformance expectation files; "
              "empty disables value-band checks");
  if (!Cli.parse(Argc, Argv))
    return 2;

  uint64_t Seed = 0;
  unsigned Jobs = 0;
  if (!readUnsignedFlag(Cli, "seed", Seed, uint64_t(0)) ||
      !readUnsignedFlag(Cli, "jobs", Jobs, 0u))
    return 2;

  if (Cli.getBool("conform") || Cli.getBool("conform-json")) {
    ConformOptions Conform;
    for (const std::string &Name :
         splitSpecList(Cli.getString("conform-suite"), ','))
      Conform.Suites.push_back(Name);
    if (!readUnsignedFlag(Cli, "conform-scale", Conform.Scale, 1u))
      return 2;
    Conform.Seed = Seed;
    Conform.Jobs = Jobs;
    Conform.ExpectationsDir = Cli.getString("expectations");
    const char *Update = std::getenv("ALLOCSIM_UPDATE_CONFORMANCE");
    Conform.UpdateExpectations = Update && *Update && *Update != '0';
    ConformReport Report = runConformance(Conform);
    if (Cli.getBool("conform-json"))
      writeConformReportJson(std::cout, Report);
    else
      printConformReport(std::cout, Report);
    return Report.passed() ? 0 : 1;
  }

  MatrixSpec Spec;
  Spec.Base.Engine.Seed = Seed;
  Spec.Base.EmulateBoundaryTags = Cli.getBool("tags");
  if (!readUnsignedFlag(Cli, "scale", Spec.Base.Engine.Scale, 1u) ||
      !readUnsignedFlag(Cli, "check-interval", Spec.Base.Check.IntervalOps,
                        0u))
    return 2;
  if (!tryParseCheckLevel(Cli.getString("check"), Spec.Base.Check.Level))
    return usageError("bad --check '" + Cli.getString("check") +
                      "' (expected off, fast or full)");
  // Every axis value goes through the matrix grammar's one parser, whether
  // it arrives as a single-axis flag or inside --matrix.
  auto ParseAxisFlag = [&](const char *Flag, const char *Axis) {
    DiagEngine Diags;
    parseMatrixAxis(Axis, Cli.getString(Flag), Spec, Diags);
    return !reportUsageErrors(Diags, std::string("--") + Flag);
  };
  if (!ParseAxisFlag("telemetry", "telemetry"))
    return 2;
  if (!Cli.getString("inject").empty()) {
    DiagEngine Diags;
    Spec.Base.Inject = parseFaultPlan(Cli.getString("inject"), Diags);
    if (Diags.errorCount() != 0) {
      Diags.print(std::cerr, "--inject");
      return 2;
    }
    if (!Spec.Base.Inject.SeedSet)
      Spec.Base.Inject.Seed = Spec.Base.Engine.Seed;
  }

  if (Cli.getBool("lint") || Cli.getBool("lint-json")) {
    if (Cli.getString("matrix").empty())
      return usageError("--lint needs a --matrix spec to check");
    LintInput Input;
    Input.Name = "--matrix";
    Input.Kind = "matrix-spec";
    parseMatrixSpec(Cli.getString("matrix"), Spec, Input.Diags);
    std::vector<LintInput> Inputs;
    Inputs.push_back(std::move(Input));
    if (Cli.getBool("lint-json"))
      writeLintReportJson(std::cout, Inputs);
    else
      printLintReport(std::cout, Inputs);
    return summarizeLint(Inputs).clean() ? 0 : 1;
  }

  if (!Cli.getString("matrix").empty()) {
    DiagEngine Diags;
    parseMatrixSpec(Cli.getString("matrix"), Spec, Diags);
    if (reportUsageErrors(Diags, "--matrix"))
      return 2;
  } else {
    bool Ok = ParseAxisFlag("workload", "workloads");
    Ok &= ParseAxisFlag("allocators", "allocators");
    Ok &= ParseAxisFlag("caches", "caches");
    Ok &= ParseAxisFlag("paging", "paging");
    Ok &= ParseAxisFlag("penalty", "penalty");
    if (!Ok)
      return 2;
  }

  MatrixOptions Options;
  Options.Jobs = Jobs;
  if (Cli.getBool("progress"))
    Options.Progress = [](const MatrixProgress &Progress) {
      std::cerr << "matrix: " << Progress.Completed << "/" << Progress.Total
                << " cells";
      if (Progress.Failed)
        std::cerr << " (" << Progress.Failed << " failed)";
      char Eta[48];
      std::snprintf(Eta, sizeof(Eta), ", %.1fs elapsed, ~%.1fs left",
                    Progress.ElapsedSeconds, Progress.EtaSeconds);
      std::cerr << Eta << "\n";
    };

  ResultStore Store = runMatrix(Spec, Options);

  if (Spec.Base.Inject.enabled()) {
    uint64_t Injected = 0, Detected = 0, SbrkDenied = 0, Dropped = 0;
    for (size_t I = 0; I != Store.size(); ++I) {
      const CellOutcome &Cell = Store.cell(I);
      if (!Cell.Ok)
        continue;
      Injected += Cell.Result.FaultsInjected;
      Detected += Cell.Result.FaultsDetected;
      SbrkDenied += Cell.Result.SbrkDenied;
      Dropped += Cell.Result.DroppedEvents;
    }
    std::cerr << "fault injection: " << Injected << " injected, " << Detected
              << " detected, " << SbrkDenied << " sbrk denials, " << Dropped
              << " events dropped, " << Store.failedCount()
              << " cells quarantined\n";
  }

  if (!Cli.getString("out-json").empty() &&
      !writeStoreFile(Store, Cli.getString("out-json"), /*Csv=*/false))
    return 2;
  if (!Cli.getString("out-csv").empty() &&
      !writeStoreFile(Store, Cli.getString("out-csv"), /*Csv=*/true))
    return 2;
  if (!Cli.getString("out-telemetry-json").empty() &&
      !writeTelemetryFile(Store, Cli.getString("out-telemetry-json"),
                          /*Csv=*/false))
    return 2;
  if (!Cli.getString("out-telemetry-csv").empty() &&
      !writeTelemetryFile(Store, Cli.getString("out-telemetry-csv"),
                          /*Csv=*/true))
    return 2;

  bool ManyPenalties = Spec.PenaltiesCycles.size() > 1;
  std::vector<std::string> Headers = {"workload", "allocator"};
  if (ManyPenalties)
    Headers.push_back("penalty");
  Headers.insert(Headers.end(),
                 {"refs(M)", "instr(M)", "malloc+free %", "heap KB",
                  "scan/op"});
  for (const CacheConfig &Cache : Spec.Caches) {
    Headers.push_back(
        "miss% " + std::to_string(Cache.SizeBytes / 1024) + "K" +
        (Cache.BlockBytes != 32 ? ":" + std::to_string(Cache.BlockBytes) + "B"
                                : "") +
        (Cache.Assoc > 1 ? ":" + std::to_string(Cache.Assoc) + "w" : ""));
    Headers.push_back("est.sec");
  }
  for (uint32_t MemoryKb : Spec.PagingMemoryKb)
    Headers.push_back("flt/ref@" + std::to_string(MemoryKb) + "K");
  Table Out(Headers);

  for (size_t I = 0; I != Store.size(); ++I) {
    const CellOutcome &Cell = Store.cell(I);
    if (!Cell.Ok) {
      std::cerr << "allocsim_cli: cell failed: workload "
                << workloadName(Cell.Workload) << ", allocator "
                << allocatorKindName(Cell.Allocator) << ", penalty "
                << Cell.PenaltyCycles << ": " << Cell.Error << "\n";
      continue;
    }
    const RunResult &Result = Cell.Result;
    if (Spec.Base.Check.Level != CheckLevel::Off)
      std::cerr << "heap check [" << allocatorKindName(Cell.Allocator)
                << "]: " << Result.CheckViolations << " violations ("
                << Result.CheckWalks << " invariant walks)\n";

    Out.beginRow();
    Out.cell(workloadName(Cell.Workload));
    Out.cell(allocatorKindName(Cell.Allocator));
    if (ManyPenalties)
      Out.num(uint64_t(Cell.PenaltyCycles));
    Out.num(double(Result.TotalRefs) / 1e6, 1);
    Out.num(double(Result.totalInstructions()) / 1e6, 1);
    Out.num(100.0 * Result.allocInstrFraction(), 1);
    Out.num(uint64_t(Result.HeapBytes / 1024));
    Out.num(Result.Alloc.MallocCalls
                ? double(Result.BlocksSearched) /
                      double(Result.Alloc.MallocCalls)
                : 0.0,
            1);
    for (const CacheResult &Cache : Result.Caches) {
      Out.num(100.0 * Cache.Stats.missRate(), 2);
      Out.num(Cache.Time.seconds(), 2);
    }
    for (const PagingPoint &Point : Result.Paging) {
      char Buffer[32];
      std::snprintf(Buffer, sizeof(Buffer), "%.3e", Point.FaultsPerRef);
      Out.cell(Buffer);
    }
  }

  if (Cli.getBool("csv"))
    Out.renderCsv(std::cout);
  else
    Out.renderText(std::cout,
                   Store.failedCount()
                       ? "experiment matrix (" +
                             std::to_string(Store.failedCount()) +
                             " cells FAILED, see stderr)"
                       : "experiment matrix");
  return Store.failedCount() == 0 ? 0 : 1;
}
