//===- bench/BenchCommon.cpp - Shared benchmark harness pieces ------------===//

#include "BenchCommon.h"

#include "support/Error.h"

#include <cstdio>
#include <fstream>
#include <iostream>

using namespace allocsim;

std::optional<BenchOptions>
allocsim::parseBenchOptions(int Argc, const char *const *Argv,
                            CommandLine &Cli) {
  Cli.addFlag("scale", "8", "divide paper allocation counts by this");
  Cli.addFlag("seed", "1592932958", "workload RNG seed");
  Cli.addFlag("csv", "false", "emit CSV instead of aligned text");
  Cli.addFlag("jobs", "0",
              "matrix worker threads (0 = all hardware threads)");
  Cli.addFlag("out-json", "",
              "export the full experiment matrix as JSON to this path");
  Cli.addFlag("telemetry", "off",
              "telemetry probes: off (default; bit-identical paper numbers), "
              "summary or full");
  Cli.addFlag("out-telemetry-json", "",
              "export per-cell + merged telemetry as JSON to this path "
              "(matrix-backed benches only)");
  if (!Cli.parse(Argc, Argv))
    return std::nullopt;
  BenchOptions Options;
  if (!readUnsignedFlag(Cli, "scale", Options.Scale, 1u) ||
      !readUnsignedFlag(Cli, "seed", Options.Seed, uint64_t(0)) ||
      !readUnsignedFlag(Cli, "jobs", Options.Jobs, 0u))
    return std::nullopt;
  Options.Csv = Cli.getBool("csv");
  Options.OutJson = Cli.getString("out-json");
  if (!tryParseTelemetryLevel(Cli.getString("telemetry"),
                              Options.Telemetry)) {
    std::cerr << "error: bad --telemetry '" << Cli.getString("telemetry")
              << "' (expected off, summary or full)\n";
    return std::nullopt;
  }
  Options.OutTelemetryJson = Cli.getString("out-telemetry-json");
  return Options;
}

bool allocsim::readWorkloadFlag(const CommandLine &Cli,
                                WorkloadId &Workload) {
  if (tryParseWorkload(Cli.getString("workload"), Workload))
    return true;
  Cli.reportError("unknown workload '" + Cli.getString("workload") + "'");
  return false;
}

bool allocsim::readCacheKbFlag(const CommandLine &Cli, uint32_t &CacheKb,
                               std::vector<CacheConfig> &Geometries) {
  if (!readUnsignedFlag(Cli, "cache-kb", CacheKb, 1u))
    return false;
  for (CacheConfig &Geometry : Geometries) {
    Geometry.SizeBytes = CacheKb * 1024;
    if (CacheKb > UINT32_MAX / 1024 || !Geometry.valid()) {
      Cli.reportError("bad --cache-kb '" + Cli.getString("cache-kb") +
                      "' (no valid " + std::to_string(Geometry.Assoc) +
                      "-way cache of that many KB with " +
                      std::to_string(Geometry.BlockBytes) + "B blocks)");
      return false;
    }
  }
  return true;
}

void allocsim::printBanner(const std::string &Title,
                           const BenchOptions &Options) {
  std::cout << "=== " << Title << " ===\n"
            << "(workloads at 1/" << Options.Scale
            << " of the paper's allocation counts; live heaps kept at paper "
               "scale;\n unscalable workloads clamped; seed "
            << Options.Seed << ")\n\n";
}

void allocsim::renderTable(const Table &Out, const BenchOptions &Options,
                           const std::string &Title) {
  if (Options.Csv)
    Out.renderCsv(std::cout);
  else
    Out.renderText(std::cout, Title);
  std::cout << "\n";
}

ExperimentConfig allocsim::baseConfig(WorkloadId Workload,
                                      const BenchOptions &Options) {
  ExperimentConfig Config;
  Config.Workload = Workload;
  Config.Engine.Scale = Options.Scale;
  Config.Engine.Seed = Options.Seed;
  Config.Telemetry = Options.Telemetry;
  return Config;
}

std::string allocsim::formatRate(double Value) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "%.3e", Value);
  return Buffer;
}

MatrixSpec allocsim::benchMatrixSpec(const std::vector<WorkloadId> &Workloads,
                                     const BenchOptions &Options) {
  MatrixSpec Spec;
  Spec.Workloads = Workloads;
  Spec.Allocators.assign(PaperAllocators, PaperAllocators + 5);
  Spec.Base = baseConfig(Workloads.front(), Options);
  Spec.SaltSeedPerWorkload = false;
  return Spec;
}

ResultStore allocsim::runBenchMatrix(const MatrixSpec &Spec,
                                     const BenchOptions &Options) {
  MatrixOptions Run;
  Run.Jobs = Options.Jobs;
  ResultStore Store = runMatrix(Spec, Run);

  for (size_t I = 0; I != Store.size(); ++I) {
    const CellOutcome &Cell = Store.cell(I);
    if (!Cell.Ok)
      reportFatalError(std::string("bench matrix cell failed: workload ") +
                       workloadName(Cell.Workload) + ", allocator " +
                       allocatorKindName(Cell.Allocator) + ": " +
                       Cell.Error);
  }

  if (!Options.OutJson.empty()) {
    std::ofstream Out(Options.OutJson);
    if (!Out)
      reportFatalError("cannot write '" + Options.OutJson + "'");
    Store.writeJson(Out);
  }
  if (!Options.OutTelemetryJson.empty()) {
    std::ofstream Out(Options.OutTelemetryJson);
    if (!Out)
      reportFatalError("cannot write '" + Options.OutTelemetryJson + "'");
    Store.writeTelemetryJson(Out);
  }
  return Store;
}
