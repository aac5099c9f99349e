//===- examples/trace_replay.cpp - Trace-driven simulation ----------------===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// The paper's methodology is trace-driven simulation. This example shows
// both halves of that pipeline with the library's trace formats:
//
//   1. capture: run a workload against an allocator, writing the complete
//      data-reference trace to a binary file (PIXIE's role);
//   2. replay:  feed the trace file to cache simulators of several sizes
//      without re-running the program (TYCHO's role).
//
// Usage: trace_replay [--workload make] [--allocator BSD] [--scale 8]
//                     [--trace /tmp/allocsim.trace]
//
//===----------------------------------------------------------------------===//

#include "core/Lab.h"
#include "support/CommandLine.h"
#include "support/Table.h"
#include "trace/RefTrace.h"

#include <fstream>
#include <iostream>

using namespace allocsim;

int main(int Argc, char **Argv) {
  CommandLine Cli;
  Cli.addFlag("workload", "make", "application profile to capture");
  Cli.addFlag("allocator", "BSD", "allocator to run it against");
  Cli.addFlag("scale", "8", "divide paper allocation counts by this");
  Cli.addFlag("trace", "/tmp/allocsim.trace", "trace file path");
  if (!Cli.parse(Argc, Argv))
    return 1;

  const std::string TracePath = Cli.getString("trace");
  ExperimentConfig Config;
  Config.Workload = parseWorkload(Cli.getString("workload"));
  Config.Allocator = parseAllocatorKind(Cli.getString("allocator"));
  if (!readUnsignedFlag(Cli, "scale", Config.Engine.Scale, 1u))
    return 1;

  // --- capture ------------------------------------------------------------
  {
    std::ofstream TraceFile(TracePath, std::ios::binary);
    if (!TraceFile) {
      std::cerr << "error: cannot write " << TracePath << "\n";
      return 1;
    }
    // The trace writer observes the run's reference stream, as the caches
    // of any other experiment would.
    BinaryTraceWriter Writer(TraceFile);
    runExperiment(Config, nullptr, {&Writer});

    std::cout << "captured " << Writer.written() << " references from "
              << getProfile(Config.Workload).Name << " under "
              << allocatorKindName(Config.Allocator) << " to " << TracePath
              << "\n\n";
  }

  // --- replay -------------------------------------------------------------
  CacheBank Bank;
  for (const CacheConfig &Cache : paperCacheSweep())
    Bank.addCache(Cache);

  std::ifstream TraceFile(TracePath, std::ios::binary);
  BinaryTraceReader Reader(TraceFile);
  uint64_t Replayed = replayTrace(Reader, Bank);
  std::cout << "replayed " << Replayed << " references into "
            << Bank.size() << " cache configurations\n\n";

  Table Out({"cache", "miss rate %"});
  for (size_t I = 0; I != Bank.size(); ++I) {
    Out.beginRow();
    Out.cell(Bank.cache(I).config().describe());
    Out.num(100.0 * Bank.cache(I).stats().missRate(), 3);
  }
  Out.renderText(std::cout);
  return 0;
}
