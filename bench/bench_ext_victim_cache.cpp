//===- bench/bench_ext_victim_cache.cpp - Victim-cache extension ----------===//
//
// Extension motivated by the paper's introduction, which cites Jouppi's
// victim-cache work as the architecture community's response to rising
// miss penalties: how much of each allocator's miss rate on a direct-
// mapped cache is *conflict* structure that a tiny fully-associative
// victim buffer absorbs?
//
// Expected shape: the buffer helps every allocator but cannot rescue
// FIRSTFIT, whose misses are capacity/scatter misses from freelist scans
// rather than conflicts; the dense allocators (GnuLocal, BSD) lose a
// larger *fraction* of their misses to the buffer.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace allocsim;

int main(int Argc, char **Argv) {
  CommandLine Cli;
  Cli.addFlag("workload", "espresso", "application profile to run");
  Cli.addFlag("cache-kb", "16", "main-array size in KB");
  std::optional<BenchOptions> Options = parseBenchOptions(Argc, Argv, Cli);
  WorkloadId Workload = WorkloadId::Espresso;
  uint32_t CacheKb = 0;
  std::vector<CacheConfig> Geometry = {{0, 32, 1}};
  if (!Options || !readWorkloadFlag(Cli, Workload) ||
      !readCacheKbFlag(Cli, CacheKb, Geometry))
    return 1;
  printBanner("Extension: victim buffers (Jouppi) on " +
                  std::string(workloadName(Workload)) + ", " +
                  std::to_string(CacheKb) + "K direct-mapped main array",
              *Options);

  const uint32_t BufferSizes[] = {1, 4, 15};
  Table Out({"allocator", "plain miss %", "+1 entry", "+4 entries",
             "+15 entries", "absorbed % (4)"});

  for (AllocatorKind Kind : PaperAllocators) {
    // One execution observed by the plain cache and all buffer variants.
    DirectMappedCache Plain(Geometry[0]);
    std::vector<std::unique_ptr<VictimCache>> Buffered;
    std::vector<AccessSink *> Observers = {&Plain};
    for (uint32_t Entries : BufferSizes) {
      Buffered.push_back(std::make_unique<VictimCache>(Geometry[0], Entries));
      Observers.push_back(Buffered.back().get());
    }
    ExperimentConfig Config = baseConfig(Workload, *Options);
    Config.Allocator = Kind;
    runExperiment(Config, nullptr, Observers);

    Out.beginRow();
    Out.cell(allocatorKindName(Kind));
    Out.num(100.0 * Plain.stats().missRate(), 2);
    for (const auto &Cache : Buffered)
      Out.num(100.0 * Cache->stats().missRate(), 2);
    double Absorbed =
        Plain.stats().Misses == 0
            ? 0.0
            : 100.0 * static_cast<double>(Buffered[1]->victimHits()) /
                  static_cast<double>(Plain.stats().Misses);
    Out.num(Absorbed, 1);
  }
  renderTable(Out, *Options, "miss rate (%) with victim buffers");
  return 0;
}
