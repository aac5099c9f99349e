//===- bench/bench_ext_cache_geometry.cpp - Cache geometry extension ------===//
//
// Extension beyond the paper's fixed geometry (direct-mapped, 32-byte
// blocks): sweeps block size and associativity for one workload. The paper
// motivates both axes — multi-word lines are its "hardware prefetching"
// (Smith's block-size study is cited), and associativity is raised in the
// related GC-locality work it discusses.
//
// Expected shapes: larger blocks help the dense allocators most (spatial
// locality from packed same-size objects) and help FIRSTFIT least (its
// scattered scans drag in useless neighbours); modest associativity
// removes conflict misses for everyone but does not change the ordering.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace allocsim;

int main(int Argc, char **Argv) {
  CommandLine Cli;
  Cli.addFlag("workload", "espresso", "application profile to run");
  Cli.addFlag("cache-kb", "64", "cache size in KB");
  std::optional<BenchOptions> Options = parseBenchOptions(Argc, Argv, Cli);
  WorkloadId Workload = WorkloadId::Espresso;
  uint32_t CacheKb = 0;
  std::vector<CacheConfig> Configs;
  for (uint32_t BlockBytes : {16u, 32u, 64u, 128u})
    Configs.push_back(CacheConfig{0, BlockBytes, 1});
  for (uint32_t Assoc : {2u, 4u, 8u})
    Configs.push_back(CacheConfig{0, 32, Assoc});
  if (!Options || !readWorkloadFlag(Cli, Workload) ||
      !readCacheKbFlag(Cli, CacheKb, Configs))
    return 1;
  printBanner("Extension: cache geometry sweep on " +
                  std::string(workloadName(Workload)) + ", " +
                  std::to_string(CacheKb) + "K cache",
              *Options);

  MatrixSpec Spec = benchMatrixSpec({Workload}, *Options);
  Spec.Caches = Configs;
  ResultStore Store = runBenchMatrix(Spec, *Options);

  std::vector<std::string> Headers = {"geometry"};
  for (AllocatorKind Allocator : PaperAllocators)
    Headers.emplace_back(allocatorKindName(Allocator));
  Table Out(Headers);
  for (size_t CacheIdx = 0; CacheIdx != Configs.size(); ++CacheIdx) {
    Out.beginRow();
    Out.cell(Configs[CacheIdx].describe());
    for (size_t A = 0; A != 5; ++A)
      Out.num(100.0 * Store.at(0, A).Result.Caches[CacheIdx].Stats.missRate(),
              2);
  }
  renderTable(Out, *Options, "miss rate (%)");
  return 0;
}
