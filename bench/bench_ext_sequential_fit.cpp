//===- bench/bench_ext_sequential_fit.cpp - Sequential-fit ablation -------===//
//
// Extension of the paper's conclusion that "allocators based on
// sequential-fit methods, such as first-fit, best-fit, etc, have poor
// reference locality": the paper measures only the roving first fit; this
// benchmark runs the whole sequential-fit family —
//
//   * first fit with the paper's roving pointer,
//   * first fit with LIFO insertion (scan from the head),
//   * first fit with an address-ordered freelist (the discipline whose
//     cost the paper's Section 4.1 calls out),
//   * exhaustive best fit,
//
// against BSD as the segregated-storage reference, reporting search
// lengths, instruction share, heap size and miss rate.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace allocsim;

int main(int Argc, char **Argv) {
  CommandLine Cli;
  Cli.addFlag("workload", "gs", "application profile to run");
  std::optional<BenchOptions> Options = parseBenchOptions(Argc, Argv, Cli);
  WorkloadId Workload = WorkloadId::Gs;
  if (!Options || !readWorkloadFlag(Cli, Workload))
    return 1;
  printBanner("Extension: the sequential-fit family on " +
                  std::string(workloadName(Workload)) + ", 16K/64K caches",
              *Options);

  struct Variant {
    const char *Name;
    AllocatorKind Kind;
    FirstFitPolicy Policy;
  };
  const Variant Variants[] = {
      {"first fit (roving, paper)", AllocatorKind::FirstFit,
       FirstFitPolicy::Roving},
      {"first fit (LIFO)", AllocatorKind::FirstFit, FirstFitPolicy::Lifo},
      {"first fit (address-ordered)", AllocatorKind::FirstFit,
       FirstFitPolicy::AddressOrdered},
      {"best fit", AllocatorKind::BestFit, FirstFitPolicy::Roving},
      {"BSD (segregated reference)", AllocatorKind::Bsd,
       FirstFitPolicy::Roving},
  };

  Table Out({"variant", "scan/op", "malloc+free %", "heap KB", "miss % 16K",
             "miss % 64K"});
  for (const Variant &V : Variants) {
    ExperimentConfig Config = baseConfig(Workload, *Options);
    Config.Allocator = V.Kind;
    Config.FirstFitDiscipline = V.Policy;
    Config.Caches = {CacheConfig{16 * 1024, 32, 1},
                     CacheConfig{64 * 1024, 32, 1}};
    RunResult Result = runExperiment(Config);

    Out.beginRow();
    Out.cell(V.Name);
    Out.num(double(Result.BlocksSearched) /
                double(Result.Alloc.MallocCalls),
            1);
    Out.num(100.0 * Result.allocInstrFraction(), 1);
    Out.num(uint64_t(Result.HeapBytes / 1024));
    Out.num(100.0 * Result.Caches[0].Stats.missRate(), 2);
    Out.num(100.0 * Result.Caches[1].Stats.missRate(), 2);
  }
  renderTable(Out, *Options);
  return 0;
}
