//===- bench/bench_ext_penalty_sweep.cpp - Miss-penalty extension ---------===//
//
// Extension of the paper's Section 4.4 remark: "In the future, if cache
// miss penalties increase dramatically, the added CPU overhead required to
// obtain the marginal increase in locality [GNU LOCAL's] may then be
// warranted." (Jouppi's projection of 100+-cycle misses is cited in the
// introduction.)
//
// This benchmark sweeps the miss penalty from 10 to 200 cycles on one
// workload with a 64K cache and reports each allocator's estimated
// execution time, exposing the crossover where GNU LOCAL's low miss rate
// overtakes the instruction-lean allocators.
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
  printBanner("Extension: estimated seconds vs miss penalty on " +
                  std::string(workloadName(Workload)) + ", 64K cache",
              *Options);

  MatrixSpec Spec = benchMatrixSpec({Workload}, *Options);
  Spec.Caches = {CacheConfig{64 * 1024, 32, 1}};
  ResultStore Store = runBenchMatrix(Spec, *Options);

  std::vector<std::string> Headers = {"penalty (cycles)"};
  for (AllocatorKind Allocator : PaperAllocators)
    Headers.emplace_back(allocatorKindName(Allocator));
  Table Out(Headers);
  for (uint32_t Penalty : {10u, 25u, 50u, 100u, 150u, 200u}) {
    Out.beginRow();
    Out.num(uint64_t(Penalty));
    for (size_t A = 0; A != 5; ++A) {
      TimeEstimate Time = Store.at(0, A).Result.Caches[0].Time;
      Time.MissPenalty = Penalty;
      Out.num(Time.seconds(), 2);
    }
  }
  renderTable(Out, *Options, "estimated seconds at run scale");
  return 0;
}
