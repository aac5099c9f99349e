//===- bench/bench_paper.cpp - Every paper table and figure ---------------===//
//
// Regenerates the paper's evaluation — Tables 2-6 and Figures 1-9 — in
// paper order. Like the paper, which fed one instrumented run to its cache
// simulator and to VMSIM together, every (workload, allocator) cell is
// simulated once: one MatrixRunner sweep of the seven workloads (the five
// applications plus GS-Small and GS-Medium) x the five paper allocators,
// each cell observing the 16K-256K direct-mapped cache sweep and the page
// simulator at every Figure 2/3 memory size. Every artifact below is a
// rendering of that one store, so a cell reads the same in every table
// that shows it. Two things the sweep cannot hold run separately: Table
// 6's boundary-tagged GNU LOCAL (a five-cell matrix) and Figure 9's
// explicit size-class maps (four single runs on espresso).
//
// Every cell uses the run's --seed verbatim. --out-json and
// --out-telemetry-json export the main sweep; --jobs sets its workers
// (results are bit-identical at any job count).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "conform/PaperPoints.h"

#include <algorithm>
#include <cassert>
#include <iostream>
#include <iterator>

using namespace allocsim;

namespace {

/// Fig. 2 (GhostScript) and Fig. 3 (PTC) memory sizes, in KB.
const std::vector<uint32_t> GsMemoryKb = {256,  512,  768,  1024, 1536,
                                          2048, 2560, 3072, 3584, 4096,
                                          5120, 6144, 8192};
const std::vector<uint32_t> PtcMemoryKb = {128,  256,  512,  768,
                                           1024, 1536, 2048, 2560,
                                           3072, 3584, 4096, 5120};

//===----------------------------------------------------------------------===//
// Store lookups (by identity, so a renderer reads any store holding the
// cells it needs)
//===----------------------------------------------------------------------===//

const RunResult &result(const ResultStore &Store, WorkloadId Workload,
                        AllocatorKind Allocator) {
  const MatrixSpec &Spec = Store.spec();
  auto W = std::find(Spec.Workloads.begin(), Spec.Workloads.end(), Workload);
  auto A =
      std::find(Spec.Allocators.begin(), Spec.Allocators.end(), Allocator);
  assert(W != Spec.Workloads.end() && A != Spec.Allocators.end() &&
         "cell not in the store");
  return Store.at(W - Spec.Workloads.begin(), A - Spec.Allocators.begin())
      .Result;
}

/// Index of the direct-mapped, 32-byte-block cache of \p Kb in the store.
size_t cacheIndex(const ResultStore &Store, uint32_t Kb) {
  const std::vector<CacheConfig> &Caches = Store.spec().Caches;
  auto It = std::find_if(Caches.begin(), Caches.end(),
                         [&](const CacheConfig &C) {
                           return C.SizeBytes == Kb * 1024 &&
                                  C.BlockBytes == 32 && C.Assoc == 1;
                         });
  assert(It != Caches.end() && "cache not in the store");
  return It - Caches.begin();
}

double faultsPerRef(const RunResult &Run, uint32_t MemoryKb) {
  auto It = std::find_if(
      Run.Paging.begin(), Run.Paging.end(),
      [&](const PagingPoint &P) { return P.MemoryKb == MemoryKb; });
  assert(It != Run.Paging.end() && "memory size not in the store");
  return It->FaultsPerRef;
}

/// Factor that multiplies a run's totals back up to paper volume.
uint32_t effectiveScale(const ResultStore &Store, WorkloadId Workload) {
  return WorkloadEngine(getProfile(Workload), Store.spec().Base.Engine)
      .effectiveScale();
}

/// Share of execution time spent waiting on cache misses, in percent.
double missSharePct(const TimeEstimate &Time) {
  return 100.0 * Time.missCycles() / Time.totalCycles();
}

void printHeading(const std::string &Title) {
  std::cout << "--- " << Title << " ---\n\n";
}

//===----------------------------------------------------------------------===//
// Renderers
//===----------------------------------------------------------------------===//

/// Tables 2 and 3: program statistics under the FirstFit baseline, scaled
/// back up to paper volume, next to the paper's values.
void renderProgramTable(const ResultStore &Store,
                        const std::vector<WorkloadId> &Workloads,
                        const std::string &FirstHeader, bool ScaleColumn,
                        const BenchOptions &Options) {
  std::vector<std::string> Headers = {
      FirstHeader, "instr(M)",   "paper", "refs(M)",  "paper", "heap KB",
      "paper",     "alloc'd(K)", "paper", "freed(K)", "paper"};
  if (ScaleColumn)
    Headers.emplace_back("scale");
  Table Out(Headers);
  for (WorkloadId Workload : Workloads) {
    const AppProfile &Profile = getProfile(Workload);
    const RunResult &Run = result(Store, Workload, AllocatorKind::FirstFit);
    uint32_t Scale = effectiveScale(Store, Workload);

    Out.beginRow();
    Out.cell(Profile.Name);
    Out.num(double(Run.totalInstructions()) * Scale / 1e6, 0);
    Out.num(Profile.PaperInstrMillions, 0);
    Out.num(double(Run.TotalRefs) * Scale / 1e6, 0);
    Out.num(Profile.PaperDataRefsMillions, 0);
    Out.num(uint64_t(Run.HeapBytes / 1024));
    Out.num(uint64_t(Profile.PaperMaxHeapKb));
    Out.num(double(Run.Alloc.MallocCalls) * Scale / 1e3, 0);
    Out.num(Profile.PaperObjectsAllocated / 1e3, 0);
    Out.num(double(Run.Alloc.FreeCalls) * Scale / 1e3, 0);
    Out.num(Profile.PaperObjectsFreed / 1e3, 0);
    if (ScaleColumn)
      Out.cell("1/" + std::to_string(Scale));
  }
  renderTable(Out, Options);
}

void renderTable2(const ResultStore &Store, const BenchOptions &Options) {
  printHeading("Table 2: test program performance information "
               "(FirstFit baseline)");
  renderProgramTable(Store, {PaperWorkloads, PaperWorkloads + 5}, "program",
                     /*ScaleColumn=*/true, Options);
  std::cout
      << "Notes: instr/refs/object counts are measured at the run's scale "
         "and multiplied\nback up; heap KB is not scaled (live heaps are "
         "preserved by design, so it is\ndirectly comparable to the paper's "
         "Max Heap column). Scaled frees are chosen\nto end with the "
         "paper's surviving-object count, so freed(K) re-scaled "
         "slightly\novershoots the paper for scaled runs.\n\n";
}

void renderTable3(const ResultStore &Store, const BenchOptions &Options) {
  printHeading("Table 3: GhostScript input sets (FirstFit baseline)");
  renderProgramTable(Store,
                     {WorkloadId::GsSmall, WorkloadId::GsMedium,
                      WorkloadId::Gs},
                     "input", /*ScaleColumn=*/false, Options);
}

/// Figure 1: share of instructions in malloc/free, no cache penalty.
void renderFigure1(const ResultStore &Store, const BenchOptions &Options) {
  printHeading("Figure 1: percent of execution time in malloc/free "
               "(instruction counts, no cache penalty)");
  std::vector<std::string> Headers = {"allocator"};
  for (WorkloadId Workload : PaperWorkloads)
    Headers.push_back(workloadName(Workload));
  Table Out(Headers);
  for (AllocatorKind Allocator : PaperAllocators) {
    Out.beginRow();
    Out.cell(allocatorKindName(Allocator));
    for (WorkloadId Workload : PaperWorkloads)
      Out.num(100.0 * result(Store, Workload, Allocator).allocInstrFraction(),
              1);
  }
  renderTable(Out, Options, "% of instructions in malloc/free");
}

/// Figures 2/3: faults per reference at each memory size, plus each
/// allocator's total heap (the paper's x-axis end symbols).
void renderPageFaults(const ResultStore &Store, const std::string &Title,
                      WorkloadId Workload,
                      const std::vector<uint32_t> &MemoryKb,
                      const BenchOptions &Options) {
  printHeading(Title);
  std::vector<std::string> Headers = {"memory KB"};
  for (AllocatorKind Allocator : PaperAllocators)
    Headers.emplace_back(allocatorKindName(Allocator));
  Table Out(Headers);
  for (uint32_t Kb : MemoryKb) {
    Out.beginRow();
    Out.num(uint64_t(Kb));
    for (AllocatorKind Allocator : PaperAllocators)
      Out.cell(
          formatRate(faultsPerRef(result(Store, Workload, Allocator), Kb)));
  }
  renderTable(Out, Options, "page faults per memory reference (4 KB pages)");

  Table Heap({"allocator", "total heap KB", "distinct pages"});
  for (AllocatorKind Allocator : PaperAllocators) {
    const RunResult &Run = result(Store, Workload, Allocator);
    Heap.beginRow();
    Heap.cell(allocatorKindName(Allocator));
    Heap.num(uint64_t(Run.HeapBytes / 1024));
    Heap.num(Run.DistinctPages);
  }
  renderTable(Heap, Options,
              "memory requested per allocator (the figure's x-axis ends)");
}

/// Figures 4/5: execution time normalized to FirstFit, base (instructions
/// only) and total (with the 25-cycle miss penalty), plus the miss share.
void renderNormalizedTime(const ResultStore &Store, const std::string &Title,
                          uint32_t CacheKb, const BenchOptions &Options) {
  printHeading(Title);
  const size_t C = cacheIndex(Store, CacheKb);
  std::vector<std::string> Headers = {"allocator"};
  for (WorkloadId Workload : PaperWorkloads)
    Headers.push_back(std::string(workloadName(Workload)) + " base/total");
  Table Out(Headers);
  for (AllocatorKind Allocator : PaperAllocators) {
    Out.beginRow();
    Out.cell(allocatorKindName(Allocator));
    for (WorkloadId Workload : PaperWorkloads) {
      const RunResult &Run = result(Store, Workload, Allocator);
      const RunResult &FirstFit =
          result(Store, Workload, AllocatorKind::FirstFit);
      double BaseNorm = double(Run.totalInstructions()) /
                        double(FirstFit.totalInstructions());
      double TotalNorm = Run.Caches[C].Time.totalCycles() /
                         FirstFit.Caches[C].Time.totalCycles();
      Out.cell(formatDouble(BaseNorm, 3) + "/" + formatDouble(TotalNorm, 3));
    }
  }
  renderTable(Out, Options,
              "execution time normalized to FirstFit "
              "(base = instructions only; total = with cache penalty)");

  Table Share({"allocator", "espresso", "gs", "ptc", "gawk", "make"});
  for (AllocatorKind Allocator : PaperAllocators) {
    Share.beginRow();
    Share.cell(allocatorKindName(Allocator));
    for (WorkloadId Workload : PaperWorkloads)
      Share.num(missSharePct(result(Store, Workload, Allocator).Caches[C].Time),
                1);
  }
  renderTable(Share, Options, "cache-miss share of execution time (%)");
}

/// Figures 6/7/8: GhostScript miss rate per input set and cache size.
void renderMissRates(const ResultStore &Store, const BenchOptions &Options) {
  printHeading("Figures 6/7/8: GhostScript data-cache miss rate vs cache "
               "size (direct-mapped, 32B blocks)");
  const std::pair<WorkloadId, const char *> Inputs[] = {
      {WorkloadId::GsSmall, "Figure 6 (GS-Small)"},
      {WorkloadId::GsMedium, "Figure 7 (GS-Medium)"},
      {WorkloadId::Gs, "Figure 8 (GS-Large)"}};
  const std::vector<CacheConfig> &Caches = Store.spec().Caches;
  for (const auto &[Workload, Figure] : Inputs) {
    std::vector<std::string> Headers = {"cache KB"};
    for (AllocatorKind Allocator : PaperAllocators)
      Headers.emplace_back(allocatorKindName(Allocator));
    Table Out(Headers);
    for (size_t C = 0; C != Caches.size(); ++C) {
      Out.beginRow();
      Out.num(uint64_t(Caches[C].SizeBytes / 1024));
      for (AllocatorKind Allocator : PaperAllocators)
        Out.num(100.0 *
                    result(Store, Workload, Allocator).Caches[C].Stats
                        .missRate(),
                2);
    }
    renderTable(Out, Options, std::string(Figure) + ": miss rate (%)");
  }
}

/// Tables 4/5: estimated total and miss seconds at paper volume, next to
/// the paper's published values.
void renderTimeTable(const ResultStore &Store, const std::string &Title,
                     uint32_t CacheKb, const PaperTime Paper[5][5],
                     const BenchOptions &Options) {
  printHeading(Title);
  const size_t C = cacheIndex(Store, CacheKb);
  auto FormatPaper = [](const PaperTime &Entry) -> std::string {
    if (!Entry.known())
      return "?";
    return formatDouble(Entry.TotalSeconds, 2) + "/" +
           formatDouble(Entry.MissSeconds, 2);
  };

  std::vector<std::string> Headers = {"allocator"};
  for (WorkloadId Workload : PaperWorkloads) {
    Headers.push_back(std::string(workloadName(Workload)));
    Headers.push_back("paper");
  }
  Table Out(Headers);
  for (size_t A = 0; A != 5; ++A) {
    Out.beginRow();
    Out.cell(allocatorKindName(PaperAllocators[A]));
    for (size_t W = 0; W != 5; ++W) {
      const TimeEstimate &Time =
          result(Store, PaperWorkloads[W], PaperAllocators[A]).Caches[C].Time;
      // Seconds at the run's scale multiplied back to paper scale; live
      // heaps are unscaled so the miss *rate* is directly comparable.
      uint32_t Scale = effectiveScale(Store, PaperWorkloads[W]);
      Out.cell(formatDouble(Time.seconds() * Scale, 2) + "/" +
               formatDouble(Time.missSeconds() * Scale, 2));
      Out.cell(FormatPaper(Paper[A][W]));
    }
  }
  renderTable(Out, Options,
              "estimated total seconds / seconds waiting on " +
                  std::to_string(CacheKb) +
                  "K-cache misses (25 MHz, scaled back to paper volume)");
}

/// Table 6: GNU LOCAL with and without emulated boundary tags, 64K cache.
void renderTable6(const ResultStore &Plain, const ResultStore &Tagged,
                  const BenchOptions &Options) {
  printHeading("Table 6: boundary-tag cache pollution in GNU LOCAL, 64K "
               "direct-mapped cache");
  // Paper's Table 6 reference rows (miss rate %, miss penalty % of time).
  const double PaperTaggedMiss[5] = {0.880, 0.580, 0.600, 0.250, 0.240};
  const double PaperTaggedPenalty[5] = {5.27, 4.51, 4.91, 1.99, 1.78};
  const double PaperPlainMiss[5] = {0.680, 0.560, 0.500, 0.210, 0.200};
  const double PaperPlainPenalty[5] = {4.14, 4.37, 4.53, 1.68, 1.49};
  const double PaperCost[5] = {1.13, 0.14, 0.78, 0.31, 0.29};

  auto Cache = [](const ResultStore &Store, size_t W) -> const CacheResult & {
    return result(Store, PaperWorkloads[W], AllocatorKind::GnuLocal)
        .Caches[cacheIndex(Store, 64)];
  };
  auto MissPct = [&](const ResultStore &Store, size_t W) {
    return 100.0 * Cache(Store, W).Stats.missRate();
  };
  auto PenaltyPct = [&](const ResultStore &Store, size_t W) {
    return missSharePct(Cache(Store, W).Time);
  };

  Table Out({"metric", "espresso", "gs", "ptc", "gawk", "make"});
  auto EmitRow = [&](const std::string &Label, auto Value) {
    Out.beginRow();
    Out.cell(Label);
    for (size_t W = 0; W != 5; ++W)
      Out.num(Value(W), 3);
  };
  EmitRow("tags: miss rate %", [&](size_t W) { return MissPct(Tagged, W); });
  EmitRow("tags: miss rate % (paper)",
          [&](size_t W) { return PaperTaggedMiss[W]; });
  EmitRow("tags: miss penalty % of time",
          [&](size_t W) { return PenaltyPct(Tagged, W); });
  EmitRow("tags: penalty % (paper)",
          [&](size_t W) { return PaperTaggedPenalty[W]; });
  EmitRow("no tags: miss rate %",
          [&](size_t W) { return MissPct(Plain, W); });
  EmitRow("no tags: miss rate % (paper)",
          [&](size_t W) { return PaperPlainMiss[W]; });
  EmitRow("no tags: miss penalty % of time",
          [&](size_t W) { return PenaltyPct(Plain, W); });
  EmitRow("no tags: penalty % (paper)",
          [&](size_t W) { return PaperPlainPenalty[W]; });
  EmitRow("tag cost (% of exec time)", [&](size_t W) {
    double TaggedCycles = Cache(Tagged, W).Time.totalCycles();
    double PlainCycles = Cache(Plain, W).Time.totalCycles();
    return 100.0 * (TaggedCycles - PlainCycles) / PlainCycles;
  });
  EmitRow("tag cost % (paper)", [&](size_t W) { return PaperCost[W]; });
  renderTable(Out, Options);

  std::cout << "Note: the paper's absolute miss rates are lower because "
               "its trace volume per\nlive-heap byte is ~8x ours at the "
               "default scale; the tag *delta* is the\ncomparable "
               "quantity.\n\n";
}

/// Figure 9 / Section 4.4: the same QuickFit-style allocator (CustomAlloc)
/// behind the O(1) size-mapping array, with the size classes of each policy
/// the paper names — powers of two (BSD), word multiples (QuickFit),
/// DeTreville's bounded fragmentation, and the empirical CustoMalloc
/// profile. The columns show the trade-off the paper describes: merged
/// sizes re-use objects rapidly but waste storage; many distinct classes
/// waste nothing but re-use less.
void renderFigure9(const BenchOptions &Options) {
  const WorkloadId Workload = WorkloadId::Espresso;
  printHeading("Figure 9 / Section 4.4: size-class policy ablation on " +
               std::string(workloadName(Workload)));

  constexpr uint32_t MaxFast = 1024;
  ExperimentConfig Base = baseConfig(Workload, Options);
  Histogram Profile = WorkloadEngine(getProfile(Workload), Base.Engine)
                          .sizeProfile();
  const std::pair<const char *, SizeClassMap> Policies[] = {
      {"power-of-two (BSD-like)", SizeClassMap::powerOfTwo(MaxFast)},
      {"word multiples", SizeClassMap::wordMultiple(4, MaxFast)},
      {"bounded frag 25%",
       SizeClassMap::boundedFragmentation(0.25, MaxFast)},
      {"empirical (CustoMalloc)",
       SizeClassMap::fromProfile(Profile, 12, MaxFast)},
  };

  Table Out({"policy", "classes", "frag waste %", "heap KB", "alloc instr(M)",
             "miss % 16K", "miss % 64K", "est. seconds 64K"});
  for (const auto &[Name, Map] : Policies) {
    ExperimentConfig Config = Base;
    Config.Allocator = AllocatorKind::Custom;
    Config.CustomClasses = Map;
    Config.Caches = {CacheConfig{16 * 1024, 32, 1},
                     CacheConfig{64 * 1024, 32, 1}};
    RunResult Run = runExperiment(Config);

    Out.beginRow();
    Out.cell(Name);
    Out.num(uint64_t(Map.numClasses()));
    Out.num(100.0 * Map.expectedWaste(Profile), 1);
    Out.num(uint64_t(Run.HeapBytes / 1024));
    Out.num(double(Run.AllocInstructions) / 1e6, 1);
    Out.num(100.0 * Run.Caches[0].Stats.missRate(), 2);
    Out.num(100.0 * Run.Caches[1].Stats.missRate(), 2);
    Out.num(Run.estimatedSeconds(1), 2);
  }
  renderTable(Out, Options);
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine Cli;
  std::optional<BenchOptions> Options = parseBenchOptions(Argc, Argv, Cli);
  if (!Options)
    return 1;
  printBanner("Paper artifacts: Tables 2-6 and Figures 1-9", *Options);

  // The one paper run: every application and GS input under every paper
  // allocator, observing the Figure 6-8 cache sweep (which holds the 16K
  // and 64K caches of Figures 4/5 and Tables 4-6) and the page simulator at
  // the union of the Figure 2 and 3 memory sizes.
  MatrixSpec Spec = benchMatrixSpec(
      {WorkloadId::Espresso, WorkloadId::Gs, WorkloadId::Ptc,
       WorkloadId::Gawk, WorkloadId::Make, WorkloadId::GsSmall,
       WorkloadId::GsMedium},
      *Options);
  Spec.Caches = paperCacheSweep();
  std::set_union(GsMemoryKb.begin(), GsMemoryKb.end(), PtcMemoryKb.begin(),
                 PtcMemoryKb.end(), std::back_inserter(Spec.PagingMemoryKb));
  ResultStore Store = runBenchMatrix(Spec, *Options);

  // Table 6's tagged row: GNU LOCAL with emulated boundary tags, 64K.
  MatrixSpec TagSpec =
      benchMatrixSpec({PaperWorkloads, PaperWorkloads + 5}, *Options);
  TagSpec.Allocators = {AllocatorKind::GnuLocal};
  TagSpec.Caches = {CacheConfig{64 * 1024, 32, 1}};
  TagSpec.Base.EmulateBoundaryTags = true;
  BenchOptions NoExport = *Options;
  NoExport.OutJson.clear();
  NoExport.OutTelemetryJson.clear();
  ResultStore Tagged = runBenchMatrix(TagSpec, NoExport);

  renderTable2(Store, *Options);
  renderFigure1(Store, *Options);
  renderPageFaults(Store, "Figure 2: page fault rate vs memory size, "
                          "GhostScript",
                   WorkloadId::Gs, GsMemoryKb, *Options);
  renderPageFaults(Store, "Figure 3: page fault rate vs memory size, PTC",
                   WorkloadId::Ptc, PtcMemoryKb, *Options);
  renderNormalizedTime(Store,
                       "Figure 4: normalized execution time, 16K "
                       "direct-mapped cache, 25-cycle penalty",
                       16, *Options);
  renderNormalizedTime(Store,
                       "Figure 5: normalized execution time, 64K "
                       "direct-mapped cache, 25-cycle penalty",
                       64, *Options);
  renderTable3(Store, *Options);
  renderMissRates(Store, *Options);
  renderTimeTable(Store,
                  "Table 4: estimated execution seconds, 16K direct-mapped "
                  "cache ('?' = illegible in the scanned paper)",
                  16, PaperTable4, *Options);
  renderTimeTable(Store,
                  "Table 5: estimated execution seconds, 64K direct-mapped "
                  "cache ('?' = illegible in the scanned paper)",
                  64, PaperTable5, *Options);
  renderTable6(Store, Tagged, *Options);
  renderFigure9(*Options);
  return 0;
}
