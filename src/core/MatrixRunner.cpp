//===- core/MatrixRunner.cpp - Parallel experiment-matrix engine ----------===//

#include "core/MatrixRunner.h"

#include "cache/StackSim.h"
#include "support/Rng.h"
#include "support/SpecParse.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <thread>

using namespace allocsim;

//===----------------------------------------------------------------------===//
// Expansion
//===----------------------------------------------------------------------===//

namespace {

/// Seed for workload ordinal \p WorkloadIdx: decorrelated across workloads,
/// identical across allocators and penalties, independent of scheduling.
uint64_t cellSeed(const MatrixSpec &Spec, size_t WorkloadIdx) {
  if (!Spec.SaltSeedPerWorkload)
    return Spec.Base.Engine.Seed;
  SplitMix64 Mix(Spec.Base.Engine.Seed +
                 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(WorkloadIdx));
  return Mix.next();
}

/// Reports each repeated geometry in \p Caches as spec-duplicate-cache at
/// \p CachesLoc: the cache layer treats a duplicate as fatal, and it would
/// double-count in sweep output.
void checkCacheBank(const std::vector<CacheConfig> &Caches, DiagEngine &Diags,
                    SourceLoc CachesLoc = {}) {
  for (size_t I = 0; I != Caches.size(); ++I)
    if (std::find(Caches.begin(), Caches.begin() + I, Caches[I]) !=
        Caches.begin() + I)
      Diags.error("spec-duplicate-cache", CachesLoc,
                  "duplicate cache geometry '" + Caches[I].describe() + "'");
}

/// Returns a description of what makes \p Config unrunnable, or "" if it is
/// sound. Validation failures become recorded cell errors, not aborts.
std::string validateCellConfig(const ExperimentConfig &Config) {
  for (const CacheConfig &Cache : Config.Caches)
    if (!Cache.valid())
      return "invalid cache geometry '" + Cache.describe() + "'";
  // The cache layer treats duplicate geometries and stack-illegal families
  // as fatal; diagnose here where a cell can fail gracefully instead.
  DiagEngine BankDiags;
  checkCacheBank(Config.Caches, BankDiags);
  if (BankDiags.errorCount() != 0)
    return BankDiags.firstError();
  if (Config.CacheEngine == CacheEngineKind::StackDist) {
    std::string Problem = describeStackFamilyProblem(Config.Caches);
    if (!Problem.empty())
      return "stack-distance engine: " + Problem;
  }
  if (Config.MissPenaltyCycles == 0)
    return "miss penalty must be positive";
  if (Config.Engine.Scale == 0)
    return "engine scale must be positive";
  for (uint32_t MemoryKb : Config.PagingMemoryKb)
    if (MemoryKb == 0)
      return "paging memory size must be positive";
  return "";
}

} // namespace

std::vector<MatrixCell> allocsim::expandMatrix(const MatrixSpec &Spec) {
  std::vector<MatrixCell> Cells;
  Cells.reserve(Spec.cellCount());
  for (size_t W = 0; W != Spec.Workloads.size(); ++W)
    for (size_t A = 0; A != Spec.Allocators.size(); ++A)
      for (size_t P = 0; P != Spec.PenaltiesCycles.size(); ++P) {
        MatrixCell Cell;
        Cell.Coord = {Cells.size(), W, A, P};
        Cell.Config = Spec.Base;
        Cell.Config.Workload = Spec.Workloads[W];
        Cell.Config.Allocator = Spec.Allocators[A];
        Cell.Config.MissPenaltyCycles = Spec.PenaltiesCycles[P];
        Cell.Config.Caches = Spec.Caches;
        Cell.Config.PagingMemoryKb = Spec.PagingMemoryKb;
        Cell.Config.Engine.Seed = cellSeed(Spec, W);
        if (Spec.Base.Inject.enabled()) {
          // Per-cell fault seed, fixed at expansion from the linear index:
          // fault sites are decorrelated across cells yet bit-identical at
          // any job count, like the workload seeds above.
          SplitMix64 Mix(Spec.Base.Inject.Seed +
                         0x9e3779b97f4a7c15ULL *
                             static_cast<uint64_t>(Cell.Coord.Index));
          Cell.Config.Inject.Seed = Mix.next();
        }
        Cells.push_back(std::move(Cell));
      }
  return Cells;
}

//===----------------------------------------------------------------------===//
// ResultStore
//===----------------------------------------------------------------------===//

ResultStore::ResultStore(const MatrixSpec &StoreSpec)
    : Spec(StoreSpec), Cells(StoreSpec.cellCount()) {}

const CellOutcome &ResultStore::at(size_t WorkloadIdx, size_t AllocatorIdx,
                                   size_t PenaltyIdx) const {
  size_t Index = (WorkloadIdx * Spec.Allocators.size() + AllocatorIdx) *
                     Spec.PenaltiesCycles.size() +
                 PenaltyIdx;
  return Cells.at(Index);
}

size_t ResultStore::failedCount() const {
  size_t Failed = 0;
  for (const CellOutcome &Cell : Cells)
    if (!Cell.Ok)
      ++Failed;
  return Failed;
}

void ResultStore::put(size_t Index, CellOutcome Outcome) {
  Cells.at(Index) = std::move(Outcome);
}

namespace {

std::string jsonDouble(double Value) {
  char Buffer[40];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", Value);
  return Buffer;
}

void writeCacheConfigJson(std::ostream &OS, const CacheConfig &Config) {
  OS << "{\"size_kb\": " << Config.SizeBytes / 1024
     << ", \"block_bytes\": " << Config.BlockBytes
     << ", \"assoc\": " << Config.Assoc << "}";
}

/// Shared body for writeJson / writeGoldenJson; \p WithDoubles controls
/// whether derived floating-point values (miss rates, time estimates,
/// fault rates) are included — the golden form is integers only so exact
/// equality is meaningful on every platform.
void writeMatrixJson(std::ostream &OS, const MatrixSpec &Spec,
                     const std::vector<CellOutcome> &Cells,
                     bool WithDoubles) {
  OS << "{\n";
  OS << "  \"schema\": \"allocsim-matrix-v1\",\n";
  OS << "  \"golden\": " << (WithDoubles ? "false" : "true") << ",\n";

  OS << "  \"axes\": {\n    \"workloads\": [";
  for (size_t I = 0; I != Spec.Workloads.size(); ++I)
    OS << (I ? ", " : "") << '"' << workloadName(Spec.Workloads[I]) << '"';
  OS << "],\n    \"allocators\": [";
  for (size_t I = 0; I != Spec.Allocators.size(); ++I)
    OS << (I ? ", " : "") << '"' << allocatorKindName(Spec.Allocators[I])
       << '"';
  OS << "],\n    \"penalties_cycles\": [";
  for (size_t I = 0; I != Spec.PenaltiesCycles.size(); ++I)
    OS << (I ? ", " : "") << Spec.PenaltiesCycles[I];
  OS << "],\n    \"caches\": [";
  for (size_t I = 0; I != Spec.Caches.size(); ++I) {
    OS << (I ? ", " : "");
    writeCacheConfigJson(OS, Spec.Caches[I]);
  }
  OS << "],\n    \"paging_memory_kb\": [";
  for (size_t I = 0; I != Spec.PagingMemoryKb.size(); ++I)
    OS << (I ? ", " : "") << Spec.PagingMemoryKb[I];
  OS << "]\n  },\n";

  OS << "  \"engine\": {\"scale\": " << Spec.Base.Engine.Scale
     << ", \"seed\": " << Spec.Base.Engine.Seed
     << ", \"salt_seed_per_workload\": "
     << (Spec.SaltSeedPerWorkload ? "true" : "false") << "},\n";

  // The faults section (plan echo, totals, quarantine) exists only under a
  // fault plan: plan-free output stays byte-identical to pre-FaultLab runs.
  if (Spec.Base.Inject.enabled()) {
    const FaultPlan &Plan = Spec.Base.Inject;
    uint64_t Injected = 0, Detected = 0, SbrkDenied = 0, Dropped = 0;
    for (const CellOutcome &Cell : Cells)
      if (Cell.Ok) {
        Injected += Cell.Result.FaultsInjected;
        Detected += Cell.Result.FaultsDetected;
        SbrkDenied += Cell.Result.SbrkDenied;
        Dropped += Cell.Result.DroppedEvents;
      }
    OS << "  \"faults\": {\n";
    OS << "    \"plan\": \"" << jsonEscaped(Plan.Spec) << "\",\n";
    OS << "    \"seed\": " << Plan.Seed
       << ", \"retry_limit\": " << Plan.RetryLimit << ",\n";
    OS << "    \"injected\": " << Injected << ", \"detected\": " << Detected
       << ", \"sbrk_denied\": " << SbrkDenied
       << ", \"dropped_events\": " << Dropped << ",\n";
    OS << "    \"quarantine\": [";
    bool First = true;
    for (const CellOutcome &Cell : Cells) {
      if (Cell.Ok)
        continue;
      OS << (First ? "\n" : ",\n") << "      {\"workload\": \""
         << workloadName(Cell.Workload) << "\", \"allocator\": \""
         << allocatorKindName(Cell.Allocator)
         << "\", \"penalty_cycles\": " << Cell.PenaltyCycles
         << ", \"attempts\": " << Cell.Attempts << ", \"errors\": [";
      for (size_t E = 0; E != Cell.AttemptErrors.size(); ++E)
        OS << (E ? ", " : "") << '"' << jsonEscaped(Cell.AttemptErrors[E])
           << '"';
      OS << "]}";
      First = false;
    }
    OS << (First ? "" : "\n    ") << "]\n  },\n";
  }

  OS << "  \"cells\": [";
  for (size_t I = 0; I != Cells.size(); ++I) {
    const CellOutcome &Cell = Cells[I];
    OS << (I ? ",\n" : "\n") << "    {";
    OS << "\"workload\": \"" << workloadName(Cell.Workload) << "\", ";
    OS << "\"allocator\": \"" << allocatorKindName(Cell.Allocator) << "\", ";
    OS << "\"penalty_cycles\": " << Cell.PenaltyCycles << ", ";
    OS << "\"seed\": " << Cell.Seed << ", ";
    OS << "\"ok\": " << (Cell.Ok ? "true" : "false");
    if (!Cell.Ok) {
      OS << ", \"error\": \"" << jsonEscaped(Cell.Error) << "\"}";
      continue;
    }
    const RunResult &R = Cell.Result;
    OS << ",\n     \"app_instructions\": " << R.AppInstructions
       << ", \"alloc_instructions\": " << R.AllocInstructions
       << ",\n     \"total_refs\": " << R.TotalRefs
       << ", \"app_refs\": " << R.AppRefs
       << ", \"alloc_refs\": " << R.AllocRefs
       << ", \"tag_refs\": " << R.TagRefs
       << ",\n     \"malloc_calls\": " << R.Alloc.MallocCalls
       << ", \"free_calls\": " << R.Alloc.FreeCalls
       << ", \"bytes_requested\": " << R.Alloc.BytesRequested
       << ", \"max_live_bytes\": " << R.Alloc.MaxLiveBytes
       << ",\n     \"heap_bytes\": " << R.HeapBytes
       << ", \"blocks_searched\": " << R.BlocksSearched
       << ", \"distinct_pages\": " << R.DistinctPages
       << ", \"check_violations\": " << R.CheckViolations;

    if (Spec.Base.Inject.enabled()) {
      OS << ",\n     \"attempts\": " << Cell.Attempts
         << ", \"faults_injected\": " << R.FaultsInjected
         << ", \"faults_detected\": " << R.FaultsDetected
         << ", \"sbrk_denied\": " << R.SbrkDenied
         << ", \"dropped_events\": " << R.DroppedEvents
         << ",\n     \"fault_sites\": [";
      for (size_t F = 0; F != R.Faults.size(); ++F)
        OS << (F ? ", " : "") << "{\"kind\": \""
           << faultKindName(R.Faults[F].Kind)
           << "\", \"op\": " << R.Faults[F].OpIndex
           << ", \"addr\": " << R.Faults[F].Address << ", \"detected\": "
           << (R.Faults[F].Detected ? "true" : "false") << "}";
      OS << "]";
    }

    OS << ",\n     \"caches\": [";
    for (size_t C = 0; C != R.Caches.size(); ++C) {
      const CacheResult &Cache = R.Caches[C];
      OS << (C ? ", " : "") << "{\"size_kb\": "
         << Cache.Config.SizeBytes / 1024
         << ", \"accesses\": " << Cache.Stats.Accesses
         << ", \"misses\": " << Cache.Stats.Misses;
      for (unsigned S = 0; S != NumAccessSources; ++S)
        OS << ", \"misses_" << accessSourceName(AccessSource(S))
           << "\": " << Cache.Stats.MissesBySource[S];
      if (WithDoubles)
        OS << ", \"miss_rate\": " << jsonDouble(Cache.Stats.missRate())
           << ", \"est_seconds\": " << jsonDouble(Cache.Time.seconds());
      OS << "}";
    }
    OS << "]";

    OS << ", \"paging\": [";
    for (size_t P = 0; P != R.Paging.size(); ++P) {
      OS << (P ? ", " : "") << "{\"memory_kb\": " << R.Paging[P].MemoryKb;
      if (WithDoubles)
        OS << ", \"faults_per_ref\": "
           << jsonDouble(R.Paging[P].FaultsPerRef);
      OS << "}";
    }
    OS << "]}";
  }
  OS << "\n  ]\n}\n";
}

} // namespace

void ResultStore::writeJson(std::ostream &OS) const {
  writeMatrixJson(OS, Spec, Cells, /*WithDoubles=*/true);
}

void ResultStore::writeGoldenJson(std::ostream &OS) const {
  writeMatrixJson(OS, Spec, Cells, /*WithDoubles=*/false);
}

void ResultStore::writeCsv(std::ostream &OS) const {
  // Fault columns appear only under a fault plan, keeping plan-free CSV
  // byte-identical to pre-FaultLab output.
  bool WithFaults = Spec.Base.Inject.enabled();
  OS << "workload,allocator,penalty_cycles,ok,error,seed,"
        "app_instructions,alloc_instructions,total_refs,app_refs,"
        "alloc_refs,tag_refs,malloc_calls,free_calls,heap_bytes,"
        "blocks_searched,distinct_pages,";
  if (WithFaults)
    OS << "attempts,faults_injected,faults_detected,sbrk_denied,"
          "dropped_events,";
  OS << "cache_kb,cache_block_bytes,cache_assoc,cache_accesses,"
     << "cache_misses,cache_miss_rate,est_seconds\n";
  for (const CellOutcome &Cell : Cells) {
    std::string ErrorField = Cell.Error;
    for (char &C : ErrorField)
      if (C == ',' || C == '\n')
        C = ' ';
    // Appended piece by piece: a chain of temporaries ("," +
    // std::to_string(...) + ...) trips g++ 12's -Werror=restrict false
    // positive in Release builds.
    std::string Prefix = workloadName(Cell.Workload);
    auto Append = [&Prefix](const std::string &Field) {
      Prefix += ',';
      Prefix += Field;
    };
    Append(allocatorKindName(Cell.Allocator));
    Append(std::to_string(Cell.PenaltyCycles));
    Append(Cell.Ok ? "1" : "0");
    Append(ErrorField);
    const RunResult &R = Cell.Result;
    for (uint64_t Value :
         {Cell.Seed, R.AppInstructions, R.AllocInstructions, R.TotalRefs,
          R.AppRefs, R.AllocRefs, R.TagRefs, R.Alloc.MallocCalls,
          R.Alloc.FreeCalls, uint64_t(R.HeapBytes), R.BlocksSearched,
          R.DistinctPages})
      Append(std::to_string(Value));
    if (WithFaults)
      for (uint64_t Value :
           {uint64_t(Cell.Attempts), R.FaultsInjected, R.FaultsDetected,
            R.SbrkDenied, R.DroppedEvents})
        Append(std::to_string(Value));
    if (!Cell.Ok || R.Caches.empty()) {
      OS << Prefix << ",,,,,,,\n";
      continue;
    }
    for (const CacheResult &Cache : R.Caches)
      OS << Prefix << "," << Cache.Config.SizeBytes / 1024 << ","
         << Cache.Config.BlockBytes << "," << Cache.Config.Assoc << ","
         << Cache.Stats.Accesses << "," << Cache.Stats.Misses << ","
         << jsonDouble(Cache.Stats.missRate()) << ","
         << jsonDouble(Cache.Time.seconds()) << "\n";
  }
}

TelemetrySnapshot ResultStore::mergedTelemetry() const {
  TelemetrySnapshot Merged;
  for (const CellOutcome &Cell : Cells)
    if (Cell.Ok)
      Merged.merge(Cell.Result.Telemetry);
  return Merged;
}

void ResultStore::writeTelemetryJson(std::ostream &OS) const {
  OS << "{\n";
  OS << "  \"schema\": \"allocsim-telemetry-v1\",\n";
  OS << "  \"level\": \"" << telemetryLevelName(Spec.Base.Telemetry)
     << "\",\n";
  OS << "  \"cells\": [";
  for (size_t I = 0; I != Cells.size(); ++I) {
    const CellOutcome &Cell = Cells[I];
    OS << (I ? ",\n" : "\n") << "    {";
    OS << "\"workload\": \"" << workloadName(Cell.Workload) << "\", ";
    OS << "\"allocator\": \"" << allocatorKindName(Cell.Allocator) << "\", ";
    OS << "\"penalty_cycles\": " << Cell.PenaltyCycles << ", ";
    OS << "\"ok\": " << (Cell.Ok ? "true" : "false") << ",\n";
    OS << "     \"telemetry\":\n";
    // Failed cells serialize whatever partial telemetry their last attempt
    // flushed before dying, instead of silently dropping it.
    (Cell.Ok ? Cell.Result.Telemetry : Cell.PartialTelemetry)
        .writeJson(OS, "      ");
    OS << "}";
  }
  OS << "\n  ],\n";
  OS << "  \"merged\":\n";
  mergedTelemetry().writeJson(OS, "    ");
  OS << "\n}\n";
}

void ResultStore::writeTelemetryCsv(std::ostream &OS) const {
  OS << "workload,allocator,penalty_cycles,kind,name,value,count,sum,min,"
        "max,mean\n";
  for (const CellOutcome &Cell : Cells) {
    if (!Cell.Ok)
      continue;
    std::string Prefix = std::string(workloadName(Cell.Workload)) + "," +
                         allocatorKindName(Cell.Allocator) + "," +
                         std::to_string(Cell.PenaltyCycles) + ",";
    const TelemetrySnapshot &Telem = Cell.Result.Telemetry;
    for (const auto &[Name, Value] : Telem.Counters)
      OS << Prefix << "counter," << Name << "," << Value << ",,,,,\n";
    for (const auto &[Name, Hist] : Telem.Histograms) {
      OS << Prefix << "histogram," << Name << ",," << Hist.Count << ","
         << Hist.Sum << ",";
      if (Hist.Count != 0)
        OS << Hist.Min << "," << Hist.Max << "," << jsonDouble(Hist.mean());
      else
        OS << ",,";
      OS << "\n";
    }
  }
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

namespace {

CellOutcome runCell(const MatrixCell &Cell, const MatrixOptions &Options) {
  CellOutcome Outcome;
  Outcome.Coord = Cell.Coord;
  Outcome.Workload = Cell.Config.Workload;
  Outcome.Allocator = Cell.Config.Allocator;
  Outcome.PenaltyCycles = Cell.Config.MissPenaltyCycles;
  Outcome.Seed = Cell.Config.Engine.Seed;

  std::string Invalid = validateCellConfig(Cell.Config);
  if (!Invalid.empty()) {
    Outcome.Error = Invalid;
    return Outcome;
  }

  // Graceful degradation: under a fault plan each cell gets RetryLimit
  // extra attempts. The worker-fault dice are seeded from the cell's own
  // fault seed (fixed at expansion), so which attempts die — and therefore
  // every retry outcome — is identical at any job count.
  const FaultPlan &Plan = Cell.Config.Inject;
  unsigned MaxAttempts = 1 + (Plan.enabled() ? Plan.RetryLimit : 0);
  Rng WorkerDice(Plan.Seed ^ 0x77666175u /* "wfau" */);
  for (unsigned Attempt = 1; Attempt <= MaxAttempts; ++Attempt) {
    Outcome.Attempts = Attempt;
    if (Plan.enabled() && Plan.CellRate > 0 &&
        WorkerDice.nextDouble() < Plan.CellRate) {
      // Simulated worker fault: the attempt dies before the run starts.
      Outcome.AttemptErrors.push_back("injected worker fault (attempt " +
                                      std::to_string(Attempt) + ")");
      continue;
    }
    TelemetrySnapshot Partial;
    try {
      Outcome.Result = Options.CellRunnerEx
                           ? Options.CellRunnerEx(Cell.Config, Partial)
                           : runExperiment(Cell.Config, &Partial);
      Outcome.Ok = true;
      return Outcome;
    } catch (const std::exception &E) {
      Outcome.AttemptErrors.push_back(E.what());
    } catch (...) {
      Outcome.AttemptErrors.push_back("unknown exception");
    }
    // A failed attempt's partial telemetry feeds the quarantine record;
    // keep the last attempt's (retries overwrite).
    Outcome.PartialTelemetry = std::move(Partial);
  }
  Outcome.Error = Outcome.AttemptErrors.back();
  return Outcome;
}

} // namespace

ResultStore allocsim::runMatrix(const MatrixSpec &Spec,
                                const MatrixOptions &Options) {
  std::vector<MatrixCell> Cells = expandMatrix(Spec);
  ResultStore Store(Spec);

  unsigned Jobs = Options.Jobs;
  if (Jobs == 0) {
    Jobs = std::thread::hardware_concurrency();
    if (Jobs == 0)
      Jobs = 1;
  }
  if (Jobs > Cells.size())
    Jobs = static_cast<unsigned>(Cells.size());

  auto Start = std::chrono::steady_clock::now();
  std::atomic<size_t> NextCell{0};
  std::mutex ProgressMutex;
  size_t Completed = 0, Failed = 0;

  auto FinishCell = [&](size_t Index, CellOutcome Outcome) {
    bool Ok = Outcome.Ok;
    Store.put(Index, std::move(Outcome));
    std::lock_guard<std::mutex> Lock(ProgressMutex);
    ++Completed;
    if (!Ok)
      ++Failed;
    if (Options.Progress) {
      MatrixProgress Progress;
      Progress.Completed = Completed;
      Progress.Total = Cells.size();
      Progress.Failed = Failed;
      Progress.ElapsedSeconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        Start)
              .count();
      Progress.EtaSeconds =
          Completed == 0
              ? 0.0
              : Progress.ElapsedSeconds *
                    static_cast<double>(Cells.size() - Completed) /
                    static_cast<double>(Completed);
      Options.Progress(Progress);
    }
  };

  auto Worker = [&] {
    for (;;) {
      size_t Index = NextCell.fetch_add(1, std::memory_order_relaxed);
      if (Index >= Cells.size())
        return;
      FinishCell(Index, runCell(Cells[Index], Options));
    }
  };

  if (Jobs <= 1) {
    Worker();
  } else {
    std::vector<std::thread> Threads;
    Threads.reserve(Jobs);
    for (unsigned I = 0; I != Jobs; ++I)
      Threads.emplace_back(Worker);
    for (std::thread &T : Threads)
      T.join();
  }
  return Store;
}

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

bool allocsim::parseCacheSpec(const std::string &Spec, CacheConfig &Config,
                              std::string &Error) {
  std::vector<std::string> Parts = splitSpecList(Spec, ':');
  if (Parts.empty() || Parts.size() > 3) {
    Error = "bad cache spec '" + Spec +
            "': expected sizeKB[:blockBytes[:assoc]]";
    return false;
  }
  uint32_t SizeKb = 0;
  if (!parseSpecUnsigned(Parts[0], "cache size (KB)", SizeKb, Error))
    return false;
  if (SizeKb > UINT32_MAX / 1024) {
    Error = "bad cache size (KB): '" + Parts[0] + "' is out of range";
    return false;
  }
  Config.SizeBytes = SizeKb * 1024;
  Config.BlockBytes = 32;
  Config.Assoc = 1;
  if (Parts.size() > 1 &&
      !parseSpecUnsigned(Parts[1], "cache block bytes", Config.BlockBytes,
                         Error))
    return false;
  if (Parts.size() > 2 &&
      !parseSpecUnsigned(Parts[2], "cache associativity", Config.Assoc,
                         Error))
    return false;
  if (!Config.valid()) {
    Error = "invalid cache geometry '" + Spec +
            "': sizes must be powers of two and consistent";
    return false;
  }
  return true;
}

namespace {

/// Parses each comma-separated item of an axis value with \p ParseItem
/// (which fills a T or an error message) into \p Out, reporting an empty
/// or rejected item as \p Rule at its column. With \p WarnRepeats, a
/// repeated item is kept but warned about as a duplicate matrix cell.
template <typename T, typename Fn>
void parseAxisItems(const std::string &Value, size_t ValueOffset,
                    const std::string &What, const char *Rule,
                    bool WarnRepeats, std::vector<T> &Out, DiagEngine &Diags,
                    Fn ParseItem) {
  Out.clear();
  size_t Offset = ValueOffset;
  for (const std::string &Item : splitSpecList(Value, ',')) {
    SourceLoc Loc{1, static_cast<uint32_t>(Offset + 1)};
    Offset += Item.size() + 1;
    T Parsed{};
    std::string Error;
    if (Item.empty()) {
      Error = "bad " + What + " list '" + Value +
              "': empty item (stray or trailing comma)";
    } else if (ParseItem(Item, Parsed, Error)) {
      if (WarnRepeats && std::find(Out.begin(), Out.end(), Parsed) != Out.end())
        Diags.warning("spec-duplicate-value", Loc,
                      What + " '" + Item +
                          "' listed twice (duplicate matrix cells)");
      Out.push_back(Parsed);
      continue;
    }
    Diags.error(Rule, Loc, Error);
  }
}

/// The paging and penalty axes: positive 32-bit numbers.
void parseNumberAxis(const std::string &Value, size_t ValueOffset,
                     const std::string &What, std::vector<uint32_t> &Out,
                     DiagEngine &Diags) {
  parseAxisItems(Value, ValueOffset, What, "spec-bad-number", false, Out,
                 Diags,
                 [&](const std::string &Item, uint32_t &Number,
                     std::string &Error) {
                   return parseSpecUnsigned(Item, What, Number, Error);
                 });
}

} // namespace

bool allocsim::parseMatrixAxis(const std::string &Key,
                               const std::string &Value, MatrixSpec &Spec,
                               DiagEngine &Diags, size_t ValueOffset) {
  SourceLoc ValueLoc{1, static_cast<uint32_t>(ValueOffset + 1)};
  // Only a single-axis CLI flag can hand a required axis no items; the
  // structural pass rejects "key=" in a spec.
  if (Value.empty() &&
      (Key == "workloads" || Key == "allocators" || Key == "penalty"))
    Diags.error("spec-empty-value", ValueLoc,
                "matrix axis '" + Key + "' must list at least one value");

  if (Key == "workloads") {
    parseAxisItems(Value, ValueOffset, "workload", "spec-unknown-workload",
                   true, Spec.Workloads, Diags,
                   [](const std::string &Name, WorkloadId &Id,
                      std::string &Error) {
                     Error = "unknown workload '" + Name + "' in matrix spec";
                     return tryParseWorkload(Name, Id);
                   });
  } else if (Key == "allocators") {
    parseAxisItems(Value, ValueOffset, "allocator", "spec-unknown-allocator",
                   true, Spec.Allocators, Diags,
                   [](const std::string &Name, AllocatorKind &Kind,
                      std::string &Error) {
                     Error = "unknown allocator '" + Name + "' in matrix spec";
                     return tryParseAllocatorKind(Name, Kind);
                   });
  } else if (Key == "caches") {
    parseAxisItems(Value, ValueOffset, "cache", "spec-bad-cache", false,
                   Spec.Caches, Diags, parseCacheSpec);
    checkCacheBank(Spec.Caches, Diags, ValueLoc);
    Spec.Base.CacheEngine = chooseCacheEngine(Spec.Caches);
  } else if (Key == "paging") {
    parseNumberAxis(Value, ValueOffset, "paging memory size (KB)",
                    Spec.PagingMemoryKb, Diags);
  } else if (Key == "penalty") {
    parseNumberAxis(Value, ValueOffset, "miss penalty (cycles)",
                    Spec.PenaltiesCycles, Diags);
  } else if (Key == "telemetry") {
    if (!tryParseTelemetryLevel(Value, Spec.Base.Telemetry))
      Diags.error("spec-bad-value", ValueLoc,
                  "bad matrix value 'telemetry=" + Value +
                      "' (expected off, summary or full)");
  } else {
    return false;
  }
  return true;
}

bool allocsim::parseMatrixSpec(const std::string &Text, MatrixSpec &Spec,
                               DiagEngine &Diags) {
  size_t ErrorsBefore = Diags.errorCount();
  Spec.Workloads.clear();
  Spec.Allocators.clear();
  Spec.PenaltiesCycles = {25};
  Spec.Caches.clear();
  Spec.PagingMemoryKb.clear();

  bool SawWorkloads = false, SawAllocators = false;
  for (const SpecKeyValue &Axis : parseSpecKeyValues(Text, Diags)) {
    size_t ValueOffset = Axis.Offset + Axis.Key.size() + 1;
    if (!parseMatrixAxis(Axis.Key, Axis.Value, Spec, Diags, ValueOffset))
      Diags.error("spec-unknown-axis",
                  {1, static_cast<uint32_t>(Axis.Offset + 1)},
                  "unknown matrix axis '" + Axis.Key +
                      "' (expected workloads/allocators/caches/paging/"
                      "penalty/telemetry)");
    SawWorkloads |= Axis.Key == "workloads";
    SawAllocators |= Axis.Key == "allocators";
  }

  // An absent or fully-bad required axis means the workload x allocator
  // cross-product is empty: nothing would run. Bad names already carry
  // their own errors; this adds the empty-matrix finding.
  if (Spec.Workloads.empty())
    Diags.error("spec-missing-workloads", {},
                SawWorkloads
                    ? "no usable workload survives the 'workloads' axis; "
                      "the cell cross-product is empty"
                    : "matrix spec must name at least one workload "
                      "(workloads=gs,espresso,...)");
  if (Spec.Allocators.empty())
    Diags.error("spec-missing-allocators", {},
                SawAllocators
                    ? "no usable allocator survives the 'allocators' axis; "
                      "the cell cross-product is empty"
                    : "matrix spec must name at least one allocator "
                      "(allocators=FirstFit,BSD,...)");
  return Diags.errorCount() == ErrorsBefore;
}

bool allocsim::parseMatrixSpec(const std::string &Text, MatrixSpec &Spec,
                               std::string &Error) {
  DiagEngine Diags;
  bool Ok = parseMatrixSpec(Text, Spec, Diags);
  Error = Diags.firstError();
  return Ok;
}
