//===- tests/matrix_test.cpp - MatrixRunner determinism & policy tests ----===//
//
// The determinism regression suite: the same MatrixSpec run with Jobs=1 and
// Jobs=8 must produce bit-identical RunResults in every cell — instruction
// splits, reference counts, per-cache CacheStats, paging points, allocator
// stats — because each cell's configuration (including its seed) is fixed
// during expansion, never by scheduling order. Plus the failed-cell policy:
// a failing cell is recorded with its coordinates and the rest of the sweep
// completes.
//
//===----------------------------------------------------------------------===//

#include "core/MatrixRunner.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

using namespace allocsim;

namespace {

/// A small but non-trivial matrix: 2 workloads x 3 allocators x 2 penalties,
/// every cell observing two cache geometries and two paging points.
MatrixSpec smallSpec() {
  MatrixSpec Spec;
  Spec.Workloads = {WorkloadId::GsSmall, WorkloadId::Make};
  Spec.Allocators = {AllocatorKind::FirstFit, AllocatorKind::QuickFit,
                     AllocatorKind::Bsd};
  Spec.PenaltiesCycles = {25, 100};
  Spec.Caches = {CacheConfig{16 * 1024, 32, 1}, CacheConfig{64 * 1024, 32, 2}};
  Spec.PagingMemoryKb = {256, 1024};
  Spec.Base.Engine.Scale = 256;
  Spec.Base.Engine.Seed = 0x5EEDBA5Eu;
  return Spec;
}

void expectSameRunResult(const RunResult &A, const RunResult &B) {
  EXPECT_EQ(A.AppInstructions, B.AppInstructions);
  EXPECT_EQ(A.AllocInstructions, B.AllocInstructions);
  EXPECT_EQ(A.TotalRefs, B.TotalRefs);
  EXPECT_EQ(A.AppRefs, B.AppRefs);
  EXPECT_EQ(A.AllocRefs, B.AllocRefs);
  EXPECT_EQ(A.TagRefs, B.TagRefs);
  EXPECT_EQ(A.Alloc.MallocCalls, B.Alloc.MallocCalls);
  EXPECT_EQ(A.Alloc.FreeCalls, B.Alloc.FreeCalls);
  EXPECT_EQ(A.Alloc.BytesRequested, B.Alloc.BytesRequested);
  EXPECT_EQ(A.Alloc.LiveBytes, B.Alloc.LiveBytes);
  EXPECT_EQ(A.Alloc.MaxLiveBytes, B.Alloc.MaxLiveBytes);
  EXPECT_EQ(A.HeapBytes, B.HeapBytes);
  EXPECT_EQ(A.BlocksSearched, B.BlocksSearched);
  EXPECT_EQ(A.DistinctPages, B.DistinctPages);
  EXPECT_EQ(A.CheckViolations, B.CheckViolations);
  EXPECT_EQ(A.CheckWalks, B.CheckWalks);
  EXPECT_EQ(A.CheckReports, B.CheckReports);

  ASSERT_EQ(A.Caches.size(), B.Caches.size());
  for (size_t I = 0; I != A.Caches.size(); ++I) {
    EXPECT_EQ(A.Caches[I].Config.SizeBytes, B.Caches[I].Config.SizeBytes);
    EXPECT_EQ(A.Caches[I].Config.BlockBytes, B.Caches[I].Config.BlockBytes);
    EXPECT_EQ(A.Caches[I].Config.Assoc, B.Caches[I].Config.Assoc);
    EXPECT_EQ(A.Caches[I].Stats.Accesses, B.Caches[I].Stats.Accesses);
    EXPECT_EQ(A.Caches[I].Stats.Misses, B.Caches[I].Stats.Misses);
    EXPECT_EQ(A.Caches[I].Stats.AccessesBySource,
              B.Caches[I].Stats.AccessesBySource);
    EXPECT_EQ(A.Caches[I].Stats.MissesBySource,
              B.Caches[I].Stats.MissesBySource);
    EXPECT_EQ(A.Caches[I].Time.Instructions, B.Caches[I].Time.Instructions);
    EXPECT_EQ(A.Caches[I].Time.DataRefs, B.Caches[I].Time.DataRefs);
    EXPECT_EQ(A.Caches[I].Time.MissRate, B.Caches[I].Time.MissRate);
    EXPECT_EQ(A.Caches[I].Time.MissPenalty, B.Caches[I].Time.MissPenalty);
  }

  ASSERT_EQ(A.Paging.size(), B.Paging.size());
  for (size_t I = 0; I != A.Paging.size(); ++I) {
    EXPECT_EQ(A.Paging[I].MemoryKb, B.Paging[I].MemoryKb);
    EXPECT_EQ(A.Paging[I].FaultsPerRef, B.Paging[I].FaultsPerRef);
  }
}

} // namespace

TEST(MatrixRunnerTest, ExpansionOrderAndSeeds) {
  MatrixSpec Spec = smallSpec();
  std::vector<MatrixCell> Cells = expandMatrix(Spec);
  ASSERT_EQ(Cells.size(), Spec.cellCount());
  ASSERT_EQ(Cells.size(), 12u);

  for (size_t I = 0; I != Cells.size(); ++I)
    EXPECT_EQ(Cells[I].Coord.Index, I);

  // Workload-major, then allocator, then penalty.
  EXPECT_EQ(Cells[0].Config.Workload, WorkloadId::GsSmall);
  EXPECT_EQ(Cells[0].Config.Allocator, AllocatorKind::FirstFit);
  EXPECT_EQ(Cells[0].Config.MissPenaltyCycles, 25u);
  EXPECT_EQ(Cells[1].Config.MissPenaltyCycles, 100u);
  EXPECT_EQ(Cells[2].Config.Allocator, AllocatorKind::QuickFit);
  EXPECT_EQ(Cells[6].Config.Workload, WorkloadId::Make);

  // Seeds: identical across allocators and penalties within a workload
  // (the paper's identical-request-stream control), decorrelated across
  // workloads, and derived from coordinates only.
  for (const MatrixCell &Cell : Cells) {
    EXPECT_EQ(Cell.Config.Engine.Seed,
              Cells[Cell.Coord.WorkloadIdx * 6].Config.Engine.Seed);
    EXPECT_EQ(Cell.Config.Caches.size(), 2u);
    EXPECT_EQ(Cell.Config.PagingMemoryKb.size(), 2u);
  }
  EXPECT_NE(Cells[0].Config.Engine.Seed, Cells[6].Config.Engine.Seed);

  Spec.SaltSeedPerWorkload = false;
  std::vector<MatrixCell> Unsalted = expandMatrix(Spec);
  for (const MatrixCell &Cell : Unsalted)
    EXPECT_EQ(Cell.Config.Engine.Seed, Spec.Base.Engine.Seed);
}

TEST(MatrixRunnerTest, ParallelResultsBitIdenticalToSerial) {
  MatrixSpec Spec = smallSpec();

  MatrixOptions Serial;
  Serial.Jobs = 1;
  ResultStore StoreSerial = runMatrix(Spec, Serial);

  MatrixOptions Parallel;
  Parallel.Jobs = 8;
  ResultStore StoreParallel = runMatrix(Spec, Parallel);

  ASSERT_EQ(StoreSerial.size(), StoreParallel.size());
  EXPECT_EQ(StoreSerial.failedCount(), 0u);
  EXPECT_EQ(StoreParallel.failedCount(), 0u);

  for (size_t I = 0; I != StoreSerial.size(); ++I) {
    const CellOutcome &A = StoreSerial.cell(I);
    const CellOutcome &B = StoreParallel.cell(I);
    ASSERT_TRUE(A.Ok) << "serial cell " << I << ": " << A.Error;
    ASSERT_TRUE(B.Ok) << "parallel cell " << I << ": " << B.Error;
    EXPECT_EQ(A.Workload, B.Workload);
    EXPECT_EQ(A.Allocator, B.Allocator);
    EXPECT_EQ(A.PenaltyCycles, B.PenaltyCycles);
    EXPECT_EQ(A.Seed, B.Seed);
    expectSameRunResult(A.Result, B.Result);
  }

  // Serialized forms agree byte-for-byte as well.
  std::ostringstream JsonSerial, JsonParallel;
  StoreSerial.writeJson(JsonSerial);
  StoreParallel.writeJson(JsonParallel);
  EXPECT_EQ(JsonSerial.str(), JsonParallel.str());

  std::ostringstream CsvSerial, CsvParallel;
  StoreSerial.writeCsv(CsvSerial);
  StoreParallel.writeCsv(CsvParallel);
  EXPECT_EQ(CsvSerial.str(), CsvParallel.str());
}

TEST(MatrixRunnerTest, ModernBackendsBitIdenticalAcrossJobs) {
  // The modern backends keep allocator-local mutable state (BitmapFit's
  // slab map and bucket lists, SpaceFit's sorted freelist); under the TSan
  // CI axis this test is where a hidden shared mutable would surface.
  MatrixSpec Spec;
  Spec.Workloads = {WorkloadId::GsSmall, WorkloadId::Make};
  Spec.Allocators = {AllocatorKind::BitmapFit, AllocatorKind::SpaceFit};
  Spec.PenaltiesCycles = {25, 100};
  Spec.Caches = {CacheConfig{16 * 1024, 32, 1}, CacheConfig{64 * 1024, 32, 2}};
  Spec.PagingMemoryKb = {256, 1024};
  Spec.Base.Engine.Scale = 256;
  Spec.Base.Engine.Seed = 0x5EEDBA5Eu;

  MatrixOptions Serial;
  Serial.Jobs = 1;
  ResultStore StoreSerial = runMatrix(Spec, Serial);

  MatrixOptions Parallel;
  Parallel.Jobs = 8;
  ResultStore StoreParallel = runMatrix(Spec, Parallel);

  ASSERT_EQ(StoreSerial.size(), StoreParallel.size());
  EXPECT_EQ(StoreSerial.failedCount(), 0u);
  EXPECT_EQ(StoreParallel.failedCount(), 0u);
  for (size_t I = 0; I != StoreSerial.size(); ++I) {
    const CellOutcome &A = StoreSerial.cell(I);
    const CellOutcome &B = StoreParallel.cell(I);
    ASSERT_TRUE(A.Ok) << "serial cell " << I << ": " << A.Error;
    ASSERT_TRUE(B.Ok) << "parallel cell " << I << ": " << B.Error;
    EXPECT_EQ(A.Allocator, B.Allocator);
    EXPECT_EQ(A.Seed, B.Seed);
    expectSameRunResult(A.Result, B.Result);
  }

  std::ostringstream JsonSerial, JsonParallel;
  StoreSerial.writeJson(JsonSerial);
  StoreParallel.writeJson(JsonParallel);
  EXPECT_EQ(JsonSerial.str(), JsonParallel.str());
}

TEST(MatrixRunnerTest, CoordinateLookupMatchesLinearOrder) {
  MatrixSpec Spec = smallSpec();
  MatrixOptions Options;
  Options.Jobs = 4;
  // Synthetic runner: encode the coordinates into counters so at() can be
  // checked without paying for real simulations.
  Options.CellRunnerEx = [](const ExperimentConfig &Config,
                            TelemetrySnapshot &) {
    RunResult Result;
    Result.TotalRefs = static_cast<uint64_t>(Config.Workload) * 10000 +
                       static_cast<uint64_t>(Config.Allocator) * 100 +
                       Config.MissPenaltyCycles;
    return Result;
  };
  ResultStore Store = runMatrix(Spec, Options);
  for (size_t W = 0; W != Spec.Workloads.size(); ++W)
    for (size_t A = 0; A != Spec.Allocators.size(); ++A)
      for (size_t P = 0; P != Spec.PenaltiesCycles.size(); ++P) {
        const CellOutcome &Cell = Store.at(W, A, P);
        EXPECT_EQ(Cell.Result.TotalRefs,
                  static_cast<uint64_t>(Spec.Workloads[W]) * 10000 +
                      static_cast<uint64_t>(Spec.Allocators[A]) * 100 +
                      Spec.PenaltiesCycles[P]);
      }
}

TEST(MatrixRunnerTest, FailedCellIsAttributedAndOthersComplete) {
  MatrixSpec Spec = smallSpec();
  MatrixOptions Options;
  Options.Jobs = 8;
  Options.CellRunnerEx = [](const ExperimentConfig &Config,
                            TelemetrySnapshot &) -> RunResult {
    if (Config.Workload == WorkloadId::Make &&
        Config.Allocator == AllocatorKind::QuickFit &&
        Config.MissPenaltyCycles == 100)
      throw std::runtime_error("injected cell failure");
    RunResult Result;
    Result.TotalRefs = 1;
    return Result;
  };
  ResultStore Store = runMatrix(Spec, Options);
  EXPECT_EQ(Store.failedCount(), 1u);

  size_t FailedSeen = 0;
  for (size_t I = 0; I != Store.size(); ++I) {
    const CellOutcome &Cell = Store.cell(I);
    if (!Cell.Ok) {
      ++FailedSeen;
      // The error is attributed to the right cell.
      EXPECT_EQ(Cell.Workload, WorkloadId::Make);
      EXPECT_EQ(Cell.Allocator, AllocatorKind::QuickFit);
      EXPECT_EQ(Cell.PenaltyCycles, 100u);
      EXPECT_EQ(Cell.Error, "injected cell failure");
    } else {
      EXPECT_EQ(Cell.Result.TotalRefs, 1u);
      EXPECT_TRUE(Cell.Error.empty());
    }
  }
  EXPECT_EQ(FailedSeen, 1u);

  // The failed cell still serializes (with its error) instead of breaking
  // the export.
  std::ostringstream Json;
  Store.writeJson(Json);
  EXPECT_NE(Json.str().find("injected cell failure"), std::string::npos);
}

TEST(MatrixRunnerTest, FailedCellPreservesPartialTelemetry) {
  // Regression: a cell whose runner dies mid-run used to lose everything it
  // had measured. The runner seam now hands the worker a snapshot it can
  // fill before throwing, and the quarantine record keeps it.
  MatrixSpec Spec = smallSpec();
  MatrixOptions Options;
  Options.Jobs = 8;
  Options.CellRunnerEx = [](const ExperimentConfig &Config,
                            TelemetrySnapshot &Partial) -> RunResult {
    if (Config.Workload == WorkloadId::Make &&
        Config.Allocator == AllocatorKind::QuickFit &&
        Config.MissPenaltyCycles == 100) {
      Partial.Counters["alloc.malloc.calls"] = 4242;
      Partial.Counters["fault.oom.sbrk_denied"] = 7;
      throw std::runtime_error("worker crashed mid-run");
    }
    RunResult Result;
    Result.TotalRefs = 1;
    return Result;
  };
  ResultStore Store = runMatrix(Spec, Options);
  EXPECT_EQ(Store.failedCount(), 1u);

  for (size_t I = 0; I != Store.size(); ++I) {
    const CellOutcome &Cell = Store.cell(I);
    if (!Cell.Ok) {
      // The partial counters survived the crash.
      EXPECT_EQ(Cell.PartialTelemetry.counterValue("alloc.malloc.calls"),
                4242u);
      EXPECT_EQ(Cell.PartialTelemetry.counterValue("fault.oom.sbrk_denied"),
                7u);
      EXPECT_EQ(Cell.Error, "worker crashed mid-run");
    } else {
      EXPECT_TRUE(Cell.PartialTelemetry.empty());
    }
  }

  // ... and they serialize: the telemetry export emits the partial snapshot
  // for the failed cell instead of an empty object.
  std::ostringstream Json;
  Store.writeTelemetryJson(Json);
  EXPECT_NE(Json.str().find("\"alloc.malloc.calls\": 4242"),
            std::string::npos);
}

TEST(MatrixRunnerTest, WorkerFaultsExhaustRetriesIntoQuarantine) {
  // cell:rate=1.0 kills every attempt of every cell: each cell burns
  // 1 + retry:limit attempts, records one error per attempt, and lands in
  // quarantine with the last attempt's error.
  MatrixSpec Spec = smallSpec();
  DiagEngine Diags;
  Spec.Base.Inject = parseFaultPlan("cell:rate=1.0;retry:limit=2;seed=7",
                                    Diags);
  ASSERT_EQ(Diags.errorCount(), 0u);
  ASSERT_TRUE(Spec.Base.Inject.enabled());

  MatrixOptions Options;
  Options.Jobs = 4;
  Options.CellRunnerEx = [](const ExperimentConfig &, TelemetrySnapshot &) {
    return RunResult();
  };
  ResultStore Store = runMatrix(Spec, Options);
  EXPECT_EQ(Store.failedCount(), Store.size());
  for (size_t I = 0; I != Store.size(); ++I) {
    const CellOutcome &Cell = Store.cell(I);
    EXPECT_EQ(Cell.Attempts, 3u);
    ASSERT_EQ(Cell.AttemptErrors.size(), 3u);
    for (size_t A = 0; A != 3; ++A)
      EXPECT_EQ(Cell.AttemptErrors[A], "injected worker fault (attempt " +
                                           std::to_string(A + 1) + ")");
    EXPECT_EQ(Cell.Error, Cell.AttemptErrors.back());
  }

  // The quarantine section is first-class in the matrix JSON.
  std::ostringstream Json;
  Store.writeJson(Json);
  EXPECT_NE(Json.str().find("\"faults\""), std::string::npos);
  EXPECT_NE(Json.str().find("\"quarantine\""), std::string::npos);
}

TEST(MatrixRunnerTest, RetryOutcomesAreIdenticalAtAnyJobCount) {
  // A 50% worker-fault rate makes some cells retry and some quarantine.
  // Which ones is fixed by the per-cell fault seed at expansion, so the
  // complete retry history must be bit-identical at --jobs=1 and --jobs=8.
  MatrixSpec Spec = smallSpec();
  DiagEngine Diags;
  Spec.Base.Inject = parseFaultPlan("cell:rate=0.5;retry:limit=1;seed=99",
                                    Diags);
  ASSERT_EQ(Diags.errorCount(), 0u);

  MatrixOptions Serial, Parallel;
  Serial.Jobs = 1;
  Parallel.Jobs = 8;
  Serial.CellRunnerEx = Parallel.CellRunnerEx =
      [](const ExperimentConfig &, TelemetrySnapshot &) { return RunResult(); };
  ResultStore A = runMatrix(Spec, Serial);
  ResultStore B = runMatrix(Spec, Parallel);
  ASSERT_EQ(A.size(), B.size());

  size_t Retried = 0, Quarantined = 0;
  for (size_t I = 0; I != A.size(); ++I) {
    const CellOutcome &CA = A.cell(I);
    const CellOutcome &CB = B.cell(I);
    EXPECT_EQ(CA.Ok, CB.Ok);
    EXPECT_EQ(CA.Attempts, CB.Attempts);
    EXPECT_EQ(CA.AttemptErrors, CB.AttemptErrors);
    EXPECT_EQ(CA.Error, CB.Error);
    if (CA.Ok && CA.Attempts > 1)
      ++Retried;
    if (!CA.Ok)
      ++Quarantined;
    if (CA.Ok) {
      EXPECT_EQ(CA.AttemptErrors.size(), CA.Attempts - 1);
    }
  }
  // The 50% dice at this seed must actually exercise both paths; if this
  // ever fires the seed constant changed, not the scheduler.
  EXPECT_GT(Retried + Quarantined, 0u);
}

TEST(MatrixRunnerTest, NoPlanMeansNoFaultMachinery) {
  // Without --inject the retry loop collapses to one attempt and the JSON
  // carries no faults section — the bit-exactness guarantee for plan-free
  // runs rests on this.
  MatrixSpec Spec = smallSpec();
  ASSERT_FALSE(Spec.Base.Inject.enabled());
  MatrixOptions Options;
  Options.Jobs = 2;
  Options.CellRunnerEx = [](const ExperimentConfig &, TelemetrySnapshot &) {
    return RunResult();
  };
  ResultStore Store = runMatrix(Spec, Options);
  for (size_t I = 0; I != Store.size(); ++I) {
    EXPECT_EQ(Store.cell(I).Attempts, 1u);
    EXPECT_TRUE(Store.cell(I).AttemptErrors.empty());
  }
  std::ostringstream Json;
  Store.writeJson(Json);
  EXPECT_EQ(Json.str().find("\"faults\""), std::string::npos);
}

TEST(MatrixRunnerTest, InvalidGeometryFailsValidationNotTheProcess) {
  MatrixSpec Spec = smallSpec();
  Spec.Caches.push_back(CacheConfig{3000, 32, 1}); // not a power of two
  MatrixOptions Options;
  Options.Jobs = 2;
  bool RunnerCalled = false;
  Options.CellRunnerEx = [&RunnerCalled](const ExperimentConfig &,
                                         TelemetrySnapshot &) {
    RunnerCalled = true;
    return RunResult();
  };
  ResultStore Store = runMatrix(Spec, Options);
  EXPECT_EQ(Store.failedCount(), Store.size());
  EXPECT_FALSE(RunnerCalled) << "validation must reject before running";
  for (size_t I = 0; I != Store.size(); ++I)
    EXPECT_NE(Store.cell(I).Error.find("invalid cache geometry"),
              std::string::npos);
}

TEST(MatrixRunnerTest, ProgressReportingCoversEveryCell) {
  MatrixSpec Spec = smallSpec();
  MatrixOptions Options;
  Options.Jobs = 8;
  Options.CellRunnerEx = [](const ExperimentConfig &, TelemetrySnapshot &) {
    return RunResult();
  };
  size_t Calls = 0, LastCompleted = 0;
  Options.Progress = [&](const MatrixProgress &Progress) {
    // The callback is serialized, so Completed must be strictly
    // monotonically increasing.
    EXPECT_EQ(Progress.Completed, LastCompleted + 1);
    EXPECT_EQ(Progress.Total, 12u);
    LastCompleted = Progress.Completed;
    ++Calls;
  };
  runMatrix(Spec, Options);
  EXPECT_EQ(Calls, 12u);
  EXPECT_EQ(LastCompleted, 12u);
}

TEST(MatrixRunnerTest, ParseMatrixSpecRoundTrip) {
  MatrixSpec Spec;
  std::string Error;
  ASSERT_TRUE(parseMatrixSpec(
      "workloads=gs,espresso;allocators=FirstFit,BSD,QuickFit;"
      "caches=16,64:32:2;paging=512,1024;penalty=25,100",
      Spec, Error))
      << Error;
  ASSERT_EQ(Spec.Workloads.size(), 2u);
  EXPECT_EQ(Spec.Workloads[0], WorkloadId::Gs);
  EXPECT_EQ(Spec.Workloads[1], WorkloadId::Espresso);
  ASSERT_EQ(Spec.Allocators.size(), 3u);
  EXPECT_EQ(Spec.Allocators[1], AllocatorKind::Bsd);
  ASSERT_EQ(Spec.Caches.size(), 2u);
  EXPECT_EQ(Spec.Caches[0].SizeBytes, 16u * 1024);
  EXPECT_EQ(Spec.Caches[1].Assoc, 2u);
  ASSERT_EQ(Spec.PagingMemoryKb.size(), 2u);
  EXPECT_EQ(Spec.PagingMemoryKb[1], 1024u);
  ASSERT_EQ(Spec.PenaltiesCycles.size(), 2u);
  EXPECT_EQ(Spec.PenaltiesCycles[1], 100u);
  EXPECT_EQ(Spec.cellCount(), 12u);
}

TEST(MatrixRunnerTest, ParseMatrixSpecDiagnostics) {
  MatrixSpec Spec;
  std::string Error;

  EXPECT_FALSE(parseMatrixSpec("allocators=FirstFit", Spec, Error));
  EXPECT_NE(Error.find("at least one workload"), std::string::npos);

  EXPECT_FALSE(parseMatrixSpec("workloads=gs", Spec, Error));
  EXPECT_NE(Error.find("at least one allocator"), std::string::npos);

  EXPECT_FALSE(parseMatrixSpec("workloads=gs;allocators=NotAnAllocator",
                               Spec, Error));
  EXPECT_NE(Error.find("NotAnAllocator"), std::string::npos);

  EXPECT_FALSE(parseMatrixSpec("workloads=quake;allocators=BSD", Spec,
                               Error));
  EXPECT_NE(Error.find("quake"), std::string::npos);

  EXPECT_FALSE(parseMatrixSpec("workloads=gs;allocators=BSD;", Spec, Error));
  EXPECT_NE(Error.find("empty axis"), std::string::npos);

  EXPECT_FALSE(
      parseMatrixSpec("workloads=gs;allocators=BSD;planets=mars", Spec,
                      Error));
  EXPECT_NE(Error.find("unknown matrix axis"), std::string::npos);

  EXPECT_FALSE(parseMatrixSpec("workloads=gs;allocators=BSD;caches=16,,64",
                               Spec, Error));
  EXPECT_NE(Error.find("empty item"), std::string::npos);

  EXPECT_FALSE(parseMatrixSpec("workloads=gs;allocators=BSD;caches=17",
                               Spec, Error));
  EXPECT_NE(Error.find("invalid cache geometry"), std::string::npos);
}

TEST(MatrixRunnerTest, ParseMatrixSpecEngineAxis) {
  // The cache engine is no axis: the caches axis picks it from the
  // geometry, so engine= is an unknown axis like any other.
  MatrixSpec Spec;
  DiagEngine Diags;
  EXPECT_FALSE(parseMatrixSpec(
      "workloads=gs;allocators=BSD;caches=16;engine=stackdist", Spec, Diags));
  ASSERT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.diags().front().Rule, "spec-unknown-axis");
  EXPECT_EQ(Diags.diags().front().Loc.Column, 39u);
}

TEST(MatrixRunnerTest, ParsedStackFamilyRunsOnTheStackEngine) {
  // A parsed stack-legal family with an associative member runs on the
  // one-pass engine, and what the store writes is what the per-config
  // engine would have written.
  MatrixSpec Stack;
  std::string Error;
  ASSERT_TRUE(parseMatrixSpec("workloads=gs-small;allocators=FirstFit,BSD;"
                              "caches=16,32:32:2,64:32:4",
                              Stack, Error))
      << Error;
  EXPECT_EQ(Stack.Base.CacheEngine, CacheEngineKind::StackDist);
  Stack.Base.Engine.Scale = 512;
  MatrixSpec PerCfg = Stack;
  PerCfg.Base.CacheEngine = CacheEngineKind::PerConfig;

  ResultStore StackStore = runMatrix(Stack, {});
  ResultStore PerCfgStore = runMatrix(PerCfg, {});
  ASSERT_EQ(StackStore.failedCount(), 0u);
  std::ostringstream StackJson, PerCfgJson, StackCsv, PerCfgCsv;
  StackStore.writeJson(StackJson);
  PerCfgStore.writeJson(PerCfgJson);
  StackStore.writeCsv(StackCsv);
  PerCfgStore.writeCsv(PerCfgCsv);
  EXPECT_EQ(StackJson.str(), PerCfgJson.str());
  EXPECT_EQ(StackCsv.str(), PerCfgCsv.str());

  // The paper's direct-mapped sweep keeps the per-config engine.
  MatrixSpec Paper;
  ASSERT_TRUE(parseMatrixSpec(
      "workloads=gs;allocators=BSD;caches=16,32,64,128,256", Paper, Error))
      << Error;
  EXPECT_EQ(Paper.Base.CacheEngine, CacheEngineKind::PerConfig);
}

TEST(MatrixRunnerTest, DegenerateCellConfigsFailGracefully) {
  // Duplicate geometries and stack-illegal families must surface as
  // recorded cell errors (the cache layer would abort), leaving the rest
  // of the matrix intact.
  MatrixSpec Spec;
  Spec.Workloads = {WorkloadId::Espresso};
  Spec.Allocators = {AllocatorKind::FirstFit};
  Spec.Base.Engine.Scale = 512;
  Spec.Caches = {{16 * 1024, 32, 1}, {16 * 1024, 32, 1}};
  ResultStore Dup = runMatrix(Spec, {});
  EXPECT_FALSE(Dup.at(0, 0, 0).Ok);
  EXPECT_NE(Dup.at(0, 0, 0).Error.find("duplicate cache geometry"),
            std::string::npos);

  // paperCacheSweep varies the set count, which the stack engine cannot
  // serve from one pass per set.
  Spec.Caches = paperCacheSweep();
  Spec.Base.CacheEngine = CacheEngineKind::StackDist;
  ResultStore Stack = runMatrix(Spec, {});
  EXPECT_FALSE(Stack.at(0, 0, 0).Ok);
  EXPECT_NE(Stack.at(0, 0, 0).Error.find("stack-distance engine"),
            std::string::npos);

  // The same family is fine under the per-config engine.
  Spec.Base.CacheEngine = CacheEngineKind::PerConfig;
  ResultStore PerCfg = runMatrix(Spec, {});
  EXPECT_TRUE(PerCfg.at(0, 0, 0).Ok) << PerCfg.at(0, 0, 0).Error;
}
