//===- perfbench/perfbench.cpp - allocsim's end-to-end benchmark ----------===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
//
// Runs one workload (paper, churn-check or trace-replay) as a closed loop of
// passes for --seconds, checks every pass's simulated results, and prints
// the metrics; the last stdout line is one JSON object. --trace 0 reports
// the end-to-end metrics, --trace 1 alternates untraced and traced passes
// and reports host time per layer (Layers.h). See perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "cache/StackSim.h"
#include "core/MatrixRunner.h"
#include "support/CommandLine.h"
#include "trace/RefTrace.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <iterator>
#include <map>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

using namespace allocsim;
using namespace allocsim::perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Workload definitions
//===----------------------------------------------------------------------===//

/// Union of the Figure 2 (gs) and Figure 3 (ptc) memory sizes, in KB.
const std::vector<uint32_t> PaperPagingKb = {128,  256,  512,  768,  1024,
                                             1536, 2048, 2560, 3072, 3584,
                                             4096, 5120, 6144, 8192};

/// The paper's artifact cells: 5 workloads x 5 allocators, each observing
/// the Figure 6-8 direct-mapped sweep and the Figure 2/3 pager.
MatrixSpec paperSpec(uint64_t Seed) {
  MatrixSpec Spec;
  Spec.Workloads.assign(std::begin(PaperWorkloads), std::end(PaperWorkloads));
  Spec.Allocators.assign(std::begin(PaperAllocators),
                         std::end(PaperAllocators));
  Spec.Caches = paperCacheSweep();
  Spec.PagingMemoryKb = PaperPagingKb;
  Spec.Base.Engine.Scale = 64;
  Spec.Base.Engine.Seed = Seed;
  return Spec;
}

/// Small-object churn under full heap checking: cfrac and gawk against all
/// nine allocators, no caches, no pager. Violations are recorded, not
/// fatal, so they count as failed operations.
MatrixSpec churnSpec(uint64_t Seed) {
  MatrixSpec Spec;
  Spec.Workloads = {WorkloadId::Cfrac, WorkloadId::Gawk};
  for (size_t K = 0; K != NumAllocatorKinds; ++K)
    Spec.Allocators.push_back(static_cast<AllocatorKind>(K));
  Spec.Base.Engine.Scale = 8;
  Spec.Base.Engine.Seed = Seed;
  Spec.Base.Check.Level = CheckLevel::Full;
  Spec.Base.Check.AbortOnViolation = false;
  return Spec;
}

/// Execution-driven cells whose reference streams trace-replay captures.
struct CaptureCell {
  WorkloadId Workload;
  AllocatorKind Allocator;
  uint32_t Scale;
};
const CaptureCell CaptureCells[] = {
    {WorkloadId::Espresso, AllocatorKind::FirstFit, 128},
    {WorkloadId::Gawk, AllocatorKind::Bsd, 64},
    {WorkloadId::GsSmall, AllocatorKind::QuickFit, 64},
};

/// Set-ups timed per run; setup_s is their median. A matrix set-up takes
/// microseconds and a shared host's speed drifts over seconds, so rounds
/// of many set-ups are timed before every pass, after one discarded
/// warm-up round, and sample the same machine states the passes do.
constexpr int MatrixSetupRoundsPerPass = 8;
constexpr int MatrixSetupRepeats = 1000;
constexpr int CaptureSetupRounds = 3;

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

double seconds(uint64_t Ns) { return static_cast<double>(Ns) * 1e-9; }

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Linear-interpolated quantile (the "inclusive" method).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

/// FNV-1a, 64-bit.
class Digest {
public:
  void add(const std::string &Bytes) {
    for (unsigned char C : Bytes) {
      Hash ^= C;
      Hash *= 0x100000001b3ull;
    }
  }
  void add(uint64_t V) { add(std::to_string(V) + ";"); }
  uint64_t value() const { return Hash; }

private:
  uint64_t Hash = 0xcbf29ce484222325ull;
};

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

double peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

/// Read-only streambuf over a string, so replay reads the captured bytes
/// in place instead of copying them into an istringstream.
class ViewBuf : public std::streambuf {
public:
  explicit ViewBuf(const std::string &Bytes) {
    char *Begin = const_cast<char *>(Bytes.data());
    setg(Begin, Begin, Begin + Bytes.size());
  }
};

//===----------------------------------------------------------------------===//
// Pass bookkeeping
//===----------------------------------------------------------------------===//

struct CellSpan {
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint64_t Refs = 0;
  std::thread::id Worker;
};

struct PassRecord {
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint64_t Refs = 0;
  uint64_t Digest = 0;
  std::vector<CellSpan> Cells;
  /// Operations attempted inside the pass (cells, replay checks) and one
  /// message per failed one.
  uint64_t Attempted = 0;
  std::vector<std::string> Errors;

  double wallS() const { return seconds(EndNs - StartNs); }
};

/// What the worker pool did in one pass: busy share, tail, longest cell.
struct CoreFacts {
  double BusyFrac = 0;
  double TailS = 0;
  double CellSMax = 0;
};

CoreFacts coreFacts(const PassRecord &Pass, unsigned Jobs) {
  CoreFacts F;
  uint64_t Busy = 0;
  std::map<std::thread::id, uint64_t> LastEnd;
  for (const CellSpan &C : Pass.Cells) {
    Busy += C.EndNs - C.StartNs;
    F.CellSMax = std::max(F.CellSMax, seconds(C.EndNs - C.StartNs));
    uint64_t &End = LastEnd[C.Worker];
    End = std::max(End, C.EndNs);
  }
  const double Wall = static_cast<double>(Pass.EndNs - Pass.StartNs);
  F.BusyFrac = Wall == 0 ? 0.0 : static_cast<double>(Busy) / (Wall * Jobs);
  if (!LastEnd.empty()) {
    uint64_t FirstIdle = Pass.EndNs;
    for (const auto &Entry : LastEnd)
      FirstIdle = std::min(FirstIdle, Entry.second);
    // A worker that never got a cell was idle from the start.
    if (LastEnd.size() < Jobs)
      FirstIdle = Pass.StartNs;
    F.TailS = seconds(Pass.EndNs - FirstIdle);
  }
  return F;
}

//===----------------------------------------------------------------------===//
// Matrix workloads (paper, churn-check)
//===----------------------------------------------------------------------===//

uint64_t matrixDigest(const ResultStore &Store) {
  Digest D;
  std::ostringstream Golden;
  Store.writeGoldenJson(Golden);
  D.add(Golden.str());
  // The golden form omits fault rates (doubles); fold in the exact fault
  // counts they were derived from.
  for (size_t I = 0; I != Store.size(); ++I) {
    const CellOutcome &Cell = Store.cell(I);
    for (const PagingPoint &P : Cell.Result.Paging)
      D.add(static_cast<uint64_t>(std::llround(
          P.FaultsPerRef * static_cast<double>(Cell.Result.TotalRefs))));
  }
  return D.value();
}

/// One runMatrix call. Untraced, each cell is runExperiment unchanged,
/// timed through CellRunnerEx; traced, each cell is runCell with spans
/// merged into \p Traced.
PassRecord runMatrixPass(const MatrixSpec &Spec, unsigned Jobs,
                         LayerTotals *Traced) {
  PassRecord Pass;
  std::mutex Lock; // Guards Pass.Cells and *Traced.
  MatrixOptions Options;
  Options.Jobs = Jobs;
  Options.CellRunnerEx = [&](const ExperimentConfig &Config,
                             TelemetrySnapshot &Partial) {
    const uint64_t Start = nowNs();
    RunResult Result;
    LayerTotals Local;
    if (Traced)
      Result = runCell(Config, &Local);
    else
      Result = runExperiment(Config, &Partial);
    const uint64_t End = nowNs();
    std::lock_guard<std::mutex> Guard(Lock);
    Pass.Cells.push_back(
        {Start, End, Result.TotalRefs, std::this_thread::get_id()});
    if (Traced)
      Traced->merge(Local);
    return Result;
  };
  Pass.StartNs = nowNs();
  ResultStore Store = runMatrix(Spec, Options);
  Pass.EndNs = nowNs();

  for (size_t I = 0; I != Store.size(); ++I) {
    const CellOutcome &Cell = Store.cell(I);
    ++Pass.Attempted;
    std::string Where = std::string(workloadName(Cell.Workload)) + "/" +
                        allocatorKindName(Cell.Allocator);
    if (!Cell.Ok)
      Pass.Errors.push_back(Where + ": " + Cell.Error);
    else if (Cell.Result.CheckViolations != 0)
      Pass.Errors.push_back(Where + ": " +
                            std::to_string(Cell.Result.CheckViolations) +
                            " heap-check violations");
    Pass.Refs += Cell.Result.TotalRefs;
  }
  Pass.Digest = matrixDigest(Store);
  return Pass;
}

/// Times \p Rounds rounds of matrix set-up (building and expanding the
/// spec), appending each round's seconds per set-up to \p Out when set.
void timeMatrixSetup(MatrixSpec (*MakeSpec)(uint64_t), uint64_t Seed,
                     int Rounds, std::vector<double> *Out) {
  size_t Cells = 0;
  for (int Round = 0; Round != Rounds; ++Round) {
    const uint64_t Start = nowNs();
    for (int I = 0; I != MatrixSetupRepeats; ++I)
      Cells += expandMatrix(MakeSpec(Seed)).size();
    if (Out)
      Out->push_back(seconds(nowNs() - Start) / MatrixSetupRepeats);
  }
  if (Cells == 0)
    std::fprintf(stderr, "perfbench: empty matrix\n");
}

//===----------------------------------------------------------------------===//
// trace-replay
//===----------------------------------------------------------------------===//

struct CapturedTrace {
  std::string Name;
  std::string Bytes;
  uint64_t Written = 0;
  /// Per-config CacheBank results over stackCacheSweep(), recorded while
  /// the trace was written: the oracle every replay must reproduce.
  std::vector<CacheStats> Oracle;
};

std::vector<CapturedTrace> captureTraces(uint64_t Seed, LayerTotals *Traced) {
  std::vector<CapturedTrace> Traces;
  for (const CaptureCell &Cell : CaptureCells) {
    ExperimentConfig Config;
    Config.Workload = Cell.Workload;
    Config.Allocator = Cell.Allocator;
    Config.Engine.Scale = Cell.Scale;
    Config.Engine.Seed = Seed;
    Config.Caches = stackCacheSweep();
    std::ostringstream OS;
    BinaryTraceWriter Writer(OS);
    RunResult Result = runCell(Config, Traced, &Writer);
    CapturedTrace Trace;
    Trace.Name = std::string(workloadName(Cell.Workload)) + "/" +
                 allocatorKindName(Cell.Allocator);
    Trace.Bytes = std::move(OS).str();
    Trace.Written = Writer.written();
    for (const CacheResult &Cache : Result.Caches)
      Trace.Oracle.push_back(Cache.Stats);
    if (Traced)
      Traced->TraceBytes += Trace.Bytes.size();
    Traces.push_back(std::move(Trace));
  }
  return Traces;
}

bool sameStats(const CacheStats &A, const CacheStats &B) {
  return A.Accesses == B.Accesses && A.Misses == B.Misses &&
         A.AccessesBySource == B.AccessesBySource &&
         A.MissesBySource == B.MissesBySource;
}

void addStats(Digest &D, const CacheStats &S) {
  D.add(S.Accesses);
  D.add(S.Misses);
  for (uint64_t V : S.MissesBySource)
    D.add(V);
}

/// One cell: replay \p Trace into a fresh sink set, \p UseStack selecting
/// StackSim over stackCacheSweep() or the lone 16K direct-mapped CacheBank.
/// Returns the simulated stats, one per config.
std::vector<CacheStats> replayCell(const CapturedTrace &Trace, bool UseStack,
                                   LayerTotals *Traced, uint64_t &Replayed) {
  LayerTotals Scratch;
  LayerTotals &T = Traced ? *Traced : Scratch;
  SpanChain Chain;
  ViewBuf Buf(Trace.Bytes);
  std::istream IS(&Buf);
  BinaryTraceReader Reader(IS);
  std::vector<CacheStats> Stats;
  if (UseStack) {
    StackSim Sim(stackCacheSweep());
    TimedSink Tap(Sim, T.Sinks[StackDist], Chain.nested());
    Chain.mark(T.CoreNs);
    Replayed = Traced ? replayTrace(Reader, Tap) : replayTrace(Reader, Sim);
    Chain.mark(T.ReadNs);
    for (size_t I = 0; I != Sim.size(); ++I)
      Stats.push_back(Sim.statsFor(I));
  } else {
    CacheBank Bank;
    Bank.addCache(stackCacheSweep().front());
    TimedSink Tap(Bank, T.Sinks[Single16k], Chain.nested());
    Chain.mark(T.CoreNs);
    Replayed = Traced ? replayTrace(Reader, Tap) : replayTrace(Reader, Bank);
    Chain.mark(T.ReadNs);
    Stats.push_back(Bank.cache(0).stats());
  }
  Chain.mark(T.CoreNs);
  T.ReadRefs += Replayed;
  T.CellNs += Chain.elapsedNs();
  return Stats;
}

PassRecord runReplayPass(const std::vector<CapturedTrace> &Traces,
                         LayerTotals *Traced) {
  PassRecord Pass;
  Digest D;
  Pass.StartNs = nowNs();
  for (const CapturedTrace &Trace : Traces)
    for (bool UseStack : {true, false}) {
      const uint64_t Start = nowNs();
      uint64_t Replayed = 0;
      std::vector<CacheStats> Stats =
          replayCell(Trace, UseStack, Traced, Replayed);
      const uint64_t End = nowNs();
      Pass.Cells.push_back({Start, End, Replayed, std::this_thread::get_id()});
      Pass.Refs += Replayed;

      const std::string Where =
          Trace.Name + (UseStack ? " stackdist" : " single16k");
      ++Pass.Attempted;
      if (Replayed != Trace.Written)
        Pass.Errors.push_back(Where + ": replayed " +
                              std::to_string(Replayed) + " of " +
                              std::to_string(Trace.Written) + " records");
      for (size_t I = 0; I != Stats.size(); ++I) {
        ++Pass.Attempted;
        if (!sameStats(Stats[I], Trace.Oracle[I]))
          Pass.Errors.push_back(Where + ": config " + std::to_string(I) +
                                " differs from the per-config oracle");
      }
      D.add(Replayed);
      for (const CacheStats &S : Stats)
        addStats(D, S);
    }
  Pass.EndNs = nowNs();
  Pass.Digest = D.value();
  return Pass;
}

//===----------------------------------------------------------------------===//
// Run
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  std::string Unit;
  double Value;
  std::string Note;
};

class Run {
public:
  Run(std::string Name, uint64_t WorkloadSeed, double Seconds, bool Traced,
      std::string ExpectDigest)
      : Workload(std::move(Name)), Seed(WorkloadSeed),
        BudgetNs(Seconds * 1e9), Trace(Traced),
        Expect(std::move(ExpectDigest)) {
    // Trace replay is single-threaded; the matrices use min(4, nproc).
    const unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
    Jobs = Workload == "trace-replay" ? 1 : std::min(4u, Hw);
  }

  int main();

private:
  /// Runs one pass (traced when \p Traced is set) and folds its checks in.
  PassRecord pass(LayerTotals *Traced);
  /// Compares a pass digest with the pinned one (or the first seen).
  void checkDigest(uint64_t Value, const char *What);
  void fail(const std::string &Message) {
    ++Failed;
    std::fprintf(stderr, "perfbench: FAIL %s\n", Message.c_str());
  }
  void report(const std::vector<Metric> &Metrics);

  std::string Workload;
  uint64_t Seed;
  double BudgetNs;
  bool Trace;
  std::string Expect;
  unsigned Jobs = 1;

  MatrixSpec Spec;
  std::vector<CapturedTrace> Traces;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool HaveReference = false;
  uint64_t Reference = 0;
};

void Run::checkDigest(uint64_t Value, const char *What) {
  if (!HaveReference) {
    HaveReference = true;
    Reference = Value;
    if (Expect.empty()) {
      std::printf("digest %s (not pinned for seed %llu)\n",
                  hex(Value).c_str(), static_cast<unsigned long long>(Seed));
      return;
    }
    ++Attempted;
    std::printf("digest %s, pinned %s\n", hex(Value).c_str(), Expect.c_str());
    if (hex(Value) != Expect)
      fail(std::string(What) + " digest " + hex(Value) +
           " differs from the pinned " + Expect);
    return;
  }
  ++Attempted;
  if (Value != Reference)
    fail(std::string(What) + " digest " + hex(Value) + " differs from " +
         hex(Reference));
}

PassRecord Run::pass(LayerTotals *Traced) {
  PassRecord Pass = Workload == "trace-replay"
                        ? runReplayPass(Traces, Traced)
                        : runMatrixPass(Spec, Jobs, Traced);
  Attempted += Pass.Attempted;
  for (const std::string &Error : Pass.Errors)
    fail(Error);
  checkDigest(Pass.Digest, Traced ? "traced pass" : "pass");
  return Pass;
}

int Run::main() {
  std::vector<double> Setups;
  LayerTotals Capture;
  MatrixSpec (*MakeSpec)(uint64_t) = nullptr;
  if (Workload == "paper" || Workload == "churn-check") {
    MakeSpec = Workload == "paper" ? paperSpec : churnSpec;
    timeMatrixSetup(MakeSpec, Seed, 1, nullptr);
    Spec = MakeSpec(Seed);
  } else if (Workload == "trace-replay") {
    for (int I = 0; I != (Trace ? 1 : CaptureSetupRounds); ++I) {
      Traces.clear(); // Frees the previous capture before the next.
      const uint64_t Start = nowNs();
      Traces = captureTraces(Seed, Trace ? &Capture : nullptr);
      Setups.push_back(seconds(nowNs() - Start));
    }
    for (const CapturedTrace &T : Traces)
      std::printf("trace %s: %llu refs, %zu bytes\n", T.Name.c_str(),
                  static_cast<unsigned long long>(T.Written), T.Bytes.size());
  } else {
    std::fprintf(stderr,
                 "perfbench: unknown workload '%s' (expected paper, "
                 "churn-check or trace-replay)\n",
                 Workload.c_str());
    return 2;
  }

  std::vector<PassRecord> Untraced, TracedPasses;
  LayerTotals Totals;
  const uint64_t Begin = nowNs();
  for (;;) {
    const uint64_t RoundStart = nowNs();
    if (MakeSpec && !Trace)
      timeMatrixSetup(MakeSpec, Seed, MatrixSetupRoundsPerPass, &Setups);
    Untraced.push_back(pass(nullptr));
    if (Trace)
      TracedPasses.push_back(pass(&Totals));
    const uint64_t Now = nowNs();
    // Run another round only if ending after it lands nearer the budget
    // than stopping now: the round count is the budget over the round
    // time, rounded, so a pass time drifting by a few percent does not
    // flip it.
    if (static_cast<double>(Now - Begin) + 0.5 * (Now - RoundStart) >=
        BudgetNs)
      break;
  }

  std::printf("untraced pass wall (s):");
  for (const PassRecord &P : Untraced)
    std::printf(" %.3f", P.wallS());
  std::printf("\n");

  std::vector<Metric> Metrics;
  if (!Trace) {
    std::vector<double> PassRate, CellNsPerRef;
    for (const PassRecord &P : Untraced) {
      PassRate.push_back(static_cast<double>(P.Refs) / P.wallS());
      for (const CellSpan &C : P.Cells)
        if (C.Refs != 0)
          CellNsPerRef.push_back(static_cast<double>(C.EndNs - C.StartNs) /
                                 static_cast<double>(C.Refs));
    }
    const std::string Passes = std::to_string(Untraced.size()) + " passes";
    const std::string Samples = std::to_string(CellNsPerRef.size()) + " cells";
    Metrics = {
        {"refs_per_s", "refs/s", median(PassRate), "median of " + Passes},
        {"cell_ns_per_ref_p50", "ns/ref", quantile(CellNsPerRef, 0.5),
         Samples},
        {"cell_ns_per_ref_p90", "ns/ref", quantile(CellNsPerRef, 0.9),
         Samples},
        {"setup_s", "s", median(Setups),
         "median of " + std::to_string(Setups.size()) + " set-up rounds"},
        {"peak_rss_mb", "MiB", peakRssMb(), "getrusage"},
    };
  } else {
    PassFacts Facts;
    std::vector<double> TracedS, UntracedS, Busy, Tail, CellMax;
    for (const PassRecord &P : TracedPasses) {
      TracedS.push_back(P.wallS());
      for (const CellSpan &C : P.Cells)
        Facts.TracedCellNs += C.EndNs - C.StartNs;
    }
    for (const PassRecord &P : Untraced) {
      UntracedS.push_back(P.wallS());
      CoreFacts F = coreFacts(P, Jobs);
      Busy.push_back(F.BusyFrac);
      Tail.push_back(F.TailS);
      CellMax.push_back(F.CellSMax);
    }
    Facts.TracedPassS = median(TracedS);
    Facts.UntracedPassS = median(UntracedS);
    Facts.TracedPasses = TracedPasses.size();
    Facts.WorkerBusyFrac = median(Busy);
    Facts.TailS = median(Tail);
    Facts.CellSMax = median(CellMax);
    for (LayerMetric &M : layerMetrics(Totals, Capture, Facts))
      Metrics.push_back({M.Name, M.Unit, M.Value, ""});
  }
  report(Metrics);
  return Failed == 0 ? 0 : 1;
}

void Run::report(const std::vector<Metric> &Metrics) {
  const double FailFrac =
      Attempted == 0 ? 0.0
                     : static_cast<double>(Failed) /
                           static_cast<double>(Attempted);
  std::printf("workload %s, seed %llu, %u jobs, tracing %s\n",
              Workload.c_str(), static_cast<unsigned long long>(Seed), Jobs,
              Trace ? "on" : "off");
  for (const Metric &M : Metrics)
    std::printf("  %-36s %16.6g %-12s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());
  std::printf("  %-36s %16.6g %-12s %llu of %llu operations\n", "fail_frac",
              FailFrac, "ratio", static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted));

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I != Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(),
                std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0,
                Metrics[I].Unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine Cli;
  Cli.addFlag("workload", "paper", "paper, churn-check or trace-replay");
  Cli.addFlag("seed", "1592932958", "workload seed");
  Cli.addFlag("seconds", "30", "measurement budget per run");
  Cli.addFlag("trace", "0", "1 = per-layer traced run");
  Cli.addFlag("expect-digest", "",
              "pinned result digest (hex) the first pass must match");
  if (!Cli.parse(Argc, Argv))
    return 2;
  uint64_t Seed = 0;
  try {
    Seed = std::stoull(Cli.getString("seed"));
  } catch (const std::exception &) {
    std::fprintf(stderr, "perfbench: --seed expects an unsigned integer\n");
    return 2;
  }
  Run R(Cli.getString("workload"), Seed, Cli.getDouble("seconds"),
        Cli.getInt("trace") != 0, Cli.getString("expect-digest"));
  return R.main();
}
