//===- bench/bench_pipeline_throughput.cpp - Batched pipeline speed -------===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// Measures end-to-end reference-pipeline throughput (refs/sec: workload
// synthesis + allocator simulation + sink delivery, the whole experiment
// hot path) under scalar and batched delivery, for the sink configurations
// the paper's studies actually run:
//
//   multicache    the Figure 6-8 sweep: every paper cache geometry at once
//   cache+paging  one 16K cache plus the page-fault simulator (Fig 4/5 +
//                 Fig 2/3 shape)
//   paging        the page simulator alone (Figure 2-3)
//   trace         a binary trace writer to a discarding stream
//   bare          no sinks: counter-only upper bound on the event engine
//   replay        the captured binary trace of the same run replayed into
//                 the Figure 6-8 sweep: scalar is BinaryTraceReader::next()
//                 plus CacheBank::access() per reference, batched is
//                 replayTrace (bulk reads re-forming word runs); the trace
//                 is captured in memory outside the timed region
//
// Emits the summary as JSON (schema allocsim-bench-pipeline-v1) for the
// perf-smoke CI job. The committed baseline at the repo root
// (BENCH_pipeline.json) is compared by tools/check_perf_baseline.py on the
// *speedup ratios* — batched over scalar on the same machine and run —
// which is the hardware-independent signal; absolute refs/sec are recorded
// for human eyes only. To refresh the baseline after an intentional
// pipeline change:
//
//   build/bench/bench_pipeline_throughput --out BENCH_pipeline.json
//
// and commit the result (see DESIGN.md section 10).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Error.h"
#include "trace/RefTrace.h"

#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <vector>

using namespace allocsim;

namespace {

/// Discards everything written to it; lets the trace-writer configuration
/// measure serialization cost without filesystem noise.
class NullStreamBuf : public std::streambuf {
protected:
  int overflow(int Ch) override { return Ch; }
  std::streamsize xsputn(const char *, std::streamsize Count) override {
    return Count;
  }
};

/// Reads a captured trace in place, so replay measures decoding, not a copy.
class ViewStreamBuf : public std::streambuf {
public:
  explicit ViewStreamBuf(const std::string &Bytes) {
    char *Begin = const_cast<char *>(Bytes.data());
    setg(Begin, Begin, Begin + Bytes.size());
  }
};

/// One sink configuration under test.
struct PipelineConfig {
  std::string Name;
  std::vector<CacheConfig> Caches;
  std::vector<uint32_t> PagingMemoryKb;
  bool Trace = false;
};

/// One scalar-vs-batched measurement.
struct Measurement {
  std::string Name;
  uint64_t Refs = 0;
  double ScalarRefsPerSec = 0;
  double BatchedRefsPerSec = 0;
  double speedup() const {
    return ScalarRefsPerSec > 0 ? BatchedRefsPerSec / ScalarRefsPerSec : 0;
  }
};

/// Runs the full pipeline once through runExperiment and returns (refs,
/// seconds). The timed region is the whole call: everything an experiment's
/// hot loop does (event synthesis, allocator execution, reference emission,
/// sink delivery) plus the rig's set-up and harvest, which are small next to
/// it. A trace configuration writes to \p TraceOut when given, else
/// discards.
std::pair<uint64_t, double> runOnce(const PipelineConfig &Config,
                                    bool Batched,
                                    const BenchOptions &Options,
                                    std::ostream *TraceOut = nullptr) {
  ExperimentConfig Experiment = baseConfig(WorkloadId::GsSmall, Options);
  Experiment.Allocator = AllocatorKind::FirstFit;
  Experiment.BatchedDelivery = Batched;
  Experiment.Caches = Config.Caches;
  Experiment.PagingMemoryKb = Config.PagingMemoryKb;

  NullStreamBuf NullBuf;
  std::ostream NullStream(&NullBuf);
  std::optional<BinaryTraceWriter> Writer;
  std::vector<AccessSink *> Observers;
  if (Config.Trace)
    Observers.push_back(&Writer.emplace(TraceOut ? *TraceOut : NullStream));

  auto Start = std::chrono::steady_clock::now();
  RunResult Result = runExperiment(Experiment, nullptr, Observers);
  auto End = std::chrono::steady_clock::now();
  double Seconds = std::chrono::duration<double>(End - Start).count();
  return {Result.TotalRefs, Seconds};
}

/// Replays \p Trace into the Figure 6-8 sweep once and returns (refs,
/// seconds): reference by reference when scalar, else through replayTrace.
std::pair<uint64_t, double> replayOnce(const std::string &Trace,
                                       bool Batched) {
  CacheBank Caches;
  for (const CacheConfig &CacheConf : paperCacheSweep())
    Caches.addCache(CacheConf);
  ViewStreamBuf View(Trace);
  std::istream Stream(&View);
  auto Start = std::chrono::steady_clock::now();
  BinaryTraceReader Reader(Stream);
  uint64_t Refs = 0;
  if (Batched) {
    Refs = replayTrace(Reader, Caches);
  } else {
    MemAccess Access;
    for (; Reader.next(Access); ++Refs)
      Caches.access(Access);
  }
  auto End = std::chrono::steady_clock::now();
  return {Refs, std::chrono::duration<double>(End - Start).count()};
}

/// Best-of-N timing of \p Reps scalar-then-batched pairs, \p Run(Batched)
/// timing one pass: the minimum wall time is the least-noisy estimate of
/// the pipeline's actual cost.
template <typename RunFn>
Measurement measure(const std::string &Name, unsigned Reps, RunFn &&Run) {
  Measurement Result;
  Result.Name = Name;
  double ScalarBest = 0, BatchedBest = 0;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    auto [Refs, ScalarSec] = Run(/*Batched=*/false);
    auto [RefsB, BatchedSec] = Run(/*Batched=*/true);
    if (Refs != RefsB)
      reportFatalError("batched run emitted a different reference count");
    Result.Refs = Refs;
    double Scalar = double(Refs) / ScalarSec;
    double Batched = double(Refs) / BatchedSec;
    ScalarBest = std::max(ScalarBest, Scalar);
    BatchedBest = std::max(BatchedBest, Batched);
  }
  Result.ScalarRefsPerSec = ScalarBest;
  Result.BatchedRefsPerSec = BatchedBest;
  return Result;
}

void writeJson(std::ostream &OS, const std::vector<Measurement> &Rows,
               bool Quick, const BenchOptions &Options) {
  OS << "{\n";
  OS << "  \"schema\": \"allocsim-bench-pipeline-v1\",\n";
  OS << "  \"quick\": " << (Quick ? "true" : "false") << ",\n";
  OS << "  \"scale\": " << Options.Scale << ",\n";
  OS << "  \"seed\": " << Options.Seed << ",\n";
  OS << "  \"workload\": \"gs-small\",\n";
  OS << "  \"configs\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const Measurement &Row = Rows[I];
    char Buffer[256];
    std::snprintf(Buffer, sizeof(Buffer),
                  "    {\"name\": \"%s\", \"refs\": %llu, "
                  "\"scalar_refs_per_sec\": %.0f, "
                  "\"batched_refs_per_sec\": %.0f, \"speedup\": %.3f}",
                  Row.Name.c_str(),
                  static_cast<unsigned long long>(Row.Refs),
                  Row.ScalarRefsPerSec, Row.BatchedRefsPerSec,
                  Row.speedup());
    OS << Buffer << (I + 1 == Rows.size() ? "\n" : ",\n");
  }
  OS << "  ]\n";
  OS << "}\n";
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine Cli;
  Cli.addFlag("quick", "false",
              "CI mode: more repetitions for a steadier best-of-N");
  Cli.addFlag("out", "",
              "write the JSON report here ('-' or empty = stdout only)");
  std::optional<BenchOptions> Options = parseBenchOptions(Argc, Argv, Cli);
  if (!Options)
    return 1;
  bool Quick = Cli.getBool("quick");
  // The CI gate judges a single quick run, so quick runs take more
  // repetitions for a steadier best-of-N.
  unsigned Reps = Quick ? 6 : 4;

  printBanner("reference-pipeline throughput: scalar vs batched delivery "
              "(gs-small, FirstFit)",
              *Options);

  // A paging point attaches the pager; which point is immaterial here.
  const PipelineConfig Configs[] = {
      {"multicache", paperCacheSweep(), {}},
      {"cache+paging", {CacheConfig{16 * 1024, 32, 1}}, {1024}},
      {"paging", {}, {1024}},
      {"trace", {}, {}, /*Trace=*/true},
      {"bare", {}, {}},
  };

  std::vector<Measurement> Rows;
  for (const PipelineConfig &Config : Configs)
    Rows.push_back(measure(Config.Name, Reps, [&](bool Batched) {
      return runOnce(Config, Batched, *Options);
    }));

  std::ostringstream Capture(std::ios::binary);
  runOnce({"capture", {}, {}, /*Trace=*/true}, /*Batched=*/true, *Options,
          &Capture);
  const std::string Trace = std::move(Capture).str();
  Rows.push_back(measure("replay", Reps, [&](bool Batched) {
    return replayOnce(Trace, Batched);
  }));

  Table Out({"config", "refs(M)", "scalar Mref/s", "batched Mref/s",
             "speedup"});
  for (const Measurement &Row : Rows) {
    Out.beginRow();
    Out.cell(Row.Name);
    Out.num(double(Row.Refs) / 1e6, 1);
    Out.num(Row.ScalarRefsPerSec / 1e6, 1);
    Out.num(Row.BatchedRefsPerSec / 1e6, 1);
    Out.num(Row.speedup(), 2);
  }
  renderTable(Out, *Options);

  std::string OutPath = Cli.getString("out");
  if (!OutPath.empty() && OutPath != "-") {
    std::ofstream File(OutPath);
    if (!File) {
      std::cerr << "bench_pipeline_throughput: cannot write '" << OutPath
                << "'\n";
      return 1;
    }
    writeJson(File, Rows, Quick, *Options);
  } else {
    writeJson(std::cout, Rows, Quick, *Options);
  }
  return 0;
}
