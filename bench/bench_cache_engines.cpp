//===- bench/bench_cache_engines.cpp - Per-config vs stack-distance -------===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// Measures cache-simulation throughput (refs/sec delivered into the sink)
// of the per-config engine (CacheBank: one simulator per geometry) against
// the one-pass stack-distance engine (StackSim) on the same pre-captured
// reference stream, for five sweep shapes:
//
//   fig678     the Figure 6-8 family: 16K..256K at 512 sets (5 members)
//   dense      every power-of-two size 2K..256K at 64 sets (8 members) —
//              the "much denser sweeps" the stack engine enables
//   pair       16K direct-mapped + 32K 2-way at 512 sets (2 members): the
//              smallest family chooseCacheEngine sends to the stack engine
//   single4w   a lone 64K 4-way cache (1 member): one associative cache,
//              also served by the stack engine
//   single16k  the paper's lone 16K config (1 member; one pass over one
//              direct-mapped cache has nothing to amortize, so it is the
//              row chooseCacheEngine keeps per-config)
//
// The stream is captured once (gs-small under FirstFit, the experiment hot
// path's own reference mix) and replayed in AccessBatch-sized chunks, so
// the timed region is pure sink work — exactly what the engine choice
// changes. After every measurement the two engines' statistics are
// compared member by member, total and by source; any difference is fatal,
// making each bench run an equivalence check at production scale.
//
// Emits JSON (schema allocsim-bench-engines-v1) for the cache-engines CI
// job. The committed baseline (BENCH_cache_engines.json) is compared by
// tools/check_perf_baseline.py on the speedup ratios — stackdist over
// percfg on the same machine and run — plus per-config "min_speedup"
// absolute floors (the >= 5x multi-config claim). To refresh after an
// intentional engine change:
//
//   build/bench/bench_cache_engines --out BENCH_cache_engines.json
//
// then restore the min_speedup keys and commit (see DESIGN.md section 17).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "cache/StackSim.h"
#include "mem/AccessBatch.h"
#include "support/Error.h"

#include <chrono>
#include <fstream>
#include <iostream>
#include <vector>

using namespace allocsim;

namespace {

/// Records the full stream of bus records (word runs kept whole, as the
/// sinks receive them) for later replay.
class StreamRecorder final : public AccessSink {
public:
  void access(const MemAccess &Acc) override { Stream.push_back(Acc); }
  void accessBatch(const MemAccess *Batch, size_t Count) override {
    Stream.insert(Stream.end(), Batch, Batch + Count);
  }
  std::vector<MemAccess> Stream;
};

/// One sweep shape under test.
struct EngineConfig {
  std::string Name;
  std::vector<CacheConfig> Family;
};

/// One percfg-vs-stackdist measurement.
struct Measurement {
  std::string Name;
  uint64_t Refs = 0;
  double PercfgRefsPerSec = 0;
  double StackdistRefsPerSec = 0;
  double speedup() const {
    return PercfgRefsPerSec > 0 ? StackdistRefsPerSec / PercfgRefsPerSec : 0;
  }
};

/// Captures the gs-small/FirstFit reference stream once; both engines
/// replay exactly these records.
std::vector<MemAccess> captureStream(const BenchOptions &Options) {
  ExperimentConfig Config = baseConfig(WorkloadId::GsSmall, Options);
  Config.Allocator = AllocatorKind::FirstFit;
  StreamRecorder Recorder;
  runExperiment(Config, nullptr, {&Recorder});
  return std::move(Recorder.Stream);
}

/// Delivers the stream to \p Sink in AccessBatch-sized chunks and returns
/// the wall seconds of the sink work alone.
double replayInto(AccessSink &Sink, const std::vector<MemAccess> &Stream) {
  auto Start = std::chrono::steady_clock::now();
  size_t Offset = 0;
  while (Offset != Stream.size()) {
    size_t Count = std::min(AccessBatch::MaxCapacity, Stream.size() - Offset);
    Sink.accessBatch(Stream.data() + Offset, Count);
    Offset += Count;
  }
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count();
}

/// Asserts bit-exact agreement between the two engines' statistics for
/// every family member, total and by source.
void checkAgreement(const CacheBank &Bank, const StackSim &Stack,
                    const std::string &Name) {
  for (size_t I = 0; I != Bank.size(); ++I) {
    const CacheStats &Per = Bank.cache(I).stats();
    const CacheStats Dist = Stack.statsFor(I);
    bool Equal = Per.Accesses == Dist.Accesses && Per.Misses == Dist.Misses;
    for (unsigned S = 0; S != NumAccessSources; ++S)
      Equal = Equal && Per.AccessesBySource[S] == Dist.AccessesBySource[S] &&
              Per.MissesBySource[S] == Dist.MissesBySource[S];
    if (!Equal)
      reportFatalError("engine disagreement on '" + Name + "' member " +
                       std::to_string(I) + " (" +
                       Bank.cache(I).config().describe() + "): percfg " +
                       std::to_string(Per.Misses) + "/" +
                       std::to_string(Per.Accesses) + " vs stackdist " +
                       std::to_string(Dist.Misses) + "/" +
                       std::to_string(Dist.Accesses));
  }
}

/// References the stream stands for: the sum of its records' run lengths.
uint64_t countRefs(const std::vector<MemAccess> &Stream) {
  uint64_t Refs = 0;
  for (const MemAccess &Record : Stream)
    Refs += Record.words();
  return Refs;
}

/// Best-of-N timing of both engines on the same stream, with the
/// equivalence assertion run on the first repetition's final state.
Measurement measure(const EngineConfig &Config,
                    const std::vector<MemAccess> &Stream, unsigned Reps) {
  Measurement Result;
  Result.Name = Config.Name;
  Result.Refs = countRefs(Stream);
  double PercfgBest = 0, StackdistBest = 0;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    CacheBank Bank;
    for (const CacheConfig &CacheConf : Config.Family)
      Bank.addCache(CacheConf);
    StackSim Stack(Config.Family);
    double PercfgSec = replayInto(Bank, Stream);
    double StackdistSec = replayInto(Stack, Stream);
    if (Rep == 0)
      checkAgreement(Bank, Stack, Config.Name);
    PercfgBest = std::max(PercfgBest, double(Result.Refs) / PercfgSec);
    StackdistBest =
        std::max(StackdistBest, double(Result.Refs) / StackdistSec);
  }
  Result.PercfgRefsPerSec = PercfgBest;
  Result.StackdistRefsPerSec = StackdistBest;
  return Result;
}

/// The dense family: 64 sets, 32B blocks, associativity 1..128 — every
/// power-of-two capacity from 2K to 256K out of one pass.
std::vector<CacheConfig> denseFamily() {
  std::vector<CacheConfig> Family;
  for (uint32_t Assoc = 1; Assoc <= 128; Assoc *= 2)
    Family.push_back(CacheConfig{64 * 32 * Assoc, 32, Assoc});
  return Family;
}

void writeJson(std::ostream &OS, const std::vector<Measurement> &Rows,
               bool Quick, const BenchOptions &Options) {
  OS << "{\n";
  OS << "  \"schema\": \"allocsim-bench-engines-v1\",\n";
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
                  "\"percfg_refs_per_sec\": %.0f, "
                  "\"stackdist_refs_per_sec\": %.0f, \"speedup\": %.3f}",
                  Row.Name.c_str(),
                  static_cast<unsigned long long>(Row.Refs),
                  Row.PercfgRefsPerSec, Row.StackdistRefsPerSec,
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
              "CI mode: fewer repetitions");
  Cli.addFlag("out", "",
              "write the JSON report here ('-' or empty = stdout only)");
  std::optional<BenchOptions> Options = parseBenchOptions(Argc, Argv, Cli);
  if (!Options)
    return 1;
  bool Quick = Cli.getBool("quick");
  unsigned Reps = Quick ? 2 : 4;

  printBanner("cache-engine throughput: per-config vs one-pass "
              "stack-distance on a captured stream (gs-small, FirstFit)",
              *Options);

  const std::vector<MemAccess> Stream = captureStream(*Options);
  const EngineConfig Configs[] = {
      {"fig678", stackCacheSweep()},
      {"dense", denseFamily()},
      {"single16k", {CacheConfig{16 * 1024, 32, 1}}},
      {"pair", {CacheConfig{16 * 1024, 32, 1}, CacheConfig{32 * 1024, 32, 2}}},
      {"single4w", {CacheConfig{64 * 1024, 32, 4}}},
  };

  std::vector<Measurement> Rows;
  for (const EngineConfig &Config : Configs)
    Rows.push_back(measure(Config, Stream, Reps));

  Table Out({"config", "refs(M)", "percfg Mref/s", "stackdist Mref/s",
             "speedup"});
  for (const Measurement &Row : Rows) {
    Out.beginRow();
    Out.cell(Row.Name);
    Out.num(double(Row.Refs) / 1e6, 1);
    Out.num(Row.PercfgRefsPerSec / 1e6, 1);
    Out.num(Row.StackdistRefsPerSec / 1e6, 1);
    Out.num(Row.speedup(), 2);
  }
  renderTable(Out, *Options);

  std::string OutPath = Cli.getString("out");
  if (!OutPath.empty() && OutPath != "-") {
    std::ofstream File(OutPath);
    if (!File) {
      std::cerr << "bench_cache_engines: cannot write '" << OutPath << "'\n";
      return 1;
    }
    writeJson(File, Rows, Quick, *Options);
  } else {
    writeJson(std::cout, Rows, Quick, *Options);
  }
  return 0;
}
