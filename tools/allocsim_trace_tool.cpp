//===- tools/allocsim_trace_tool.cpp - Trace inspection and replay --------===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// Utility over the reference-trace formats:
//
//   allocsim_trace_tool stats <trace>          summarize a binary trace
//   allocsim_trace_tool dump <trace>           convert binary -> text (stdout)
//   allocsim_trace_tool pack <text> <trace>    convert text -> binary
//   allocsim_trace_tool sim <trace> [sizeKB..] replay into caches + paging
//
//===----------------------------------------------------------------------===//

#include "cache/CacheSim.h"
#include "mem/MemoryBus.h"
#include "support/Error.h"
#include "support/Table.h"
#include "trace/RefTrace.h"
#include "vm/PageSim.h"

#include <fstream>
#include <iostream>
#include <set>

using namespace allocsim;

namespace {

int usage() {
  std::cerr << "usage: allocsim_trace_tool stats|dump <trace>\n"
               "       allocsim_trace_tool pack <text-in> <trace-out>\n"
               "       allocsim_trace_tool sim <trace> [cacheKB ...]\n";
  return 1;
}

std::ifstream openBinary(const std::string &Path) {
  std::ifstream File(Path, std::ios::binary);
  if (!File)
    reportFatalError("cannot open trace file '" + Path + "'");
  return File;
}

/// Per-reference tallies for `stats`; runs reach access() word by word
/// through the default accessBatch.
class StatsSink final : public AccessSink {
public:
  uint64_t Reads = 0;
  uint64_t BySource[NumAccessSources] = {};
  Addr Low = ~Addr(0), High = 0;
  std::set<Addr> Pages;

  void access(const MemAccess &Access) override {
    Reads += Access.Kind == AccessKind::Read;
    ++BySource[unsigned(Access.Source)];
    Low = std::min(Low, Access.Address);
    High = std::max(High, Access.Address);
    Pages.insert(Access.Address >> 12);
  }
};

int runStats(const std::string &Path) {
  std::ifstream File = openBinary(Path);
  BinaryTraceReader Reader(File);
  StatsSink Stats;
  const uint64_t Total = replayTrace(Reader, Stats);
  if (Total == 0) {
    std::cout << "empty trace\n";
    return 0;
  }
  std::cout << "records:        " << Total << "\n"
            << "reads/writes:   " << Stats.Reads << " / "
            << (Total - Stats.Reads) << "\n"
            << "app refs:       "
            << Stats.BySource[unsigned(AccessSource::Application)] << "\n"
            << "allocator refs: "
            << Stats.BySource[unsigned(AccessSource::Allocator)] << "\n"
            << "tag refs:       "
            << Stats.BySource[unsigned(AccessSource::TagEmulation)] << "\n"
            << "address range:  " << std::hex << Stats.Low << "..."
            << Stats.High << std::dec << "\n"
            << "distinct pages: " << Stats.Pages.size() << " (4 KB)\n";
  return 0;
}

int runDump(const std::string &Path) {
  std::ifstream File = openBinary(Path);
  BinaryTraceReader Reader(File);
  TextTraceWriter Writer(std::cout);
  replayTrace(Reader, Writer);
  return 0;
}

int runPack(const std::string &TextPath, const std::string &OutPath) {
  std::ifstream TextFile(TextPath);
  if (!TextFile)
    reportFatalError("cannot open text trace '" + TextPath + "'");
  std::ofstream OutFile(OutPath, std::ios::binary);
  if (!OutFile)
    reportFatalError("cannot write '" + OutPath + "'");
  TextTraceReader Reader(TextFile);
  BinaryTraceWriter Writer(OutFile);
  uint64_t Count = replayTrace(Reader, Writer);
  std::cerr << "packed " << Count << " records\n";
  return 0;
}

int runSim(const std::string &Path, const std::vector<uint32_t> &SizesKb) {
  std::ifstream File = openBinary(Path);
  BinaryTraceReader Reader(File);

  CacheBank Bank;
  for (uint32_t SizeKb : SizesKb)
    Bank.addCache(CacheConfig{SizeKb * 1024, 32, 1});
  PageSim Paging;
  MemoryBus Bus;
  Bus.setBatchCapacity(AccessBatch::MaxCapacity);
  Bus.attach(&Bank);
  Bus.attach(&Paging);
  const uint64_t Total = replayTrace(Reader, Bus);
  Bus.flush();

  std::cout << "replayed " << Total << " references\n\n";
  Table Caches({"cache", "miss rate %"});
  for (size_t I = 0; I != Bank.size(); ++I) {
    Caches.beginRow();
    Caches.cell(Bank.cache(I).config().describe());
    Caches.num(100.0 * Bank.cache(I).stats().missRate(), 3);
  }
  Caches.renderText(std::cout);

  std::cout << "\n";
  Table Faults({"memory KB", "faults/ref"});
  for (uint64_t MemoryKb = 64;
       MemoryKb / 4 <= 2 * Paging.distinctPages(); MemoryKb *= 2) {
    Faults.beginRow();
    Faults.num(MemoryKb);
    char Buffer[32];
    std::snprintf(Buffer, sizeof(Buffer), "%.3e",
                  Paging.faultRateForMemoryKb(MemoryKb));
    Faults.cell(Buffer);
  }
  Faults.renderText(std::cout);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 3)
    return usage();
  std::string Command = Argv[1];
  if (Command == "stats")
    return runStats(Argv[2]);
  if (Command == "dump")
    return runDump(Argv[2]);
  if (Command == "pack") {
    if (Argc < 4)
      return usage();
    return runPack(Argv[2], Argv[3]);
  }
  if (Command == "sim") {
    std::vector<uint32_t> SizesKb;
    for (int I = 3; I < Argc; ++I)
      SizesKb.push_back(static_cast<uint32_t>(std::atoi(Argv[I])));
    if (SizesKb.empty())
      SizesKb = {16, 64, 256};
    return runSim(Argv[2], SizesKb);
  }
  return usage();
}
