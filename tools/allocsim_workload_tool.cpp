//===- tools/allocsim_workload_tool.cpp - Event-script generation/replay --===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
// Utility over the allocation-event script format (the allocator-agnostic
// record of a program's malloc/free/touch behaviour):
//
//   allocsim_workload_tool gen <workload> <script-out> [scale]
//       synthesize a workload and save its event script
//   allocsim_workload_tool check <script>
//       validate a script's well-formedness and summarize it
//   allocsim_workload_tool run <script> <allocator> [cacheKB...]
//       replay a script against an allocator and report miss rates; each
//       cache is a sizeKB[:blockBytes[:assoc]] spec as in allocsim_cli
//       --caches (default 16 64)
//
// Scripts let one captured behaviour be replayed against every allocator —
// the same control the paper got by tracing one execution per application.
//
//===----------------------------------------------------------------------===//

#include "core/Lab.h"
#include "core/MatrixRunner.h"
#include "support/Error.h"
#include "support/SpecParse.h"
#include "support/Table.h"
#include "trace/AllocEvents.h"

#include <fstream>
#include <iostream>

using namespace allocsim;

namespace {

/// Reports a bad argument; the tool exits 1 after it.
int argumentError(const std::string &Message) {
  std::cerr << "allocsim_workload_tool: error: " << Message << "\n";
  return 1;
}

int usage() {
  std::cerr
      << "usage: allocsim_workload_tool gen <workload> <script-out> [scale]\n"
         "       allocsim_workload_tool check <script>\n"
         "       allocsim_workload_tool run <script> <allocator> [KB...]\n";
  return 1;
}

/// Loads the script at \p Path into \p Events; false, after saying why,
/// if it does not validate.
bool loadScript(const std::string &Path, std::vector<AllocEvent> &Events) {
  std::ifstream File(Path);
  if (!File)
    reportFatalError("cannot open script '" + Path + "'");
  Events = readAllocEvents(File);
  std::string Why;
  if (validateAllocEvents(Events, &Why))
    return true;
  std::cerr << "INVALID: " << Why << "\n";
  return false;
}

int runGen(WorkloadId Workload, const std::string &OutPath, uint32_t Scale) {
  EngineOptions Options;
  Options.Scale = Scale;
  WorkloadEngine Engine(getProfile(Workload), Options);

  std::ofstream OutFile(OutPath);
  if (!OutFile)
    reportFatalError("cannot write '" + OutPath + "'");
  uint64_t Count = 0;
  Engine.generate([&](const AllocEvent &Event) {
    writeAllocEvents(OutFile, {Event});
    ++Count;
  });
  std::cerr << "wrote " << Count << " events ("
            << Engine.totalAllocations() << " allocations, scale 1/"
            << Engine.effectiveScale() << ") to " << OutPath << "\n";
  return 0;
}

int runCheck(const std::string &Path) {
  std::vector<AllocEvent> Events;
  if (!loadScript(Path, Events))
    return 1;
  uint64_t Mallocs = 0, Frees = 0, TouchWords = 0, StackWords = 0;
  uint64_t Bytes = 0;
  for (const AllocEvent &Event : Events) {
    switch (Event.Kind) {
    case AllocEventKind::Malloc:
      ++Mallocs;
      Bytes += Event.Amount;
      break;
    case AllocEventKind::Free:
      ++Frees;
      break;
    case AllocEventKind::Touch:
      TouchWords += Event.Amount;
      break;
    case AllocEventKind::StackTouch:
      StackWords += Event.Amount;
      break;
    }
  }
  std::cout << "valid script: " << Events.size() << " events\n"
            << "  mallocs:      " << Mallocs << " (" << Bytes << " bytes)\n"
            << "  frees:        " << Frees << "\n"
            << "  surviving:    " << Mallocs - Frees << "\n"
            << "  touch words:  " << TouchWords << "\n"
            << "  stack words:  " << StackWords << "\n";
  return 0;
}

/// Replays the script at \p Path through runScriptExperiment. The
/// instruction split uses the default workload profile's
/// instructions-per-reference ratio.
int runScript(const std::string &Path, const ExperimentConfig &Config) {
  std::vector<AllocEvent> Events;
  if (!loadScript(Path, Events))
    return 1;
  RunResult Result = runScriptExperiment(Config, Events);

  std::cout << "allocator " << allocatorKindName(Config.Allocator) << ": "
            << Result.Alloc.MallocCalls << " mallocs, heap "
            << Result.HeapBytes / 1024 << " KB, " << Result.TotalRefs
            << " refs, malloc+free "
            << formatDouble(100.0 * Result.allocInstrFraction(), 1)
            << "% of instructions\n\n";
  Table Out({"cache", "miss rate %"});
  for (const CacheResult &Cache : Result.Caches) {
    Out.beginRow();
    Out.cell(Cache.Config.describe());
    Out.num(100.0 * Cache.Stats.missRate(), 3);
  }
  Out.renderText(std::cout);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 3)
    return usage();
  std::string Command = Argv[1];
  if (Command == "gen") {
    if (Argc < 4)
      return usage();
    WorkloadId Workload = WorkloadId::Espresso;
    if (!tryParseWorkload(Argv[2], Workload))
      return argumentError(std::string("unknown workload '") + Argv[2] + "'");
    uint32_t Scale = 64;
    std::string Error;
    if (Argc > 4 && !parseSpecUnsigned(Argv[4], "scale", Scale, Error))
      return argumentError(Error);
    return runGen(Workload, Argv[3], Scale);
  }
  if (Command == "check")
    return runCheck(Argv[2]);
  if (Command == "run") {
    if (Argc < 4)
      return usage();
    MatrixSpec Spec;
    if (!tryParseAllocatorKind(Argv[3], Spec.Base.Allocator))
      return argumentError(std::string("unknown allocator '") + Argv[3] +
                           "'");
    // The cache list goes through the matrix grammar's caches axis, which
    // diagnoses bad and repeated geometries.
    std::string CacheList = Argc > 4 ? Argv[4] : "16,64";
    for (int I = 5; I < Argc; ++I)
      CacheList.append(",").append(Argv[I]);
    DiagEngine Diags;
    parseMatrixAxis("caches", CacheList, Spec, Diags);
    if (Diags.errorCount() != 0)
      return argumentError(Diags.firstError());
    Spec.Base.Caches = Spec.Caches;
    return runScript(Argv[2], Spec.Base);
  }
  return usage();
}
