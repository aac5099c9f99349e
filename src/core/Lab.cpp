//===- core/Lab.cpp - Experiment orchestration ----------------------------===//

#include "core/Lab.h"

#include "alloc/CustomAlloc.h"
#include "alloc/GnuLocal.h"
#include "cache/StackSim.h"
#include "inject/FaultInjector.h"
#include "vm/PageSim.h"
#include "workload/Driver.h"

#include <functional>
#include <memory>

using namespace allocsim;

namespace {

/// \p SizeProfile is only invoked for AllocatorKind::Custom without explicit
/// classes — lazily, because computing a request profile costs a full pass
/// over the workload's request sequence (or the script's events).
std::unique_ptr<Allocator>
buildAllocator(const ExperimentConfig &Config, SimHeap &Heap, CostModel &Cost,
               const std::function<Histogram()> &SizeProfile) {
  if (Config.Allocator == AllocatorKind::Custom) {
    if (Config.CustomClasses)
      return std::make_unique<CustomAlloc>(Heap, Cost,
                                           *Config.CustomClasses);
    // Synthesize size classes from this workload's own request profile —
    // the CustoMalloc flow the paper's conclusions advocate.
    SizeClassMap Classes = SizeClassMap::fromProfile(
        SizeProfile(), Config.CustomExactClasses, Config.CustomMaxFastBytes);
    return std::make_unique<CustomAlloc>(Heap, Cost, std::move(Classes));
  }
  if (Config.Allocator == AllocatorKind::GnuLocal)
    return std::make_unique<GnuLocal>(Heap, Cost,
                                      Config.EmulateBoundaryTags);
  if (Config.Allocator == AllocatorKind::FirstFit)
    return std::make_unique<FirstFit>(Heap, Cost,
                                      Config.FirstFitDiscipline);
  return createAllocator(Config.Allocator, Heap, Cost);
}

/// The shared rig: builds the bus/cache/paging/heap/allocator/driver stack,
/// lets \p Feed push an event stream through the driver, and harvests the
/// RunResult. runExperiment feeds from a WorkloadEngine, runScriptExperiment
/// from a parsed event script — everything downstream of the event source is
/// identical by construction.
RunResult runWithDriver(const ExperimentConfig &Config, double InstrPerRef,
                        const std::function<Histogram()> &SizeProfile,
                        const std::function<void(Driver &)> &Feed,
                        TelemetrySnapshot *PartialOnError = nullptr,
                        const std::vector<AccessSink *> &Observers = {}) {
  // One registry per run: no locks, no sharing. Null when telemetry is off,
  // which leaves every probe pointer below null as well.
  std::unique_ptr<Telemetry> Telem;
  if (Config.Telemetry != TelemetryLevel::Off)
    Telem = std::make_unique<Telemetry>(Config.Telemetry);

  MemoryBus Bus;
  if (Config.BatchedDelivery)
    Bus.setBatchCapacity(AccessBatch::MaxCapacity);

  // Cache engine selection: PerConfig builds one CacheSim per geometry in
  // a CacheBank; StackDist simulates the whole family in one stack-distance
  // pass. Exactly one of the two is attached; every number harvested below
  // is bit-identical between them (the engine-equivalence suite holds both
  // to that).
  CacheBank Caches;
  std::unique_ptr<StackSim> Stack;
  if (!Config.Caches.empty() &&
      Config.CacheEngine == CacheEngineKind::StackDist)
    Stack = std::make_unique<StackSim>(Config.Caches);
  for (const CacheConfig &CacheConf : Config.Caches)
    if (!Stack)
      Caches.addCache(CacheConf);
  if (Stack)
    Bus.attach(Stack.get());
  else if (!Caches.empty())
    Bus.attach(&Caches);
  // Per-set conflict profiles are histogram-grade data, so only the full
  // level pays for the per-set counter arrays.
  if (Telem && Telem->level() == TelemetryLevel::Full) {
    if (Stack)
      Stack->enableSetProfile();
    for (size_t I = 0; I != Caches.size(); ++I)
      Caches.cache(I).enableSetProfile();
  }

  std::unique_ptr<PageSim> Paging;
  if (!Config.PagingMemoryKb.empty()) {
    Paging = std::make_unique<PageSim>(Config.PageBytes);
    Paging->attachTelemetry(Telem.get());
    Bus.attach(Paging.get());
  }
  for (AccessSink *Observer : Observers)
    Bus.attach(Observer);

  SimHeap Heap(Bus);
  Heap.attachTelemetry(Telem.get());
  CostModel Cost;
  std::unique_ptr<Allocator> Alloc =
      buildAllocator(Config, Heap, Cost, SizeProfile);
  Alloc->attachTelemetry(Telem.get());

  std::unique_ptr<HeapCheck> Check;
  if (Config.Check.Level != CheckLevel::Off) {
    // Under a corruption plan injected damage must be recorded, not fatal:
    // the detector-efficacy contract is "the checker reports it", and an
    // abort would also kill the graceful-degradation path.
    CheckPolicy CheckPol = Config.Check;
    if (Config.Inject.corruptionEnabled())
      CheckPol.AbortOnViolation = false;
    Check = std::make_unique<HeapCheck>(CheckPol, Heap, Bus);
    Check->attachAllocator(*Alloc);
  }

  // The injector interposes after the checker so its observer tee forwards
  // allocator state notes to the real shadow (when one exists) while its
  // private shadow stays current at every check level.
  std::unique_ptr<FaultInjector> Inj;
  if (Config.Inject.corruptionEnabled()) {
    Inj = std::make_unique<FaultInjector>(Config.Inject, Heap);
    Inj->attachAllocator(*Alloc, Check ? &Check->shadow() : nullptr);
  }

  // The soft capacity limit starts counting after the allocator's static
  // area: "oom:after=N" means N heap bytes of growth room from here on.
  if (Config.Inject.oomEnabled())
    Heap.setSoftLimit(static_cast<uint64_t>(Heap.heapBytes()) +
                      Config.Inject.OomAfterBytes);

  Driver Drive(*Alloc, Bus, Cost, InstrPerRef);
  Drive.setHeapCheck(Check.get());
  Drive.setFaultInjector(Inj.get());
  Drive.attachTelemetry(Telem.get());
  if (PartialOnError) {
    try {
      Feed(Drive);
    } catch (...) {
      // Quarantine support: hand the caller whatever telemetry the run
      // accumulated before dying, then let the failure propagate.
      if (Telem)
        *PartialOnError = Telem->snapshot();
      throw;
    }
  } else {
    Feed(Drive);
  }
  // End-of-run flush point: every sink has consumed the complete stream
  // before statistics are read or the final invariant walk runs.
  Bus.flush();
  if (Check)
    Check->finalCheck();

  RunResult Result;
  Result.AppInstructions = Cost.appInstructions();
  Result.AllocInstructions = Cost.allocInstructions();
  Result.TotalRefs = Bus.totalAccesses();
  Result.AppRefs = Bus.accessesFrom(AccessSource::Application);
  Result.AllocRefs = Bus.accessesFrom(AccessSource::Allocator);
  Result.TagRefs = Bus.accessesFrom(AccessSource::TagEmulation);
  Result.Alloc = Alloc->stats();
  Result.HeapBytes = Alloc->heapBytes();
  Result.BlocksSearched = Alloc->blocksSearched();

  const size_t NumCaches = Stack ? Stack->size() : Caches.size();
  for (size_t I = 0; I != NumCaches; ++I) {
    const CacheConfig &CacheConf =
        Stack ? Stack->config(I) : Caches.cache(I).config();
    const CacheStats Stats = Stack ? Stack->statsFor(I)
                                   : Caches.cache(I).stats();
    TimeEstimate Time;
    Time.Instructions = Cost.totalInstructions();
    Time.DataRefs = Bus.totalAccesses();
    Time.MissRate = Stats.missRate();
    Time.MissPenalty = Config.MissPenaltyCycles;
    Result.Caches.push_back({CacheConf, Stats, Time});
  }

  if (Paging) {
    Result.DistinctPages = Paging->distinctPages();
    for (uint32_t MemoryKb : Config.PagingMemoryKb)
      Result.Paging.push_back(
          {MemoryKb, Paging->faultRateForMemoryKb(MemoryKb)});
  }

  if (Check) {
    Result.CheckViolations = Check->violationCount();
    Result.CheckWalks = Check->walksRun();
    for (const CheckViolation &V : Check->violations())
      Result.CheckReports.push_back(V.message());
  }

  if (Config.Inject.enabled()) {
    Result.SbrkDenied = Heap.sbrkDenied();
    Result.DroppedEvents = Drive.droppedEvents();
    if (Inj) {
      Result.Faults = Inj->records();
      Result.FaultsInjected = Inj->injectedTotal();
      Result.FaultsDetected = Inj->detectedTotal();
    }
    // fault.* probes exist only under a plan, so plan-free telemetry
    // snapshots stay byte-identical to builds without FaultLab.
    if (Telem) {
      Telem->counter("fault.oom.sbrk_denied")->add(Heap.sbrkDenied());
      Telem->counter("fault.oom.failed_mallocs")
          ->add(Alloc->stats().FailedMallocs);
      Telem->counter("fault.oom.dropped_events")->add(Drive.droppedEvents());
      if (Inj)
        for (FaultKind Kind : {FaultKind::Flip, FaultKind::Smash}) {
          std::string Name = faultKindName(Kind);
          uint64_t Injected = Inj->injected(Kind);
          uint64_t Detected = Inj->detected(Kind);
          Telem->counter("fault.injected." + Name)->add(Injected);
          Telem->counter("fault.detected." + Name)->add(Detected);
          Telem->counter("fault.undetected." + Name)
              ->add(Injected - Detected);
        }
    }
  }

  if (Telem) {
    if (Paging)
      Paging->flushRunTelemetry();
    if (Stack) {
      // Stack-engine probes: how one pass served the whole family. The
      // counters ride at summary level; the reuse-distance distribution is
      // histogram-grade and waits for full.
      Telem->counter("cache.stackdist.frames")->add(Stack->totalFrames());
      Telem->counter("cache.stackdist.cold")->add(Stack->coldMisses());
      Telem->counter("cache.stackdist.members")->add(Stack->size());
      if (Telem->level() == TelemetryLevel::Full) {
        TelemetryHistogram *Dist =
            Telem->histogram("cache.stackdist.distance");
        const std::vector<uint64_t> Totals = Stack->distanceTotals();
        for (size_t D = 0; D != Totals.size(); ++D)
          Dist->record(D, Totals[D]);
      }
    }
    if (Telem->level() == TelemetryLevel::Full) {
      // Fold each cache's per-set miss counts into a conflict histogram:
      // one record per set, valued at that set's miss count. A heavy tail
      // here is the figure-6-to-8 conflict story in distribution form.
      // Both engines surface the same cache.<I>.set_misses names with the
      // same counts.
      for (size_t I = 0; I != NumCaches; ++I) {
        const std::vector<uint64_t> &Profile =
            Stack ? Stack->setMissProfile(I)
                  : Caches.cache(I).setMissProfile();
        if (Profile.empty())
          continue;
        TelemetryHistogram *Hist = Telem->histogram(
            "cache." + std::to_string(I) + ".set_misses");
        for (uint64_t Misses : Profile)
          Hist->record(Misses);
      }
    }
    Result.Telemetry = Telem->snapshot();
  }
  return Result;
}

} // namespace

RunResult allocsim::runExperiment(const ExperimentConfig &Config,
                                  TelemetrySnapshot *PartialOnError,
                                  const std::vector<AccessSink *> &Observers) {
  const AppProfile &Profile = getProfile(Config.Workload);
  WorkloadEngine Engine(Profile, Config.Engine);
  return runWithDriver(
      Config, Profile.instrPerRef(),
      [&Engine] { return Engine.sizeProfile(); },
      [&Engine](Driver &Drive) {
        Engine.generate([&](const AllocEvent &Event) { Drive.execute(Event); });
      },
      PartialOnError, Observers);
}

RunResult
allocsim::runScriptExperiment(const ExperimentConfig &Config,
                              const std::vector<AllocEvent> &Events) {
  const AppProfile &Profile = getProfile(Config.Workload);
  return runWithDriver(
      Config, Profile.instrPerRef(),
      [&Events] {
        Histogram Sizes;
        for (const AllocEvent &Event : Events)
          if (Event.Kind == AllocEventKind::Malloc)
            Sizes.add(Event.Amount);
        return Sizes;
      },
      [&Events](Driver &Drive) {
        for (const AllocEvent &Event : Events)
          Drive.execute(Event);
      });
}
