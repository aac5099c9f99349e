//===- perfbench/Layers.cpp - Host-time attribution per layer -------------===//

#include "Layers.h"

#include "alloc/CustomAlloc.h"
#include "alloc/GnuLocal.h"
#include "vm/PageSim.h"
#include "workload/Driver.h"

#include <memory>
#include <optional>
#include <stdexcept>

using namespace allocsim;
using namespace allocsim::perfbench;

void LayerTotals::merge(const LayerTotals &O) {
  CellNs += O.CellNs;
  CoreNs += O.CoreNs;
  SynthNs += O.SynthNs;
  Events += O.Events;
  DriverNs += O.DriverNs;
  for (size_t K = 0; K != NumAllocatorKinds; ++K) {
    Alloc[K].Ns += O.Alloc[K].Ns;
    Alloc[K].Ops += O.Alloc[K].Ops;
    Alloc[K].Mallocs += O.Alloc[K].Mallocs;
    Alloc[K].Searched += O.Alloc[K].Searched;
    Alloc[K].Refs += O.Alloc[K].Refs;
  }
  CheckNs += O.CheckNs;
  CheckOps += O.CheckOps;
  CheckWalks += O.CheckWalks;
  CheckViolations += O.CheckViolations;
  for (size_t S = 0; S != NumSinks; ++S) {
    Sinks[S].Ns += O.Sinks[S].Ns;
    Sinks[S].Refs += O.Sinks[S].Refs;
    Sinks[S].Batches += O.Sinks[S].Batches;
  }
  ReadNs += O.ReadNs;
  ReadRefs += O.ReadRefs;
  TraceBytes += O.TraceBytes;
  BusRefs += O.BusRefs;
  BusApp += O.BusApp;
  BusAlloc += O.BusAlloc;
  BusTag += O.BusTag;
  VmRefs += O.VmRefs;
  VmZeroDistance += O.VmZeroDistance;
  VmDistinctPages += O.VmDistinctPages;
}

uint64_t LayerTotals::attributedNs() const {
  uint64_t Sum = CoreNs + SynthNs + DriverNs + CheckNs + ReadNs;
  for (const AllocTotals &A : Alloc)
    Sum += A.Ns;
  for (const SinkTotals &S : Sinks)
    Sum += S.Ns;
  return Sum;
}

namespace {

/// Metric-name key of an allocator kind ("firstfit", "gnugxx", ...).
const char *allocatorKey(AllocatorKind Kind) {
  switch (Kind) {
  case AllocatorKind::FirstFit:
    return "firstfit";
  case AllocatorKind::GnuGxx:
    return "gnugxx";
  case AllocatorKind::Bsd:
    return "bsd";
  case AllocatorKind::GnuLocal:
    return "gnulocal";
  case AllocatorKind::QuickFit:
    return "quickfit";
  case AllocatorKind::Custom:
    return "custom";
  case AllocatorKind::BestFit:
    return "bestfit";
  case AllocatorKind::BitmapFit:
    return "bitmapfit";
  case AllocatorKind::SpaceFit:
    return "spacefit";
  }
  return "unknown";
}

/// Mirrors buildAllocator in core/Lab.cpp.
std::unique_ptr<Allocator> buildAllocator(const ExperimentConfig &Config,
                                          const WorkloadEngine &Engine,
                                          SimHeap &Heap, CostModel &Cost) {
  if (Config.Allocator == AllocatorKind::Custom) {
    if (Config.CustomClasses)
      return std::make_unique<CustomAlloc>(Heap, Cost, *Config.CustomClasses);
    return std::make_unique<CustomAlloc>(
        Heap, Cost,
        SizeClassMap::fromProfile(Engine.sizeProfile(),
                                  Config.CustomExactClasses,
                                  Config.CustomMaxFastBytes));
  }
  if (Config.Allocator == AllocatorKind::GnuLocal)
    return std::make_unique<GnuLocal>(Heap, Cost, Config.EmulateBoundaryTags);
  if (Config.Allocator == AllocatorKind::FirstFit)
    return std::make_unique<FirstFit>(Heap, Cost, Config.FirstFitDiscipline);
  return createAllocator(Config.Allocator, Heap, Cost);
}

/// Events buffered per chunk in a traced cell. Touches are timed per chunk
/// (per run of touches between two allocator calls), never per event: a
/// clock read per event would inflate driver time by about a quarter.
constexpr size_t ChunkEvents = 4096;

} // namespace

RunResult perfbench::runCell(const ExperimentConfig &Config,
                             LayerTotals *Totals, AccessSink *Tap) {
  if (Config.Telemetry != TelemetryLevel::Off || Config.Inject.enabled() ||
      Config.CacheEngine != CacheEngineKind::PerConfig)
    throw std::invalid_argument(
        "perfbench rig: telemetry, fault plans and engine=stackdist are not "
        "reassembled");
  // Untraced runs still pass through a SpanChain; it costs a few clock
  // reads per cell.
  LayerTotals Scratch;
  LayerTotals &T = Totals ? *Totals : Scratch;
  SpanChain Chain;

  const AppProfile &Profile = getProfile(Config.Workload);
  WorkloadEngine Engine(Profile, Config.Engine);

  MemoryBus Bus;
  if (Config.BatchedDelivery)
    Bus.setBatchCapacity(AccessBatch::MaxCapacity);

  // The same attach order as runExperiment: caches, pager, then (inside
  // HeapCheck) the shadow sanitizer.
  CacheBank Caches;
  for (const CacheConfig &CacheConf : Config.Caches)
    Caches.addCache(CacheConf);
  TimedSink CacheTap(Caches, T.Sinks[DmSweep], Chain.nested());
  if (!Caches.empty())
    Bus.attach(Totals ? &CacheTap : static_cast<AccessSink *>(&Caches));

  std::optional<PageSim> Paging;
  std::optional<TimedSink> PageTap;
  if (!Config.PagingMemoryKb.empty()) {
    Paging.emplace(Config.PageBytes);
    PageTap.emplace(*Paging, T.Sinks[Vm], Chain.nested());
    Bus.attach(Totals ? &*PageTap : static_cast<AccessSink *>(&*Paging));
  }

  std::optional<TimedSink> WriterTap;
  if (Tap) {
    WriterTap.emplace(*Tap, T.Sinks[TraceWrite], Chain.nested());
    Bus.attach(Totals ? &*WriterTap : Tap);
  }

  SimHeap Heap(Bus);
  CostModel Cost;
  std::unique_ptr<Allocator> Alloc =
      buildAllocator(Config, Engine, Heap, Cost);
  std::unique_ptr<HeapCheck> Check;
  if (Config.Check.Level != CheckLevel::Off) {
    Check = std::make_unique<HeapCheck>(Config.Check, Heap, Bus);
    Check->attachAllocator(*Alloc);
  }
  Driver Drive(*Alloc, Bus, Cost, Profile.instrPerRef());
  Chain.mark(T.CoreNs);

  if (!Totals) {
    Drive.setHeapCheck(Check.get());
    Engine.generate([&](const AllocEvent &Event) { Drive.execute(Event); });
  } else {
    // Traced, the checker is not attached to the driver: RunAllocOp calls
    // it after every malloc/free exactly as Driver::execute would, so its
    // time separates from the allocator's.
    AllocTotals &AllocT = T.Alloc[static_cast<size_t>(Config.Allocator)];
    auto RunAllocOp = [&](const AllocEvent &Event) {
      Drive.execute(Event);
      if (!Check) {
        Chain.mark(AllocT.Ns);
        return;
      }
      Bus.flush();
      Chain.mark(AllocT.Ns);
      Check->onOperation();
      Chain.mark(T.CheckNs);
    };
    std::vector<AllocEvent> Chunk;
    Chunk.reserve(ChunkEvents);
    auto RunChunk = [&] {
      Chain.mark(T.SynthNs);
      for (const AllocEvent &Event : Chunk) {
        if (Event.Kind == AllocEventKind::Touch ||
            Event.Kind == AllocEventKind::StackTouch) {
          Drive.execute(Event);
          continue;
        }
        Chain.mark(T.DriverNs);
        RunAllocOp(Event);
      }
      Chain.mark(T.DriverNs);
      T.Events += Chunk.size();
      Chunk.clear();
    };
    Engine.generate([&](const AllocEvent &Event) {
      Chunk.push_back(Event);
      if (Chunk.size() == ChunkEvents)
        RunChunk();
    });
    RunChunk();
  }
  Bus.flush();
  Chain.mark(T.DriverNs);
  if (Check) {
    Check->finalCheck();
    Chain.mark(T.CheckNs);
  }

  // Harvest exactly the fields runExperiment fills for this config.
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
  for (size_t I = 0; I != Caches.size(); ++I) {
    const CacheStats Stats = Caches.cache(I).stats();
    TimeEstimate Time;
    Time.Instructions = Cost.totalInstructions();
    Time.DataRefs = Bus.totalAccesses();
    Time.MissRate = Stats.missRate();
    Time.MissPenalty = Config.MissPenaltyCycles;
    Result.Caches.push_back({Caches.cache(I).config(), Stats, Time});
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
  Chain.mark(T.CoreNs);

  T.CellNs += Chain.elapsedNs();
  AllocTotals &AllocT = T.Alloc[static_cast<size_t>(Config.Allocator)];
  AllocT.Ops += Result.Alloc.MallocCalls + Result.Alloc.FreeCalls;
  AllocT.Mallocs += Result.Alloc.MallocCalls;
  AllocT.Searched += Result.BlocksSearched;
  AllocT.Refs += Result.AllocRefs;
  T.CheckOps += Check ? Check->operations() : 0;
  T.CheckWalks += Result.CheckWalks;
  T.CheckViolations += Result.CheckViolations;
  T.BusRefs += Result.TotalRefs;
  T.BusApp += Result.AppRefs;
  T.BusAlloc += Result.AllocRefs;
  T.BusTag += Result.TagRefs;
  if (Paging) {
    T.VmRefs += Paging->references();
    T.VmZeroDistance += Paging->zeroDistanceHits();
    T.VmDistinctPages += Paging->distinctPages();
  }
  return Result;
}

namespace {

double ratio(double Num, double Den) { return Den == 0 ? 0.0 : Num / Den; }

} // namespace

std::vector<LayerMetric>
perfbench::layerMetrics(const LayerTotals &P, const LayerTotals &Capture,
                        const PassFacts &Facts) {
  std::vector<LayerMetric> Out;
  auto Add = [&Out](std::string Name, std::string Unit, double Value) {
    Out.push_back({std::move(Name), std::move(Unit), Value});
  };
  auto D = [](uint64_t V) { return static_cast<double>(V); };
  const double Passes = D(Facts.TracedPasses);

  Add("workload.synth.ns_per_event", "ns/event",
      ratio(D(P.SynthNs), D(P.Events)));
  Add("workload.events", "count", ratio(D(P.Events), Passes));
  Add("workload.driver.ns_per_app_ref", "ns/ref",
      ratio(D(P.DriverNs), D(P.BusApp)));

  for (size_t K = 0; K != NumAllocatorKinds; ++K) {
    const AllocTotals &A = P.Alloc[K];
    const std::string Prefix =
        std::string("alloc.") + allocatorKey(static_cast<AllocatorKind>(K));
    Add(Prefix + ".ns_per_op", "ns/op", ratio(D(A.Ns), D(A.Ops)));
    Add(Prefix + ".searched_per_malloc", "blocks/malloc",
        ratio(D(A.Searched), D(A.Mallocs)));
    Add(Prefix + ".refs_per_op", "refs/op", ratio(D(A.Refs), D(A.Ops)));
  }

  // Trace replay bypasses the bus; its bus counts are the capture's.
  const bool ReplayOnly = P.BusRefs == 0;
  const LayerTotals &Bus = ReplayOnly ? Capture : P;
  const double BusPasses = ReplayOnly ? 1.0 : Passes;
  Add("mem.refs", "count", ratio(D(Bus.BusRefs), BusPasses));
  Add("mem.refs.app", "count", ratio(D(Bus.BusApp), BusPasses));
  Add("mem.refs.alloc", "count", ratio(D(Bus.BusAlloc), BusPasses));
  Add("mem.refs.tag", "count", ratio(D(Bus.BusTag), BusPasses));
  uint64_t Delivered = 0, Deliveries = 0;
  for (unsigned S : {DmSweep, StackDist, Single16k, Vm}) {
    Delivered += P.Sinks[S].Refs;
    Deliveries += P.Sinks[S].Batches;
  }
  Add("mem.refs_per_delivery", "refs/batch",
      ratio(D(Delivered), D(Deliveries)));

  auto SinkNsPerRef = [&](SinkId S) {
    return ratio(D(P.Sinks[S].Ns), D(P.Sinks[S].Refs));
  };
  Add("cache.dm_sweep.ns_per_ref", "ns/ref", SinkNsPerRef(DmSweep));
  Add("cache.dm_sweep.busy_frac", "ratio",
      ratio(D(P.Sinks[DmSweep].Ns), D(P.CellNs)));
  Add("cache.stackdist.ns_per_ref", "ns/ref", SinkNsPerRef(StackDist));
  Add("cache.single16k.ns_per_ref", "ns/ref", SinkNsPerRef(Single16k));
  Add("vm.ns_per_ref", "ns/ref", SinkNsPerRef(Vm));
  Add("vm.busy_frac", "ratio", ratio(D(P.Sinks[Vm].Ns), D(P.CellNs)));
  Add("vm.non_mru_frac", "ratio",
      P.VmRefs == 0 ? 0.0 : 1.0 - ratio(D(P.VmZeroDistance), D(P.VmRefs)));
  Add("vm.distinct_pages", "count", ratio(D(P.VmDistinctPages), Passes));

  Add("check.ns_per_op", "ns/op", ratio(D(P.CheckNs), D(P.CheckOps)));
  Add("check.walks", "count", ratio(D(P.CheckWalks), Passes));
  Add("check.violations", "count", ratio(D(P.CheckViolations), Passes));

  Add("trace.read_ns_per_ref", "ns/ref", ratio(D(P.ReadNs), D(P.ReadRefs)));
  Add("trace.write_ns_per_ref", "ns/ref",
      ratio(D(Capture.Sinks[TraceWrite].Ns),
            D(Capture.Sinks[TraceWrite].Refs)));
  Add("trace.bytes_per_ref", "bytes/ref",
      ratio(D(Capture.TraceBytes), D(Capture.Sinks[TraceWrite].Refs)));

  Add("core.worker_busy_frac", "ratio", Facts.WorkerBusyFrac);
  Add("core.tail_s", "s", Facts.TailS);
  Add("core.cell_s_max", "s", Facts.CellSMax);

  Add("tracing.overhead_frac", "ratio",
      ratio(Facts.TracedPassS, Facts.UntracedPassS) - 1.0);
  Add("unattributed_frac", "ratio",
      1.0 - ratio(D(P.attributedNs()), D(Facts.TracedCellNs)));
  return Out;
}
