//===- perfbench/Layers.h - Host-time attribution per layer -----*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced side of the benchmark. Host time is attributed to allocsim's
/// modules (workload, alloc, mem, cache, vm, check, trace, core) from
/// outside the program: runCell() reassembles one experiment from the same
/// public classes core/Lab.cpp wires, and times the calls it makes into
/// them. Nothing inside src/ is instrumented.
///
/// Spans are chained: every clock read closes the interval since the
/// previous one and charges it to one layer, minus the sink time delivered
/// inside it (sinks are timed by TimedSink wrappers, so a layer's share is
/// its self time). Consecutive spans leave no gap, so the unattributed
/// share of a cell is only what runs outside any span.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_PERFBENCH_LAYERS_H
#define ALLOCSIM_PERFBENCH_LAYERS_H

#include "core/Lab.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace allocsim::perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The timed AccessSink wrappers, one per sink role.
enum SinkId : unsigned {
  DmSweep,    ///< CacheBank over paperCacheSweep() (paper cells).
  StackDist,  ///< StackSim over stackCacheSweep() (trace replay).
  Single16k,  ///< CacheBank holding the lone 16K direct-mapped cache.
  Vm,         ///< PageSim.
  TraceWrite, ///< BinaryTraceWriter during trace capture.
  NumSinks
};

struct SinkTotals {
  uint64_t Ns = 0;
  uint64_t Refs = 0;
  uint64_t Batches = 0;
};

struct AllocTotals {
  uint64_t Ns = 0;
  uint64_t Ops = 0;
  uint64_t Mallocs = 0;
  uint64_t Searched = 0;
  uint64_t Refs = 0;
};

/// Number of AllocatorKind values (FirstFit .. SpaceFit).
constexpr size_t NumAllocatorKinds = 9;

/// Host time (ns) and work counts per layer, summed over traced cells.
struct LayerTotals {
  uint64_t CellNs = 0;
  /// Rig assembly and result harvest (what runExperiment does around the
  /// event loop).
  uint64_t CoreNs = 0;
  uint64_t SynthNs = 0;
  uint64_t Events = 0;
  /// Driver::execute on touches, bus staging included.
  uint64_t DriverNs = 0;
  std::array<AllocTotals, NumAllocatorKinds> Alloc{};
  uint64_t CheckNs = 0;
  uint64_t CheckOps = 0;
  uint64_t CheckWalks = 0;
  uint64_t CheckViolations = 0;
  std::array<SinkTotals, NumSinks> Sinks{};
  /// replayTrace self time (BinaryTraceReader decoding + batching).
  uint64_t ReadNs = 0;
  uint64_t ReadRefs = 0;
  uint64_t TraceBytes = 0;
  uint64_t BusRefs = 0;
  uint64_t BusApp = 0;
  uint64_t BusAlloc = 0;
  uint64_t BusTag = 0;
  uint64_t VmRefs = 0;
  uint64_t VmZeroDistance = 0;
  uint64_t VmDistinctPages = 0;

  void merge(const LayerTotals &Other);
  /// Time covered by some layer span.
  uint64_t attributedNs() const;
};

/// Times every delivery into \p Inner. \p Nested accumulates the same time
/// so the enclosing span can subtract it.
class TimedSink final : public AccessSink {
public:
  TimedSink(AccessSink &Wrapped, SinkTotals &Into, uint64_t &NestedNs)
      : Inner(Wrapped), Totals(Into), Nested(NestedNs) {}

  void access(const MemAccess &Access) override { accessBatch(&Access, 1); }

  void accessBatch(const MemAccess *Batch, size_t Count) override {
    const uint64_t Start = nowNs();
    Inner.accessBatch(Batch, Count);
    const uint64_t Elapsed = nowNs() - Start;
    Totals.Ns += Elapsed;
    Totals.Refs += Count;
    ++Totals.Batches;
    Nested += Elapsed;
  }

private:
  AccessSink &Inner;
  SinkTotals &Totals;
  uint64_t &Nested;
};

/// Chained spans: mark() charges the time since the previous mark, minus
/// the sink time nested in it, to one layer.
class SpanChain {
public:
  SpanChain() : Start(nowNs()), Last(Start) {}

  void mark(uint64_t &LayerNs) {
    const uint64_t Now = nowNs();
    LayerNs += (Now - Last) - (Nested - NestedAtLast);
    Last = Now;
    NestedAtLast = Nested;
  }

  /// Wall time since construction, up to the last mark.
  uint64_t elapsedNs() const { return Last - Start; }

  /// Handed to TimedSink wrappers.
  uint64_t &nested() { return Nested; }

private:
  uint64_t Start;
  uint64_t Last;
  uint64_t Nested = 0;
  uint64_t NestedAtLast = 0;
};

/// One traced or untraced cell run: rebuilds runExperiment's rig for the
/// subset of ExperimentConfig the benchmark uses (per-config caches,
/// paging, heap checking; no telemetry, no fault plan — those throw).
/// With \p Totals null nothing is timed and the event loop is the plain
/// generate-into-execute loop. \p Tap, when set, is attached to the bus
/// after the caches and pager (trace capture); with \p Totals set it is
/// timed as SinkId TraceWrite. Results are bit-identical to
/// runExperiment(Config).
RunResult runCell(const ExperimentConfig &Config, LayerTotals *Totals,
                  AccessSink *Tap = nullptr);

/// The per-layer metrics derived from traced totals, by name with unit.
struct LayerMetric {
  std::string Name;
  std::string Unit;
  double Value = 0;
};

/// Pass-level facts the layer metrics also need (from the same run).
struct PassFacts {
  /// Median traced and untraced pass wall time (s).
  double TracedPassS = 0;
  double UntracedPassS = 0;
  uint64_t TracedPasses = 0;
  /// Traced cells' wall time as seen by the caller, around each cell.
  uint64_t TracedCellNs = 0;
  /// From the untraced passes' per-cell spans (medians over passes).
  double WorkerBusyFrac = 0;
  double TailS = 0;
  double CellSMax = 0;
};

/// Every per-layer metric, in BENCHMARK.json order. A layer a workload
/// does not exercise reports 0. \p Capture holds the trace-capture spans
/// (trace-replay set-up); counts are per pass.
std::vector<LayerMetric> layerMetrics(const LayerTotals &Passes,
                                      const LayerTotals &Capture,
                                      const PassFacts &Facts);

} // namespace allocsim::perfbench

#endif // ALLOCSIM_PERFBENCH_LAYERS_H
