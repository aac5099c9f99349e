//===- conform/Metamorphic.h - Metamorphic invariant suite ------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Metamorphic testing for the simulator: instead of pinning outputs to
/// known values, each property transforms an experiment in a way that
/// provably must not change (or can only improve) the measurement, runs
/// both versions, and diagnoses any divergence. These catch whole classes
/// of bugs golden files cannot — a scheduler that leaks completion order
/// into results, a cache that violates LRU inclusion, an allocator whose
/// placement depends on object-id *values* rather than request order.
///
/// Properties (each reported under its own stable rule id):
///
///  * conform-meta-jobs: the full golden serialization and the merged
///    telemetry of a matrix are bit-identical at --jobs=1 and --jobs=N.
///  * conform-meta-split: splitting a matrix along the allocator axis into
///    two sub-matrices and merging yields every cell bit-identical to the
///    unsplit run, including the folded telemetry (allocator-axis splits
///    leave per-cell seeds untouched; workload-axis splits would not).
///  * conform-meta-permute: permuting the allocator axis permutes the cells
///    and changes nothing else.
///  * conform-meta-assoc: growing a cache from (S sets, k-way) to (S sets,
///    2k-way) under LRU never increases misses on any trace (the inclusion
///    property, Mattson et al. 1970) — asserted with sets held fixed, i.e.
///    size and associativity doubled together; checked both on a 512-set
///    chain and on a fully-associative one (a single set, Assoc ==
///    numBlocks), where inclusion is the pure stack property.
///  * conform-meta-engine: switching the cache sweep engine from per-config
///    simulation (CacheBank) to the one-pass stack-distance engine
///    (StackSim) on a stack-legal family leaves every cell measurement
///    bit-identical. Run with telemetry off: the stack engine adds its own
///    probes (cache.stackdist.*), so measurements must agree while the
///    probe inventories legitimately differ.
///  * conform-meta-relabel: renaming every object id through a bijection
///    leaves a scripted run's reference stream and miss counts unchanged —
///    allocation is driven by request order and sizes, never by the names.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_CONFORM_METAMORPHIC_H
#define ALLOCSIM_CONFORM_METAMORPHIC_H

#include "support/Diag.h"

#include <cstdint>

namespace allocsim {

/// Knobs for the metamorphic suite. The defaults match the committed
/// conformance configuration; tests shrink Scale to run in milliseconds.
struct MetamorphicOptions {
  /// Workload scale divisor handed to EngineOptions.
  uint32_t Scale = 64;
  /// Base engine seed.
  uint64_t Seed = 1592932958ULL;
  /// Worker count for every matrix run (0 = all hardware threads), except
  /// the jobs property's second run: 8 workers when this count is 1, else
  /// 1.
  unsigned Jobs = 1;
};

/// Runs every metamorphic property across all five paper allocators,
/// reporting violations into \p Diags (rules conform-meta-*). Returns the
/// number of elementary equalities/inequalities checked.
size_t runMetamorphicSuite(const MetamorphicOptions &Options,
                           DiagEngine &Diags);

} // namespace allocsim

#endif // ALLOCSIM_CONFORM_METAMORPHIC_H
