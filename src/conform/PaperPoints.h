//===- conform/PaperPoints.h - Published values from the paper --*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's published data points, shared by bench/bench_paper, which
/// prints them next to measured values, and by the conformance engine that
/// gates on the qualitative claims derived from them. One definition: the
/// bench that renders Table 4 and a conformance suite that asserts Table
/// 4's ordering must read the same transcription.
///
/// Numeric points: Tables 4 and 5 (total estimated execution seconds /
/// seconds waiting on cache misses, DECstation 5000/120), transcribed from
/// the scanned text. Entries the scan corrupted beyond recovery are recorded
/// as -1 and printed as "?".
///
/// Row order matches PaperAllocators (FirstFit, QuickFit, GnuG++, BSD,
/// GnuLocal); column order matches PaperWorkloads (espresso, gs, ptc, gawk,
/// make).
///
/// Qualitative claims (the shapes the conformance suites assert; section
/// references are to the paper):
///   * §4.1/Figs. 6-8: FIRSTFIT's miss rate is the highest at every cache
///     size; miss rate falls monotonically as the cache grows.
///   * §4.2/Tables 4-5: BSD is the fastest in estimated total time; GNU
///     Local's locality gain is cancelled by its CPU overhead.
///   * Fig. 1: BSD spends the smallest fraction of instructions in
///     malloc/free, GNU Local the largest.
///   * §3.3: sequential first fit searches many blocks per request; the
///     segregated allocators search none.
///   * Table 6: boundary-tag emulation adds tag references but costs little
///     total time.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_CONFORM_PAPERPOINTS_H
#define ALLOCSIM_CONFORM_PAPERPOINTS_H

namespace allocsim {

/// One Table 4/5 entry: estimated total execution seconds and the share of
/// them spent waiting on cache misses. Negative values mean the scan of the
/// paper corrupted the entry beyond recovery.
struct PaperTime {
  double TotalSeconds;
  double MissSeconds;

  bool known() const { return TotalSeconds >= 0; }
};

/// Table 4: 16-kilobyte direct-mapped cache.
inline constexpr PaperTime PaperTable4[5][5] = {
    // espresso        gs               ptc            gawk           make
    {{199.67, 43.01}, {113.13, 29.11}, {-1, -1},      {-1, -1},      {-1, -1}},
    {{192.16, 41.85}, {90.18, 12.22},  {24.84, 2.62}, {72.02, 12.12}, {3.57, 0.21}},
    {{188.14, 34.94}, {91.38, 15.09},  {25.50, 2.82}, {77.25, 14.87}, {3.70, 0.27}},
    {{184.80, 34.39}, {89.65, 14.65},  {24.93, 2.62}, {70.35, 10.14}, {3.55, 0.18}},
    {{213.07, 35.40}, {100.74, 16.44}, {25.36, 2.57}, {89.25, 13.84}, {3.67, 0.13}},
};

/// Table 5: 64-kilobyte direct-mapped cache.
inline constexpr PaperTime PaperTable5[5][5] = {
    {{164.74, 8.08},  {-1, -1},       {24.16, 1.21}, {79.18, 3.27}, {3.69, 0.14}},
    {{159.16, 8.85},  {81.29, 3.32},  {23.27, 1.04}, {61.83, 1.92}, {3.45, 0.08}},
    {{163.74, 10.55}, {82.96, 6.67},  {23.83, 1.16}, {65.20, 2.82}, {3.53, 0.09}},
    {{163.14, 12.72}, {78.95, 3.95},  {23.45, 1.15}, {62.40, 2.19}, {3.43, 0.06}},
    {{185.33, 7.67},  {88.15, 3.85},  {23.77, 0.98}, {76.70, 1.29}, {3.60, 0.05}},
};

} // namespace allocsim

#endif // ALLOCSIM_CONFORM_PAPERPOINTS_H
