//===- metrics/CostModel.h - Instruction accounting -------------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instruction-count accounting, standing in for the paper's QP utility.
/// The simulated application and the allocators charge instruction costs as
/// they execute; the split between application and allocator instructions
/// reproduces the paper's Figure 1 ("percent of time in malloc and free"),
/// and the totals feed the execution-time estimate
///
///     T = I + (M x P) x D
///
/// (instructions + missRate x missPenalty x dataRefs, all instructions
/// single-cycle), which is exactly the paper's Section 4.2 model.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_METRICS_COSTMODEL_H
#define ALLOCSIM_METRICS_COSTMODEL_H

#include <cstdint>

namespace allocsim {

/// Accumulates instruction counts attributed to the application program and
/// to the storage allocator.
class CostModel {
public:
  void chargeApp(uint64_t Instructions) { AppInstr += Instructions; }
  void chargeAlloc(uint64_t Instructions) { AllocInstr += Instructions; }

  uint64_t appInstructions() const { return AppInstr; }
  uint64_t allocInstructions() const { return AllocInstr; }
  uint64_t totalInstructions() const { return AppInstr + AllocInstr; }

  /// Fraction of all instructions spent in malloc/free (Figure 1).
  double allocFraction() const {
    uint64_t Total = totalInstructions();
    return Total == 0 ? 0.0
                      : static_cast<double>(AllocInstr) /
                            static_cast<double>(Total);
  }

  void reset() { AppInstr = AllocInstr = 0; }

private:
  uint64_t AppInstr = 0;
  uint64_t AllocInstr = 0;
};

/// Charges a fractional per-reference instruction cost (the profile's
/// instructions per data reference) in whole instructions, carrying the
/// remainder. advance(N) has exactly the effect of N steps of the double
/// recurrence
///
///     Debt += PerRef; Whole = trunc(Debt); Debt -= Whole;  // charge Whole
///
/// including every IEEE rounding of the addition. For PerRef in
/// [2^-10, 2^53) the recurrence runs in integer units of ulp(PerRef)
/// (DESIGN.md §10): the addition rounds to 53 significant bits, ties to
/// even, and Debt - Whole is exact (Sterbenz). A ratio whose additions can
/// never round advances in closed form. Other ratios step the double
/// recurrence itself.
class FractionalCharge {
public:
  explicit FractionalCharge(double PerRef);

  /// Advances over \p Refs references; returns the whole instructions they
  /// charge.
  uint64_t advance(uint64_t Refs);

  /// The carried fraction: the recurrence's Debt, exactly.
  double fraction() const;

private:
  double PerRef;
  /// Debt of the double recurrence, outside the emulated range.
  double Debt = 0;
  bool Emulated = false;
  /// Whether some step's sum can exceed 53 significant bits.
  bool MayRound = false;
  /// ulp(PerRef) == 2^-FracBits.
  uint32_t FracBits = 0;
  /// PerRef and Debt in units of ulp(PerRef).
  uint64_t Step = 0;
  uint64_t Frac = 0;
};

/// The paper's execution-time estimate (in cycles; 1 instruction = 1 cycle).
struct TimeEstimate {
  uint64_t Instructions = 0;
  uint64_t DataRefs = 0;
  double MissRate = 0.0;
  uint32_t MissPenalty = 25;

  /// Total estimated cycles: I + (M * P) * D.
  double totalCycles() const {
    return static_cast<double>(Instructions) + missCycles();
  }

  /// Cycles spent waiting on cache misses: (M * P) * D.
  double missCycles() const {
    return MissRate * static_cast<double>(MissPenalty) *
           static_cast<double>(DataRefs);
  }

  /// Converts cycles to seconds for a given clock (the paper's DECstation
  /// 5000/120 runs at 25 MHz).
  double seconds(double ClockHz = 25.0e6) const {
    return totalCycles() / ClockHz;
  }

  double missSeconds(double ClockHz = 25.0e6) const {
    return missCycles() / ClockHz;
  }
  bool operator==(const TimeEstimate &Other) const = default;
};

} // namespace allocsim

#endif // ALLOCSIM_METRICS_COSTMODEL_H
