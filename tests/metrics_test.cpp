//===- tests/metrics_test.cpp - Cost model and time estimate tests --------===//

#include "metrics/CostModel.h"
#include "support/Rng.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>

using namespace allocsim;

TEST(CostModelTest, SplitsAppAndAllocator) {
  CostModel Cost;
  Cost.chargeApp(700);
  Cost.chargeAlloc(300);
  EXPECT_EQ(Cost.appInstructions(), 700u);
  EXPECT_EQ(Cost.allocInstructions(), 300u);
  EXPECT_EQ(Cost.totalInstructions(), 1000u);
  EXPECT_DOUBLE_EQ(Cost.allocFraction(), 0.3);
}

TEST(CostModelTest, EmptyFractionIsZero) {
  CostModel Cost;
  EXPECT_DOUBLE_EQ(Cost.allocFraction(), 0.0);
}

TEST(CostModelTest, ResetClears) {
  CostModel Cost;
  Cost.chargeApp(5);
  Cost.chargeAlloc(5);
  Cost.reset();
  EXPECT_EQ(Cost.totalInstructions(), 0u);
}

TEST(TimeEstimateTest, PaperFormula) {
  // T = I + (M x P) x D: 1e6 instructions, 5e5 refs at 2% misses and a
  // 25-cycle penalty -> 1e6 + 0.02 * 25 * 5e5 = 1.25e6 cycles.
  TimeEstimate Time;
  Time.Instructions = 1000000;
  Time.DataRefs = 500000;
  Time.MissRate = 0.02;
  Time.MissPenalty = 25;
  EXPECT_DOUBLE_EQ(Time.missCycles(), 250000.0);
  EXPECT_DOUBLE_EQ(Time.totalCycles(), 1250000.0);
}

TEST(TimeEstimateTest, SecondsAtPaperClock) {
  // The paper's DECstation 5000/120 runs at 25 MHz: 25e6 cycles = 1 s.
  TimeEstimate Time;
  Time.Instructions = 25000000;
  Time.DataRefs = 0;
  Time.MissRate = 0.0;
  EXPECT_DOUBLE_EQ(Time.seconds(), 1.0);
  EXPECT_DOUBLE_EQ(Time.missSeconds(), 0.0);
}

TEST(TimeEstimateTest, PenaltyScalesMissCyclesLinearly) {
  TimeEstimate Time;
  Time.Instructions = 0;
  Time.DataRefs = 1000;
  Time.MissRate = 0.1;
  Time.MissPenalty = 25;
  double At25 = Time.missCycles();
  Time.MissPenalty = 100;
  EXPECT_DOUBLE_EQ(Time.missCycles(), 4.0 * At25);
}

TEST(TimeEstimateTest, ZeroMissRateCostsNothing) {
  TimeEstimate Time;
  Time.Instructions = 42;
  Time.DataRefs = 1u << 30;
  Time.MissRate = 0.0;
  EXPECT_DOUBLE_EQ(Time.totalCycles(), 42.0);
}

//===----------------------------------------------------------------------===//
// FractionalCharge: exact emulation of the per-reference double recurrence
//===----------------------------------------------------------------------===//

namespace {

/// The recurrence FractionalCharge emulates, one reference at a time in
/// IEEE doubles.
struct DoubleCharge {
  double PerRef;
  double Debt = 0;

  uint64_t advance(uint64_t Refs) {
    uint64_t Whole = 0;
    for (; Refs != 0; --Refs) {
      Debt += PerRef;
      const auto Part = static_cast<uint64_t>(Debt);
      if (Part > 0) {
        Whole += Part;
        Debt -= static_cast<double>(Part);
      }
    }
    return Whole;
  }
};

std::string hexFloat(double Value) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%a", Value);
  return Buffer;
}

/// Advances both over at least \p MinRefs references in seeded runs of
/// 1..300 and requires the same whole instructions for every run and a
/// bit-identical carried fraction after it.
void expectMatchesRecurrence(double PerRef, uint64_t Seed,
                             uint64_t MinRefs = 1'000'000) {
  SCOPED_TRACE("PerRef " + hexFloat(PerRef));
  FractionalCharge Fixed(PerRef);
  DoubleCharge Reference{PerRef};
  Rng R(Seed);
  uint64_t Refs = 0, FixedTotal = 0, ReferenceTotal = 0;
  while (Refs < MinRefs) {
    const uint64_t Run = 1 + R.nextBelow(300);
    FixedTotal += Fixed.advance(Run);
    ReferenceTotal += Reference.advance(Run);
    Refs += Run;
    ASSERT_EQ(FixedTotal, ReferenceTotal) << "after " << Refs << " refs";
    ASSERT_EQ(std::bit_cast<uint64_t>(Fixed.fraction()),
              std::bit_cast<uint64_t>(Reference.Debt))
        << "after " << Refs << " refs: " << hexFloat(Fixed.fraction())
        << " vs " << hexFloat(Reference.Debt);
  }
}

} // namespace

TEST(FractionalChargeTest, MatchesRecurrenceForEveryProfile) {
  // espresso's, ptc's and gs-small's ratios never round (the closed form);
  // the others' sums can reach 4, where the double addition rounds.
  for (WorkloadId Id :
       {WorkloadId::Espresso, WorkloadId::Gs, WorkloadId::Ptc,
        WorkloadId::Gawk, WorkloadId::Make, WorkloadId::GsSmall,
        WorkloadId::GsMedium, WorkloadId::Cfrac}) {
    const AppProfile &Profile = getProfile(Id);
    SCOPED_TRACE(workloadName(Id));
    expectMatchesRecurrence(Profile.instrPerRef(), 1592932958);
  }
}

TEST(FractionalChargeTest, MatchesRecurrenceForAdversarialRatios) {
  const double Ratios[] = {
      // Just below a power of two: nearly every sum crosses it.
      std::nextafter(1.0, 0.0), std::nextafter(2.0, 0.0),
      std::nextafter(4.0, 0.0), std::nextafter(8.0, 0.0),
      std::nextafter(std::ldexp(1.0, 52), 0.0),
      // Odd last mantissa bit: rounding ties land on both sides.
      std::nextafter(1.0, 2.0), std::nextafter(3.0, 4.0),
      std::nextafter(6.0, 7.0), 2.7, 7.3, std::ldexp(1.0, 51) + 0.5,
      // Below 1, down to the emulated range's edge.
      0.1, 0.3, 0.7, 0.999, std::ldexp(1.0, -10),
      // Integers: the fraction stays 0.
      1.0, 3.0, 4.0,
      // Outside the emulated range: the double loop itself.
      std::nextafter(std::ldexp(1.0, -10), 0.0), 1e-5,
      std::ldexp(1.0, 53), std::ldexp(1.0, 53) + 2, std::ldexp(1.0, 60)};
  uint64_t Seed = 1;
  for (double PerRef : Ratios)
    expectMatchesRecurrence(PerRef, Seed++);
}

TEST(FractionalChargeTest, OneLongAdvanceMatchesManySteps) {
  // Runs far beyond one event's length, including the closed form's
  // 128-bit product.
  for (double PerRef : {2.7, std::nextafter(2.0, 0.0), 0.3}) {
    SCOPED_TRACE(hexFloat(PerRef));
    FractionalCharge Fixed(PerRef);
    DoubleCharge Reference{PerRef};
    EXPECT_EQ(Fixed.advance(3'000'000), Reference.advance(3'000'000));
    EXPECT_EQ(std::bit_cast<uint64_t>(Fixed.fraction()),
              std::bit_cast<uint64_t>(Reference.Debt));
    EXPECT_EQ(Fixed.advance(0), 0u);
  }
}
