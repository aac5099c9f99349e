//===- metrics/CostModel.cpp - Instruction accounting ---------------------===//

#include "metrics/CostModel.h"

#include <cmath>

using namespace allocsim;

namespace {

/// Significand bits of an IEEE double.
constexpr unsigned DoubleBits = 53;

/// Rounds \p Sum, which has more than 53 significant bits, to 53 of them,
/// ties to even: the rounding of the double addition Sum stands for.
uint64_t roundToDouble(uint64_t Sum) {
  const unsigned Drop =
      64 - static_cast<unsigned>(__builtin_clzll(Sum)) - DoubleBits;
  const uint64_t Half = uint64_t{1} << (Drop - 1);
  const uint64_t Rem = Sum & ((Half << 1) - 1);
  Sum -= Rem;
  if (Rem > Half || (Rem == Half && ((Sum >> Drop) & 1) != 0))
    Sum += Half << 1;
  return Sum;
}

} // namespace

FractionalCharge::FractionalCharge(double Ratio) : PerRef(Ratio) {
  if (!std::isfinite(PerRef) || PerRef <= 0)
    return;
  // PerRef = Mantissa * 2^(Exponent - 53) with a 53-bit Mantissa.
  int Exponent = 0;
  const double Mantissa = std::frexp(PerRef, &Exponent);
  const int Bits = static_cast<int>(DoubleBits) - Exponent;
  // Debt < 1 stays below 2^Bits units and a sum below 2^63.
  if (Bits < 0 || Bits > 62)
    return;
  Emulated = true;
  FracBits = static_cast<uint32_t>(Bits);
  Step = static_cast<uint64_t>(std::ldexp(Mantissa, DoubleBits));
  const uint64_t MaxSum = Step + ((uint64_t{1} << FracBits) - 1);
  MayRound = (MaxSum >> DoubleBits) != 0;
}

uint64_t FractionalCharge::advance(uint64_t Refs) {
  uint64_t Whole = 0;
  if (!Emulated) {
    for (; Refs != 0; --Refs) {
      Debt += PerRef;
      const auto Part = static_cast<uint64_t>(Debt);
      Whole += Part;
      Debt -= static_cast<double>(Part);
    }
    return Whole;
  }
  const uint64_t Mask = (uint64_t{1} << FracBits) - 1;
  if (!MayRound) {
    // Every step is exact, so N steps sum in one multiply.
    const unsigned __int128 Sum =
        static_cast<unsigned __int128>(Refs) * Step + Frac;
    Frac = static_cast<uint64_t>(Sum) & Mask;
    return static_cast<uint64_t>(Sum >> FracBits);
  }
  uint64_t Debt53 = Frac;
  for (; Refs != 0; --Refs) {
    uint64_t Sum = Debt53 + Step;
    if ((Sum >> DoubleBits) != 0)
      Sum = roundToDouble(Sum);
    Whole += Sum >> FracBits;
    Debt53 = Sum & Mask;
  }
  Frac = Debt53;
  return Whole;
}

double FractionalCharge::fraction() const {
  return Emulated ? std::ldexp(static_cast<double>(Frac),
                               -static_cast<int>(FracBits))
                  : Debt;
}
