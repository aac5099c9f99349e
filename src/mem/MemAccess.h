//===- mem/MemAccess.h - Memory reference records ---------------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory-reference record that flows from the simulated program and
/// allocator into the locality simulators. This is the execution-driven
/// equivalent of one entry of the paper's PIXIE data-reference trace, with
/// two additions: each access is tagged with its *source* so we can attribute
/// misses to the application, the allocator's bookkeeping, or the emulated
/// boundary tags (the paper's Table 6 experiment); and one record may stand
/// for a *word run* of up to 127 consecutive 4-byte references, so an object
/// sweep reaches the sinks as one record rather than one per word (DESIGN.md
/// §10 states the run record and why collapsing it is exact).
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_MEM_MEMACCESS_H
#define ALLOCSIM_MEM_MEMACCESS_H

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace allocsim {

/// Simulated addresses are 32-bit, matching the paper's MIPS (DECstation)
/// test vehicle.
using Addr = uint32_t;

/// Default base of the simulated heap segment.
inline constexpr Addr HeapBase = 0x1000'0000;

/// Base of the simulated stack/static segment used by synthetic programs for
/// their non-heap data references.
inline constexpr Addr StackBase = 0x0800'0000;

/// Read or write.
enum class AccessKind : uint8_t { Read, Write };

/// Who issued the reference.
enum class AccessSource : uint8_t {
  /// The application program referencing its own (heap or stack) data.
  Application,
  /// The allocator referencing freelists, headers, chunk tables, etc.
  Allocator,
  /// Emulated boundary-tag pollution (Table 6 ablation only).
  TagEmulation,
};

inline constexpr unsigned NumAccessSources = 3;
inline constexpr unsigned NumAccessKinds = 2;

/// Returns a short human-readable name for \p Source.
inline const char *accessSourceName(AccessSource Source) {
  switch (Source) {
  case AccessSource::Application:
    return "app";
  case AccessSource::Allocator:
    return "alloc";
  case AccessSource::TagEmulation:
    return "tag";
  }
  return "?";
}

/// Longest word run one record carries (the run count is a signed byte).
inline constexpr uint32_t MaxRunWords = 127;

/// One data reference, or a run of 4-byte word references.
struct MemAccess {
  Addr Address = 0;
  uint8_t Size = 4;
  AccessKind Kind = AccessKind::Read;
  AccessSource Source = AccessSource::Application;
  /// Word count (DESIGN.md §10). 1 is a single reference of Size
  /// bytes at Address. n > 1 is n 4-byte words ascending from Address, -n
  /// is n words descending from it (addresses wrap modulo 2^32); such
  /// records have Size 4 and a 4-byte-aligned Address. Never 0.
  int8_t Run = 1;

  /// References this record stands for.
  uint32_t words() const {
    return static_cast<uint32_t>(Run < 0 ? -Run : Run);
  }

  /// The \p Index-th word of the run, as a single reference.
  MemAccess word(uint32_t Index) const {
    const Addr Offset = 4 * Index;
    return MemAccess{Run < 0 ? Address - Offset : Address + Offset, Size,
                     Kind, Source};
  }
};

static_assert(sizeof(MemAccess) == 8,
              "the run count must fit the record's padding byte");

/// Calls \p Fn once per single reference \p Access stands for, in stream
/// order: the record itself, or each word of a run.
template <typename WordFn>
inline void forEachWord(const MemAccess &Access, WordFn &&Fn) {
  if (Access.Run == 1) {
    Fn(Access);
    return;
  }
  for (uint32_t I = 0, N = Access.words(); I != N; ++I)
    Fn(Access.word(I));
}

/// The block frames one record covers, in stream order, and how many of its
/// references touch each in a row (DESIGN.md §10). Frame I of Count is
/// First + I * Step (Step is 1, or -1 for a descending run) modulo the
/// 32-bit space, so a reference whose bytes wrap past 0xFFFFFFFF covers the
/// top frame and then frame 0. The first touch of a frame is a real probe;
/// the record's other Repeats touches each re-reference the frame just
/// referenced, which hits at stack distance 0 in every LRU, direct-mapped or
/// victim sink and changes no state, so a sink may count them in bulk.
/// touches(I) says how many touches frame I takes.
struct FrameWalk {
  uint32_t First = 0;
  uint32_t Count = 0;
  uint32_t Step = 1;
  uint32_t Mask = 0;
  uint32_t Repeats = 0;
  /// Touches of the first frame, of the last of several, and of the others.
  uint32_t Head = 1;
  uint32_t Tail = 1;
  uint32_t Body = 1;

  uint32_t frame(uint32_t Index) const {
    return (First + Index * Step) & Mask;
  }
  uint32_t touches(uint32_t Index) const {
    return Index == 0 ? Head : Index + 1 == Count ? Tail : Body;
  }
};

/// Walks \p Access over frames of 2^Shift bytes, Shift >= 2. A single
/// reference covers the frames of bytes [Address, Address + max(Size, 1)),
/// each touched once; a word run touches one segment of words per frame.
inline FrameWalk frameWalk(const MemAccess &Access, uint32_t Shift) {
  const Addr Address = Access.Address;
  const uint32_t Mask = ~uint32_t{0} >> Shift;
  if (Access.Run == 1 || Access.Run == -1) {
    const uint64_t Last =
        uint64_t{Address} + std::max<uint32_t>(Access.Size, 1) - 1;
    return {Address >> Shift,
            static_cast<uint32_t>((Last >> Shift) - (Address >> Shift)) + 1, 1,
            Mask};
  }
  assert(Shift >= 2 && Access.Size == 4 && (Address & 3) == 0 &&
         "a word run is aligned 4-byte words");
  // Segments end at frame boundaries: an ascending run leaves its first
  // frame after that frame's last word, a descending one after its first.
  const uint32_t FrameWords = uint32_t{1} << (Shift - 2);
  const uint32_t Index = (Address >> 2) & (FrameWords - 1);
  const uint32_t Words = Access.words();
  const bool Up = Access.Run > 0;
  const uint32_t Head = std::min(Words, Up ? FrameWords - Index : Index + 1);
  const uint32_t Rest = Words - Head;
  const uint32_t Partial = Rest % FrameWords;
  const uint32_t Count = 1 + Rest / FrameWords + (Partial != 0 ? 1 : 0);
  return {Address >> Shift,
          Count,
          Up ? 1 : ~uint32_t{0},
          Mask,
          Words - Count,
          Head,
          Partial != 0 ? Partial : FrameWords,
          FrameWords};
}

/// Calls \p Visit(Frame) for each frame of frameWalk(\p Access, \p Shift)
/// in order and returns the record's Repeats, for a sink that counts those
/// in bulk. Single references take their own loop, so a sink's per-frame
/// code runs there without the run arithmetic.
template <typename VisitFn>
inline uint32_t forEachFrame(const MemAccess &Access, uint32_t Shift,
                             VisitFn &&Visit) {
  if (Access.Run == 1) [[likely]] {
    const FrameWalk Walk = frameWalk(Access, Shift);
    for (uint32_t I = 0; I != Walk.Count; ++I)
      Visit(Walk.frame(I));
    return 0;
  }
  const FrameWalk Walk = frameWalk(Access, Shift);
  for (uint32_t I = 0; I != Walk.Count; ++I)
    Visit(Walk.frame(I));
  return Walk.Repeats;
}

} // namespace allocsim

#endif // ALLOCSIM_MEM_MEMACCESS_H
