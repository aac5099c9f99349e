//===- trace/RefTrace.h - Reference trace I/O -------------------*- C++ -*-===//
//
// Part of allocsim (PLDI 1993 cache-locality-of-malloc reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialization of the data-reference stream. The paper ran its simulators
/// execution-driven precisely to avoid "storing large trace files", and so
/// do we by default — but a trace format is still essential for regression
/// tests, for inspecting allocator behaviour, and for feeding the simulators
/// from external traces. Two encodings are provided:
///
///  * binary: 6 bytes per record, magic-tagged, for bulk traces;
///  * text:   one "R|W <hexaddr> <size> <src>" line per record, for humans.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_TRACE_REFTRACE_H
#define ALLOCSIM_TRACE_REFTRACE_H

#include "mem/AccessBatch.h"
#include "mem/AccessSink.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace allocsim {

/// AccessSink that appends every reference to an in-memory vector, word
/// runs expanded into their words. Useful in tests and as a staging buffer
/// for trace files.
class CollectingSink final : public AccessSink {
public:
  void access(const MemAccess &Access) override { Records.push_back(Access); }

  const std::vector<MemAccess> &records() const { return Records; }
  void clear() { Records.clear(); }

private:
  std::vector<MemAccess> Records;
};

/// Writes references to a binary stream. Emits a header on construction.
class BinaryTraceWriter final : public AccessSink {
public:
  explicit BinaryTraceWriter(std::ostream &OS);

  void access(const MemAccess &Access) override;

  /// Encodes the batch, word runs expanded into their words, into one stack
  /// buffer per MaxCapacity words and issues a single stream write for each
  /// — the same bytes the scalar path writes one record at a time.
  void accessBatch(const MemAccess *Batch, size_t Count) override;

  /// Number of records written.
  uint64_t written() const { return Count; }

private:
  std::ostream &OS;
  uint64_t Count = 0;
};

/// Reads references from a binary stream produced by BinaryTraceWriter.
class BinaryTraceReader {
public:
  /// Validates the header; a malformed header is a fatal error.
  explicit BinaryTraceReader(std::istream &IS);

  /// Reads the next record into \p Access. Returns false at end of stream.
  bool next(MemAccess &Access);

private:
  std::istream &IS;
};

/// Writes one text line per reference (a word run is one line per word).
class TextTraceWriter final : public AccessSink {
public:
  explicit TextTraceWriter(std::ostream &Stream) : OS(Stream) {}

  void access(const MemAccess &Access) override;

  void accessBatch(const MemAccess *Batch, size_t Count) override;

private:
  std::ostream &OS;
};

/// Parses one text trace line; returns false on end-of-stream, fatal error
/// on malformed input.
class TextTraceReader {
public:
  explicit TextTraceReader(std::istream &Stream) : IS(Stream) {}

  bool next(MemAccess &Access);

private:
  std::istream &IS;
};

/// Replays all records from \p Reader into \p Sink in batches of
/// AccessBatch::MaxCapacity. Returns the number of records replayed.
template <typename ReaderT>
uint64_t replayTrace(ReaderT &Reader, AccessSink &Sink) {
  AccessBatch Batch;
  uint64_t N = 0;
  MemAccess Access;
  while (Reader.next(Access)) {
    Batch.push(Access);
    ++N;
    if (Batch.size() == AccessBatch::MaxCapacity) {
      Sink.accessBatch(Batch.data(), Batch.size());
      Batch.clear();
    }
  }
  if (!Batch.empty())
    Sink.accessBatch(Batch.data(), Batch.size());
  return N;
}

} // namespace allocsim

#endif // ALLOCSIM_TRACE_REFTRACE_H
