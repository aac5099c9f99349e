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
/// Both formats hold one record per reference: the writers expand word runs
/// into their words. Replay re-forms them: the readers' bulk read() merges
/// consecutive words back into word-run records (RunFiller, DESIGN.md §10),
/// so a replayed trace reaches the sinks as few records as the live bus
/// delivered, with the same per-word stream.
///
//===----------------------------------------------------------------------===//

#ifndef ALLOCSIM_TRACE_REFTRACE_H
#define ALLOCSIM_TRACE_REFTRACE_H

#include "mem/AccessBatch.h"
#include "mem/AccessSink.h"

#include <iosfwd>
#include <memory>
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
/// The stream is read one fixed chunk (under 64 KiB, held by the reader) per
/// istream::read, never the whole trace at once. A corrupt kind/source byte
/// is a fatal error when decoding reaches its record; a truncated final
/// record is one after every whole record before it has been decoded.
class BinaryTraceReader {
public:
  /// Bytes per record, and per chunk: the most whole records in 64 KiB.
  static constexpr size_t RecordBytes = 6;
  static constexpr size_t ChunkBytes = 65536 / RecordBytes * RecordBytes;

  /// Validates the header; a malformed header is a fatal error.
  explicit BinaryTraceReader(std::istream &IS);

  /// Reads the next reference into \p Access. Returns false at end of
  /// stream.
  bool next(MemAccess &Access);

  /// Fills the empty \p Batch with references until it is full or the
  /// trace ends, merging consecutive words into word runs through
  /// RunFiller in one decoding loop. Returns the references read (a run
  /// counts its words); 0 at end of stream.
  uint64_t read(AccessBatch &Batch);

private:
  std::istream &IS;
  std::unique_ptr<unsigned char[]> Chunk;
  /// Decoding cursor and end of the bytes read into Chunk.
  size_t Pos = 0, End = 0;

  /// Moves the undecoded tail to the front of Chunk and reads the stream
  /// behind it. Returns false at end of stream.
  bool refill();
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

  /// Fills the empty \p Batch through RunFiller until it is full
  /// or the trace ends. Returns the references read; 0 at end of stream.
  uint64_t read(AccessBatch &Batch);

private:
  std::istream &IS;
};

/// Replays every reference from \p Reader into \p Sink, one accessBatch per
/// filled AccessBatch of re-formed word runs. Returns the number of
/// *references* replayed (what BinaryTraceWriter::written() counted), not of
/// records delivered.
template <typename ReaderT>
uint64_t replayTrace(ReaderT &Reader, AccessSink &Sink) {
  AccessBatch Batch;
  uint64_t Refs = 0;
  while (const uint64_t N = Reader.read(Batch)) {
    Refs += N;
    Sink.accessBatch(Batch.data(), Batch.size());
    Batch.clear();
  }
  return Refs;
}

} // namespace allocsim

#endif // ALLOCSIM_TRACE_REFTRACE_H
