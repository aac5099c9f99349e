//===- trace/RefTrace.cpp - Reference trace I/O ---------------------------===//

#include "trace/RefTrace.h"

#include "support/Error.h"

#include <cstdio>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <string>

using namespace allocsim;

namespace {

constexpr char BinaryMagic[4] = {'A', 'S', 'T', '1'};

constexpr char kindChar(AccessKind Kind) {
  return Kind == AccessKind::Read ? 'R' : 'W';
}

constexpr size_t BinaryRecordBytes = BinaryTraceReader::RecordBytes;

std::string hexString(uint64_t Value) {
  char Buffer[24];
  std::snprintf(Buffer, sizeof(Buffer), "0x%llx",
                static_cast<unsigned long long>(Value));
  return Buffer;
}

void encodeBinaryRecord(const MemAccess &Access, unsigned char *Record) {
  Record[0] = static_cast<unsigned char>(Access.Address);
  Record[1] = static_cast<unsigned char>(Access.Address >> 8);
  Record[2] = static_cast<unsigned char>(Access.Address >> 16);
  Record[3] = static_cast<unsigned char>(Access.Address >> 24);
  Record[4] = Access.Size;
  Record[5] = static_cast<unsigned char>(
      (static_cast<unsigned>(Access.Kind) << 4) |
      static_cast<unsigned>(Access.Source));
}

/// Out of line, so the decoding loop builds no message string.
[[noreturn, gnu::cold, gnu::noinline]] void reportCorruptKindSource() {
  reportFatalError("binary trace: corrupt kind/source byte");
}

/// Decodes one binary record; a corrupt kind/source byte is fatal.
inline MemAccess decodeBinaryRecord(const unsigned char *Record) {
  const unsigned KindSource = Record[5];
  if ((KindSource >> 4) >= NumAccessKinds ||
      (KindSource & 0xF) >= NumAccessSources)
    reportCorruptKindSource();
  const Addr Address =
      static_cast<Addr>(Record[0]) | (static_cast<Addr>(Record[1]) << 8) |
      (static_cast<Addr>(Record[2]) << 16) |
      (static_cast<Addr>(Record[3]) << 24);
  return MemAccess{Address, Record[4], static_cast<AccessKind>(KindSource >> 4),
                   static_cast<AccessSource>(KindSource & 0xF)};
}

} // namespace

BinaryTraceWriter::BinaryTraceWriter(std::ostream &Stream) : OS(Stream) {
  OS.write(BinaryMagic, sizeof(BinaryMagic));
}

void BinaryTraceWriter::access(const MemAccess &Access) {
  unsigned char Record[BinaryRecordBytes];
  encodeBinaryRecord(Access, Record);
  OS.write(reinterpret_cast<const char *>(Record), sizeof(Record));
  ++Count;
}

void BinaryTraceWriter::accessBatch(const MemAccess *Batch, size_t N) {
  unsigned char Buffer[AccessBatch::MaxCapacity * BinaryRecordBytes];
  size_t Fill = 0;
  auto Drain = [&] {
    OS.write(reinterpret_cast<const char *>(Buffer),
             static_cast<std::streamsize>(Fill * BinaryRecordBytes));
    Count += Fill;
    Fill = 0;
  };
  static_assert(MaxRunWords <= AccessBatch::MaxCapacity);
  for (size_t I = 0; I != N; ++I) {
    if (Fill + Batch[I].words() > AccessBatch::MaxCapacity)
      Drain();
    forEachWord(Batch[I], [&](const MemAccess &Word) {
      encodeBinaryRecord(Word, Buffer + Fill++ * BinaryRecordBytes);
    });
  }
  if (Fill != 0)
    Drain();
}

BinaryTraceReader::BinaryTraceReader(std::istream &Stream)
    : IS(Stream),
      Chunk(std::make_unique_for_overwrite<unsigned char[]>(ChunkBytes)) {
  char Magic[4];
  IS.read(Magic, sizeof(Magic));
  if (!IS || Magic[0] != BinaryMagic[0] || Magic[1] != BinaryMagic[1] ||
      Magic[2] != BinaryMagic[2] || Magic[3] != BinaryMagic[3])
    reportFatalError("binary trace: bad or missing magic");
}

bool BinaryTraceReader::refill() {
  const size_t Tail = End - Pos;
  std::memmove(Chunk.get(), Chunk.get() + Pos, Tail);
  IS.read(reinterpret_cast<char *>(Chunk.get()) + Tail,
          static_cast<std::streamsize>(ChunkBytes - Tail));
  Pos = 0;
  End = Tail + static_cast<size_t>(IS.gcount());
  if (End >= BinaryRecordBytes)
    return true;
  if (End != 0)
    reportFatalError("binary trace: truncated record");
  return false;
}

bool BinaryTraceReader::next(MemAccess &Access) {
  if (End - Pos < BinaryRecordBytes && !refill())
    return false;
  Access = decodeBinaryRecord(Chunk.get() + Pos);
  Pos += BinaryRecordBytes;
  return true;
}

uint64_t BinaryTraceReader::read(AccessBatch &Batch) {
  RunFiller Runs(Batch);
  uint64_t Refs = 0;
  while (!Runs.full() && (End - Pos >= BinaryRecordBytes || refill())) {
    // Decode the chunk's whole records until the batch fills.
    const unsigned char *const Start = Chunk.get() + Pos;
    const unsigned char *const Stop =
        Start + (End - Pos) / BinaryRecordBytes * BinaryRecordBytes;
    const unsigned char *Record = Start;
    for (; Record != Stop && !Runs.full(); Record += BinaryRecordBytes)
      Runs.append(decodeBinaryRecord(Record));
    const size_t Decoded = static_cast<size_t>(Record - Start);
    Pos += Decoded;
    Refs += Decoded / BinaryRecordBytes;
  }
  Runs.finish();
  return Refs;
}

void TextTraceWriter::access(const MemAccess &Access) {
  char Line[48];
  std::snprintf(Line, sizeof(Line), "%c %08x %u %s\n", kindChar(Access.Kind),
                Access.Address, Access.Size, accessSourceName(Access.Source));
  OS << Line;
}

void TextTraceWriter::accessBatch(const MemAccess *Batch, size_t N) {
  std::string Buffer;
  Buffer.reserve(N * 20);
  char Line[48];
  for (size_t I = 0; I != N; ++I)
    forEachWord(Batch[I], [&](const MemAccess &Access) {
      const int Length =
          std::snprintf(Line, sizeof(Line), "%c %08x %u %s\n",
                        kindChar(Access.Kind), Access.Address, Access.Size,
                        accessSourceName(Access.Source));
      Buffer.append(Line, static_cast<size_t>(Length));
    });
  OS << Buffer;
}

uint64_t TextTraceReader::read(AccessBatch &Batch) {
  RunFiller Runs(Batch);
  uint64_t Refs = 0;
  for (MemAccess Word; !Runs.full() && next(Word); ++Refs)
    Runs.append(Word);
  Runs.finish();
  return Refs;
}

bool TextTraceReader::next(MemAccess &Access) {
  std::string Kind, SourceName;
  uint64_t Address;
  unsigned Size;
  if (!(IS >> Kind))
    return false;
  if (!(IS >> std::hex >> Address >> std::dec >> Size >> SourceName))
    reportFatalError("text trace: truncated record");
  if (Kind == "R")
    Access.Kind = AccessKind::Read;
  else if (Kind == "W")
    Access.Kind = AccessKind::Write;
  else
    reportFatalError("text trace: bad access kind '" + Kind + "'");
  // Range-check before narrowing: a wider value must not be silently
  // truncated into a different, valid-looking record.
  if (Address > std::numeric_limits<Addr>::max())
    reportFatalError("text trace: address " + hexString(Address) +
                     " exceeds 32 bits");
  if (Size > std::numeric_limits<uint8_t>::max())
    reportFatalError("text trace: access size " + std::to_string(Size) +
                     " exceeds 255 bytes");
  Access.Address = static_cast<Addr>(Address);
  Access.Size = static_cast<uint8_t>(Size);
  if (SourceName == "app")
    Access.Source = AccessSource::Application;
  else if (SourceName == "alloc")
    Access.Source = AccessSource::Allocator;
  else if (SourceName == "tag")
    Access.Source = AccessSource::TagEmulation;
  else
    reportFatalError("text trace: bad access source '" + SourceName + "'");
  Access.Run = 1;
  return true;
}
