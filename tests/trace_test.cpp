//===- tests/trace_test.cpp - Trace serialization tests -------------------===//

#include "support/Rng.h"
#include "trace/AllocEvents.h"
#include "trace/RefTrace.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace allocsim;

namespace {

std::vector<MemAccess> sampleAccesses() {
  return {
      {0x10000000, 4, AccessKind::Read, AccessSource::Application},
      {0x10000abc, 8, AccessKind::Write, AccessSource::Allocator},
      {0xfffffffc, 4, AccessKind::Read, AccessSource::TagEmulation},
      {0x00000000, 1, AccessKind::Write, AccessSource::Application},
  };
}

bool sameAccess(const MemAccess &A, const MemAccess &B) {
  return A.Address == B.Address && A.Size == B.Size && A.Kind == B.Kind &&
         A.Source == B.Source;
}

bool sameRecord(const MemAccess &A, const MemAccess &B) {
  return sameAccess(A, B) && A.Run == B.Run;
}

/// Keeps every delivered record as delivered, word runs unexpanded.
class RecordSink final : public AccessSink {
public:
  void access(const MemAccess &Access) override { Records.push_back(Access); }
  void accessBatch(const MemAccess *Batch, size_t Count) override {
    Records.insert(Records.end(), Batch, Batch + Count);
  }

  std::vector<MemAccess> Records;
};

constexpr size_t ChunkRecords =
    BinaryTraceReader::ChunkBytes / BinaryTraceReader::RecordBytes;

std::string binaryTrace(const std::vector<MemAccess> &Words) {
  std::ostringstream Out(std::ios::binary);
  BinaryTraceWriter Writer(Out);
  for (const MemAccess &Word : Words)
    Writer.access(Word);
  return Out.str();
}

/// A seeded word stream with every shape a reader may re-form: single
/// references of mixed kind, source and size, unaligned words, ascending
/// and descending runs (some past MaxRunWords), ascending runs turning
/// into descending ones, words beside a run that do not continue it, runs
/// through the top of the address space, and a long run across each of
/// the first two chunk boundaries.
std::vector<MemAccess> wordStream(uint64_t Seed) {
  Rng R(Seed);
  std::vector<MemAccess> Words;
  auto Kind = [&] {
    return R.nextBool(0.5) ? AccessKind::Read : AccessKind::Write;
  };
  auto Source = [&] {
    return static_cast<AccessSource>(R.nextBelow(NumAccessSources));
  };
  auto Run = [&](Addr First, uint32_t N, bool Down, AccessKind K,
                 AccessSource S) {
    for (uint32_t I = 0; I != N; ++I)
      Words.push_back({Down ? First - 4 * I : First + 4 * I, 4, K, S});
  };
  while (Words.size() < 3 * ChunkRecords) {
    for (size_t Boundary : {ChunkRecords, 2 * ChunkRecords})
      if (Words.size() < Boundary && Words.size() + 40 >= Boundary) {
        while (Words.size() + 20 < Boundary)
          Words.push_back({HeapBase, 8, Kind(), Source()});
        Run(HeapBase + 0x400, 40, false, AccessKind::Read,
            AccessSource::Application);
      }
    const Addr Base = HeapBase + 4 * static_cast<Addr>(R.nextBelow(1 << 16));
    const AccessKind K = Kind();
    const AccessSource S = Source();
    const uint32_t N = 1 + static_cast<uint32_t>(R.nextBelow(300));
    switch (R.nextBelow(8)) {
    case 0: // A single reference of any size, often unaligned.
      Words.push_back({Base + static_cast<Addr>(R.nextBelow(4)),
                       static_cast<uint8_t>(1 + R.nextBelow(8)), K, S});
      break;
    case 1:
      Run(Base, N, false, K, S);
      break;
    case 2:
      Run(Base, N, true, K, S);
      break;
    case 3: // Up, then straight back down from the top word.
      Run(Base, N, false, K, S);
      Run(Base + 4 * (N - 1), N, true, K, S);
      break;
    case 4: // Through the top of the address space, either way.
      Run(0xFFFFFFFCu - 4 * (N / 2), N, false, K, S);
      Run(4 * (N / 2), N, true, K, S);
      break;
    case 5: // Unaligned 4-byte words in a row.
      Run(Base + 2, N % 16 + 1, R.nextBool(0.5), K, S);
      break;
    case 6: // Words beside a run that do not continue it.
      Run(Base, N, false, K, S);
      Words.push_back({Base - 4, 4, K, S});
      Run(Base, N, true, K, S);
      Words.push_back({Base - 4, 4, K, S});
      Run(Base, N, false, K, S);
      Words.push_back({Base - 4 * N, 4, K, S});
      break;
    default: // A run whose kind or source changes midway.
      Run(Base, N, false, K, S);
      Run(Base + 4 * N, N, false, K == AccessKind::Read ? AccessKind::Write
                                                       : AccessKind::Read,
          S);
      break;
    }
  }
  return Words;
}

/// The run count the word run \p Last takes on when \p Word extends it, by
/// the rule of AccessBatch.h's RunFiller written out on whole records (the
/// test's independent statement of it); 0 when Word does not extend Last.
int extendedRun(const MemAccess &Last, const MemAccess &Word) {
  if (Word.Size != 4 || Last.Size != 4 || Word.Kind != Last.Kind ||
      Word.Source != Last.Source || (Last.Address & 3) != 0 ||
      Last.words() == MaxRunWords)
    return 0;
  const int Words = static_cast<int>(Last.words());
  const Addr Span = 4 * Last.words();
  if (Last.Run > 0 && Word.Address == Last.Address + Span)
    return Words + 1;
  if ((Last.Run < 0 || Words == 1) && Word.Address == Last.Address - Span)
    return -(Words + 1);
  return 0;
}

/// The records replay must deliver for \p Words, batch by batch: a word
/// extends the batch's last record when extendedRun says so, and a full
/// batch is delivered before the next word.
std::vector<MemAccess> expectedRecords(const std::vector<MemAccess> &Words) {
  std::vector<MemAccess> Records;
  size_t InBatch = 0;
  for (const MemAccess &Word : Words) {
    if (InBatch == AccessBatch::MaxCapacity)
      InBatch = 0;
    if (InBatch != 0)
      if (const int Run = extendedRun(Records.back(), Word)) {
        Records.back().Run = static_cast<int8_t>(Run);
        continue;
      }
    Records.push_back(Word);
    ++InBatch;
  }
  return Records;
}

/// The records RunFiller forms from \p Words, filling batches as the
/// readers do.
std::vector<MemAccess> filledRecords(const std::vector<MemAccess> &Words) {
  std::vector<MemAccess> Records;
  for (size_t Next = 0; Next != Words.size();) {
    AccessBatch Batch;
    RunFiller Runs(Batch);
    while (!Runs.full() && Next != Words.size())
      Runs.append(Words[Next++]);
    Runs.finish();
    Records.insert(Records.end(), Batch.data(), Batch.data() + Batch.size());
  }
  return Records;
}

} // namespace

TEST(RefTraceTest, BinaryRoundTrip) {
  std::stringstream Buffer;
  {
    BinaryTraceWriter Writer(Buffer);
    for (const MemAccess &Access : sampleAccesses())
      Writer.access(Access);
    EXPECT_EQ(Writer.written(), 4u);
  }
  BinaryTraceReader Reader(Buffer);
  for (const MemAccess &Expected : sampleAccesses()) {
    MemAccess Got;
    ASSERT_TRUE(Reader.next(Got));
    EXPECT_TRUE(sameAccess(Expected, Got));
  }
  MemAccess Extra;
  EXPECT_FALSE(Reader.next(Extra));
}

TEST(RefTraceTest, TextRoundTrip) {
  std::stringstream Buffer;
  {
    TextTraceWriter Writer(Buffer);
    for (const MemAccess &Access : sampleAccesses())
      Writer.access(Access);
  }
  TextTraceReader Reader(Buffer);
  for (const MemAccess &Expected : sampleAccesses()) {
    MemAccess Got;
    ASSERT_TRUE(Reader.next(Got));
    EXPECT_TRUE(sameAccess(Expected, Got));
  }
}

TEST(RefTraceTest, BadMagicIsFatal) {
  std::stringstream Buffer("XXXXjunk");
  EXPECT_DEATH({ BinaryTraceReader Reader(Buffer); }, "magic");
}

TEST(RefTraceTest, TextReaderAcceptsTheExtremesOfEachField) {
  std::stringstream Buffer("W ffffffff 255 tag\n");
  TextTraceReader Reader(Buffer);
  MemAccess Got;
  ASSERT_TRUE(Reader.next(Got));
  EXPECT_TRUE(sameAccess(
      Got, {0xffffffff, 255, AccessKind::Write, AccessSource::TagEmulation}));
}

TEST(RefTraceTest, TextReaderRejectsValuesThatWouldNarrow) {
  // Regression: "R 1ffffff00 300 app" used to read back as address
  // ffffff00, size 44.
  auto ReadOne = [](const char *Line) {
    std::stringstream Buffer(Line);
    TextTraceReader Reader(Buffer);
    MemAccess Got;
    Reader.next(Got);
  };
  EXPECT_DEATH(ReadOne("R 1ffffff00 4 app\n"),
               "text trace: address 0x1ffffff00 exceeds 32 bits");
  EXPECT_DEATH(ReadOne("R 10000000 300 app\n"),
               "text trace: access size 300 exceeds 255 bytes");
  EXPECT_DEATH(ReadOne("R 1ffffff00 300 app\n"), "text trace: address");
}

TEST(RefTraceTest, ReplayIntoSink) {
  std::stringstream Buffer;
  {
    BinaryTraceWriter Writer(Buffer);
    for (const MemAccess &Access : sampleAccesses())
      Writer.access(Access);
  }
  BinaryTraceReader Reader(Buffer);
  CollectingSink Sink;
  EXPECT_EQ(replayTrace(Reader, Sink), 4u);
  EXPECT_EQ(Sink.records().size(), 4u);
}

TEST(RefTraceTest, RunsTakeOnlyTheNextWordOfTheRun) {
  const MemAccess Word{HeapBase, 4, AccessKind::Read,
                       AccessSource::Application};
  auto At = [&](Addr Address) {
    MemAccess Next = Word;
    Next.Address = Address;
    return Next;
  };
  auto Runs = [](std::vector<MemAccess> Words) {
    std::vector<int> Result;
    for (const MemAccess &Record : filledRecords(Words))
      Result.push_back(Record.Run);
    return Result;
  };
  using V = std::vector<int>;
  // Ascending runs never turn; a single word may descend.
  EXPECT_EQ(Runs({Word, At(HeapBase + 4), At(HeapBase + 8),
                  At(HeapBase + 4)}),
            (V{3, 1}));
  EXPECT_EQ(Runs({Word, At(HeapBase + 4), At(HeapBase - 4)}), (V{2, 1}));
  EXPECT_EQ(Runs({Word, At(HeapBase - 4), At(HeapBase - 8),
                  At(HeapBase - 4)}),
            (V{-3, 1}));
  EXPECT_EQ(Runs({Word, At(HeapBase - 4), At(HeapBase + 4)}), (V{-2, 1}));
  // Kind, source and size must match; words must be aligned.
  MemAccess Other = At(HeapBase + 4);
  Other.Source = AccessSource::Allocator;
  EXPECT_EQ(Runs({Word, Other}), (V{1, 1}));
  Other = At(HeapBase + 4);
  Other.Kind = AccessKind::Write;
  EXPECT_EQ(Runs({Word, Other}), (V{1, 1}));
  Other = At(HeapBase + 4);
  Other.Size = 8;
  EXPECT_EQ(Runs({Word, Other}), (V{1, 1}));
  EXPECT_EQ(Runs({At(HeapBase + 2), At(HeapBase + 6)}), (V{1, 1}));
  // Addresses wrap; runs stop at MaxRunWords.
  EXPECT_EQ(Runs({At(0xFFFFFFFCu), At(0)}), (V{2}));
  EXPECT_EQ(Runs({At(0), At(0xFFFFFFFCu)}), (V{-2}));
  std::vector<MemAccess> Long;
  for (uint32_t I = 0; I != MaxRunWords + 1; ++I)
    Long.push_back(At(HeapBase - 4 * I));
  EXPECT_EQ(Runs(Long), (V{-static_cast<int>(MaxRunWords), 1}));
  EXPECT_EQ(filledRecords(Long).back().Address,
            HeapBase - 4 * MaxRunWords);
}

TEST(RefTraceTest, ReadReformsRunsThatExpandToTheInputWords) {
  for (uint64_t Seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    const std::vector<MemAccess> Words = wordStream(Seed);
    const std::vector<MemAccess> Expected = expectedRecords(Words);
    ASSERT_LT(Expected.size(), Words.size() / 2);
    std::vector<MemAccess> Filled = filledRecords(Words);

    std::stringstream Binary(binaryTrace(Words));
    BinaryTraceReader BinaryReader(Binary);
    RecordSink FromBinary;
    EXPECT_EQ(replayTrace(BinaryReader, FromBinary), Words.size());

    std::stringstream Text;
    {
      TextTraceWriter Writer(Text);
      for (const MemAccess &Word : Words)
        Writer.access(Word);
    }
    TextTraceReader TextReader(Text);
    RecordSink FromText;
    EXPECT_EQ(replayTrace(TextReader, FromText), Words.size());

    for (const std::vector<MemAccess> *Got :
         {&Filled, &FromBinary.Records, &FromText.Records}) {
      ASSERT_EQ(Got->size(), Expected.size());
      for (size_t I = 0; I != Expected.size(); ++I)
        ASSERT_TRUE(sameRecord((*Got)[I], Expected[I])) << "record " << I;
      // Expanding the records gives back the input, word for word.
      size_t Next = 0;
      for (const MemAccess &Record : *Got) {
        ASSERT_NE(Record.Run, 0);
        ASSERT_NE(Record.Run, -1);
        ASSERT_LE(Record.words(), MaxRunWords);
        if (Record.words() != 1) {
          ASSERT_EQ(Record.Size, 4);
          ASSERT_EQ(Record.Address & 3, 0u);
        }
        forEachWord(Record, [&](const MemAccess &Word) {
          ASSERT_LT(Next, Words.size());
          EXPECT_TRUE(sameRecord(Word, Words[Next])) << "word " << Next;
          ++Next;
        });
      }
      EXPECT_EQ(Next, Words.size());
    }
  }
}

TEST(RefTraceTest, NextAndReadShareTheChunk) {
  // Word-by-word reads and bulk reads interleave over one chunk buffer
  // without losing or repeating a reference.
  const std::vector<MemAccess> Words = wordStream(4);
  std::stringstream Buffer(binaryTrace(Words));
  BinaryTraceReader Reader(Buffer);
  std::vector<MemAccess> Got;
  AccessBatch Batch;
  MemAccess Word;
  for (bool Bulk = false;; Bulk = !Bulk) {
    if (Bulk) {
      if (Reader.read(Batch) == 0)
        break;
      for (size_t I = 0; I != Batch.size(); ++I)
        forEachWord(Batch.data()[I],
                    [&](const MemAccess &W) { Got.push_back(W); });
      Batch.clear();
    } else {
      for (int I = 0; I != 1000 && Reader.next(Word); ++I)
        Got.push_back(Word);
    }
  }
  EXPECT_FALSE(Reader.next(Word));
  ASSERT_EQ(Got.size(), Words.size());
  for (size_t I = 0; I != Words.size(); ++I)
    ASSERT_TRUE(sameRecord(Got[I], Words[I])) << I;
}

TEST(RefTraceTest, ReplayReturnsReferencesNotRecords) {
  std::vector<MemAccess> Words;
  for (Addr I = 0; I != 300; ++I)
    Words.push_back(
        {HeapBase + 4 * I, 4, AccessKind::Read, AccessSource::Application});
  {
    std::stringstream Buffer(binaryTrace(Words));
    BinaryTraceReader Reader(Buffer);
    RecordSink Sink;
    EXPECT_EQ(replayTrace(Reader, Sink), 300u);
    ASSERT_EQ(Sink.Records.size(), 3u);
    EXPECT_EQ(Sink.Records[0].Run, 127);
    EXPECT_EQ(Sink.Records[1].Run, 127);
    EXPECT_EQ(Sink.Records[2].Run, 46);
  }
  std::stringstream Buffer(binaryTrace(Words));
  BinaryTraceReader Reader(Buffer);
  CollectingSink Sink;
  EXPECT_EQ(replayTrace(Reader, Sink), 300u);
  EXPECT_EQ(Sink.records().size(), 300u);
}

TEST(RefTraceTest, WholeChunksReplayCleanly) {
  for (size_t Chunks : {1u, 2u}) {
    const std::vector<MemAccess> Words(
        Chunks * ChunkRecords,
        {HeapBase, 4, AccessKind::Write, AccessSource::Allocator});
    std::stringstream Buffer(binaryTrace(Words));
    BinaryTraceReader Reader(Buffer);
    CollectingSink Sink;
    EXPECT_EQ(replayTrace(Reader, Sink), Words.size());
  }
}

TEST(RefTraceTest, TruncationNearAChunkBoundaryIsFatal) {
  // The last record is cut short inside the first chunk, right at its
  // boundary (the second read finds only the fragment), and one record past
  // it; bulk and word-by-word reads alike report it.
  const std::vector<MemAccess> Words = wordStream(5);
  const std::string Whole = binaryTrace(Words);
  for (size_t Data : {BinaryTraceReader::ChunkBytes - 1,
                      BinaryTraceReader::ChunkBytes + 3,
                      BinaryTraceReader::ChunkBytes +
                          BinaryTraceReader::RecordBytes + 2}) {
    SCOPED_TRACE(std::to_string(Data) + " bytes of records");
    const std::string Cut = Whole.substr(0, 4 + Data);
    EXPECT_DEATH(
        {
          std::stringstream Buffer(Cut);
          BinaryTraceReader Reader(Buffer);
          CollectingSink Sink;
          replayTrace(Reader, Sink);
        },
        "binary trace: truncated record");
    EXPECT_DEATH(
        {
          std::stringstream Buffer(Cut);
          BinaryTraceReader Reader(Buffer);
          MemAccess Word;
          while (Reader.next(Word)) {
          }
        },
        "binary trace: truncated record");
  }
}

TEST(RefTraceTest, CorruptKindSourceByteIsFatal) {
  // A corrupt record is reported when decoding reaches it, also the first
  // record of the second chunk, and before a truncated tail behind it: the
  // whole records before a truncation are all decoded first.
  const std::vector<MemAccess> Words = wordStream(6);
  const std::string Whole = binaryTrace(Words);
  auto Corrupt = [&](size_t Record, size_t Keep) {
    std::string Bytes = Whole.substr(0, Keep);
    Bytes[4 + Record * BinaryTraceReader::RecordBytes + 5] = '\x3f';
    return Bytes;
  };
  for (const std::string &Bytes :
       {Corrupt(10, Whole.size()), Corrupt(ChunkRecords, Whole.size()),
        Corrupt(ChunkRecords, 4 + (ChunkRecords + 1) * 6 + 3)}) {
    EXPECT_DEATH(
        {
          std::stringstream Buffer(Bytes);
          BinaryTraceReader Reader(Buffer);
          CollectingSink Sink;
          replayTrace(Reader, Sink);
        },
        "binary trace: corrupt kind/source byte");
  }
}

TEST(AllocEventsTest, RoundTrip) {
  std::vector<AllocEvent> Events = {
      AllocEvent::makeMalloc(1, 24),
      AllocEvent::makeTouch(1, 6, AccessKind::Write),
      AllocEvent::makeStackTouch(12, AccessKind::Read),
      AllocEvent::makeTouch(1, 3, AccessKind::Read),
      AllocEvent::makeFree(1),
  };
  std::stringstream Buffer;
  writeAllocEvents(Buffer, Events);
  std::vector<AllocEvent> Read = readAllocEvents(Buffer);
  ASSERT_EQ(Read.size(), Events.size());
  for (size_t I = 0; I != Events.size(); ++I)
    EXPECT_EQ(Read[I], Events[I]) << "event " << I;
}

TEST(AllocEventsTest, ValidationAcceptsWellFormed) {
  std::vector<AllocEvent> Events = {
      AllocEvent::makeMalloc(1, 8),
      AllocEvent::makeTouch(1, 2, AccessKind::Read),
      AllocEvent::makeFree(1),
      AllocEvent::makeMalloc(1, 8), // id reuse after free is fine
  };
  std::string Why;
  EXPECT_TRUE(validateAllocEvents(Events, &Why)) << Why;
}

TEST(AllocEventsTest, ValidationRejectsDoubleFree) {
  std::vector<AllocEvent> Events = {
      AllocEvent::makeMalloc(1, 8),
      AllocEvent::makeFree(1),
      AllocEvent::makeFree(1),
  };
  std::string Why;
  EXPECT_FALSE(validateAllocEvents(Events, &Why));
  EXPECT_NE(Why.find("double free"), std::string::npos);
}

TEST(AllocEventsTest, ValidationRejectsTouchOfDead) {
  std::vector<AllocEvent> Events = {
      AllocEvent::makeTouch(9, 1, AccessKind::Read),
  };
  EXPECT_FALSE(validateAllocEvents(Events));
}

TEST(AllocEventsTest, ValidationRejectsLiveRemalloc) {
  std::vector<AllocEvent> Events = {
      AllocEvent::makeMalloc(1, 8),
      AllocEvent::makeMalloc(1, 8),
  };
  EXPECT_FALSE(validateAllocEvents(Events));
}

TEST(AllocEventsTest, ValidationRejectsZeroSizeMalloc) {
  std::vector<AllocEvent> Events = {AllocEvent::makeMalloc(1, 0)};
  EXPECT_FALSE(validateAllocEvents(Events));
}
