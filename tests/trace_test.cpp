//===- tests/trace_test.cpp - Trace serialization tests -------------------===//

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
