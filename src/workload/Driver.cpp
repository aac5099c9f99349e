//===- workload/Driver.cpp - Event execution against an allocator ---------===//

#include "workload/Driver.h"

#include "check/HeapCheck.h"
#include "inject/FaultInjector.h"
#include "support/Error.h"

#include <cassert>

using namespace allocsim;

Driver::Driver(Allocator &DriverAlloc, MemoryBus &DriverBus,
               CostModel &DriverCost, double AppInstrPerRef,
               uint32_t StackWindow)
    : Alloc(DriverAlloc), Bus(DriverBus), Cost(DriverCost),
      InstrCharge(AppInstrPerRef), StackWindowBytes(StackWindow) {
  assert(StackWindowBytes >= 64 && (StackWindowBytes & 3) == 0 &&
         "degenerate stack window");
}

void Driver::chargeRefs(uint32_t Words) {
  AppRefs += Words;
  if (uint64_t Whole = InstrCharge.advance(Words))
    Cost.chargeApp(Whole);
}

void Driver::attachTelemetry(Telemetry *Registry) {
  EventsProbe = Registry ? Registry->counter("driver.events") : nullptr;
  LifetimeHist = Registry ? Registry->histogram("driver.obj_lifetime") : nullptr;
  OpInstrHists = {};
  if (Registry) {
    OpInstrHists[static_cast<unsigned>(AllocEventKind::Malloc)] =
        Registry->histogram("driver.malloc_instr");
    OpInstrHists[static_cast<unsigned>(AllocEventKind::Free)] =
        Registry->histogram("driver.free_instr");
    OpInstrHists[static_cast<unsigned>(AllocEventKind::Touch)] =
        Registry->histogram("driver.touch_instr");
    OpInstrHists[static_cast<unsigned>(AllocEventKind::StackTouch)] =
        Registry->histogram("driver.stack_instr");
  }
}

void Driver::execute(const AllocEvent &Event) {
  ++EventOrdinal;
  if (EventsProbe)
    EventsProbe->add();
  // Times the whole operation (allocator work + emitted touches) on the
  // simulated instruction clock; free when the histogram is null.
  PhaseTimer Timer(OpInstrHists[static_cast<unsigned>(Event.Kind)],
                   [this] { return Cost.totalInstructions(); });
  switch (Event.Kind) {
  case AllocEventKind::Malloc: {
    Addr Address = Alloc.malloc(Event.Amount);
    if (Address == 0) {
      // Simulated heap exhaustion: remember the id so the stream's later
      // touches/frees of this object degrade to no-ops instead of faulting.
      assert(Objects.find(Event.Id) == Objects.end() &&
             "duplicate object id in event stream");
      FailedIds.insert(Event.Id);
      ++DroppedEvents;
    } else {
      [[maybe_unused]] bool Inserted =
          Objects
              .emplace(Event.Id, ObjectInfo{Address, (Event.Amount + 3) / 4,
                                            EventOrdinal})
              .second;
      assert(Inserted && "duplicate object id in event stream");
    }
    if (Check) {
      // Allocator-event boundary: deliver everything this malloc emitted
      // before the checker's operation clock advances (HeapCheck flushes
      // again internally, but the contract lives at the emission site).
      Bus.flush();
      Check->onOperation();
    }
    break;
  }
  case AllocEventKind::Free: {
    auto It = Objects.find(Event.Id);
    if (It == Objects.end()) {
      if (FailedIds.erase(Event.Id) != 0) {
        ++DroppedEvents;
        break;
      }
      reportFatalError("event stream frees unknown object");
    }
    if (LifetimeHist)
      LifetimeHist->record(EventOrdinal - It->second.BirthOrdinal);
    Alloc.free(It->second.Address);
    Objects.erase(It);
    if (Check) {
      Bus.flush();
      Check->onOperation();
    }
    break;
  }
  case AllocEventKind::Touch: {
    auto It = Objects.find(Event.Id);
    if (It == Objects.end()) {
      if (FailedIds.count(Event.Id) != 0) {
        ++DroppedEvents;
        break;
      }
      reportFatalError("event stream touches unknown object");
    }
    touchObject(It->second.Address, It->second.Words, Event.Amount,
                Event.Access);
    break;
  }
  case AllocEventKind::StackTouch:
    touchStack(Event.Amount, Event.Access);
    break;
  }
  if (Inj)
    Inj->onEvent(EventOrdinal, Check);
}

Addr Driver::addressOf(uint32_t Id) const {
  auto It = Objects.find(Id);
  if (It == Objects.end())
    reportFatalError("addressOf: unknown object id");
  return It->second.Address;
}

void Driver::touchObject(Addr Address, uint32_t ObjectWords, uint32_t Words,
                         AccessKind Kind) {
  assert(ObjectWords > 0 && "touch of empty object");
  // Sequential field sweep from the object's start, wrapping for touches
  // longer than the object: one ascending run per pass over the object.
  for (uint32_t Left = Words; Left != 0;) {
    const uint32_t Pass = Left < ObjectWords ? Left : ObjectWords;
    Bus.emitRun(Address, Pass, /*Descending=*/false, Kind,
                AccessSource::Application);
    Left -= Pass;
  }
  chargeRefs(Words);
}

void Driver::touchStack(uint32_t Words, AccessKind Kind) {
  // Zig-zag sweep, the push/pop address pattern of call frames: up to the
  // window's top word, down to offset 0, up again. Each direction is one
  // run; the turning words are referenced once per turn.
  const uint32_t Top = StackWindowBytes - 4;
  for (uint32_t Left = Words; Left != 0;) {
    const uint32_t ToTurn = (StackDown ? StackPos : Top - StackPos) / 4 + 1;
    const uint32_t Leg = Left < ToTurn ? Left : ToTurn;
    Bus.emitRun(StackBase + StackPos, Leg, StackDown, Kind,
                AccessSource::Application);
    Left -= Leg;
    if (Leg == ToTurn) {
      // Turned at an end: the next word is one step back inside.
      StackPos = StackDown ? 4 : Top - 4;
      StackDown = !StackDown;
    } else {
      StackPos = StackDown ? StackPos - 4 * Leg : StackPos + 4 * Leg;
    }
  }
  chargeRefs(Words);
}
