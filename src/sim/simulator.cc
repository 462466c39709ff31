#include "sim/simulator.h"

#include <chrono>
#include <limits>

#include "sim/network.h"

namespace qanaat {

TimerWheel::Entry& Simulator::NewOverflowEntry(SimTime when, uint64_t seq) {
  TimerWheel::Entry& e = overflow_[{when, seq}];
  e.when = when;
  e.seq = seq;
  return e;
}

TimerWheel::Entry Simulator::PopOverflow() {
  auto it = overflow_.begin();
  TimerWheel::Entry e = std::move(it->second);
  overflow_.erase(it);
  return e;
}

void Simulator::Execute(TimerWheel::Entry& e) {
  switch (e.kind) {
    case TimerWheel::Kind::kTimer:
      // Epoch guard: timers armed before a crash die with that life.
      if (!e.actor->crashed() && e.actor->epoch() == e.epoch) {
        e.actor->OnTimer(e.a, e.b);
      }
      break;
    case TimerWheel::Kind::kDeliver:
      // A message addressed to a previous life of the node (it crashed
      // while this was in flight) is lost with the crashed process.
      if (e.actor->epoch() == e.epoch) {
        e.actor->DeliverAt(e.when, static_cast<NodeId>(e.b),
                           std::move(e.msg));
      }
      break;
    case TimerWheel::Kind::kHandle:
      // Work accepted before a crash must not complete in a recovered
      // life.
      if (!e.actor->crashed() && e.actor->epoch() == e.epoch) {
        e.actor->OnMessage(static_cast<NodeId>(e.b), e.msg);
      }
      break;
    case TimerWheel::Kind::kClosure: {
      // Move the pooled closure out before running it: the callback may
      // schedule new closures, which can reuse (or reallocate) the slot.
      const uint32_t idx = static_cast<uint32_t>(e.a);
      Callback fn = std::move(closures_[idx]);
      closures_[idx] = nullptr;
      free_closures_.push_back(idx);
      fn();
      break;
    }
  }
}

uint64_t Simulator::RunLoop(SimTime until) {
  uint64_t executed = 0;
  for (;;) {
    SimTime t = 0;
    uint64_t s = 0;
    const bool have_wheel = wheel_.Min(now_, &t, &s);
    const bool from_overflow =
        !overflow_.empty() &&
        (!have_wheel || overflow_.begin()->first < std::make_pair(t, s));
    if (from_overflow) {
      t = overflow_.begin()->first.first;
    } else if (!have_wheel) {
      break;
    }
    if (t > until) break;
    // Pop before executing: the event may schedule new events.
    now_ = t;
    TimerWheel::Entry e = from_overflow ? PopOverflow() : wheel_.Pop(now_);
    Execute(e);
    ++executed;
  }
  return executed;
}

uint64_t Simulator::Run(SimTime until) {
  auto wall0 = std::chrono::steady_clock::now();
  uint64_t executed = RunLoop(until);
  if (now_ < until) now_ = until;
  events_executed_ += executed;
  wall_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  return executed;
}

uint64_t Simulator::RunAll() {
  auto wall0 = std::chrono::steady_clock::now();
  uint64_t executed = RunLoop(std::numeric_limits<SimTime>::max());
  events_executed_ += executed;
  wall_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  return executed;
}

}  // namespace qanaat
