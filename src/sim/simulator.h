#ifndef QANAAT_SIM_SIMULATOR_H_
#define QANAAT_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/message.h"
#include "sim/timer_wheel.h"

namespace qanaat {

class Actor;

/// Deterministic discrete-event simulator.
///
/// Events execute in (time, insertion-sequence) order, so a single seed
/// yields a bit-identical run. All protocol code runs inside event
/// callbacks; the simulator substitutes wall clock + transport of the
/// paper's AWS deployment (README "Substitution argument").
///
/// Event store: every event is one `TimerWheel::Entry` — message
/// delivery at an actor (ScheduleDeliver), handler completion after CPU
/// processing (ScheduleHandle), actor timers (ScheduleTimer) and generic
/// closures (Schedule/ScheduleAt, whose std::functions live in a
/// free-list pool indexed by the entry). Entries within the wheel's
/// ~16.7-second horizon take its O(1) path; the rare farther ones wait in
/// a small overflow store ordered by (time, seq). Both draw from one
/// global sequence counter and the run loop pops the smaller (time, seq)
/// of the two, so execution order is the global (time, seq) order and
/// per-seed chaos trace hashes do not depend on where an event waited.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` microseconds from now (>= 0).
  void Schedule(SimTime delay, Callback fn) {
    ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Schedule `fn` at an absolute time (clamped to now). Generic escape
  /// hatch for harness and test code — the tagged forms below carry the
  /// protocol traffic without a std::function.
  void ScheduleAt(SimTime when, Callback fn) {
    const uint32_t closure = AcquireClosure(std::move(fn));
    TimerWheel::Entry& e = NewEntry(when);
    e.a = closure;
    e.kind = TimerWheel::Kind::kClosure;
  }

  /// Tagged event: `actor->DeliverAt(when, from, msg)` at `when`,
  /// dropped if the actor's crash epoch advanced past `epoch` meanwhile.
  void ScheduleDeliver(SimTime when, Actor* actor, uint64_t epoch,
                       NodeId from, MessageRef msg) {
    TimerWheel::Entry& e = NewEntry(when);
    e.actor = actor;
    e.epoch = epoch;
    e.b = from;
    e.msg = std::move(msg);
    e.kind = TimerWheel::Kind::kDeliver;
  }

  /// Tagged event: `actor->OnMessage(from, msg)` at `when` (CPU
  /// processing completes), unless crashed or from a previous life.
  void ScheduleHandle(SimTime when, Actor* actor, uint64_t epoch,
                      NodeId from, MessageRef msg) {
    TimerWheel::Entry& e = NewEntry(when);
    e.actor = actor;
    e.epoch = epoch;
    e.b = from;
    e.msg = std::move(msg);
    e.kind = TimerWheel::Kind::kHandle;
  }

  /// Tagged event: `actor->OnTimer(tag, payload)` at `when`, unless
  /// crashed or armed in a previous life.
  void ScheduleTimer(SimTime when, Actor* actor, uint64_t epoch,
                     uint64_t tag, uint64_t payload) {
    TimerWheel::Entry& e = NewEntry(when);
    e.actor = actor;
    e.epoch = epoch;
    e.a = tag;
    e.b = payload;
    e.kind = TimerWheel::Kind::kTimer;
  }

  /// Run until the queue drains or simulated time exceeds `until`.
  /// Returns the number of events executed.
  uint64_t Run(SimTime until);

  /// Run until the queue is fully drained.
  uint64_t RunAll();

  size_t pending() const { return wheel_.size() + overflow_.size(); }

  /// Total events executed since construction, and the wall-clock meter
  /// over time spent inside Run/RunAll — the sim-core throughput gauge
  /// bench_protocol records (see README "Profiling the simulator core").
  uint64_t events_executed() const { return events_executed_; }
  double wall_seconds_in_run() const { return wall_seconds_; }
  double events_per_second() const {
    return wall_seconds_ > 0
               ? static_cast<double>(events_executed_) / wall_seconds_
               : 0.0;
  }

 private:
  /// The one insert path: clamps `when` to now, takes the global seq and
  /// files a new entry in the wheel, or in the overflow store when it lies
  /// beyond the wheel's horizon. The caller fills in the rest of the
  /// returned entry before scheduling anything else.
  TimerWheel::Entry& NewEntry(SimTime when) {
    if (when < now_) when = now_;
    const uint64_t seq = next_seq_++;
    if (when - now_ < TimerWheel::kHorizon) {
      return wheel_.Emplace(now_, when, seq);
    }
    return NewOverflowEntry(when, seq);
  }

  TimerWheel::Entry& NewOverflowEntry(SimTime when, uint64_t seq);
  TimerWheel::Entry PopOverflow();

  uint32_t AcquireClosure(Callback fn) {
    if (!free_closures_.empty()) {
      uint32_t idx = free_closures_.back();
      free_closures_.pop_back();
      closures_[idx] = std::move(fn);
      return idx;
    }
    closures_.push_back(std::move(fn));
    return static_cast<uint32_t>(closures_.size() - 1);
  }

  void Execute(TimerWheel::Entry& e);
  /// Shared Run/RunAll core: pops the (time, seq)-smallest of the wheel
  /// min and the overflow front until both drain or the next event is
  /// past `until`.
  uint64_t RunLoop(SimTime until);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  TimerWheel wheel_;
  // Events scheduled beyond the wheel's horizon, keyed by (time, seq);
  // they wait here until popped.
  std::map<std::pair<SimTime, uint64_t>, TimerWheel::Entry> overflow_;
  std::vector<Callback> closures_;  // pool for kClosure entries
  std::vector<uint32_t> free_closures_;
  uint64_t events_executed_ = 0;
  double wall_seconds_ = 0.0;
};

}  // namespace qanaat

#endif  // QANAAT_SIM_SIMULATOR_H_
