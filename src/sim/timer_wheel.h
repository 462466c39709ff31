#ifndef QANAAT_SIM_TIMER_WHEEL_H_
#define QANAAT_SIM_TIMER_WHEEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/message.h"

namespace qanaat {

class Actor;

/// Hierarchical timing wheel holding the simulator's events — actor
/// timers (the dominant schedule churn: engine slot watchdogs, batcher
/// deadlines, fill/checkpoint timers), message delivery and handler
/// completion, whose horizons are transport latencies and CPU queues,
/// and the harness's generic closures. Insertion is O(1) — bucket index
/// arithmetic plus a push_back — where a binary heap pays O(log n) sift
/// cost per event against a queue full of long-lived timers that mostly
/// never fire.
///
/// Three levels of 256 slots cover deltas up to ~16.7 simulated seconds
/// (1 µs, 256 µs and 65536 µs of span per slot respectively); the
/// Simulator keeps the rare farther events in a small overflow store.
///
/// Determinism contract: the wheel pops entries in exactly the global
/// (time, seq) order — Min() reports the lexicographically smallest
/// (when, seq) so the Simulator can merge wheel events against overflow
/// events tie-break-identically, keeping every golden per-seed trace
/// hash unchanged.
///
/// Level-l slots are unambiguous time buckets because all pending
/// entries satisfy now <= when < now + 256^(l+1): an entry is placed at
/// the smallest level whose window covers its delta, and `now` only
/// advances past an entry by popping it. Within a level the circular
/// slot scan from slot(now) visits windows in increasing start order;
/// only slot(now) itself can hold two laps (its window is split by
/// `now`), which Min() handles by considering it separately.
///
/// Memory rule: a slot that empties keeps its buffer only if the buffer
/// holds at most kKeptSlotEntries entries; a larger one is freed. A
/// burst therefore cannot pin its size in a slot for the rest of the
/// run: the empty slots retain at most 768 x 64 entries (~3.5 MB) in
/// all, and only the drain bucket and the cascade scratch keep capacity
/// that grows with history. The floor keeps small buffers for sparse
/// traffic, which refills the same slots every lap: freeing every
/// emptied buffer costs a malloc/free pair per slot visit.
class TimerWheel {
 public:
  enum class Kind : uint8_t { kTimer = 0, kDeliver, kHandle, kClosure };

  /// The simulator's one event record. Field use per kind:
  ///   kTimer   — actor, epoch, a = tag, b = payload;
  ///   kDeliver — actor, epoch, b = sender, msg (arrival time = when);
  ///   kHandle  — actor, epoch, b = sender, msg;
  ///   kClosure — a = index into the Simulator's closure pool.
  struct Entry {
    SimTime when = 0;
    uint64_t seq = 0;
    Actor* actor = nullptr;
    uint64_t epoch = 0;
    uint64_t a = 0;
    uint64_t b = 0;
    MessageRef msg;
    Kind kind = Kind::kTimer;
  };

  static constexpr int kLevels = 3;
  static constexpr int kSlotBits = 8;
  static constexpr int kSlots = 1 << kSlotBits;
  /// Deltas at or beyond this must go to the overflow store.
  static constexpr SimTime kHorizon = SimTime{1}
                                      << (kSlotBits * kLevels);  // ~16.7 s
  /// Largest buffer (in entries, ~4.6 KB) an emptied slot keeps.
  static constexpr size_t kKeptSlotEntries = 64;

  TimerWheel()
      : slots_(kLevels * kSlots), slot_min_(kLevels * kSlots) {}

  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }

  /// Files a new entry at (when, seq), now <= when < now + kHorizon, and
  /// returns it for the caller to fill in before the next wheel call.
  /// `seq` must exceed every previously issued sequence number (the
  /// Simulator's global counter guarantees it). Filling in place keeps
  /// Entry temporaries off the schedule paths: an Entry handed through a
  /// shared insert helper stayed on the stack under GCC 12, ~4% of the
  /// timer storm's CPU time.
  Entry& Emplace(SimTime now, SimTime when, uint64_t seq) {
    if (cache_valid_ && when < cache_when_) cache_valid_ = false;
    ++count_;
    Entry& e = SlotFor(when - now, when, seq).emplace_back();
    e.when = when;
    e.seq = seq;
    return e;
  }

  /// Earliest pending (when, seq); false when empty. `now` is the
  /// simulator clock (no pending entry is earlier than it).
  bool Min(SimTime now, SimTime* when, uint64_t* seq);

  /// Removes and returns the entry Min() reported. Requires a prior
  /// successful Min() with the same `now` (== the popped entry's time in
  /// the caller's merge loop, so cascades re-anchor windows correctly).
  Entry Pop(SimTime now);

  /// Total entry capacity held by the slot buffers (the drain bucket and
  /// the cascade scratch excluded).
  size_t slot_capacity() const;

 private:
  static constexpr int kBucketLevel = -1;

  std::vector<Entry>& Slot(int level, int idx) {
    return slots_[(level << kSlotBits) + idx];
  }

  /// The slot an entry (when, seq) at `delta` from now belongs to, marked
  /// occupied; the caller appends the entry.
  std::vector<Entry>& SlotFor(SimTime delta, SimTime when, uint64_t seq) {
    int level = delta < (SimTime{1} << kSlotBits)
                    ? 0
                    : delta < (SimTime{1} << (2 * kSlotBits)) ? 1 : 2;
    int idx = static_cast<int>(when >> (kSlotBits * level)) & (kSlots - 1);
    std::vector<Entry>& v = Slot(level, idx);
    // Per-slot min, kept O(1): entries only ever leave a slot via a
    // whole-slot drain or cascade, so the min never needs a rescan.
    SlotMinKey& m = slot_min_[(level << kSlotBits) + idx];
    if (v.empty() || when < m.when || (when == m.when && seq < m.seq)) {
      m.when = when;
      m.seq = seq;
    }
    bits_[level][idx >> 6] |= uint64_t{1} << (idx & 63);
    ++level_count_[level];
    return v;
  }

  void Place(SimTime delta, Entry e) {
    SlotFor(delta, e.when, e.seq).push_back(std::move(e));
  }

  /// First occupied slot of `level` in circular order from `start`;
  /// -1 when the level is empty.
  int ScanFrom(int level, int start) const;

  /// Moves a due level-0 slot (single tick) into the drain bucket,
  /// merging behind any still-pending same-tick entries.
  void DrainLevel0(int idx);

  /// Redistributes a level>=1 slot downward, re-anchored at `now` (the
  /// slot's min entry time, which the caller is about to pop).
  void Cascade(int level, int idx, SimTime now);

  struct SlotMinKey {
    SimTime when = 0;
    uint64_t seq = 0;
  };

  std::vector<std::vector<Entry>> slots_;
  std::vector<SlotMinKey> slot_min_;  // valid while the slot is occupied
  uint64_t bits_[kLevels][kSlots / 64] = {};
  int level_count_[kLevels] = {};  // entries per level: empty-level skip
  size_t count_ = 0;

  // Due entries for one tick, sorted by seq, consumed via bucket_pos_.
  // A drain swaps the due slot's buffer in here; the slot keeps the old
  // bucket buffer only if its capacity is at most kKeptSlotEntries.
  std::vector<Entry> bucket_;
  size_t bucket_pos_ = 0;
  SimTime bucket_time_ = 0;

  // Cached global-min location; invalidated by pops, cascades and
  // earlier-time inserts (later inserts always carry larger seq).
  bool cache_valid_ = false;
  SimTime cache_when_ = 0;
  uint64_t cache_seq_ = 0;
  int cache_level_ = kBucketLevel;
  int cache_slot_ = 0;

  // Cascade staging: takes the cascaded slot's buffer; the slot keeps the
  // old scratch buffer only if its capacity is at most kKeptSlotEntries.
  std::vector<Entry> scratch_;
};

}  // namespace qanaat

#endif  // QANAAT_SIM_TIMER_WHEEL_H_
