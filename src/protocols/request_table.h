#ifndef QANAAT_PROTOCOLS_REQUEST_TABLE_H_
#define QANAAT_PROTOCOLS_REQUEST_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/rng.h"
#include "common/types.h"

namespace qanaat {

/// Open-addressed flat map from request identity (client, client
/// timestamp) to a timestamp — the shape of an ordering node's two
/// expiring per-request dedup windows (intake and observation), which
/// hold only requests not yet committed at their node. These tables are
/// touched once or more per transaction per replica, where
/// std::unordered_map paid a node allocation per insert and a pointer
/// chase per lookup; here an entry is 24 contiguous bytes, inserts never
/// allocate below the load cap, and the periodic expiry sweep rebuilds
/// the table at its survivors' size instead of unlinking entries one by
/// one. Linear probing with power-of-two capacity and load factor <= 1/2
/// keeps probe runs short, erasure shifts a run back instead of leaving
/// tombstones, and kInvalidNode marks an empty slot (no real client
/// carries that id).
class RequestTable {
 private:
  struct Entry {
    uint64_t ts = 0;
    SimTime when = 0;
    NodeId client = kInvalidNode;
  };

  static constexpr size_t kMinCapacity = 64;

 public:
  using RequestId = std::pair<NodeId, uint64_t>;

  /// Inserts or overwrites the timestamp for `id`.
  void Put(const RequestId& id, SimTime when) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    Entry& e = slots_[ProbeFor(id, slots_)];
    if (e.client == kInvalidNode) {
      e.client = id.first;
      e.ts = id.second;
      ++size_;
    }
    e.when = when;
  }

  /// Timestamp recorded for `id`, or nullptr when absent.
  const SimTime* Find(const RequestId& id) const {
    if (slots_.empty()) return nullptr;
    const Entry& e = slots_[ProbeFor(id, slots_)];
    return e.client == kInvalidNode ? nullptr : &e.when;
  }

  /// Removes `id` if present (backward-shift deletion): each later entry
  /// of the probe run moves into the hole unless that would put it before
  /// its home slot, and the run's last hole becomes empty.
  void Erase(const RequestId& id) {
    if (size_ == 0) return;
    size_t mask = slots_.size() - 1;
    size_t hole = ProbeFor(id, slots_);
    if (slots_[hole].client == kInvalidNode) return;
    for (size_t j = (hole + 1) & mask; slots_[j].client != kInvalidNode;
         j = (j + 1) & mask) {
      size_t home = Hash({slots_[j].client, slots_[j].ts}) & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Entry{};
    --size_;
  }

  /// Drops every entry with timestamp < horizon by rebuilding at the
  /// smallest capacity that holds the survivors — O(n) once per expiry
  /// window.
  void PurgeBefore(SimTime horizon) {
    if (slots_.empty()) return;
    // Emptying a slot breaks probe runs, but Rehash reads only the
    // occupied slots and never probes this table.
    size_ = 0;
    for (Entry& e : slots_) {
      if (e.client != kInvalidNode && e.when < horizon) {
        e.client = kInvalidNode;
      }
      size_ += e.client != kInvalidNode;
    }
    size_t capacity = kMinCapacity;
    while (capacity < size_ * 2) capacity <<= 1;
    Rehash(capacity);
  }

  size_t size() const { return size_; }
  /// Slots allocated, occupied or not.
  size_t capacity() const { return slots_.size(); }

  /// `id`'s probe run starts at slot Hash(id) & (capacity() - 1).
  static size_t Hash(const RequestId& id) {
    return static_cast<size_t>(
        Mix64((static_cast<uint64_t>(id.first) << 32) ^
              (id.second + 0x9e3779b97f4a7c15ULL)));
  }

 private:
  /// Index of the slot holding `id`, or of the empty slot where it
  /// belongs.
  static size_t ProbeFor(const RequestId& id,
                         const std::vector<Entry>& slots) {
    size_t mask = slots.size() - 1;
    size_t i = Hash(id) & mask;
    while (slots[i].client != kInvalidNode &&
           (slots[i].client != id.first || slots[i].ts != id.second)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Grow() {
    Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
  }

  void Rehash(size_t capacity) {
    std::vector<Entry> fresh(capacity);
    for (const Entry& e : slots_) {
      if (e.client == kInvalidNode) continue;
      fresh[ProbeFor({e.client, e.ts}, fresh)] = e;
    }
    slots_.swap(fresh);
  }

  std::vector<Entry> slots_;
  size_t size_ = 0;
};

/// Set of request identities that never forgets: an ordering node's
/// permanent at-most-once record of committed requests. It stores only
/// the timestamps, each client's in one ascending vector, so a request
/// costs 8 bytes plus vector slack. Clients issue timestamps in order and
/// requests commit nearly in that order, so almost every insert is an
/// append and the rest land a few places from the end. A watermark per
/// client would not do: a client spreads its requests over clusters, so
/// each node holds a sparse subsequence of its timestamps.
class RequestSet {
 public:
  using RequestId = std::pair<NodeId, uint64_t>;

  void Insert(const RequestId& id) {
    std::vector<uint64_t>& ts = by_client_[id.first];
    if (ts.empty() || ts.back() < id.second) {
      ts.push_back(id.second);
    } else {
      auto it = std::lower_bound(ts.begin(), ts.end(), id.second);
      if (*it == id.second) return;
      ts.insert(it, id.second);
    }
    ++size_;
  }

  bool Contains(const RequestId& id) const {
    const std::vector<uint64_t>* ts = by_client_.Find(id.first);
    return ts != nullptr &&
           std::binary_search(ts->begin(), ts->end(), id.second);
  }

  size_t size() const { return size_; }

 private:
  FlatMap<NodeId, std::vector<uint64_t>> by_client_;
  size_t size_ = 0;
};

}  // namespace qanaat

#endif  // QANAAT_PROTOCOLS_REQUEST_TABLE_H_
