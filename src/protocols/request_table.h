#ifndef QANAAT_PROTOCOLS_REQUEST_TABLE_H_
#define QANAAT_PROTOCOLS_REQUEST_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/rng.h"
#include "common/types.h"

namespace qanaat {

struct ReplyCertMsg;

/// Open-addressed flat map from request identity (client, client
/// timestamp) to the time it was last recorded, and whether that record
/// was an observation in a proposal rather than this node's own intake:
/// the shape of an ordering node's expiring per-request dedup window,
/// which holds only requests not yet committed at its node. The table is
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
 public:
  using RequestId = std::pair<NodeId, uint64_t>;

  struct Entry {
    uint64_t ts = 0;
    SimTime when = 0;
    NodeId client = kInvalidNode;
    /// The record at `when` was an observation, not intake. It sits in
    /// the entry's padding.
    bool observed = false;
  };

  /// Records `id` at `when`, overwriting an earlier record.
  void Put(const RequestId& id, SimTime when, bool observed = false) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    Entry& e = slots_[ProbeFor(id, slots_)];
    if (e.client == kInvalidNode) {
      e.client = id.first;
      e.ts = id.second;
      ++size_;
    }
    e.when = when;
    e.observed = observed;
  }

  /// The entry recorded for `id`, or nullptr when absent.
  const Entry* Find(const RequestId& id) const {
    if (slots_.empty()) return nullptr;
    const Entry& e = slots_[ProbeFor(id, slots_)];
    return e.client == kInvalidNode ? nullptr : &e;
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

  static constexpr size_t kMinCapacity = 64;

  std::vector<Entry> slots_;
  size_t size_ = 0;
};

static_assert(sizeof(RequestTable::Entry) == 24,
              "the observed bit must fit in the entry's padding");

/// An ordering node's at-most-once record of committed requests, per
/// client: the client's settle mark (the highest
/// Transaction::settled_below this node has seen from it) and the
/// timestamps at or above the mark that committed here. Every timestamp
/// below the mark has settled, so it reads as committed and is not
/// stored: raising the mark drops the timestamps below it. What is left
/// is a sparse subsequence (a client spreads its requests over clusters)
/// of the client's requests from its oldest unsettled one on, in one
/// ascending vector per client. Requests commit nearly in timestamp
/// order, so almost every insert is an append and the rest land a few
/// places from the end.
class RequestSet {
 public:
  using RequestId = std::pair<NodeId, uint64_t>;

  /// Raises `client`'s mark to `mark` and drops its timestamps below
  /// it. A mark never moves back: a lower one changes nothing. Returns
  /// true if the mark rose.
  bool RaiseMark(NodeId client, uint64_t mark) {
    Record& r = by_client_[client];
    if (mark <= r.mark) return false;
    r.mark = mark;
    auto below = std::lower_bound(r.ts.begin(), r.ts.end(), mark);
    size_ -= static_cast<size_t>(below - r.ts.begin());
    r.ts.erase(r.ts.begin(), below);
    return true;
  }

  uint64_t MarkOf(NodeId client) const {
    const Record* r = by_client_.Find(client);
    return r == nullptr ? 0 : r->mark;
  }

  /// Records `id` as committed; below its client's mark it already is.
  void Insert(const RequestId& id) {
    Record& r = by_client_[id.first];
    if (id.second < r.mark) return;
    std::vector<uint64_t>& ts = r.ts;
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
    const Record* r = by_client_.Find(id.first);
    return r != nullptr &&
           (id.second < r->mark ||
            std::binary_search(r->ts.begin(), r->ts.end(), id.second));
  }

  /// Timestamps stored, all at or above their client's mark.
  size_t size() const { return size_; }

 private:
  struct Record {
    uint64_t mark = 0;
    std::vector<uint64_t> ts;  // ascending, each >= mark
  };
  FlatMap<NodeId, Record> by_client_;
  size_t size_ = 0;
};

/// Behind the privacy firewall, the requests this cluster owns (it
/// replies for their blocks, §4.2), per client: each one committed here
/// at or above its client's settle mark, with the reply certificate that
/// answers it once a verified one has come down the firewall. A backup
/// answers a client's retransmission from here with one lookup. The
/// owner drops a client's entries below its rising mark (DropBelow), so
/// a certificate lives only while a request it covers can still be
/// retransmitted.
class ReplyRecord {
 public:
  using RequestId = std::pair<NodeId, uint64_t>;
  using CertRef = std::shared_ptr<const ReplyCertMsg>;

  /// Records `id` as owned here, still without a certificate.
  void Own(const RequestId& id) {
    std::vector<Entry>& v = by_client_[id.first];
    auto it = v.end();
    if (!v.empty() && v.back().ts >= id.second) {
      it = LowerBound(v, id.second);
      if (it != v.end() && it->ts == id.second) return;
    }
    v.insert(it, Entry{id.second, nullptr});
    ++size_;
  }

  /// True if a request of `ids` is owned here and has no certificate.
  bool Awaits(const std::vector<RequestId>& ids) const {
    for (const RequestId& id : ids) {
      const Entry* e = FindEntry(id);
      if (e != nullptr && e->cert == nullptr) return true;
    }
    return false;
  }

  /// Gives `cert` to every request of `ids` owned here that has none;
  /// returns how many took it.
  size_t Attach(const std::vector<RequestId>& ids, const CertRef& cert) {
    size_t attached = 0;
    for (const RequestId& id : ids) {
      Entry* e = FindEntry(id);
      if (e == nullptr || e->cert != nullptr) continue;
      e->cert = cert;
      ++attached;
    }
    return attached;
  }

  /// The certificate that answers `id`, or nullptr.
  CertRef Find(const RequestId& id) const {
    const Entry* e = FindEntry(id);
    return e == nullptr ? nullptr : e->cert;
  }

  /// Drops `client`'s entries below `mark`.
  void DropBelow(NodeId client, uint64_t mark) {
    std::vector<Entry>* v = by_client_.Find(client);
    if (v == nullptr) return;
    auto below = LowerBound(*v, mark);
    size_ -= static_cast<size_t>(below - v->begin());
    v->erase(v->begin(), below);
  }

  /// Owned requests recorded, with or without a certificate.
  size_t size() const { return size_; }

 private:
  struct Entry {
    uint64_t ts = 0;
    CertRef cert;
  };

  template <class Entries>
  static auto LowerBound(Entries& v, uint64_t ts) -> decltype(v.begin()) {
    return std::lower_bound(
        v.begin(), v.end(), ts,
        [](const Entry& e, uint64_t t) { return e.ts < t; });
  }

  const Entry* FindEntry(const RequestId& id) const {
    const std::vector<Entry>* v = by_client_.Find(id.first);
    if (v == nullptr) return nullptr;
    auto it = LowerBound(*v, id.second);
    return it != v->end() && it->ts == id.second ? &*it : nullptr;
  }
  Entry* FindEntry(const RequestId& id) {
    return const_cast<Entry*>(std::as_const(*this).FindEntry(id));
  }

  FlatMap<NodeId, std::vector<Entry>> by_client_;
  size_t size_ = 0;
};

}  // namespace qanaat

#endif  // QANAAT_PROTOCOLS_REQUEST_TABLE_H_
