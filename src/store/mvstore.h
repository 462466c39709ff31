#ifndef QANAAT_STORE_MVSTORE_H_
#define QANAAT_STORE_MVSTORE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"

namespace qanaat {

/// Multi-versioned key-value store backing one shard of one data
/// collection on an execution node.
///
/// Paper §4.2: "Data collections store data in multi-versioned datastores
/// to enable nodes to read the version they need to" — executors resolve
/// reads of order-dependent collections at exactly the sequence number
/// captured in the transaction's γ, so every replica reads the same state.
///
/// Versions are the local sequence numbers of the committing transactions
/// and are therefore monotonically increasing per store.
///
/// Every executing replica keeps one store per (collection, shard) and
/// nearly every key ends a run with exactly one version, so the layout is
/// built around that case: a key costs one 24-byte (key, version, value)
/// record in a dense array plus a 4-byte index bucket, with no heap block
/// of its own. Only keys written at more than one version reach the
/// side table of superseded versions.
class MvStore {
 public:
  using Key = uint64_t;
  using Value = int64_t;

  MvStore() : index_(kInitialBuckets, kEmptyBucket) {}

  /// Installs `value` for `key` at `version`. Versions must not decrease
  /// across calls for the same key (enforced; ledger order guarantees it).
  /// A write at the key's current version overwrites its value (the last
  /// write of one transaction wins).
  Status Put(Key key, Value value, SeqNo version);

  /// Latest committed value.
  StatusOr<Value> Get(Key key) const;

  /// Allocation-free read of the latest committed value: nullptr when the
  /// key is absent. The execution hot path reads keys that often do not
  /// exist yet (first touch of an account), and Get's NotFound status
  /// builds a std::string per miss — measurable at hundreds of thousands
  /// of reads per run.
  const Value* Find(Key key) const {
    uint32_t pos = index_[BucketOf(key)];
    return pos == kEmptyBucket ? nullptr : &latest_[pos].value;
  }

  /// Snapshot read: the value as of version <= max_version (the γ-capture
  /// read path). NotFound if the key did not exist at that version.
  StatusOr<Value> GetAt(Key key, SeqNo max_version) const;

  /// Highest version ever written to this store.
  SeqNo latest_version() const { return latest_version_; }

  size_t key_count() const { return latest_.size(); }

  /// Number of versions retained for `key` (0 if absent).
  size_t VersionCountOf(Key key) const;

  /// Order-independent fingerprint over every key's latest (version,
  /// value): the state-identity surface the chaos auditor compares
  /// across replicas of a chain. Two stores built by executing the same
  /// blocks in the same per-chain order always fingerprint equal,
  /// regardless of key insertion order.
  uint64_t Fingerprint() const;

 private:
  /// A key's newest version, inline.
  struct Latest {
    Key key;
    SeqNo version;
    Value value;
  };
  struct VersionedValue {
    SeqNo version;
    Value value;
  };

  static constexpr uint32_t kEmptyBucket = UINT32_MAX;
  // Small initial table: deployments build one store per (collection,
  // shard) per node and most stay tiny, so construction cost matters as
  // much as steady-state probes. Growth doubles under load factor 1/2.
  static constexpr size_t kInitialBuckets = 1 << 8;  // power of two

  static size_t HashKey(Key k) {
    return static_cast<size_t>(Mix64(k + 0x9e3779b97f4a7c15ULL));
  }

  /// Bucket of `key`'s index entry, or the empty bucket where it belongs.
  size_t BucketOf(Key key) const;
  void GrowIndex();

  // Newest version of every key, in first-write order.
  std::vector<Latest> latest_;
  // Linear-probed open addressing over positions in latest_: the key is
  // compared in place there, so it is stored once.
  std::vector<uint32_t> index_;
  // Older versions of keys written more than once, ascending and all
  // below the key's entry in latest_. Off the hot path: only a key's
  // second and later versions, and snapshot reads older than its newest
  // version, reach it.
  std::unordered_map<Key, std::vector<VersionedValue>> superseded_;
  SeqNo latest_version_ = 0;
};

/// A buffered set of writes produced by executing one transaction, applied
/// atomically at commit version.
class WriteBatch {
 public:
  // Transactions write a handful of keys; one reservation avoids the
  // grow-from-empty reallocations that showed up on the execution path.
  WriteBatch() { writes_.reserve(8); }

  void Put(MvStore::Key key, MvStore::Value value) {
    writes_.push_back({key, value});
  }
  size_t size() const { return writes_.size(); }
  bool empty() const { return writes_.empty(); }

  /// Applies every write at `version`.
  Status ApplyTo(MvStore* store, SeqNo version) const;

  const std::vector<std::pair<MvStore::Key, MvStore::Value>>& writes() const {
    return writes_;
  }

 private:
  std::vector<std::pair<MvStore::Key, MvStore::Value>> writes_;
};

}  // namespace qanaat

#endif  // QANAAT_STORE_MVSTORE_H_
