#include "store/mvstore.h"

#include <algorithm>

namespace qanaat {

size_t MvStore::BucketOf(Key key) const {
  size_t mask = index_.size() - 1;
  size_t i = HashKey(key) & mask;
  while (index_[i] != kEmptyBucket && At(index_[i]).key != key) {
    i = (i + 1) & mask;
  }
  return i;
}

void MvStore::GrowIndex() {
  std::vector<uint32_t> bigger(index_.size() * 2, kEmptyBucket);
  size_t mask = bigger.size() - 1;
  for (uint32_t pos : index_) {
    if (pos == kEmptyBucket) continue;
    size_t i = HashKey(At(pos).key) & mask;
    while (bigger[i] != kEmptyBucket) i = (i + 1) & mask;
    bigger[i] = pos;
  }
  index_.swap(bigger);
}

Status MvStore::Put(Key key, Value value, SeqNo version) {
  uint32_t& pos = index_[BucketOf(key)];
  if (pos == kEmptyBucket) {
    pos = key_count_++;
    if ((pos & (kChunk - 1)) == 0) {
      chunks_.push_back(std::make_unique<Latest[]>(kChunk));
    }
    At(pos) = {key, version, value};
    // Keep the load factor under 1/2 so probe runs stay short.
    if (size_t{key_count_} * 2 > index_.size()) GrowIndex();
  } else {
    Latest& cur = At(pos);
    if (cur.version > version) {
      return Status::FailedPrecondition(
          "version regression on key " + std::to_string(key) + ": " +
          std::to_string(cur.version) + " -> " + std::to_string(version));
    }
    if (cur.version < version) {
      superseded_[key].push_back({cur.version, cur.value});
      cur.version = version;
    }
    cur.value = value;
  }
  latest_version_ = std::max(latest_version_, version);
  return Status::Ok();
}

StatusOr<MvStore::Value> MvStore::Get(Key key) const {
  const Value* v = Find(key);
  if (v == nullptr) return Status::NotFound("key " + std::to_string(key));
  return *v;
}

StatusOr<MvStore::Value> MvStore::GetAt(Key key, SeqNo max_version) const {
  uint32_t pos = index_[BucketOf(key)];
  if (pos == kEmptyBucket) {
    return Status::NotFound("key " + std::to_string(key));
  }
  const Latest& cur = At(pos);
  if (cur.version <= max_version) return cur.value;
  auto older = superseded_.find(key);
  if (older != superseded_.end()) {
    const auto& chain = older->second;
    // Last version <= max_version.
    auto it = std::upper_bound(
        chain.begin(), chain.end(), max_version,
        [](SeqNo v, const VersionedValue& vv) { return v < vv.version; });
    if (it != chain.begin()) return std::prev(it)->value;
  }
  return Status::NotFound("key " + std::to_string(key) +
                          " absent at version " +
                          std::to_string(max_version));
}

size_t MvStore::VersionCountOf(Key key) const {
  if (Find(key) == nullptr) return 0;
  auto older = superseded_.find(key);
  return 1 + (older == superseded_.end() ? 0 : older->second.size());
}

uint64_t MvStore::Fingerprint() const {
  // Commutative accumulation (sum of mixed per-key words): key order
  // follows insertion history, which differs between a replica that
  // executed live and one rebuilt by state transfer, and must not affect
  // the result.
  uint64_t acc = 0;
  for (uint32_t pos = 0; pos < key_count_; ++pos) {
    const Latest& e = At(pos);
    uint64_t w = Mix64(e.key + 0x9e3779b97f4a7c15ULL);
    w ^= Mix64(e.version + 0x51ed270b9f652295ULL);
    w ^= Mix64(static_cast<uint64_t>(e.value));
    acc += Mix64(w);
  }
  return acc;
}

Status WriteBatch::ApplyTo(MvStore* store, SeqNo version) const {
  for (const auto& [k, v] : writes_) {
    QANAAT_RETURN_IF_ERROR(store->Put(k, v, version));
  }
  return Status::Ok();
}

}  // namespace qanaat
