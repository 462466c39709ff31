#ifndef QANAAT_COMMON_FLAT_MAP_H_
#define QANAAT_COMMON_FLAT_MAP_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace qanaat {

/// Sorted-vector map for tiny key sets (collections, shard refs): the
/// per-commit ledger-head and γ-state lookups walk a handful of entries,
/// where std::map paid a pointer-chasing tree node per probe. Lookup is
/// a binary search over contiguous pairs; iteration is in ascending key
/// order (same order as the tree it replaces). Requires K to provide
/// operator< and operator==.
template <typename K, typename V>
class FlatMap {
 public:
  using Entry = std::pair<K, V>;

  /// Value for `k`, default-constructing on first touch.
  V& operator[](const K& k) {
    auto it = LowerBound(k);
    if (it != entries_.end() && it->first == k) return it->second;
    return entries_.insert(it, Entry{k, V{}})->second;
  }

  const V* Find(const K& k) const {
    auto it = LowerBound(k);
    return it != entries_.end() && it->first == k ? &it->second : nullptr;
  }
  V* Find(const K& k) {
    auto it = LowerBound(k);
    return it != entries_.end() && it->first == k ? &it->second : nullptr;
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  typename std::vector<Entry>::const_iterator begin() const {
    return entries_.begin();
  }
  typename std::vector<Entry>::const_iterator end() const {
    return entries_.end();
  }

 private:
  typename std::vector<Entry>::iterator LowerBound(const K& k) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), k,
        [](const Entry& e, const K& key) { return e.first < key; });
  }
  typename std::vector<Entry>::const_iterator LowerBound(const K& k) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), k,
        [](const Entry& e, const K& key) { return e.first < key; });
  }

  std::vector<Entry> entries_;
};

}  // namespace qanaat

#endif  // QANAAT_COMMON_FLAT_MAP_H_
