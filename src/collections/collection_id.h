#ifndef QANAAT_COLLECTIONS_COLLECTION_ID_H_
#define QANAAT_COLLECTIONS_COLLECTION_ID_H_

#include <string>

#include "common/enterprise_set.h"
#include "common/types.h"

namespace qanaat {

/// Identifier of a data collection (paper §3.2): the set of enterprises
/// that share it. d_A is a local collection, d_ABCD the root of a
/// 4-enterprise workflow, d_AB an intermediate collection.
///
/// A collection is a *logical* partition — creating one has no
/// configuration cost — and the same EnterpriseSet denotes the same
/// collection across all workflows those enterprises participate in
/// (§3.2's cross-workflow consistency rule).
struct CollectionId {
  EnterpriseSet members;

  CollectionId() = default;
  explicit CollectionId(EnterpriseSet m) : members(m) {}

  bool IsLocal() const { return members.size() == 1; }
  bool IsRootOf(int enterprise_count) const {
    return members == EnterpriseSet::All(enterprise_count);
  }

  /// Order-dependency (§3.2): d_this is order-dependent on d_other iff
  /// this.members ⊆ other.members. Transactions here may then read
  /// d_other's records.
  bool OrderDependentOn(const CollectionId& other) const {
    return members.IsSubsetOf(other.members);
  }

  /// Read rule (§3.5 rule 2): a transaction executing on d_this may read
  /// records of d_other iff this ⊆ other.
  bool CanRead(const CollectionId& other) const {
    return OrderDependentOn(other);
  }

  /// Privacy-preserving verification direction (§3.2): d_this may *verify*
  /// (not read) records of d_other iff other ⊂ this.
  bool CanVerify(const CollectionId& other) const {
    return other.members.IsProperSubsetOf(members);
  }

  std::string Label() const { return "d_" + members.Label(); }

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.members);
  }

  friend bool operator==(const CollectionId& a, const CollectionId& b) {
    return a.members == b.members;
  }
  friend bool operator!=(const CollectionId& a, const CollectionId& b) {
    return !(a == b);
  }
  friend bool operator<(const CollectionId& a, const CollectionId& b) {
    return a.members < b.members;
  }
};

/// One shard of one data collection: the unit a cluster maintains and a
/// consensus instance orders (paper §3.6).
struct ShardRef {
  CollectionId collection;
  ShardId shard = 0;

  friend bool operator==(const ShardRef& a, const ShardRef& b) {
    return a.collection == b.collection && a.shard == b.shard;
  }
  friend bool operator<(const ShardRef& a, const ShardRef& b) {
    if (a.collection != b.collection) return a.collection < b.collection;
    return a.shard < b.shard;
  }

  std::string Label() const {
    return collection.Label() + "/" + std::to_string(shard);
  }
};

}  // namespace qanaat

#endif  // QANAAT_COLLECTIONS_COLLECTION_ID_H_
