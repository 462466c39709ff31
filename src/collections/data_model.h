#ifndef QANAAT_COLLECTIONS_DATA_MODEL_H_
#define QANAAT_COLLECTIONS_DATA_MODEL_H_

#include <map>
#include <set>
#include <vector>

#include "collections/collection_id.h"
#include "common/status.h"

namespace qanaat {

/// The hierarchical data model of a Qanaat deployment (paper §3.2, Fig 2).
///
/// Tracks every data collection across all registered collaboration
/// workflows. Collections are keyed by their enterprise set, so when an
/// enterprise (or group) participates in several workflows the same
/// collection object is shared — this is how Qanaat provides consistency
/// across workflows (Fig 2(c): d_L, d_M, d_LM shared between the KLM and
/// LMN workflows).
class DataModel {
 public:
  explicit DataModel(int enterprise_count);

  int enterprise_count() const { return enterprise_count_; }

  /// Registers a collaboration workflow among `members`: creates (or
  /// reuses) the root collection d_members and a local collection per
  /// member. Intermediate collections are added separately — they are
  /// optional and exist only where a subset actually collaborates.
  Status AddWorkflow(EnterpriseSet members);

  /// Creates an intermediate collection shared by `members` (must be a
  /// subset of some workflow's members, with 2 <= |members| < workflow
  /// size). `shard_count` is the sharding schema agreed by all involved
  /// enterprises (§3.6); 0 means "use the deployment default".
  Status AddIntermediateCollection(EnterpriseSet members, int shard_count = 0);

  /// The sharding schema of a collection.
  int ShardCountOf(const CollectionId& c) const;
  void set_default_shard_count(int s) { default_shards_ = s; }

  bool HasCollection(const CollectionId& c) const;
  std::vector<CollectionId> Collections() const;

  /// All collections enterprise `e` maintains: its local collection, every
  /// root it participates in, and every intermediate containing it (§3.2:
  /// "every enterprise maintains all data collections that the enterprise
  /// is involved in").
  std::vector<CollectionId> MaintainedBy(EnterpriseId e) const;

  /// All *existing* collections d_Y (Y ≠ X) that d_X is order-dependent
  /// on, i.e. X ⊂ Y. These are the γ entries the ordering primary captures
  /// when assigning a TxId on d_X (§4.1).
  std::vector<CollectionId> OrderDependenciesOf(const CollectionId& x) const;

  /// Write rule (§3.2): results of a transaction executed on d_X are
  /// written only to d_X, and the submitting enterprise must be involved.
  Status ValidateWrite(const CollectionId& target,
                       EnterpriseId initiator) const;

  /// Read rule (§3.2/§3.5): a transaction on d_X may read d_Y iff X ⊆ Y
  /// and both exist.
  Status ValidateRead(const CollectionId& on, const CollectionId& from) const;

  /// Access rule (§3.5 rule 1): may enterprise `e` access records of `c`?
  bool CanAccess(EnterpriseId e, const CollectionId& c) const {
    return c.members.Contains(e);
  }

 private:
  int enterprise_count_;
  int default_shards_ = 1;
  std::set<EnterpriseSet> workflows_;
  std::map<CollectionId, int> collections_;  // -> shard count (0 = default)
};

}  // namespace qanaat

#endif  // QANAAT_COLLECTIONS_DATA_MODEL_H_
