#ifndef QANAAT_COLLECTIONS_TX_ID_H_
#define QANAAT_COLLECTIONS_TX_ID_H_

#include <optional>
#include <string>
#include <vector>

#include "collections/collection_id.h"
#include "common/status.h"
#include "common/types.h"

namespace qanaat {

/// Local part α = [X:n] of a transaction ID (paper §3.3): collection label
/// X (+ the shard it executes on) and the sequence number n of the
/// transaction within that collection shard.
struct LocalPart {
  CollectionId collection;
  ShardId shard = 0;
  SeqNo n = 0;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.collection) && io(m.shard) && io(m.n);
  }

  std::string ToString() const;

  friend bool operator==(const LocalPart& a, const LocalPart& b) {
    return a.collection == b.collection && a.shard == b.shard && a.n == b.n;
  }
};

/// One entry Y:m of the global part γ: the local sequence number m of the
/// last transaction committed on order-dependent collection d_Y at the
/// time this transaction was ordered. Captures the state the executors
/// must read (paper §3.3, §4.2).
struct GammaEntry {
  CollectionId collection;
  SeqNo m = 0;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& e) {
    return io(e.collection) && io(e.m);
  }
  friend bool operator==(const GammaEntry& a, const GammaEntry& b) {
    return a.collection == b.collection && a.m == b.m;
  }
};

/// Transaction identifier ID = ⟨α, γ⟩ assigned during the ordering phase.
///
/// For cross-shard transactions the full ID is a *concatenation* of the
/// per-shard local parts (paper §4.3.2: "the ID of the commit messages is
/// a concatenation of the received IDs"); `alpha` is the part for the
/// shard at hand and `extra_alphas` the parts assigned by other involved
/// clusters.
struct TxId {
  LocalPart alpha;
  std::vector<LocalPart> extra_alphas;
  std::vector<GammaEntry> gamma;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.alpha) && io.List16(m.extra_alphas) && io.List16(m.gamma);
  }

  /// γ lookup: sequence captured for collection Y, if present.
  std::optional<SeqNo> GammaFor(const CollectionId& y) const;

  std::string ToString() const;

  friend bool operator==(const TxId& a, const TxId& b) {
    return a.alpha == b.alpha && a.extra_alphas == b.extra_alphas &&
           a.gamma == b.gamma;
  }
};

/// The ⟨α, γ⟩ a cluster assigned for its shard of a cross-cluster block
/// (paper §4.3.2: the full ID of a cross-shard transaction concatenates
/// the IDs assigned by every involved cluster). The shared-collection
/// chain of a shard is replicated identically across enterprises, so the
/// assignment of the initiator-enterprise cluster applies to every
/// cluster maintaining that shard.
struct ShardAssignment {
  int cluster = 0;
  LocalPart alpha;
  std::vector<GammaEntry> gamma;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.cluster) && io(m.alpha) && io.List16(m.gamma);
  }
  friend bool operator==(const ShardAssignment& x, const ShardAssignment& y) {
    return x.cluster == y.cluster && x.alpha == y.alpha && x.gamma == y.gamma;
  }
};

/// The two blockchain-ledger consistency predicates of §3.3. `earlier`
/// and `later` must be transactions of the same data collection with
/// earlier ordered before later.
///
/// * Local consistency:  earlier.n < later.n
/// * Global consistency: ∀ d_Y ∈ γ(earlier) ∩ γ(later):
///                       earlier.m ≤ later.m
Status CheckLocalConsistency(const TxId& earlier, const TxId& later);
Status CheckGlobalConsistency(const TxId& earlier, const TxId& later);

}  // namespace qanaat

#endif  // QANAAT_COLLECTIONS_TX_ID_H_
