#ifndef QANAAT_LEDGER_TRANSACTION_H_
#define QANAAT_LEDGER_TRANSACTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "collections/collection_id.h"
#include "common/types.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"

namespace qanaat {

/// One primitive operation inside a transaction program. Transactions are
/// small op programs executed deterministically against the multi-version
/// store (the "business logic" of a data collection, §3.2).
struct TxOp {
  enum class Kind : uint8_t {
    kRead = 0,    // read key from own collection
    kWrite,       // write value to key in own collection
    kAdd,         // read-modify-write: key += delta (SmallBank sendPayment)
    kReadDep,     // read key from an order-dependent collection `dep`
  };

  Kind kind = Kind::kRead;
  uint64_t key = 0;
  int64_t value = 0;        // write value / add delta
  CollectionId dep;         // for kReadDep

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.kind) && io(m.key) && io(m.value) && io(m.dep);
  }
};

/// A client request ⟨REQUEST, op, tc, c⟩_σc (paper §4.1): an op program to
/// execute on one data collection, touching one or more of its shards.
struct Transaction {
  NodeId client = kInvalidNode;
  uint64_t client_ts = 0;           // timestamp tc (request dedup)
  CollectionId collection;          // the collection it executes on
  std::vector<ShardId> shards;      // involved shards, sorted; >1 = cross-shard
  EnterpriseId initiator = 0;       // enterprise whose cluster received it
  std::vector<TxOp> ops;
  Signature client_sig;             // over Digest()

  /// Cross-enterprise iff the target collection is shared (non-local).
  bool IsCrossEnterprise() const { return collection.members.size() > 1; }

  /// The canonical body: what Digest() covers and the client signs.
  template <class IO, class Self>
  static bool BodyFields(IO& io, Self& m) {
    return io(m.client) && io(m.client_ts) && io(m.collection) &&
           io.List16(m.shards) && io(m.initiator) && io.List16(m.ops);
  }
  /// Wire layout: the body, then the client's signature.
  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return BodyFields(io, m) && io(m.client_sig);
  }

  /// Digest of the canonical body — what the client signs. Memoized:
  /// transactions are immutable once signed. Audit paths that must
  /// detect post-hoc tampering call InvalidateDigest() first, or use
  /// RecomputeDigest() to hash the canonical bytes without touching the
  /// cache (no mutation of shared state).
  Sha256Digest Digest() const;
  Sha256Digest RecomputeDigest() const;
  void InvalidateDigest() const { digest_valid_ = false; }

 private:
  mutable Sha256Digest digest_cache_;
  mutable bool digest_valid_ = false;
};

}  // namespace qanaat

#endif  // QANAAT_LEDGER_TRANSACTION_H_
