#ifndef QANAAT_LEDGER_BLOCK_H_
#define QANAAT_LEDGER_BLOCK_H_

#include <memory>
#include <vector>

#include "collections/tx_id.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "ledger/transaction.h"

namespace qanaat {

/// A transaction block: the unit of ordering and of ledger append.
///
/// The primary batches pending requests of one collection shard into a
/// block and assigns the block an ID = ⟨α, γ⟩ during the ordering phase
/// (paper §4.1 — "to provide a total order among transaction blocks ...
/// the primary also assigns an ID"). α.n is the block's sequence number
/// on that collection shard; γ captures the state of every
/// order-dependent collection.
struct Block {
  TxId id;
  std::vector<Transaction> txs;
  /// Retry nonce: an aborted cross-cluster block is re-proposed with the
  /// same transactions and ID but a new attempt number, so the retry has
  /// a fresh digest (§4.3.5 deadlock resolution).
  uint32_t attempt = 0;

  /// Merkle root over transaction digests (set by Seal()).
  Sha256Digest tx_root;

  /// Seals the block: computes tx_root and memoizes the block digest.
  /// Must be called after the tx list and id are final.
  void Seal();

  /// Digest covering id + tx_root: what consensus orders and commit
  /// certificates sign. Memoized by Seal(); blocks are immutable once
  /// sealed, so the hot paths (consensus, certificates, audits) reuse
  /// the cached value the way Transaction::Digest() does.
  Sha256Digest Digest() const;

  /// Audit helpers: recompute tamper-evidence from canonical bytes,
  /// bypassing every memoized digest and without mutating shared state.
  /// RecomputeTxRoot() re-hashes every transaction body and rebuilds the
  /// Merkle root; RecomputeDigest(root) re-derives the block digest a
  /// certificate must cover, given that recomputed root.
  Sha256Digest RecomputeTxRoot() const;
  Sha256Digest RecomputeDigest(const Sha256Digest& root) const;
  /// Drops the memoized digest after in-place mutation (tests, Byzantine
  /// models); the next Digest() recomputes from the current contents.
  void InvalidateDigest() const { digest_valid_ = false; }

  size_t tx_count() const { return txs.size(); }

  /// Wire layout (id, attempt, transactions). tx_root is not encoded: a
  /// decoded block re-seals, so a tampered body cannot smuggle a stale
  /// root past the digest check.
  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    if (!(io(m.id) && io(m.attempt) && io.List32(m.txs))) return false;
    if constexpr (IO::kDecoding) m.Seal();
    return true;
  }

 private:
  mutable Sha256Digest digest_cache_;
  mutable bool digest_valid_ = false;
};

using BlockPtr = std::shared_ptr<const Block>;

/// False iff `block` is present but does not hash to `digest`: the check
/// every message that carries a block beside the digest it claims makes
/// on decode.
inline bool CarriedBlockMatches(const BlockPtr& block,
                                const Sha256Digest& digest) {
  return block == nullptr || block->Digest() == digest;
}

/// Derives a 256-bit digest from (salt, a, b, parent digest) with two
/// lanes of chained SplitMix64 finalizers. The protocol-internal digest
/// derivations below (value digests, consensus signables, vote signables)
/// use this instead of an inner SHA-256: they only ever feed equality
/// checks and KeyStore sign/verify, both sides derive them with the same
/// deterministic function, and unforgeability still rests entirely on the
/// KeyStore's secret key — so the substitution argument (README) is
/// unchanged while the sim-core hot path drops most of its SHA cost.
/// Content digests (transactions, blocks, results) remain real SHA-256.
Sha256Digest DeriveDigest(uint64_t salt, uint64_t a, uint64_t b,
                          const Sha256Digest& parent);

/// Digest of a consensus value: derived from (kind ‖ block digest).
/// Defined here so commit certificates can be verified by parties outside
/// the consensus engine (filters, other clusters) from the block digest
/// alone.
Sha256Digest ValueDigestFor(uint8_t kind, const Sha256Digest& block_digest);

/// What PBFT prepare/commit signatures cover: derived from (view ‖ slot ‖
/// value digest).
Sha256Digest ConsensusSignable(ViewNo view, uint64_t slot,
                               const Sha256Digest& value_digest);

/// What checkpoint votes sign: derived from (slot ‖ history digest),
/// where the history digest chains the value digests of every delivered
/// slot up to `slot`. Matching votes from a quorum make the checkpoint
/// stable — the engine may then garbage-collect slot state at or below
/// it, and a certificate of those votes proves the frontier to a
/// recovering replica.
Sha256Digest CheckpointSignable(uint64_t slot,
                                const Sha256Digest& history_digest);

/// Commit certificate: signatures from a quorum (local-majority) of a
/// cluster's ordering nodes proving a block was ordered (paper §4.2).
/// Appended to the ledger with the block so any later tampering with
/// block data is detectable.
///
/// Two forms:
///  * PBFT form — the signatures are the COMMIT-phase signatures, which
///    cover ConsensusSignable(view, slot, ValueDigestFor(kind, d));
///  * direct form (`direct == true`) — crash clusters and flattened
///    commit votes sign the block digest itself.
struct CommitCertificate {
  Sha256Digest block_digest;
  ViewNo view = 0;
  uint64_t slot = 0;
  uint8_t value_kind = 1;  // ConsensusValue::Kind::kBlock
  bool direct = false;
  std::vector<Signature> sigs;

  /// Valid iff >= quorum distinct valid signatures over the covered
  /// digest.
  bool Valid(const KeyStore& ks, size_t quorum) const;

  /// As Valid, additionally requiring every signer to be a member of
  /// `allowed` (e.g. the ordering nodes of the claimed cluster).
  bool ValidFrom(const KeyStore& ks, size_t quorum,
                 const std::vector<NodeId>& allowed) const;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.block_digest) && io(m.view) && io(m.slot) &&
           io(m.value_kind) && io(m.direct) && io.List32(m.sigs);
  }

  friend bool operator==(const CommitCertificate& a,
                         const CommitCertificate& b) {
    return a.block_digest == b.block_digest && a.view == b.view &&
           a.slot == b.slot && a.value_kind == b.value_kind &&
           a.direct == b.direct && a.sigs == b.sigs;
  }

 private:
  Sha256Digest CoveredDigest() const;
};

/// Reply certificate: g+1 matching signed replies from distinct execution
/// nodes, assembled by the top filter row (paper §4.2). The client accepts
/// a result only with a valid reply certificate: each share must verify
/// against ExecReplyMsg::Signable of the certified result and clients.
struct ReplyCertificate {
  std::vector<Signature> sigs;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) { return io.List32(m.sigs); }
};

}  // namespace qanaat

#endif  // QANAAT_LEDGER_BLOCK_H_
