#ifndef QANAAT_LEDGER_DAG_LEDGER_H_
#define QANAAT_LEDGER_DAG_LEDGER_H_

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "collections/collection_id.h"
#include "common/flat_map.h"
#include "common/status.h"
#include "crypto/signer.h"
#include "ledger/block.h"

namespace qanaat {

/// The DAG-structured blockchain ledger of one cluster (paper §3.3, Fig 3).
///
/// Entries of independent collections append in parallel (separate
/// chains); γ entries cross-link a block to the captured state of every
/// order-dependent collection. For cross-cluster blocks, each involved
/// cluster appends the *same block* (same digest, same certificate) under
/// its *own* ⟨α, γ⟩ — the per-cluster IDs are assigned during the
/// protocol and travel in prepared/accept messages, so the block digest
/// stays stable across clusters (paper §4.3.2: the commit message carries
/// the concatenation of the received IDs).
///
/// Appends enforce exactly the paper's two rules:
///   * local consistency — per collection shard, sequence numbers are
///     gapless and increasing;
///   * global consistency — γ is monotone w.r.t. the previous block of
///     the same collection shard.
class DagLedger {
 public:
  struct Entry {
    BlockPtr block;
    CommitCertificate cert;
    LocalPart alpha;  // this cluster's α for the block
    SimTime commit_time = 0;
    // This cluster's γ when it differs from the block's own: a
    // cross-cluster block appended under another cluster's assignment.
    // Null for the common case, a block appended under its own ID, which
    // then stores no second copy of block->id.gamma.
    std::unique_ptr<const std::vector<GammaEntry>> gamma_override;

    /// This cluster's γ capture for the block.
    const std::vector<GammaEntry>& gamma() const {
      return gamma_override != nullptr ? *gamma_override : block->id.gamma;
    }
  };

  DagLedger() = default;

  /// Appends a block ordered by this cluster (α/γ = block->id).
  Status Append(BlockPtr block, CommitCertificate cert, SimTime when);

  /// Appends a cross-cluster block under this cluster's own ID parts. A
  /// γ equal to the block's own is not copied.
  Status AppendFor(BlockPtr block, CommitCertificate cert, SimTime when,
                   const LocalPart& alpha_here,
                   const std::vector<GammaEntry>& gamma_here);

  /// Head sequence number (last committed α.n) of a collection shard;
  /// 0 if nothing committed yet.
  SeqNo HeadOf(const ShardRef& ref) const;

  /// γ-capture input (paper §4.1): the current state of collection `c`
  /// on this ledger = max committed n across its shards here.
  SeqNo StateOf(const CollectionId& c) const;

  size_t size() const { return entries_.size(); }
  const Entry& entry(size_t i) const { return entries_[i]; }
  const std::vector<size_t>& ChainOf(const ShardRef& ref) const;
  /// Every chain this ledger maintains (audit surface: cross-replica
  /// agreement is checked chain by chain).
  const std::map<ShardRef, std::vector<size_t>>& chains() const {
    return chains_;
  }

  uint64_t total_txs() const { return total_txs_; }

  /// Full audit: recomputes every block digest against its certificate
  /// and re-checks both consistency rules along every chain. Detects any
  /// post-commit tampering with block contents.
  Status VerifyChain(const KeyStore& ks, size_t cert_quorum) const;

 private:
  Status CheckAppend(const LocalPart& alpha,
                     const std::vector<GammaEntry>& gamma) const;
  static Status CheckGammaMonotone(const std::vector<GammaEntry>& earlier,
                                   const std::vector<GammaEntry>& later);

  // Append-only and read by index. A deque grows a block at a time, so
  // the ledger never carries a vector's doubling slack or holds two
  // copies of itself mid-growth, and references to entries stay valid.
  // A 128-byte Entry fills libstdc++'s 512-byte deque nodes exactly.
  std::deque<Entry> entries_;
  std::map<ShardRef, std::vector<size_t>> chains_;  // per collection shard
  // Hot per-commit lookups: flat sorted-vector maps (see common/flat_map.h).
  FlatMap<ShardRef, SeqNo> heads_;
  FlatMap<CollectionId, SeqNo> collection_state_;
  uint64_t total_txs_ = 0;
};

}  // namespace qanaat

#endif  // QANAAT_LEDGER_DAG_LEDGER_H_
