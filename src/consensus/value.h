#ifndef QANAAT_CONSENSUS_VALUE_H_
#define QANAAT_CONSENSUS_VALUE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "collections/tx_id.h"
#include "crypto/sha256.h"
#include "ledger/block.h"

namespace qanaat {

/// What a cluster's internal consensus agrees on. Either a transaction
/// block (the normal case), or a cross-cluster protocol step — the
/// coordinator-based protocols of §4.3 run internal consensus twice: once
/// on the block order (kXOrder, which for involved clusters also fixes
/// the locally assigned ⟨α, γ⟩), then again on the commit/abort decision
/// after collecting prepared messages (kXCommit / kXAbort, which fixes
/// the full concatenated ID).
struct ConsensusValue {
  enum class Kind : uint8_t {
    kNoop = 0,
    kBlock,        // order this block on our shard and commit it
    kXOrder,       // order a cross-cluster block (prepare-phase consensus)
    kXCommit,      // commit decision for a cross-cluster block
    kXAbort,       // abort decision for a cross-cluster block
  };

  Kind kind = Kind::kNoop;
  BlockPtr block;              // the block the value refers to
  Sha256Digest block_digest;   // digest of `block` (precomputed)
  /// Why the batcher cut the batch this block carries (a BatchClose
  /// value); observability only — not folded into the digest.
  uint8_t batch_close = 0;
  /// kXOrder at an involved cluster: the single assignment this cluster
  /// made. kXCommit: every assignment collected in the prepared phase.
  std::vector<ShardAssignment> assignments;

  /// Digest of the value itself (what consensus messages sign):
  /// H(kind ‖ block digest). Assignments are not folded in so the
  /// resulting commit certificate stays verifiable from the block digest
  /// alone (filters, remote clusters); assignments are bound by the
  /// individually signed prepared/accept messages instead.
  Sha256Digest Digest() const {
    return ValueDigestFor(static_cast<uint8_t>(kind), block_digest);
  }

  static ConsensusValue ForBlock(BlockPtr b) {
    ConsensusValue v;
    v.kind = Kind::kBlock;
    v.block_digest = b->Digest();
    v.block = std::move(b);
    return v;
  }

  /// Every kind but kNoop and kXAbort carries its block, and a carried
  /// block hashes to block_digest. Digest() covers only (kind,
  /// block_digest), so a valid signature over it does not vouch for the
  /// block: the decoder checks this rule, and so do PBFT's pre-prepare
  /// and fill paths.
  bool CarriesItsBlock() const {
    if (block == nullptr) return kind == Kind::kNoop || kind == Kind::kXAbort;
    return CarriedBlockMatches(block, block_digest);
  }

  /// Wire layout. The block travels by value and re-seals on decode.
  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.kind) && io.Check(m.kind <= Kind::kXAbort) &&
           io(m.block_digest) && io(m.batch_close) && io(m.block) &&
           io.Check(m.CarriesItsBlock()) && io.List16(m.assignments);
  }
};

}  // namespace qanaat

#endif  // QANAAT_CONSENSUS_VALUE_H_
