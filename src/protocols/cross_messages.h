#ifndef QANAAT_PROTOCOLS_CROSS_MESSAGES_H_
#define QANAAT_PROTOCOLS_CROSS_MESSAGES_H_

#include <memory>
#include <vector>

#include "collections/tx_id.h"
#include "consensus/messages.h"
#include "crypto/signer.h"
#include "firewall/executor_core.h"
#include "ledger/block.h"
#include "protocols/context.h"
#include "sim/message.h"

namespace qanaat {

/// Shared verifier for self-certifying state-transfer ledger entries,
/// used by both catch-up paths (ordering-side peer sync and the
/// firewall-side executor pull): recompute the Merkle root and block
/// digest from the transferred bytes — bypassing every memoized digest —
/// then require a certificate quorum of valid signatures from ordering
/// nodes of the collection's member clusters, the only parties that
/// legitimately certify blocks of that chain.
bool VerifyTransferredLedgerEntry(const Directory& dir, const KeyStore& ks,
                                  const StateReplyMsg::Entry& e);

/// The chain heads a state-transfer requester reports: the gaplessly
/// committed head of every chain in `core`'s ledger.
std::vector<StateRequestMsg::ChainHead> ChainHeadsOf(const ExecutorCore& core);

/// The one state-transfer server, for both catch-up paths: the reply to
/// `request` from `core`'s ledger, with `ckpt` (the server's stable
/// checkpoint; null for executors, which run no consensus) attached and
/// charged. Entries are chunked — at most 256, filled round-robin across
/// chains, then the certified-but-wedged tail above the requester's
/// heads. Returns null when the requester lacks nothing: no entry, and no
/// checkpoint above its consensus frontier.
std::shared_ptr<StateReplyMsg> BuildStateReply(
    const ExecutorCore& core, const StateRequestMsg& request,
    const CheckpointCertificate* ckpt);

/// ⟨PREPARE, ID, d, m⟩_σPc — coordinator cluster → involved clusters
/// (paper §4.3, Fig 5). Carries the block and the coordinator cluster's
/// commit certificate from its internal consensus ("signed by
/// local-majority of the cluster").
struct XPrepareMsg : WireMessage<XPrepareMsg> {
  XPrepareMsg() : WireMessage(MsgType::kXPrepare) {}
  int coord_cluster = 0;
  BlockPtr block;                 // with ID assigned by the coordinator
  Sha256Digest block_digest;
  CommitCertificate coord_cert;   // local-majority evidence

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.coord_cluster) && io(m.block) && io(m.block_digest) &&
           io.Check(CarriedBlockMatches(m.block, m.block_digest)) &&
           io(m.coord_cert);
  }
};

/// ⟨PREPARED, IDc, [IDi,] d⟩ — involved cluster → coordinator primary.
/// From a validating node it carries that node's signature; from a
/// primary that ran internal consensus it carries the cluster's commit
/// certificate and the locally assigned ID.
struct XPreparedMsg : WireMessage<XPreparedMsg> {
  XPreparedMsg() : WireMessage(MsgType::kXPrepared) {}
  int from_cluster = 0;
  Sha256Digest block_digest;
  bool has_assignment = false;
  ShardAssignment assignment;     // IDi (+γi) assigned by the cluster
  bool is_cluster_cert = false;   // true: cert below; false: sig below
  CommitCertificate cluster_cert;
  Signature sig;
  bool abort = false;             // involved cluster votes abort

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.from_cluster) && io(m.block_digest) && io(m.has_assignment) &&
           (!m.has_assignment || io(m.assignment)) &&
           io(m.is_cluster_cert) &&
           (!m.is_cluster_cert || io(m.cluster_cert)) && io(m.sig) &&
           io(m.abort);
  }
};

/// ⟨COMMIT, IDc, IDi, ..., d⟩_σPc — coordinator → every node of all
/// involved clusters. full_id concatenates the per-cluster IDs; carries
/// the prepared evidence for cross-enterprise transactions (§4.3.1).
struct XCommitMsg : WireMessage<XCommitMsg> {
  XCommitMsg() : WireMessage(MsgType::kXCommit) {}
  int coord_cluster = 0;
  BlockPtr block;
  Sha256Digest block_digest;      // digest of the ordered block
  CommitCertificate coord_cert;   // coordinator's commit-decision cert
  /// Per-shard ⟨α, γ⟩ assignments collected during the prepared phase.
  std::vector<ShardAssignment> assignments;
  bool is_abort = false;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.coord_cluster) && io(m.block) && io(m.block_digest) &&
           io.Check(CarriedBlockMatches(m.block, m.block_digest)) &&
           io(m.coord_cert) && io.List16(m.assignments) && io(m.is_abort);
  }
};

/// ⟨PROPOSE, ID, d, m⟩_σπ(Pi) — flattened protocols (paper §4.4, Fig 6):
/// initiator primary → every node of all involved clusters.
struct FProposeMsg : WireMessage<FProposeMsg> {
  FProposeMsg() : WireMessage(MsgType::kFPropose) {}
  int initiator_cluster = 0;
  BlockPtr block;
  Sha256Digest block_digest;
  Signature sig;                  // initiator primary's signature

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.initiator_cluster) && io(m.block) && io(m.block_digest) &&
           io.Check(CarriedBlockMatches(m.block, m.block_digest)) &&
           io(m.sig);
  }
};

/// ⟨ACCEPT, IDi, [IDj,] d, r⟩_σr — flattened accept. From the primary of
/// an involved cluster it also announces IDj for that cluster's shard.
struct FAcceptMsg : WireMessage<FAcceptMsg> {
  FAcceptMsg() : WireMessage(MsgType::kFAccept) {}
  int from_cluster = 0;
  Sha256Digest block_digest;
  bool has_assignment = false;
  ShardAssignment assignment;     // IDj (+γj) announced by a primary
  Signature sig;                  // over Signable(block_digest)

  /// The digest an accept signs: a derived tag over (0xFA ‖ block
  /// digest), so an accept can never pass for a commit vote, which signs
  /// the block digest itself. See DeriveDigest in ledger/block.h for why
  /// this needs no inner SHA-256.
  static Sha256Digest Signable(const Sha256Digest& d) {
    return DeriveDigest(0x46414343u /* "FACC" */, 0xFA, 0, d);
  }

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.from_cluster) && io(m.block_digest) && io(m.has_assignment) &&
           (!m.has_assignment || io(m.assignment)) && io(m.sig);
  }
};

/// ⟨COMMIT, IDi, IDj, ..., d, r⟩_σr — flattened commit vote. In the
/// crash-only cross-shard intra-enterprise fast path (§4.4.2) this is
/// instead the initiator primary's commit instruction and carries the
/// collected per-shard assignments.
struct FCommitMsg : WireMessage<FCommitMsg> {
  FCommitMsg() : WireMessage(MsgType::kFCommit) {}
  int from_cluster = 0;
  Sha256Digest block_digest;
  Signature sig;
  bool fast_path = false;
  std::vector<ShardAssignment> assignments;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.from_cluster) && io(m.block_digest) && io(m.sig) &&
           io(m.fast_path) && io.List16(m.assignments);
  }
};

/// commit-query / prepared-query (§4.3.4): a node that timed out waiting
/// for a coordinator/involved cluster asks all nodes of that cluster.
struct QueryMsg : WireMessage<QueryMsg> {
  explicit QueryMsg(MsgType t) : WireMessage(t) {}
  int from_cluster = 0;
  Sha256Digest block_digest;
  Signature sig;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.from_cluster) && io(m.block_digest) && io(m.sig);
  }
};

}  // namespace qanaat

#endif  // QANAAT_PROTOCOLS_CROSS_MESSAGES_H_
