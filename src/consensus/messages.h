#ifndef QANAAT_CONSENSUS_MESSAGES_H_
#define QANAAT_CONSENSUS_MESSAGES_H_

#include <vector>

#include "collections/tx_id.h"
#include "consensus/value.h"
#include "crypto/signer.h"
#include "ledger/block.h"
#include "ledger/transaction.h"
#include "sim/message.h"

namespace qanaat {

/// ⟨REQUEST, op, tc, c⟩_σc — client request (paper §4.1).
struct RequestMsg : WireMessage<RequestMsg> {
  RequestMsg() : WireMessage(MsgType::kRequest) {}
  Transaction tx;
  bool is_retransmission = false;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.tx) && io(m.is_retransmission);
  }
};

/// Reply from an executing node to the client machine (crash and
/// no-firewall paths). Block-granular: carries the (client, timestamp)
/// pairs of every transaction in the block so the client machine can
/// settle each of its pending requests.
struct ReplyMsg : WireMessage<ReplyMsg> {
  ReplyMsg() : WireMessage(MsgType::kReply) {}
  Sha256Digest block_digest;
  Sha256Digest result_digest;
  std::vector<std::pair<NodeId, uint64_t>> clients;
  Signature sig;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.block_digest) && io(m.result_digest) &&
           io.List32(m.clients) && io(m.sig);
  }
};

/// Reply certificate assembled by the top filter row: g+1 matching signed
/// replies from distinct execution nodes (paper §4.2).
struct ReplyCertMsg : WireMessage<ReplyCertMsg> {
  ReplyCertMsg() : WireMessage(MsgType::kReplyCert) {}
  Sha256Digest block_digest;
  Sha256Digest result_digest;
  std::vector<std::pair<NodeId, uint64_t>> clients;
  ReplyCertificate cert;

  /// What checking the certificate finds. The filter rows, the ordering
  /// nodes and the clients all run this one check.
  enum class Check { kValid, kBadShare, kShort };
  /// Valid iff every share verifies over ExecReplyMsg::Signable of this
  /// block, result and client list, from at least `quorum` distinct
  /// executors.
  Check Verify(const KeyStore& ks, size_t quorum) const;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.block_digest) && io(m.result_digest) &&
           io.List32(m.clients) && io(m.cert);
  }
};

// ------------------------------------- checkpoints + state transfer

/// Certificate of a stable checkpoint: `sigs` are matching CHECKPOINT
/// votes from a quorum of distinct cluster members over
/// CheckpointSignable(slot, digest), where `digest` chains the value
/// digests of every slot delivered up to `slot`. Self-certifying: a
/// recovering replica can accept it from a single (possibly faulty) peer.
struct CheckpointCertificate {
  uint64_t slot = 0;
  Sha256Digest digest;
  std::vector<Signature> sigs;

  bool empty() const { return slot == 0; }
  /// Valid iff >= quorum distinct valid signatures over the signable.
  bool Valid(const KeyStore& ks, size_t quorum) const;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.slot) && io(m.digest) && io.List16(m.sigs);
  }
};

/// Engine-level checkpoint vote, broadcast every checkpoint_interval
/// delivered slots. When `cert` is non-empty the message instead carries
/// an already-stable certificate — sent to a replica whose fill request
/// fell below the sender's garbage-collection floor, telling it to state-
/// transfer rather than wait for per-slot fills that can never come.
struct CheckpointMsg : WireMessage<CheckpointMsg> {
  CheckpointMsg() : WireMessage(MsgType::kCheckpoint) {}
  uint64_t slot = 0;
  Sha256Digest digest;
  Signature sig;
  CheckpointCertificate cert;  // empty for a plain vote

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.slot) && io(m.digest) && io(m.sig) && io(m.cert);
  }
};

// --------------------------------------------------------- PBFT messages

struct PrePrepareMsg : WireMessage<PrePrepareMsg> {
  PrePrepareMsg() : WireMessage(MsgType::kPrePrepare) {}
  ViewNo view = 0;
  uint64_t slot = 0;
  ConsensusValue value;
  Sha256Digest value_digest;
  Signature sig;  // primary's signature over (view, slot, value_digest)

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.view) && io(m.slot) && io(m.value) && io(m.value_digest) &&
           io(m.sig);
  }
};

struct PrepareMsg : WireMessage<PrepareMsg> {
  PrepareMsg() : WireMessage(MsgType::kPrepare) {}
  ViewNo view = 0;
  uint64_t slot = 0;
  Sha256Digest value_digest;
  Signature sig;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.view) && io(m.slot) && io(m.value_digest) && io(m.sig);
  }
};

struct CommitMsg : WireMessage<CommitMsg> {
  CommitMsg() : WireMessage(MsgType::kCommit) {}
  ViewNo view = 0;
  uint64_t slot = 0;
  Sha256Digest value_digest;
  Signature sig;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.view) && io(m.slot) && io(m.value_digest) && io(m.sig);
  }
};

/// Prepared-slot evidence carried in a view change.
struct PreparedProof {
  uint64_t slot = 0;
  ViewNo view = 0;
  ConsensusValue value;
  Sha256Digest value_digest;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.slot) && io(m.view) && io(m.value) && io(m.value_digest);
  }
};

struct ViewChangeMsg : WireMessage<ViewChangeMsg> {
  ViewChangeMsg() : WireMessage(MsgType::kViewChange) {}
  ViewNo new_view = 0;
  uint64_t last_delivered = 0;
  std::vector<PreparedProof> prepared;
  Signature sig;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.new_view) && io(m.last_delivered) && io.List16(m.prepared) &&
           io(m.sig);
  }
};

struct NewViewMsg : WireMessage<NewViewMsg> {
  NewViewMsg() : WireMessage(MsgType::kNewView) {}
  ViewNo new_view = 0;
  // Slots the new primary re-proposes (prepared in prior views).
  std::vector<PreparedProof> reproposals;
  Signature sig;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.new_view) && io.List16(m.reproposals) && io(m.sig);
  }
};

// ---------------------------------------------------- Multi-Paxos (CFT)

struct PaxosAcceptMsg : WireMessage<PaxosAcceptMsg> {
  PaxosAcceptMsg() : WireMessage(MsgType::kPaxosAccept) {
    sig_verify_ops = 0;  // CFT path authenticates with cheap MACs
  }
  uint64_t ballot = 0;
  uint64_t slot = 0;
  ConsensusValue value;
  Sha256Digest value_digest;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.ballot) && io(m.slot) && io(m.value) && io(m.value_digest);
  }
};

struct PaxosAcceptedMsg : WireMessage<PaxosAcceptedMsg> {
  PaxosAcceptedMsg() : WireMessage(MsgType::kPaxosAccepted) {
    sig_verify_ops = 0;
  }
  uint64_t ballot = 0;
  uint64_t slot = 0;
  Sha256Digest value_digest;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.ballot) && io(m.slot) && io(m.value_digest);
  }
};

struct PaxosLearnMsg : WireMessage<PaxosLearnMsg> {
  PaxosLearnMsg() : WireMessage(MsgType::kPaxosLearn) { sig_verify_ops = 0; }
  uint64_t ballot = 0;
  uint64_t slot = 0;
  Sha256Digest value_digest;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.ballot) && io(m.slot) && io(m.value_digest);
  }
};

/// Phase-1a ballot takeover (classic Paxos prepare): a node claiming
/// leadership must learn what a quorum has already accepted before it may
/// re-drive slots — without this, a takeover can overwrite a chosen value.
struct PaxosPrepareMsg : WireMessage<PaxosPrepareMsg> {
  PaxosPrepareMsg() : WireMessage(MsgType::kPaxosPrepare) {
    sig_verify_ops = 0;
  }
  uint64_t ballot = 0;
  /// The usurper's delivery frontier: promises report accepted values for
  /// every slot above it, so the usurper can fill its own gaps too.
  uint64_t last_delivered = 0;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.ballot) && io(m.last_delivered);
  }
};

/// One slot of a promise's accepted history.
struct PaxosAcceptedSlot {
  uint64_t slot = 0;
  uint64_t ballot = 0;  // ballot the value was accepted under
  ConsensusValue value;
  Sha256Digest digest;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.slot) && io(m.ballot) && io(m.value) && io(m.digest);
  }
};

/// Phase-1b promise: the follower will never accept a ballot below
/// `ballot` again, and reports every undelivered value it has accepted.
/// `stable` carries the follower's stable checkpoint: a usurper whose
/// frontier lies below it must state-transfer first — the follower has
/// garbage-collected those slots, so re-driving them with no-op fills
/// would wedge the takeover (delivered replicas only re-ack the decided
/// values, which the usurper no longer can learn per slot).
struct PaxosPromiseMsg : WireMessage<PaxosPromiseMsg> {
  PaxosPromiseMsg() : WireMessage(MsgType::kPaxosPromise) {
    sig_verify_ops = 0;
  }
  uint64_t ballot = 0;
  std::vector<PaxosAcceptedSlot> accepted;
  CheckpointCertificate stable;  // empty when none

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.ballot) && io.List32(m.accepted) && io(m.stable);
  }
};

/// Host-level state transfer request: a recovering (or gap-stuck) replica
/// reports its per-chain committed heads and its consensus delivery
/// frontier; any peer of the cluster answers with what it is missing.
struct StateRequestMsg : WireMessage<StateRequestMsg> {
  StateRequestMsg() : WireMessage(MsgType::kStateRequest) {
    sig_verify_ops = 0;
  }
  struct ChainHead {
    CollectionId collection;
    ShardId shard = 0;
    SeqNo head = 0;

    template <class IO, class Self>
    static bool Fields(IO& io, Self& m) {
      return io(m.collection) && io(m.shard) && io(m.head);
    }
  };
  std::vector<ChainHead> heads;
  uint64_t frontier = 0;  // engine LastDelivered()
  /// The execution node that originated a pull-based transfer.
  /// Executors pull from peer executors; behind a privacy firewall the
  /// top filter row brokers the request to a serving peer, and the reply
  /// carries this id back so the row can deliver it. kInvalidNode for
  /// the ordering-side peer-to-peer path (the server just answers the
  /// sender).
  NodeId requester = kInvalidNode;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io.List32(m.heads) && io(m.frontier) && io(m.requester);
  }
};

/// Host-level state transfer reply: the serving peer's stable checkpoint
/// certificate plus every ledger entry above the requester's heads. Each
/// entry is self-certifying — its commit certificate covers the block
/// digest recomputed from the transferred bytes — so a single faulty
/// peer cannot inject a fake block, and the requester re-executes the
/// blocks to rebuild its multi-versioned store deterministically.
struct StateReplyMsg : WireMessage<StateReplyMsg> {
  StateReplyMsg() : WireMessage(MsgType::kStateReply) {}
  struct Entry {
    BlockPtr block;
    CommitCertificate cert;
    LocalPart alpha;
    std::vector<GammaEntry> gamma;

    /// Unlike other carriers, an entry always carries its block.
    template <class IO, class Self>
    static bool Fields(IO& io, Self& m) {
      return io(m.block) && io.Check(m.block != nullptr) && io(m.cert) &&
             io(m.alpha) && io.List16(m.gamma);
    }
  };
  CheckpointCertificate ckpt;  // may be empty (no stable checkpoint yet)
  std::vector<Entry> entries;  // per chain, ascending sequence numbers
  /// Echo of StateRequestMsg::requester: lets the top filter row, the
  /// only row a transfer crosses, route the reply to the pulling
  /// execution node (see ExecutionNode::SendPullRequest).
  NodeId requester = kInvalidNode;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.ckpt) && io.List32(m.entries) && io(m.requester);
  }
};

/// Gap catch-up request: a replica whose delivery frontier is stuck —
/// later slots committed but an earlier one never arrived (its messages
/// were lost while the node was partitioned, crashed, or unlucky) — asks
/// a peer for the decided slots in [from_slot, to_slot]. With
/// `want_view` non-zero the request additionally asks for view
/// synchronization: the peer re-sends the latest NEW-VIEW it processed
/// (self-certifying — signed by that view's primary), un-wedging a
/// recovered replica stuck in an old view that nothing else would ever
/// tell about the change.
struct FillRequestMsg : WireMessage<FillRequestMsg> {
  FillRequestMsg() : WireMessage(MsgType::kFillRequest) { sig_verify_ops = 0; }
  uint64_t from_slot = 0;
  uint64_t to_slot = 0;
  uint64_t want_view = 0;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.from_slot) && io(m.to_slot) && io(m.want_view);
  }
};

/// Gap catch-up reply, one per slot: the decided value plus the COMMIT
/// quorum signatures proving the decision — self-certifying, so a fill
/// from a single (possibly faulty) peer cannot inject a fake decision.
struct FillReplyMsg : WireMessage<FillReplyMsg> {
  FillReplyMsg() : WireMessage(MsgType::kFillReply) {}
  uint64_t slot = 0;
  ViewNo view = 0;
  ConsensusValue value;
  std::vector<Signature> commit_proof;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.slot) && io(m.view) && io(m.value) && io.List32(m.commit_proof);
  }
};

// --------------------------- ordering -> firewall -> execution (§4.2)

/// Request + commit certificate flowing from ordering nodes through the
/// filters to the execution nodes.
struct ExecOrderMsg : WireMessage<ExecOrderMsg> {
  ExecOrderMsg() : WireMessage(MsgType::kExecOrder) {}
  BlockPtr block;
  CommitCertificate cert;
  /// The ⟨α, γ⟩ that applies on the receiving cluster's shard.
  LocalPart alpha_here;
  std::vector<GammaEntry> gamma_here;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.block) && io(m.cert) && io(m.alpha_here) &&
           io.List16(m.gamma_here);
  }
};

/// Signed execution reply flowing from execution nodes up through the
/// filters (top row aggregates g+1 into a ReplyCertMsg).
struct ExecReplyMsg : WireMessage<ExecReplyMsg> {
  ExecReplyMsg() : WireMessage(MsgType::kExecReply) {}
  Sha256Digest block_digest;
  Sha256Digest result_digest;
  /// (client, timestamp) of every transaction in the block: one reply
  /// per block, and the top filter row assembles g+1 matching shares
  /// into one reply certificate per block.
  std::vector<std::pair<NodeId, uint64_t>> clients;
  Signature sig;  // share over Signable(block, result, clients)
  /// A Byzantine executor's reply, charged for a payload it does not
  /// carry (the stand-in table, sim/message.h). Not in the layout.
  bool stuffed = false;

  /// The digest an execution share signs, and what the filter rows and
  /// the client re-verify a reply certificate against. It covers the
  /// client list, so a faulty executor that edits the list signs a
  /// different signable than the correct executors and can never get its
  /// list into a certificate.
  static Sha256Digest Signable(
      const Sha256Digest& block_digest, const Sha256Digest& result_digest,
      const std::vector<std::pair<NodeId, uint64_t>>& clients);

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.block_digest) && io(m.result_digest) &&
           io.List32(m.clients) && io(m.sig);
  }
};

}  // namespace qanaat

#endif  // QANAAT_CONSENSUS_MESSAGES_H_
