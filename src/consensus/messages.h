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
struct RequestMsg : Message {
  RequestMsg() : Message(MsgType::kRequest) {}
  Transaction tx;
  bool is_retransmission = false;

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, RequestMsg* out);
};

/// Reply from an executing node to the client machine (crash and
/// no-firewall paths). Block-granular: carries the (client, timestamp)
/// pairs of every transaction in the block so the client machine can
/// settle each of its pending requests.
struct ReplyMsg : Message {
  ReplyMsg() : Message(MsgType::kReply) {}
  Sha256Digest block_digest;
  Sha256Digest result_digest;
  std::vector<std::pair<NodeId, uint64_t>> clients;
  Signature sig;

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, ReplyMsg* out);
};

/// Reply certificate assembled by the top filter row: g+1 matching signed
/// replies from distinct execution nodes (paper §4.2).
struct ReplyCertMsg : Message {
  ReplyCertMsg() : Message(MsgType::kReplyCert) {}
  Sha256Digest block_digest;
  Sha256Digest result_digest;
  std::vector<std::pair<NodeId, uint64_t>> clients;
  ReplyCertificate cert;

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, ReplyCertMsg* out);
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

  uint32_t WireSize() const {
    return static_cast<uint32_t>(44 + sigs.size() * 20);
  }
  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, CheckpointCertificate* out);
};

/// Engine-level checkpoint vote, broadcast every checkpoint_interval
/// delivered slots. When `cert` is non-empty the message instead carries
/// an already-stable certificate — sent to a replica whose fill request
/// fell below the sender's garbage-collection floor, telling it to state-
/// transfer rather than wait for per-slot fills that can never come.
struct CheckpointMsg : Message {
  CheckpointMsg() : Message(MsgType::kCheckpoint) {}
  uint64_t slot = 0;
  Sha256Digest digest;
  Signature sig;
  CheckpointCertificate cert;  // empty for a plain vote

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, CheckpointMsg* out);
};

// --------------------------------------------------------- PBFT messages

struct PrePrepareMsg : Message {
  PrePrepareMsg() : Message(MsgType::kPrePrepare) {}
  ViewNo view = 0;
  uint64_t slot = 0;
  ConsensusValue value;
  Sha256Digest value_digest;
  Signature sig;  // primary's signature over (view, slot, value_digest)

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, PrePrepareMsg* out);
};

struct PrepareMsg : Message {
  PrepareMsg() : Message(MsgType::kPrepare) {}
  ViewNo view = 0;
  uint64_t slot = 0;
  Sha256Digest value_digest;
  Signature sig;

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, PrepareMsg* out);
};

struct CommitMsg : Message {
  CommitMsg() : Message(MsgType::kCommit) {}
  ViewNo view = 0;
  uint64_t slot = 0;
  Sha256Digest value_digest;
  Signature sig;

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, CommitMsg* out);
};

/// Prepared-slot evidence carried in a view change.
struct PreparedProof {
  uint64_t slot = 0;
  ViewNo view = 0;
  ConsensusValue value;
  Sha256Digest value_digest;

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, PreparedProof* out);
};

struct ViewChangeMsg : Message {
  ViewChangeMsg() : Message(MsgType::kViewChange) {}
  ViewNo new_view = 0;
  uint64_t last_delivered = 0;
  std::vector<PreparedProof> prepared;
  Signature sig;

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, ViewChangeMsg* out);
};

struct NewViewMsg : Message {
  NewViewMsg() : Message(MsgType::kNewView) {}
  ViewNo new_view = 0;
  // Slots the new primary re-proposes (prepared in prior views).
  std::vector<PreparedProof> reproposals;
  Signature sig;

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, NewViewMsg* out);
};

// ---------------------------------------------------- Multi-Paxos (CFT)

struct PaxosAcceptMsg : Message {
  PaxosAcceptMsg() : Message(MsgType::kPaxosAccept) {
    sig_verify_ops = 0;  // CFT path authenticates with cheap MACs
  }
  uint64_t ballot = 0;
  uint64_t slot = 0;
  ConsensusValue value;
  Sha256Digest value_digest;

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, PaxosAcceptMsg* out);
};

struct PaxosAcceptedMsg : Message {
  PaxosAcceptedMsg() : Message(MsgType::kPaxosAccepted) {
    sig_verify_ops = 0;
  }
  uint64_t ballot = 0;
  uint64_t slot = 0;
  Sha256Digest value_digest;

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, PaxosAcceptedMsg* out);
};

struct PaxosLearnMsg : Message {
  PaxosLearnMsg() : Message(MsgType::kPaxosLearn) { sig_verify_ops = 0; }
  uint64_t ballot = 0;
  uint64_t slot = 0;
  Sha256Digest value_digest;

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, PaxosLearnMsg* out);
};

/// Phase-1a ballot takeover (classic Paxos prepare): a node claiming
/// leadership must learn what a quorum has already accepted before it may
/// re-drive slots — without this, a takeover can overwrite a chosen value.
struct PaxosPrepareMsg : Message {
  PaxosPrepareMsg() : Message(MsgType::kPaxosPrepare) { sig_verify_ops = 0; }
  uint64_t ballot = 0;
  /// The usurper's delivery frontier: promises report accepted values for
  /// every slot above it, so the usurper can fill its own gaps too.
  uint64_t last_delivered = 0;

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, PaxosPrepareMsg* out);
};

/// One slot of a promise's accepted history.
struct PaxosAcceptedSlot {
  uint64_t slot = 0;
  uint64_t ballot = 0;  // ballot the value was accepted under
  ConsensusValue value;
  Sha256Digest digest;

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, PaxosAcceptedSlot* out);
};

/// Phase-1b promise: the follower will never accept a ballot below
/// `ballot` again, and reports every undelivered value it has accepted.
/// `stable` carries the follower's stable checkpoint: a usurper whose
/// frontier lies below it must state-transfer first — the follower has
/// garbage-collected those slots, so re-driving them with no-op fills
/// would wedge the takeover (delivered replicas only re-ack the decided
/// values, which the usurper no longer can learn per slot).
struct PaxosPromiseMsg : Message {
  PaxosPromiseMsg() : Message(MsgType::kPaxosPromise) { sig_verify_ops = 0; }
  uint64_t ballot = 0;
  std::vector<PaxosAcceptedSlot> accepted;
  CheckpointCertificate stable;  // empty when none

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, PaxosPromiseMsg* out);
};

/// Host-level state transfer request: a recovering (or gap-stuck) replica
/// reports its per-chain committed heads and its consensus delivery
/// frontier; any peer of the cluster answers with what it is missing.
struct StateRequestMsg : Message {
  StateRequestMsg() : Message(MsgType::kStateRequest) {
    sig_verify_ops = 0;
  }
  struct ChainHead {
    CollectionId collection;
    ShardId shard = 0;
    SeqNo head = 0;
  };
  std::vector<ChainHead> heads;
  uint64_t frontier = 0;  // engine LastDelivered()
  /// Originator of a pull-based transfer routed through the privacy
  /// firewall: an execution node cannot be addressed by a serving
  /// ordering node directly, so the reply carries this id back up and
  /// the top filter row delivers it. kInvalidNode for the ordering-side
  /// peer-to-peer path (the server just answers the sender).
  NodeId requester = kInvalidNode;

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, StateRequestMsg* out);
};

/// Host-level state transfer reply: the serving peer's stable checkpoint
/// certificate plus every ledger entry above the requester's heads. Each
/// entry is self-certifying — its commit certificate covers the block
/// digest recomputed from the transferred bytes — so a single faulty
/// peer cannot inject a fake block, and the requester re-executes the
/// blocks to rebuild its multi-versioned store deterministically.
struct StateReplyMsg : Message {
  StateReplyMsg() : Message(MsgType::kStateReply) {}
  struct Entry {
    BlockPtr block;
    CommitCertificate cert;
    LocalPart alpha;
    std::vector<GammaEntry> gamma;
  };
  CheckpointCertificate ckpt;  // may be empty (no stable checkpoint yet)
  std::vector<Entry> entries;  // per chain, ascending sequence numbers
  /// Echo of StateRequestMsg::requester: lets each filter row route the
  /// reply up to the pulling execution node instead of flooding every
  /// row (see ExecutionNode::SendPullRequest).
  NodeId requester = kInvalidNode;

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, StateReplyMsg* out);
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
struct FillRequestMsg : Message {
  FillRequestMsg() : Message(MsgType::kFillRequest) { sig_verify_ops = 0; }
  uint64_t from_slot = 0;
  uint64_t to_slot = 0;
  uint64_t want_view = 0;

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, FillRequestMsg* out);
};

/// Gap catch-up reply, one per slot: the decided value plus the COMMIT
/// quorum signatures proving the decision — self-certifying, so a fill
/// from a single (possibly faulty) peer cannot inject a fake decision.
struct FillReplyMsg : Message {
  FillReplyMsg() : Message(MsgType::kFillReply) {}
  uint64_t slot = 0;
  ViewNo view = 0;
  ConsensusValue value;
  std::vector<Signature> commit_proof;

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, FillReplyMsg* out);
};

// --------------------------- ordering -> firewall -> execution (§4.2)

/// Request + commit certificate flowing from ordering nodes through the
/// filters to the execution nodes.
struct ExecOrderMsg : Message {
  ExecOrderMsg() : Message(MsgType::kExecOrder) {}
  BlockPtr block;
  CommitCertificate cert;
  /// The ⟨α, γ⟩ that applies on the receiving cluster's shard.
  LocalPart alpha_here;
  std::vector<GammaEntry> gamma_here;

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, ExecOrderMsg* out);
};

/// Signed execution reply flowing from execution nodes up through the
/// filters (top row aggregates g+1 into a ReplyCertMsg).
struct ExecReplyMsg : Message {
  ExecReplyMsg() : Message(MsgType::kExecReply) {}
  Sha256Digest block_digest;
  Sha256Digest result_digest;
  // (client, client_ts, tx digest) per transaction so filters can route
  // per-client certificates; kept aggregate here: one reply per block.
  std::vector<std::pair<NodeId, uint64_t>> clients;
  Signature sig;  // share over Signable(block, result, clients)

  /// The digest an execution share signs, and what the filter rows and
  /// the client re-verify a reply certificate against. It covers the
  /// client list, so a faulty executor that edits the list signs a
  /// different signable than the correct executors and can never get its
  /// list into a certificate.
  static Sha256Digest Signable(
      const Sha256Digest& block_digest, const Sha256Digest& result_digest,
      const std::vector<std::pair<NodeId, uint64_t>>& clients);

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, ExecReplyMsg* out);
};

}  // namespace qanaat

#endif  // QANAAT_CONSENSUS_MESSAGES_H_
