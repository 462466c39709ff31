#ifndef QANAAT_PROTOCOLS_ORDERING_NODE_H_
#define QANAAT_PROTOCOLS_ORDERING_NODE_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "consensus/batcher.h"
#include "consensus/engine.h"
#include "consensus/messages.h"
#include "firewall/executor_core.h"
#include "protocols/context.h"
#include "protocols/cross_messages.h"
#include "common/flat_map.h"
#include "protocols/request_table.h"
#include "sim/network.h"

namespace qanaat {

/// An ordering node of one Qanaat cluster.
///
/// Responsibilities (paper §4):
///  * receive client requests, batch them per flow (target collection +
///    shard set) into blocks, assign ⟨α, γ⟩ IDs (§4.1);
///  * run the pluggable internal consensus (PBFT / Multi-Paxos);
///  * drive or participate in the cross-cluster protocols, either
///    coordinator-based (§4.3) or flattened (§4.4);
///  * hand committed blocks to execution: through the privacy firewall
///    (Byzantine, separated), or executing in place (crash clusters and
///    Byzantine clusters without separation), and route replies;
///  * failure handling: commit-query / prepared-query and view-change
///    triggering (§4.3.4, §4.4.4).
class OrderingNode : public Actor {
 public:
  OrderingNode(Env* env, const Directory* dir, const DataModel* model,
               int cluster_id, int index);

  void OnMessage(NodeId from, const MessageRef& msg) override;
  void OnTimer(uint64_t tag, uint64_t payload) override;
  void OnCrash() override;
  void OnRecover() override;
  /// Byzantine-ordering fault injection (chaos corpus): forwards to the
  /// internal consensus engine, which equivocates while enabled.
  void SetEquivocating(bool on) override { engine_->SetEquivocate(on); }

  const ClusterConfig& cluster() const { return cfg_; }
  InternalConsensus* engine() { return engine_.get(); }
  const ExecutorCore& exec_core() const { return exec_; }
  bool IsPrimary() const { return engine_->IsPrimary(); }

  uint64_t committed_blocks() const { return committed_blocks_; }
  uint64_t committed_txs() const { return committed_txs_; }
  uint64_t aborted_blocks() const { return aborted_blocks_; }
  /// Client requests held while intake is gated (see IntakeGated).
  size_t parked_requests() const { return parked_.size(); }
  /// Entries in the two dedup windows (see committed_requests_).
  size_t windowed_requests() const {
    return seen_requests_.size() + observed_requests_.size();
  }
  /// Cross-cluster instances still in flight here; finished ones are
  /// retired to an outcome record (see RetireFinished).
  size_t live_cross_instances() const { return xstates_.size(); }
  /// Retired outcomes kept in compact form, which defers to the ledger.
  size_t compact_outcomes() const { return compact_retired_.size(); }
  /// Retired outcomes kept in full although this node's ledger records
  /// them (their block executed only after they retired).
  size_t ledger_recorded_full_outcomes() const;
  /// Slot claims (endorsements and commit-vote locks) at or below this
  /// node's executed head of their chain.
  size_t decided_slot_claims() const;

  /// Auditor surface: request ids (client, client timestamp) of the
  /// transactions that lost a §4.3.5 digest-priority arbitration here and
  /// were re-queued for re-proposal. The chaos auditor checks that each
  /// eventually commits exactly once on some winning block.
  const std::set<std::pair<NodeId, uint64_t>>& arbitration_loser_txs() const {
    return arbitration_loser_txs_;
  }

 private:
  friend class QanaatSystem;

  // Key of a batching flow: all requests of a flow execute on the same
  // collection and shard set, so they can share a block.
  struct FlowKey {
    CollectionId collection;
    std::vector<ShardId> shards;
    bool operator<(const FlowKey& o) const {
      if (collection != o.collection) return collection < o.collection;
      return shards < o.shards;
    }
  };

  // Cross-cluster protocol state for one in-flight block. It lives only
  // while the instance is live: the event that finishes it retires it to
  // an outcome record (XOutcome or CompactOutcome).
  struct XState {
    BlockPtr block;
    Sha256Digest digest;
    std::vector<int> involved;          // involved cluster ids (sorted)
    bool is_cross_enterprise = false;
    bool is_cross_shard = false;
    bool i_coordinate = false;          // we are in the coordinator cluster
    bool pinned = false;                // txs held in pending_cross_ here
    // Assignments collected per shard (keyed by shard id).
    std::map<ShardId, ShardAssignment> assignments;
    // Coordinator-side prepared bookkeeping: cluster -> voters.
    std::map<int, std::set<NodeId>> prepared_votes;
    std::map<int, std::set<NodeId>> abort_votes;
    std::set<int> prepared_clusters;
    bool commit_started = false;
    bool abort_started = false;
    // Flattened bookkeeping.
    std::map<int, std::map<NodeId, Signature>> accepts;
    std::map<int, std::map<NodeId, Signature>> commit_votes;
    // Per-shard assignment endorsements carried on commit votes: keyed
    // by the claimed sequence number, with the endorsing nodes. Commit
    // adopts the variant a local-majority of the assigner cluster backs —
    // a node's own belief may be a stale self-assignment from a crashed
    // life, and committing under it diverges the shared chain.
    std::map<ShardId, std::map<SeqNo, std::pair<ShardAssignment,
                                                std::set<NodeId>>>>
        assignment_votes;
    bool sent_accept = false;
    bool sent_commit = false;
    // A fast-path FCommit that overtook its FPropose (reordered
    // delivery): held until the block arrives, then replayed.
    std::shared_ptr<const FCommitMsg> pending_fast_commit;
    NodeId pending_fast_commit_from = kInvalidNode;
    // Outcome evidence, carried into the XOutcome so commit-queries
    // (§4.3.4) can be answered: a node stalled on a lost commit recovers
    // by querying any node that has the certified outcome.
    CommitCertificate outcome_cert;
    bool outcome_known = false;
    bool outcome_abort = false;
    // kXOrder evidence (coordinator family), kept so a timed-out
    // initiator can re-drive its PREPARE and an assigner can re-send its
    // PREPARED without running consensus again.
    CommitCertificate order_cert;
    bool order_cert_known = false;
    bool assign_proposed = false;
    bool done = false;
    bool timer_armed = false;
    int retries = 0;
  };

  // What a finished instance keeps: its certified outcome, for answering
  // commit queries (§4.3.4), and its presence, which marks late votes and
  // re-driven proposals for it as stale. This full form holds the
  // outcomes the ledger does not record: aborted, unknown, committed
  // while the block still waited in the executor, or behind the
  // firewall, where ordering nodes keep no ledger. A committed outcome
  // the ledger records is kept as a CompactOutcome.
  struct XOutcome {
    BlockPtr block;
    CommitCertificate cert;
    bool known = false;
    bool abort = false;
    std::vector<ShardAssignment> assignments;  // ascending shard
  };
  // A known commit whose block this node's ledger holds at this shard's
  // assignment, under the same digest, ⟨α, γ⟩ and certificate: the
  // entry at `ledger_index` supplies those, so only what it lacks is
  // kept.
  struct CompactOutcome {
    size_t ledger_index = 0;
    int assigner = 0;  // the cluster that assigned this shard's ⟨α, γ⟩
    std::vector<ShardAssignment> others;  // the other shards, ascending
  };

  static constexpr uint64_t kTagBatch = 1;
  static constexpr uint64_t kTagCross = 2;
  static constexpr uint64_t kTagRetry = 3;
  static constexpr uint64_t kTagProgress = 4;
  static constexpr uint64_t kTagStateSync = 5;
  static constexpr uint64_t kTagExecWedge = 6;
  static constexpr uint64_t kTagExecPush = 7;
  static constexpr uint64_t kTagIntakeRelease = 8;

  // ---- request intake / batching
  void HandleRequest(NodeId from, const RequestMsg& m);
  /// Marks every transaction of a value observed in a consensus proposal
  /// (pre-prepare, Paxos accept, view-change proof) that has not
  /// committed here as seen, so a client retransmission racing a view
  /// change cannot get the same transaction batched into a second block
  /// by the new primary.
  void ObserveProposedValue(const ConsensusValue& v);
  /// Same for a block observed in a cross-cluster proposal (FPropose /
  /// XPrepare): those never pass through internal consensus at every
  /// node, so without this a retransmission during an in-flight cross
  /// instance could be batched into a second block.
  void ObserveProposedBlock(const BlockPtr& block);
  /// A primary may admit fresh intake only from a caught-up state: while
  /// a state sync is pending or committed blocks sit deferred, this
  /// node's permanent at-most-once record (committed_requests_) is
  /// incomplete, and admitting a retransmission whose commit we have not
  /// learned yet re-orders it into a duplicate block. Gated requests are
  /// parked, not dropped (see ParkRequest).
  bool IntakeGated() const;
  /// Holds a gated request for replay once the gate clears. A request
  /// already parked is not parked twice, so client retransmissions
  /// cannot grow the queue past the clients' outstanding requests.
  void ParkRequest(const RequestMsg& m);
  /// Called wherever the gate may have just cleared: schedules the replay
  /// of the parked requests (a zero-delay timer, so the replay never
  /// re-enters the commit path that cleared the gate).
  void MaybeReleaseParked();
  /// Replays every parked request through HandleRequest, which re-runs
  /// all intake checks — exactly as safe as a client retransmission
  /// arriving now.
  void ReleaseParked();
  /// Arms a progress watchdog for a request relayed to the primary: if no
  /// proposal containing it is observed in time, suspect the primary —
  /// otherwise a primary that crashed with nothing in flight is never
  /// suspected and the cluster ignores new requests forever.
  void WatchRelayedRequest(const Transaction& tx);
  /// Batcher flush sink: seals the batch into a block and hands it to
  /// internal consensus (intra-cluster) or a cross-cluster protocol.
  void OnBatchClosed(const FlowKey& key, std::vector<Transaction> txs,
                     BatchClose why);
  BlockPtr MakeBlock(const FlowKey& key, std::vector<Transaction> txs,
                     uint32_t attempt = 0);
  std::vector<GammaEntry> CaptureGamma(const CollectionId& c) const;
  LocalPart NextAlpha(const CollectionId& c);
  SeqNo StateOfCollection(const CollectionId& c) const;
  /// The gaplessly-committed head of our shard's chain (what staleness
  /// checks must compare against; state_ may run ahead of it when
  /// cross-shard commits of different flows arrive out of order).
  SeqNo CommittedHeadOf(const CollectionId& c) const;

  // ---- internal consensus plumbing
  void OnDecide(uint64_t slot, const ConsensusValue& v);
  CommitCertificate MakeCert(uint64_t slot, const Sha256Digest& digest,
                             ConsensusValue::Kind kind);

  // ---- commit & execution path (shared by all protocols)
  void CommitBlock(const BlockPtr& block, CommitCertificate cert,
                   const LocalPart& alpha, const std::vector<GammaEntry>& gamma,
                   bool reply_from_here);
  void OnExecutedReply(const ExecutorCore::ExecResult& res);
  void ForwardReplyCert(const MessageRef& msg);
  /// Sends `msg` once to each distinct client machine in `clients`.
  void SendToClients(const std::vector<std::pair<NodeId, uint64_t>>& clients,
                     const MessageRef& msg);
  /// Hands a committed block to the separated execution nodes: through
  /// the bottom filter row with a firewall, directly without one.
  void PushToExecution(const MessageRef& msg);
  static std::vector<ShardId> AllShards(const XState& xs);

  // ---- cross-cluster: shared helpers
  bool IsCross(const FlowKey& key) const;
  std::vector<int> InvolvedClusters(const CollectionId& c,
                                    const std::vector<ShardId>& shards) const;
  int CoordinatorClusterOf(const CollectionId& c,
                           const std::vector<ShardId>& shards) const;
  /// Is this cluster the one that assigns ⟨α, γ⟩ for its shard of
  /// collection c? In designated mode the per-shard designated
  /// enterprise assigns (one assigner per chain); in optimistic mode the
  /// initiator enterprise's clusters do (paper §4.3.3 verbatim).
  bool IAmShardAssigner(const CollectionId& c,
                        EnterpriseId initiator_enterprise) const;
  /// The instance for `d`, created on first use. A retired digest comes
  /// back as a done instance rebuilt from its outcome record, and is
  /// retired again at the end of the event: a kXOrder decision delivered
  /// after the instance finished still re-sends PREPARE/PREPARED from it.
  /// Handlers that ignore finished instances check IsRetired first, so
  /// they never allocate one.
  XState& StateFor(const Sha256Digest& d);
  bool IsRetired(const Sha256Digest& d) const {
    return compact_retired_.count(d) != 0 || retired_.count(d) != 0;
  }
  /// Moves every instance finished during the current event to its
  /// outcome record: compact_retired_ when this node's ledger records
  /// the outcome (LedgerEntryOf), retired_ otherwise. Runs once the
  /// event's handler returns, never inside FinishCross: FinishCross's
  /// callers keep using the XState after it returns.
  void RetireFinished();
  /// The index of this node's ledger entry that holds block `d` at this
  /// shard's assignment `own` under certificate `cert`, if there is one.
  std::optional<size_t> LedgerEntryOf(const Sha256Digest& d,
                                      const CommitCertificate& cert,
                                      const ShardAssignment& own) const;
  /// The full outcome of retired instance `d`, whichever form its record
  /// takes; empty if `d` is not retired. The one reader of both forms:
  /// commit-query answers and resurrected instances come from here.
  std::optional<XOutcome> RetiredOutcome(const Sha256Digest& d) const;
  /// OnTimer's dispatch; OnTimer retires finished instances after it.
  void HandleTimer(uint64_t tag, uint64_t payload);
  /// True if `block` intersects an active *or already-deferred*
  /// cross-shard block in >= 2 shards (§4.3.2). Deferred blocks count so
  /// a later block of the same flow cannot overtake an earlier one and
  /// gap the chain.
  bool HasCrossShardConflict(const BlockPtr& block,
                             const std::vector<ShardId>& shards) const;
  /// Starts a cross instance for a freshly sealed block: hands the batch
  /// to the initiator cluster's primary when this cluster does not
  /// initiate the flow, defers it behind a conflicting cross-shard block
  /// (§4.3.2, §4.4.2), and otherwise sets up the instance and runs the
  /// family's proposal step.
  void StartCross(const BlockPtr& block);
  /// Binds `block` to its instance: the block, its involved clusters and
  /// its cross-enterprise / cross-shard kind.
  void BindBlock(XState& xs, const BlockPtr& block);
  /// Sends `msg` to every other ordering node of every involved cluster.
  void SendToInvolved(const XState& xs, const MessageRef& msg);
  /// Settles an instance on its certified outcome: records it for
  /// commit-queries (§4.3.4), commits the block under this shard's
  /// assignment if it committed, and finishes the instance.
  void SettleCross(XState& xs, const CommitCertificate& cert, bool committed,
                   bool reply_from_here);
  void FinishCross(XState& xs, bool committed);
  /// §4.3.5 loser re-proposal: after `winner` commits, aborts every live
  /// rival instance claiming one of the winner's slots with a different
  /// digest. The abort path funnels the loser's transactions into the
  /// retry machinery (still pinned in pending_cross_), so re-admission
  /// stays exactly-once.
  void RequeueArbitrationLosers(const XState& winner);
  void ArmCrossTimer(const Sha256Digest& d);
  void RunRetry(uint64_t token);
  /// Timed-out initiator/coordinator primary re-drives an unfinished
  /// cross instance (re-sends PREPARE / PROPOSE); receivers answer with
  /// idempotent re-votes. Without this, one lost vote strands the
  /// instance and holes its chain's sequence numbers forever.
  void RedriveCross(XState& xs);
  /// Re-sends this node's accept (and commit) votes for an instance it
  /// already voted on — the duplicate-propose path of a re-drive.
  void ResendCrossVotes(XState& xs);

  // ---- coordinator-based family (ordering_coordinator.cc)
  /// Proposal step of a started instance: the coordinator cluster orders
  /// the block internally (kXOrder) before PREPARE goes out.
  void ProposeCoordinated(XState& xs);
  /// The coordinator primary's PREPARE to every other involved cluster.
  void SendXPrepare(const XState& xs);
  void OnXOrderDecided(uint64_t slot, const ConsensusValue& v);
  void OnXCommitDecided(uint64_t slot, const ConsensusValue& v,
                        bool is_abort);
  void HandleXPrepare(NodeId from, const XPrepareMsg& m);
  void HandleXPrepared(NodeId from, const XPreparedMsg& m);
  void HandleXCommit(NodeId from, const XCommitMsg& m);
  void MaybeStartCommitPhase(XState& xs);

  // ---- flattened family (ordering_flattened.cc)
  /// Proposal step of a started instance: PROPOSE to every involved
  /// node, then this node's own ACCEPT.
  void ProposeFlattened(XState& xs);
  void SendFPropose(const XState& xs);
  void HandleFPropose(NodeId from, const FProposeMsg& m);
  void HandleFAccept(NodeId from, const FAcceptMsg& m);
  void HandleFCommit(NodeId from, const FCommitMsg& m);
  void SendFAccept(XState& xs);
  void MaybeSendFCommit(XState& xs);
  void MaybeFCommitDone(XState& xs);
  bool FlattenedCftFastPath(const XState& xs) const;

  // ---- failure handling
  void HandleQuery(NodeId from, const QueryMsg& m);

  // ---- checkpointed state transfer (recovery path)
  /// Arms the one-shot state-sync timer (deduped while pending): the
  /// entry point for the recovery hook and the engine's transfer
  /// requests.
  void ScheduleStateSync(SimTime delay);
  /// Sends a StateRequest (chain heads + consensus frontier) to the next
  /// peer in round-robin order — any replica can serve, primary or not.
  void SendStateRequest();
  void HandleStateRequest(NodeId from, const StateRequestMsg& m);
  void HandleStateReply(NodeId from, const StateReplyMsg& m);
  /// Installs a verified entry: dedup bookkeeping, γ-capture state, and
  /// in-order execution (which rebuilds the MvStore deterministically).
  /// Returns false when the entry was already queued or applied (a
  /// repeated chunk must not inflate counters or re-trigger sync
  /// rounds).
  bool InstallTransferredBlock(const StateReplyMsg::Entry& e);
  /// Re-pushes recently committed blocks through the firewall when this
  /// node becomes primary: the previous primary may have crashed between
  /// committing and forwarding, and execution nodes cannot fill the gap
  /// themselves (the wiring only lets them talk to the top filter row).
  void ReplayExecPushes();
  /// Arms the executor-wedge watchdog while committed blocks sit
  /// deferred: a block whose chain predecessor was lost for good (e.g. a
  /// cross-cluster commit this node missed while crashed or partitioned
  /// — completed instances are never retransmitted) wedges the ledger at
  /// a point the consensus engine cannot see. If a full cross-timeout
  /// passes with deferred blocks and zero ledger growth, state transfer
  /// fetches the missing predecessors from a peer.
  void MaybeWatchExecWedge();

  /// Cost model hook: client requests are MAC-authenticated on crash
  /// clusters and signature-verified on Byzantine ones; the privacy
  /// firewall adds per-request body-encryption overhead.
  SimTime CostOf(const Message& msg) const override;

  const Directory* dir_;
  const DataModel* model_;
  ClusterConfig cfg_;
  int index_;
  std::unique_ptr<InternalConsensus> engine_;
  ExecutorCore exec_;

  Batcher<Transaction, FlowKey> batcher_;
  FlatMap<CollectionId, SeqNo> state_;  // committed state (γ capture)
  FlatMap<CollectionId, SeqNo> next_seq_;
  // Validated slot claims on incoming cross-cluster IDs: which block
  // digest this node endorsed for each (chain, n). Re-votes for the same
  // digest are idempotent; a different digest claiming the same slot is
  // a conflict (nack). Aborts erase the claim so a replacement block can
  // take the slot. Keyed by digest rather than a watermark so pipelined
  // prepares tolerate out-of-order delivery. Once this node has executed
  // its chain up to the slot, the ledger decides it: every claim for it
  // is refused as stale, so the dedup sweep drops the claim unless a
  // live instance here still holds the slot (PurgeDecidedClaims).
  std::map<std::pair<ShardRef, SeqNo>, Sha256Digest> validated_digest_;
  // Commit-vote lock (§4.3.5 arbitration safety): the one digest this
  // node has commit-voted for each slot. An endorsement may switch to a
  // lower rival digest while the slot is merely accepted, but never after
  // the commit vote — without the lock, two commit-vote majorities for
  // different digests could assemble inside one cluster. Released by a
  // matching abort, or by the sweep once the ledger decides the slot, as
  // for validated_digest_.
  std::map<std::pair<ShardRef, SeqNo>, Sha256Digest> commit_locked_;
  /// The sweep's share of the slot claims: drops each claim at or below
  /// this node's executed head of its chain that no live instance here
  /// holds.
  void PurgeDecidedClaims();
  // (chain, n) assignments our own cluster currently has in flight. A
  // node never endorses a remote block claiming a sequence number its
  // own cluster is still trying to commit (optimistic-mode safety,
  // §4.3.5) — until both claims are digest-comparable, at which point
  // the lower digest wins deterministically.
  std::set<std::pair<ShardRef, SeqNo>> own_pending_;
  // Transactions that lost a digest-priority arbitration (see
  // RequeueArbitrationLosers); kept for the chaos auditor's
  // eventual-commit invariant.
  std::set<std::pair<NodeId, uint64_t>> arbitration_loser_txs_;
  // Request identity (client, client timestamp) for dedup bookkeeping.
  // These maps sit on the per-request hot path, so they are hashed flat
  // containers rather than ordered trees; nothing iterates them in key
  // order.
  using RequestId = std::pair<NodeId, uint64_t>;
  /// Block digests are uniform SHA-256 output; their first 8 bytes are a
  /// ready-made hash for the flat cross-state containers.
  struct DigestHash {
    size_t operator()(const Sha256Digest& d) const {
      return static_cast<size_t>(d.Prefix64());
    }
  };
  // Requests this node itself admitted to its batcher (primary intake
  // dedup), with the admission time. An intake entry EXPIRES
  // (RecentlyIn) with the same window as observation dedup: a
  // transaction stranded in this node's own abandoned proposal (e.g.
  // lost on the wire before preparing) can be recovered by client
  // retransmission to the same primary, instead of only via another node
  // taking over leadership.
  RequestTable seen_requests_;
  // ...and requests observed in someone else's proposal, promise, fill
  // or a delivered block, with the observation time. Kept separate: a
  // batch is filtered against observations at close, which drops a
  // retransmitted transaction that a previous primary already got
  // ordered — without dropping the batch's own fresh intake. An
  // observation EXPIRES (RecentlyIn) so a transaction whose proposal was
  // abandoned (e.g. no-op-filled by a view change before preparing) can
  // be retried by client retransmission instead of being blacklisted
  // forever.
  RequestTable observed_requests_;
  // The permanent record, asked before either window. A commit erases
  // its requests from both windows, so they hold only requests in flight
  // here, plus abandoned ones until the sweep.
  RequestSet committed_requests_;
  /// Records a committed (or state-transferred) block's requests here
  /// and erases them from both windows.
  void RecordCommitted(const Block& block);
  /// The one shared expiry predicate both dedup maps use.
  bool RecentlyIn(const RequestTable& m, const RequestId& id) const;
  bool ObservedRecently(const RequestId& id) const;
  /// Committed, recently admitted here, or recently observed in a
  /// proposal — the per-request intake (and watchdog) dedup predicate.
  bool IsDuplicateRequest(const RequestId& id) const;
  /// The shared dedup window: how long an in-flight proposal could still
  /// legitimately commit (internal rounds plus a full re-driven cross
  /// instance).
  SimTime DedupWindowUs() const;
  /// Amortized sweep (at most once per window) of expired entries: the
  /// abandoned proposals, which no commit erases, and the slot claims the
  /// ledger has decided (PurgeDecidedClaims).
  void MaybePurgeDedup();
  // Requests inside a live cross block this node knows of — held in a
  // deferred queue, a scheduled retry, or an unfinished instance, whether
  // this node drives it or only observed its FPropose/XPrepare. These do
  // NOT expire with the dedup window: the cross timer re-drives an
  // instance indefinitely, so "presumed abandoned" is never true while
  // the instance is live, and admitting a retransmission past the window
  // would commit the same request twice (once in the stalled block once
  // it finally lands, once in the fresh one). Observers pin too: a backup
  // that takes over leadership while a slow old primary's instance is
  // still live must not admit its transactions again. Reference counted
  // because a transaction can sit in two overlapping holders during a
  // hand-off (e.g. an aborted instance and its retry block).
  std::map<RequestId, int> pending_cross_;
  void PinCross(const BlockPtr& block);
  void UnpinCross(const BlockPtr& block);
  /// Pins xs.block once per instance; FinishCross releases it.
  void PinInstance(XState& xs);
  SimTime last_dedup_purge_ = 0;
  // Requests that reached a gated primary, in arrival order, with their
  // ids for dedup. Volatile: a crash loses them, and the clients'
  // retransmissions recover them.
  std::deque<RequestMsg> parked_;
  std::set<RequestId> parked_ids_;
  bool release_armed_ = false;
  // Progress watchdog for a relayed request: if neither the request is
  // observed in a proposal nor any slot delivers before the timer fires,
  // the primary is suspected. The delivery baseline distinguishes a dead
  // primary from a request parked for a legitimate reason (deferred
  // cross-shard conflict, stalled cross instance).
  struct ProgressCheck {
    std::pair<NodeId, uint64_t> id;
    int tries = 0;
    uint64_t delivered_at_arm = 0;
  };
  /// Sequential tokens need a mixing hash; looked up per watchdog
  /// firing, never iterated.
  struct TokenHash {
    size_t operator()(uint64_t t) const {
      return static_cast<size_t>(Mix64(t + 0x9e3779b97f4a7c15ULL));
    }
  };
  std::unordered_map<uint64_t, ProgressCheck, TokenHash> progress_checks_;
  uint64_t next_progress_ = 0;
  // Live cross instances only. One finished during the current event
  // stays here, done, until RetireFinished moves it to its record.
  std::unordered_map<Sha256Digest, XState, DigestHash> xstates_;
  // Retired instances, each in exactly one of the two maps.
  std::unordered_map<Sha256Digest, XOutcome, DigestHash> retired_;
  std::unordered_map<Sha256Digest, CompactOutcome, DigestHash>
      compact_retired_;
  std::vector<Sha256Digest> finished_;  // done this event, not yet retired
  std::unordered_map<uint64_t, Sha256Digest, TokenHash> cross_timer_digest_;
  uint64_t next_cross_timer_ = 0;
  // Blocks whose client replies this cluster owns (initiator side).
  // Filled only behind a firewall, the one place a reply certificate
  // arrives (ForwardReplyCert).
  std::unordered_set<Sha256Digest, DigestHash> reply_owner_;
  // Reply cache for retransmissions: block digest -> cert msg.
  std::map<Sha256Digest, std::shared_ptr<const ReplyCertMsg>> reply_cache_;
  // Serialization of conflicting cross-shard blocks (paper §4.3.2: no two
  // concurrent transactions may intersect in >= 2 shards).
  std::vector<BlockPtr> deferred_cross_;
  // Iterated only for an order-independent overlap test, so a flat map
  // is safe.
  std::unordered_map<Sha256Digest, std::vector<ShardId>, DigestHash>
      active_cross_;
  std::map<uint64_t, std::pair<BlockPtr, int>> retry_blocks_;
  uint64_t next_retry_ = 0;

  // State-sync bookkeeping: one pending request at a time, peers picked
  // round-robin so non-primary replicas serve just as often.
  bool state_sync_pending_ = false;
  int state_sync_rr_ = 0;
  // Executor-wedge watchdog state (see MaybeWatchExecWedge).
  bool exec_wedge_armed_ = false;
  size_t exec_ledger_at_arm_ = 0;
  /// A wedge was DETECTED (deferred blocks + no ledger growth for a full
  /// cross-timeout) and has not drained yet. Distinct from a transient
  /// deferral, which is normal cross-shard machinery and must not gate
  /// intake.
  bool exec_wedged_ = false;
  // Committed-but-possibly-unforwarded ExecOrder messages (separated
  // execution only). Backups keep each one under an evidence watchdog:
  // if no reply certificate for the block comes back down the firewall
  // within a cross-timeout, the primary's push is presumed lost (it may
  // have been crashed at commit time — cross-cluster commits need no
  // live primary) and the backup pushes itself. A view change replays
  // everything immediately. Execution-side dedup absorbs duplicates.
  struct PendingExecPush {
    std::shared_ptr<ExecOrderMsg> msg;
    int tries = 0;
  };
  std::map<uint64_t, PendingExecPush> pending_exec_push_;
  uint64_t next_exec_push_ = 0;

  uint64_t committed_blocks_ = 0;
  uint64_t committed_txs_ = 0;
  uint64_t aborted_blocks_ = 0;
};

}  // namespace qanaat

#endif  // QANAAT_PROTOCOLS_ORDERING_NODE_H_
