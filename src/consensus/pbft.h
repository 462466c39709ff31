#ifndef QANAAT_CONSENSUS_PBFT_H_
#define QANAAT_CONSENSUS_PBFT_H_

#include <map>
#include <set>
#include <vector>

#include "consensus/engine.h"
#include "consensus/messages.h"

namespace qanaat {

/// A PBFT slot: the shared record plus the three-phase votes.
struct PbftSlot : SlotRecord {
  bool have_preprepare = false;
  VoteSet prepares;  // matching digest only
  VoteSet commits;
  bool prepared = false;
  bool committed = false;
  // Memoized ConsensusSignable for this slot, keyed (view, digest): one
  // derivation serves the pre-prepare signature, the self-prepare, every
  // vote verification and the commit signature; a view change or an
  // equivocating digest misses and recomputes.
  SignableCache signable;

  bool Deliverable() const { return committed && !delivered; }
};

/// Practical Byzantine Fault Tolerance (Castro & Liskov, OSDI'99) over a
/// cluster of n = 3f+1 ordering nodes, used as Qanaat's internal consensus
/// for Byzantine clusters (paper §4.1).
///
/// Normal case: PRE-PREPARE (primary) → PREPARE (all) → COMMIT (all);
/// a slot is prepared with 2f matching PREPAREs + the PRE-PREPARE, and
/// committed-local with 2f+1 matching COMMITs. Slots deliver in order.
///
/// View change: a replica that suspects the primary (slot timer expires
/// before commit) broadcasts VIEW-CHANGE carrying its prepared proofs;
/// the new primary collects 2f+1, broadcasts NEW-VIEW re-proposing every
/// prepared slot, and timeouts double on consecutive failures (§4.3.4).
///
/// Pipelining (shared with Paxos, see InternalConsensus): the primary
/// runs up to `ctx.pipeline_depth` slots concurrently, each in its own
/// PRE-PREPARE/PREPARE/COMMIT exchange. Proposals queue while a view
/// change is under way, and every NEW-VIEW drops the queue.
class PbftEngine final : public SlotEngine<PbftSlot> {
 public:
  PbftEngine(EngineContext ctx, int f, SimTime base_timeout_us);

  void OnMessage(NodeId from, const MessageRef& msg) override;
  void OnTimer(uint64_t tag, uint64_t payload) override;
  void SuspectPrimary() override;
  void OnHostCrash() override;
  void OnHostRecover() override;

  size_t Quorum() const override { return 2 * static_cast<size_t>(f_) + 1; }
  std::vector<Signature> CommitProof(uint64_t slot) const override;

  /// Byzantine-primary fault injection: when set, PRE-PREPAREs are
  /// equivocated (different digests to different replicas), which correct
  /// replicas must resolve via view change.
  void SetEquivocate(bool e) override { equivocate_ = e; }

 private:
  static constexpr uint64_t kTagSlotTimeout = kEngineTimerBase + 1;
  /// Escalation: if a view change toward `payload` has not installed by
  /// the time this fires, vote for the next view — without it, lost
  /// VIEW-CHANGE votes wedge the cluster forever.
  static constexpr uint64_t kTagVcTimeout = kEngineTimerBase + 2;
  /// Gap catch-up: the delivery frontier is stuck while later slots have
  /// committed; ask a peer to retransmit the decided slots.
  static constexpr uint64_t kTagGapFill = kEngineTimerBase + 3;
  /// View synchronization: messages for a future view are buffering but
  /// the NEW-VIEW that would install it never arrived (it was sent while
  /// this replica was crashed or partitioned, and nothing retransmits
  /// it). Ask a peer to re-serve the latest NEW-VIEW it processed.
  static constexpr uint64_t kTagViewFetch = kEngineTimerBase + 4;

  bool CanStartSlot() const override { return !in_view_change_; }
  void StartSlot(const ConsensusValue& v) override;
  void FrontierAdvanced() override { fill_stalls_ = 0; }
  /// Arms the gap timer when a committed slot sits beyond a stuck
  /// delivery frontier (the missing slot's messages were lost — e.g.
  /// while this node was crashed or partitioned). PBFT retransmits
  /// nothing by itself, so without the fill protocol this node would
  /// stall forever and permanently shrink the live quorum.
  void MaybeArmGapTimer() override;

  void HandlePrePrepare(NodeId from, const PrePrepareMsg& m);
  void HandlePrepare(NodeId from, const PrepareMsg& m);
  void HandleCommit(NodeId from, const CommitMsg& m);
  void HandleViewChange(NodeId from, const ViewChangeMsg& m);
  void HandleNewView(NodeId from, const NewViewMsg& m);
  void HandleFillRequest(NodeId from, const FillRequestMsg& m);
  void HandleFillReply(NodeId from, const FillReplyMsg& m);

  /// Verifies `sig` over ConsensusSignable(view, slot, digest) without
  /// creating slot state: uses the slot's memo when the slot exists,
  /// otherwise derives once into *fresh (the caller seeds the memo after
  /// it creates the slot, so the following sign is a hit).
  bool VerifyVote(const Signature& sig, ViewNo view, uint64_t slot,
                  const Sha256Digest& digest, PbftSlot* st,
                  Sha256Digest* fresh);

  void MaybePrepared(uint64_t slot, PbftSlot& st);
  void MaybeCommitted(uint64_t slot, PbftSlot& st);
  void ArmSlotTimer(uint64_t slot, PbftSlot& st);
  void StartViewChange(ViewNo target, bool lone_suspicion);
  void SendPrePrepare(uint64_t slot, PbftSlot& st);
  void MaybeFetchView();

  Sha256Digest SignableDigest(ViewNo v, uint64_t slot,
                              const Sha256Digest& value_digest) const;

  int fill_rr_ = 0;  // round-robin peer cursor for fills
  /// Consecutive gap-fill rounds without frontier progress. Fills that
  /// target slots a peer already garbage-collected can never be served
  /// per slot; after a few dry rounds the engine asks the host for full
  /// state transfer instead of spinning forever.
  int fill_stalls_ = 0;
  uint64_t view_change_count_ = 0;
  bool in_view_change_ = false;
  bool equivocate_ = false;
  // View-change bookkeeping: new_view -> sender -> message
  std::map<ViewNo, std::map<NodeId, std::shared_ptr<const ViewChangeMsg>>>
      view_changes_rcvd_;
  std::set<ViewNo> view_change_voted_;
  // New-primary side: targets we already built and broadcast a NEW-VIEW
  // for (one per target — extra votes beyond the quorum must not rebuild
  // it with a different reproposal set).
  std::set<ViewNo> new_view_sent_;
  // Replica side: highest NEW-VIEW actually processed; re-deliveries of
  // the same view (duplicated or rebuilt) are ignored instead of
  // resetting in-flight slots again.
  ViewNo last_new_view_processed_ = 0;
  // Messages for views we have not installed yet (a NEW-VIEW and the new
  // primary's first pre-prepares can arrive reordered); replayed after
  // the view installs.
  std::vector<std::pair<NodeId, MessageRef>> future_msgs_;
  // Latest NEW-VIEW processed (or built, on the primary), retained so
  // any peer can re-serve it to a view-wedged replica: the message is
  // self-certifying (signed by its view's primary).
  std::shared_ptr<const NewViewMsg> last_new_view_msg_;
  bool view_fetch_armed_ = false;
  int view_fetch_rr_ = 0;
};

}  // namespace qanaat

#endif  // QANAAT_CONSENSUS_PBFT_H_
