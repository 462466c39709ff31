#ifndef QANAAT_CONSENSUS_PAXOS_H_
#define QANAAT_CONSENSUS_PAXOS_H_

#include <unordered_map>

#include "consensus/engine.h"
#include "consensus/messages.h"

namespace qanaat {

/// A Multi-Paxos slot: the shared record (its view is the ballot the
/// value was accepted at) plus the leader's acks and the learn state.
struct PaxosSlot : SlotRecord {
  bool have_value = false;
  SortedVec<NodeId> accepted;
  // A LEARN that overtook its ACCEPT (reordered delivery): remembered
  // here and consumed when the value arrives, instead of being lost.
  bool learn_pending = false;
  Sha256Digest learn_digest;
  bool learned = false;

  bool Deliverable() const { return learned && !delivered && have_value; }
};

/// Multi-Paxos over a cluster of n = 2f+1 crash-only nodes, used as
/// Qanaat's internal consensus for crash clusters (paper §4.1: "a crash
/// fault-tolerant protocol, e.g., (Multi-)Paxos").
///
/// Steady state (leader elected): ACCEPT (leader) → ACCEPTED (followers)
/// → LEARN (leader, after f+1 including itself). Leader failure is
/// handled by ballot takeover with a full phase-1: the usurper broadcasts
/// PREPARE, collects promises from a quorum — each carrying the accepted
/// values above the usurper's delivery frontier — adopts the
/// highest-ballot value per slot, fills never-accepted holes with no-ops,
/// and re-drives. The quorum-intersection argument of single-decree Paxos
/// then guarantees a chosen value is never overwritten; skipping phase-1
/// (as a naive "bump the ballot and re-send" takeover does) lets two
/// replicas learn different values for one slot — a divergence the chaos
/// harness reproduces deterministically. Messages are MAC-authenticated
/// (no signature verification cost).
///
/// The ballot is the base's view: ballot b is led by cluster[b % n].
/// Pipelining (shared with PBFT, see InternalConsensus): the leader keeps
/// up to `ctx.pipeline_depth` slots in flight (accepted but not yet
/// learned). Proposals queue while phase 1 gathers promises, and the
/// queue drops when a higher ballot moves leadership away.
class PaxosEngine final : public SlotEngine<PaxosSlot> {
 public:
  PaxosEngine(EngineContext ctx, int f, SimTime base_timeout_us);

  void OnMessage(NodeId from, const MessageRef& msg) override;
  void OnTimer(uint64_t tag, uint64_t payload) override;
  void SuspectPrimary() override;
  void OnHostRecover() override;

  size_t Quorum() const override { return static_cast<size_t>(f_) + 1; }
  /// Crash nodes don't sign; cross-enterprise messages from crash
  /// clusters sign at the sending node instead. Returns an empty proof.
  std::vector<Signature> CommitProof(uint64_t) const override { return {}; }

 private:
  static constexpr uint64_t kTagSlotTimeout = kEngineTimerBase + 11;
  /// Re-broadcast PREPARE while phase-1 has not gathered a quorum.
  static constexpr uint64_t kTagTakeoverRetry = kEngineTimerBase + 12;
  /// Frontier stuck while later slots learned: the missing slot's
  /// messages are gone (nothing retransmits them), so take over — the
  /// phase-1 promises carry every accepted value above our frontier.
  static constexpr uint64_t kTagGapTimeout = kEngineTimerBase + 13;

  /// CFT clusters authenticate with MACs; checkpoint votes are free to
  /// verify like every other Paxos message.
  bool CheapCheckpointAuth() const override { return true; }
  bool CanStartSlot() const override { return leading_; }
  void StartSlot(const ConsensusValue& v) override;
  void MaybeArmGapTimer() override;
  void GarbageCollectBelow(uint64_t slot) override;
  /// A takeover parked behind state transfer finishes once the certified
  /// frontier is installed.
  void ResumeAfterDelivery() override;

  void HandleAccept(NodeId from, const PaxosAcceptMsg& m);
  void HandleAccepted(NodeId from, const PaxosAcceptedMsg& m);
  void HandleLearn(NodeId from, const PaxosLearnMsg& m);
  void HandlePrepare(NodeId from, const PaxosPrepareMsg& m);
  void HandlePromise(NodeId from, const PaxosPromiseMsg& m);
  // Handlers thread the PaxosSlot& they already hold (one hash lookup
  // per message) instead of re-looking the slot up in every helper.
  void ArmSlotTimer(uint64_t slot, PaxosSlot& st);
  void MarkLearned(uint64_t slot, PaxosSlot& st);
  /// Ballot takeover phase-1: claim a ballot we own and solicit promises.
  void TakeOver();
  /// Phase-1 quorum reached: adopt gathered values, fill holes with
  /// no-ops, re-drive everything undelivered.
  void FinishTakeover();
  void MergeGathered(uint64_t slot, uint64_t ballot, const ConsensusValue& v,
                     const Sha256Digest& digest);
  void BroadcastAccept(uint64_t slot, const PaxosSlot& st);
  /// Adopts a higher observed ballot; drops leadership and the propose
  /// queue when that moves leadership away from this node.
  void ObserveBallot(uint64_t b);

  /// Highest ballot promised: never accept or promise below it.
  uint64_t promised_ = 0;
  /// Phase-1 complete for the current ballot with us as leader. The
  /// initial leader (index 0, ballot 0) starts leading: there is no
  /// history to gather.
  bool leading_ = false;
  /// A promise revealed a stable checkpoint beyond our frontier: the
  /// takeover must wait for host state transfer — finishing phase-1 now
  /// would no-op-fill slots the quorum has garbage-collected, and those
  /// fills can never gather acks from delivered replicas.
  uint64_t awaiting_transfer_ = 0;
  // Phase-1 state for the current ballot (valid while !leading_ and we
  // own it).
  SortedVec<NodeId> promises_;
  std::unordered_map<uint64_t, PaxosAcceptedSlot> gathered_;
};

}  // namespace qanaat

#endif  // QANAAT_CONSENSUS_PAXOS_H_
