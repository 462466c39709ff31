#ifndef QANAAT_CONSENSUS_ENGINE_H_
#define QANAAT_CONSENSUS_ENGINE_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "consensus/messages.h"
#include "consensus/value.h"
#include "sim/env.h"
#include "sim/message.h"

namespace qanaat {

/// Per-slot vote bookkeeping (node -> signature). Vote sets are tiny
/// (bounded by cluster size) and sit on the per-message hot path, so a
/// sorted flat vector replaces the std::map it grew from; iteration stays
/// in ascending NodeId order, byte-identical to the tree it replaced
/// (commit proofs and fill replies serialize votes in that order).
class VoteSet {
 public:
  /// Inserts or overwrites `node`'s vote.
  void Put(NodeId node, const Signature& sig) {
    // One up-front reservation covers any realistic cluster: the grow-
    // from-empty doubling showed up as ~200k vector reallocations per
    // fig7-style run (two vote sets per slot per replica).
    if (votes_.capacity() == 0) votes_.reserve(8);
    auto it = std::lower_bound(
        votes_.begin(), votes_.end(), node,
        [](const std::pair<NodeId, Signature>& v, NodeId n) {
          return v.first < n;
        });
    if (it != votes_.end() && it->first == node) {
      it->second = sig;
      return;
    }
    votes_.insert(it, {node, sig});
  }

  size_t size() const { return votes_.size(); }
  bool empty() const { return votes_.empty(); }
  void clear() { votes_.clear(); }
  /// Entries in ascending NodeId order.
  const std::vector<std::pair<NodeId, Signature>>& entries() const {
    return votes_;
  }

 private:
  std::vector<std::pair<NodeId, Signature>> votes_;
};

/// Sorted small-vector of slot numbers (or node ids): the flat form of
/// the std::set both engines used for pipeline accounting and vote
/// membership. Insertions are near-append in steady state (slots open in
/// ascending order), membership is a binary search, and iteration stays
/// ascending — byte-identical to the tree it replaced wherever emitted
/// message contents depend on the order.
template <typename T>
class SortedVec {
 public:
  /// Inserts `v` if absent; returns true when newly inserted.
  bool Insert(T v) {
    if (vals_.empty() || vals_.back() < v) {  // common append path
      vals_.push_back(v);
      return true;
    }
    auto it = std::lower_bound(vals_.begin(), vals_.end(), v);
    if (it != vals_.end() && *it == v) return false;
    vals_.insert(it, v);
    return true;
  }
  bool Erase(T v) {
    auto it = std::lower_bound(vals_.begin(), vals_.end(), v);
    if (it == vals_.end() || *it != v) return false;
    vals_.erase(it);
    return true;
  }
  /// Drops every element <= bound (GC below a stable checkpoint).
  void EraseUpTo(T bound) {
    auto it = std::upper_bound(vals_.begin(), vals_.end(), bound);
    vals_.erase(vals_.begin(), it);
  }
  bool Contains(T v) const {
    return std::binary_search(vals_.begin(), vals_.end(), v);
  }
  size_t size() const { return vals_.size(); }
  bool empty() const { return vals_.empty(); }
  void clear() { vals_.clear(); }
  typename std::vector<T>::const_iterator begin() const {
    return vals_.begin();
  }
  typename std::vector<T>::const_iterator end() const { return vals_.end(); }

 private:
  std::vector<T> vals_;
};

/// Memoized consensus signable for one slot. Every PBFT sign *and*
/// verify needs ConsensusSignable(view, slot, value_digest); within a
/// slot the (view, digest) pair is stable across the whole
/// pre-prepare/prepare/commit exchange, so one derivation serves the
/// pre-prepare signature, the self-prepare, every vote verification and
/// the commit signature. The cache is keyed by (view, digest): a view
/// change or an equivocating digest misses and recomputes, so a stale
/// view's signable can never be served for a newer view's signature.
class SignableCache {
 public:
  const Sha256Digest& Get(ViewNo view, uint64_t slot,
                          const Sha256Digest& value_digest) {
    if (!valid_ || view_ != view || slot_ != slot ||
        !(for_digest_ == value_digest)) {
      signable_ = ConsensusSignable(view, slot, value_digest);
      view_ = view;
      slot_ = slot;
      for_digest_ = value_digest;
      valid_ = true;
    }
    return signable_;
  }

  /// Installs an externally computed signable (e.g. one derived for a
  /// signature check before the slot state existed), so the immediately
  /// following sign over the same (view, slot, digest) is a hit.
  void Seed(ViewNo view, uint64_t slot, const Sha256Digest& value_digest,
            const Sha256Digest& signable) {
    view_ = view;
    slot_ = slot;
    for_digest_ = value_digest;
    signable_ = signable;
    valid_ = true;
  }

 private:
  bool valid_ = false;
  ViewNo view_ = 0;
  uint64_t slot_ = 0;
  Sha256Digest for_digest_;
  Sha256Digest signable_;
};

/// Callbacks wiring a consensus engine into its hosting actor (an
/// ordering node). The engine itself is transport-agnostic; the host
/// forwards consensus messages into OnMessage and provides send/timer
/// primitives.
struct EngineContext {
  Env* env = nullptr;
  NodeId self = kInvalidNode;
  /// Ordering nodes of this cluster, in fixed index order (primary of
  /// view v = cluster[v % cluster.size()]).
  std::vector<NodeId> cluster;
  int self_index = 0;

  /// Round pipelining: maximum slots the primary may have in flight
  /// (proposed but not yet committed) at once. Further proposals queue
  /// inside the engine and start as earlier slots commit. 0 = unbounded.
  size_t pipeline_depth = 0;

  /// Certified checkpoints: every `checkpoint_interval` delivered slots a
  /// replica broadcasts a signed CHECKPOINT vote over its history digest;
  /// a quorum of matching votes makes the checkpoint stable, garbage-
  /// collecting per-slot consensus state and anchoring state transfer.
  /// 0 disables checkpointing.
  size_t checkpoint_interval = 0;

  /// Host hook: the engine learned — from a stable checkpoint certificate
  /// — that the cluster's certified frontier lies beyond this replica's,
  /// or its per-slot fills stalled below a peer's GC floor. The host
  /// should fetch ledger state from a peer and then feed the certificate
  /// it received back through InstallCheckpoint.
  std::function<void(const CheckpointCertificate&)> request_state_transfer;

  std::function<void(NodeId, MessageRef)> send;
  /// Multicast to every *other* ordering node of the cluster.
  std::function<void(MessageRef)> broadcast;
  /// StartTimer(delay, tag, payload) on the host actor; fires
  /// engine->OnTimer.
  std::function<void(SimTime, uint64_t, uint64_t)> start_timer;
  /// Delivered exactly once per slot, in slot order.
  std::function<void(uint64_t slot, const ConsensusValue&)> deliver;
  /// Invoked when the local node moves to a new view (after NEW-VIEW).
  std::function<void(ViewNo view, NodeId new_primary)> on_view_change;
};

/// Counter names under which an engine reports the shared proposal
/// pipeline's events (each engine keeps its own vocabulary).
struct PipelineCounters {
  const char* propose_on_non_primary;
  const char* proposal_queued;
  /// Proposals dropped because leadership moved (view change, takeover).
  const char* queue_dropped;
};

/// Pluggable intra-cluster consensus (paper §4.1): PBFT when the cluster
/// declares the Byzantine failure model, Multi-Paxos when crash-only.
///
/// The base owns what both engines keep: the view (Paxos calls it the
/// ballot) and its primary, the delivery frontier, the proposal pipeline
/// and the certified checkpoints. SlotEngine below adds the slot table;
/// the engines keep their message handlers, vote rules and timers.
class InternalConsensus {
 public:
  virtual ~InternalConsensus() = default;

  /// Primary-side: order `v`. On a non-primary it only counts the
  /// refusal. Past the pipeline-depth cap, or while the engine cannot
  /// start a slot (CanStartSlot), `v` queues and starts as slots decide.
  void Propose(const ConsensusValue& v);

  /// Feed a consensus protocol message from `from`.
  virtual void OnMessage(NodeId from, const MessageRef& msg) = 0;

  /// Timer callback relayed by the host (tags >= kEngineTimerBase).
  virtual void OnTimer(uint64_t tag, uint64_t payload) = 0;

  /// Host crash notification: every timer armed so far died with the
  /// crash epoch, so armed-flags must reset or the machinery they guard
  /// (gap fills, slot watchdogs, view fetches) stays disabled forever in
  /// the recovered life.
  virtual void OnHostCrash() { gap_timer_armed_ = false; }
  /// Host recovery notification: re-arm whatever the current state
  /// warrants (a detected gap, a half-finished takeover).
  virtual void OnHostRecover() {}

  /// External suspicion hook: the host observed the primary failing to
  /// make progress on work it is responsible for (e.g. a relayed client
  /// request that never showed up in a proposal). PBFT casts a view-change
  /// vote; Paxos performs a ballot takeover. Default: ignore.
  virtual void SuspectPrimary() {}

  /// Byzantine-ordering fault injection: while enabled, a primary engine
  /// equivocates its proposals (divergent digests to disjoint replica
  /// subsets). Only meaningful for Byzantine-model engines; crash-model
  /// engines ignore it (an equivocating node is outside their fault
  /// model, exactly like the paper's assumption).
  virtual void SetEquivocate(bool /*on*/) {}

  bool IsPrimary() const { return PrimaryNode() == ctx_.self; }
  NodeId PrimaryNode() const { return PrimaryOf(view_); }
  ViewNo view() const { return view_; }

  /// Signatures from the local quorum proving a slot committed; used by
  /// the cross-cluster protocols to build cluster-signed messages
  /// ("signed by local-majority", §4.3).
  virtual std::vector<Signature> CommitProof(uint64_t slot) const = 0;

  /// Number of matching votes that constitutes a local-majority.
  virtual size_t Quorum() const = 0;

  /// Highest slot this node has delivered (consensus progress counter;
  /// hosts use it to distinguish a dead primary from a parked request).
  uint64_t LastDelivered() const { return last_delivered_; }

  /// Slots this node proposed that have not yet decided (primary side;
  /// bounded by ctx_.pipeline_depth when that is non-zero).
  size_t InFlight() const { return my_open_slots_.size(); }
  /// Proposals waiting behind the pipeline-depth cap.
  size_t QueuedProposals() const { return propose_queue_.size(); }

  // ---- certified checkpoints (shared by both engines) -----------------

  /// Latest stable checkpoint (slot 0 = none yet): a quorum attested the
  /// first `slot` slots delivered with history digest `digest`.
  const CheckpointCertificate& stable_checkpoint() const { return stable_; }
  /// Highest slot whose per-slot consensus state was garbage-collected
  /// (always == stable_checkpoint().slot: GC happens only at stability,
  /// never below a merely-proposed checkpoint).
  uint64_t gc_floor() const { return gc_floor_; }
  /// Running history digest over every delivered slot's value digest.
  const Sha256Digest& history_digest() const { return ckpt_history_; }

  /// Test/audit surface: is per-slot state for `slot` still retained?
  virtual bool HasSlotState(uint64_t slot) const = 0;

  /// Installs a verified stable checkpoint, called by the host after it
  /// fetched and installed the corresponding ledger state from a peer.
  /// Verifies the certificate (quorum of distinct valid signatures),
  /// advances the delivery frontier past the certified slot when behind,
  /// and garbage-collects. Returns false on an invalid certificate.
  bool InstallCheckpoint(const CheckpointCertificate& cert);

  static constexpr uint64_t kEngineTimerBase = 1u << 20;

 protected:
  InternalConsensus(EngineContext ctx, int f, SimTime base_timeout_us,
                    const PipelineCounters& counters)
      : ctx_(std::move(ctx)),
        f_(f),
        base_timeout_(base_timeout_us),
        counters_(counters) {}

  size_t ClusterSize() const { return ctx_.cluster.size(); }
  /// Primary rotation: view v is led by cluster[v % n].
  NodeId PrimaryOf(ViewNo v) const {
    return ctx_.cluster[v % ClusterSize()];
  }
  /// The next peer after this node in round-robin order, advancing
  /// `*cursor`; this node itself only in a one-node cluster.
  NodeId NextPeer(int* cursor) const;

  // ---- proposal pipeline ----------------------------------------------

  bool AtPipelineCap() const {
    return ctx_.pipeline_depth > 0 &&
           my_open_slots_.size() >= ctx_.pipeline_depth;
  }
  /// Starts queued proposals while this node may (primary, CanStartSlot,
  /// below the cap).
  void DrainProposeQueue();
  /// Leadership moved: queued proposals can only be driven by the new
  /// leader (clients retransmit there), and re-proposing them later
  /// could duplicate transactions an interim leader already committed.
  void DropProposeQueue();
  /// A slot decided: it no longer counts against the pipeline cap.
  void NoteDecided(uint64_t slot) {
    max_decided_ = std::max(max_decided_, slot);
    my_open_slots_.Erase(slot);
  }

  /// Engine hook: whether the primary may open a slot now (PBFT: not in
  /// a view change; Paxos: phase 1 done).
  virtual bool CanStartSlot() const = 0;
  /// Engine hook: open and drive a slot for `v` (the caller checked
  /// IsPrimary, CanStartSlot and the cap).
  virtual void StartSlot(const ConsensusValue& v) = 0;

  // ---- delivery frontier ----------------------------------------------

  /// Engine hook: the frontier moved by a delivered slot or an installed
  /// checkpoint (before the host hears of the slot).
  virtual void FrontierAdvanced() {}
  /// Engine hook: arm the gap watchdog if a decided slot sits beyond a
  /// stuck frontier (guarded by gap_timer_armed_).
  virtual void MaybeArmGapTimer() = 0;

  /// Folds a delivered slot into the history digest; at interval
  /// boundaries broadcasts a CHECKPOINT vote (and self-tallies it).
  void NoteDelivered(uint64_t slot, const Sha256Digest& value_digest);
  /// Feeds a CHECKPOINT message: a carried certificate is processed
  /// directly; a vote is verified and tallied toward stability.
  void HandleCheckpoint(NodeId from, const CheckpointMsg& m);

  /// CFT engines authenticate with MACs: checkpoint votes then charge no
  /// signature verification at the receiver.
  virtual bool CheapCheckpointAuth() const { return false; }
  /// Drops per-slot consensus state at or below `slot`.
  virtual void GarbageCollectBelow(uint64_t slot) = 0;
  /// Flushes deliveries and proposals unblocked by an installed
  /// checkpoint (committed slots above it, queued proposals).
  virtual void ResumeAfterInstall() = 0;

  EngineContext ctx_;
  const int f_;
  const SimTime base_timeout_;
  /// The current view; Paxos's ballot.
  ViewNo view_ = 0;
  uint64_t next_slot_ = 1;  // primary's next proposal slot
  uint64_t last_delivered_ = 0;
  uint64_t max_decided_ = 0;  // highest locally decided slot
  bool gap_timer_armed_ = false;
  // Pipelining: slots we proposed that have not decided yet.
  SortedVec<uint64_t> my_open_slots_;

 private:
  /// Jumps the delivery frontier to the certified `slot` (the host
  /// already installed the application state).
  void AdvanceFrontierTo(uint64_t slot);

  /// Single-entry memo for CheckpointSignable(slot, digest): votes for
  /// one boundary arrive in a burst (own sign + one verify per peer), so
  /// the same signable is derived N+1 times per interval without it.
  const Sha256Digest& CkptSignableFor(uint64_t slot,
                                      const Sha256Digest& digest);

  void RecordCheckpointVote(uint64_t slot, const Sha256Digest& digest,
                            const Signature& sig);
  /// A stable certificate appeared (own tally, a peer's carried cert, or
  /// a promise): adopt + GC if at/below our frontier, otherwise ask the
  /// host for state transfer.
  void ProcessStable(const CheckpointCertificate& cert);
  void AdoptStable(const CheckpointCertificate& cert);

  const PipelineCounters counters_;
  // Proposals queued behind the pipeline-depth cap.
  std::deque<ConsensusValue> propose_queue_;

  Sha256Digest ckpt_history_;
  /// Our own history digest at each interval boundary we delivered.
  std::map<uint64_t, Sha256Digest> ckpt_own_;
  struct CkptTally {
    Sha256Digest digest;
    VoteSet votes;
  };
  std::map<uint64_t, std::vector<CkptTally>> ckpt_votes_;
  CheckpointCertificate stable_;
  uint64_t gc_floor_ = 0;
  bool ckpt_signable_valid_ = false;
  uint64_t ckpt_signable_slot_ = 0;
  Sha256Digest ckpt_signable_for_;
  Sha256Digest ckpt_signable_;
};

/// The per-slot fields the shared core reads and writes. Each engine's
/// slot record extends it with its votes and phase flags, and defines
/// `bool Deliverable() const` (decided, not yet delivered).
struct SlotRecord {
  ViewNo view = 0;  // Paxos: the ballot the value was accepted at
  ConsensusValue value;
  Sha256Digest digest;
  bool delivered = false;
  bool timer_armed = false;
};

/// The slot table both engines keep, over each engine's slot record:
/// in-order delivery, garbage collection and the ordered walk that
/// VIEW-CHANGE and PROMISE messages are built from.
template <typename Slot>
class SlotEngine : public InternalConsensus {
 public:
  bool HasSlotState(uint64_t slot) const final {
    return slots_.count(slot) > 0;
  }

  void OnHostCrash() override {
    InternalConsensus::OnHostCrash();
    for (auto& [slot, st] : slots_) st.timer_armed = false;
  }

 protected:
  SlotEngine(EngineContext ctx, int f, SimTime base_timeout_us,
             const PipelineCounters& counters)
      : InternalConsensus(std::move(ctx), f, base_timeout_us, counters) {
    slots_.reserve(1 << 12);
  }

  /// Takes the next slot number for `v` on the primary: records the value
  /// under the current view and counts the slot open.
  std::pair<uint64_t, Slot*> OpenSlot(const ConsensusValue& v) {
    uint64_t slot = next_slot_++;
    Slot& st = slots_[slot];
    st.view = view_;
    st.value = v;
    st.digest = v.Digest();
    my_open_slots_.Insert(slot);
    return {slot, &st};
  }

  /// Delivers every consecutive deliverable slot past the frontier, then
  /// lets the engine watch for a gap.
  void DeliverReady() {
    while (true) {
      auto it = slots_.find(last_delivered_ + 1);
      if (it == slots_.end() || !it->second.Deliverable()) break;
      it->second.delivered = true;
      ++last_delivered_;
      FrontierAdvanced();
      uint64_t slot = it->first;
      Sha256Digest vd = it->second.digest;
      // Copy the value out before delivering: the host callback can
      // re-enter the engine (propose, install a checkpoint), and an
      // insert-triggered rehash of the flat slot map would invalidate a
      // reference into it mid-call.
      ConsensusValue v = it->second.value;
      ctx_.deliver(slot, v);
      NoteDelivered(last_delivered_, vd);
    }
    MaybeArmGapTimer();
  }

  void GarbageCollectBelow(uint64_t slot) override {
    for (auto it = slots_.begin(); it != slots_.end();) {
      it = it->first <= slot ? slots_.erase(it) : std::next(it);
    }
    my_open_slots_.EraseUpTo(slot);
  }

  void ResumeAfterInstall() final {
    // Slots above the installed checkpoint may already be decided locally
    // (they arrived while the transfer ran): flush them now.
    DeliverReady();
    ResumeAfterDelivery();
    DrainProposeQueue();
  }
  /// Engine hook: runs between the flush and the queue drain of
  /// ResumeAfterInstall.
  virtual void ResumeAfterDelivery() {}

  /// Slots whose record passes `keep(slot, st)`, in ascending slot order:
  /// the table is a hash map, and messages built from it must list slots
  /// in a fixed order (message contents feed the replay trace).
  template <typename Keep>
  std::vector<std::pair<uint64_t, const Slot*>> SlotsAscending(
      Keep keep) const {
    std::vector<std::pair<uint64_t, const Slot*>> out;
    for (const auto& [slot, st] : slots_) {
      if (keep(slot, st)) out.emplace_back(slot, &st);
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return out;
  }

  // A hash map: every message touches its slot a few times, and runs
  // accumulate tens of thousands of slots.
  std::unordered_map<uint64_t, Slot> slots_;
};

}  // namespace qanaat

#endif  // QANAAT_CONSENSUS_ENGINE_H_
