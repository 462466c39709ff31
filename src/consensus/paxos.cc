#include "consensus/paxos.h"

#include <algorithm>

namespace qanaat {

PaxosEngine::PaxosEngine(EngineContext ctx, int f, SimTime base_timeout_us)
    : InternalConsensus(std::move(ctx)),
      f_(f),
      base_timeout_(base_timeout_us) {
  slots_.reserve(1 << 12);
  // Ballot 0 belongs to index 0 with an empty history: it leads from the
  // start without a phase-1.
  leading_ = (ctx_.cluster[0] == ctx_.self);
}

void PaxosEngine::Propose(const ConsensusValue& v) {
  if (!IsPrimary()) {
    ctx_.env->metrics.Inc("paxos.propose_on_follower");
    return;
  }
  // Queue while phase-1 is still gathering promises, and past the
  // pipelining cap; queued proposals start as slots learn.
  if (!leading_ || AtPipelineCap()) {
    propose_queue_.push_back(v);
    ctx_.env->metrics.Inc("paxos.proposal_queued");
    return;
  }
  StartSlot(v);
}

void PaxosEngine::BroadcastAccept(uint64_t slot, const SlotState& st) {
  auto acc = std::make_shared<PaxosAcceptMsg>();
  acc->ballot = ballot_;
  acc->slot = slot;
  acc->value = st.value;
  acc->value_digest = st.digest;
  ctx_.broadcast(acc);
}

void PaxosEngine::StartSlot(const ConsensusValue& v) {
  uint64_t slot = next_slot_++;
  SlotState& st = slots_[slot];
  st.ballot = ballot_;
  st.value = v;
  st.digest = v.Digest();
  st.have_value = true;
  st.accepted.Insert(ctx_.self);
  my_open_slots_.Insert(slot);

  BroadcastAccept(slot, st);
  ArmSlotTimer(slot, st);

  // f = 0 degenerate case: single-node cluster decides immediately.
  if (st.accepted.size() >= Quorum()) {
    MarkLearned(slot, st);
    DeliverReady();
  }
}

void PaxosEngine::MarkLearned(uint64_t slot, SlotState& st) {
  st.learned = true;
  max_learned_ = std::max(max_learned_, slot);
  my_open_slots_.Erase(slot);
  DrainProposeQueue();
}

void PaxosEngine::DrainProposeQueue() {
  while (!propose_queue_.empty() && IsPrimary() && leading_ &&
         !AtPipelineCap()) {
    ConsensusValue v = std::move(propose_queue_.front());
    propose_queue_.pop_front();
    StartSlot(v);
  }
}

void PaxosEngine::OnMessage(NodeId from, const MessageRef& msg) {
  switch (msg->type) {
    case MsgType::kPaxosAccept:
      HandleAccept(from, *msg->As<PaxosAcceptMsg>());
      break;
    case MsgType::kPaxosAccepted:
      HandleAccepted(from, *msg->As<PaxosAcceptedMsg>());
      break;
    case MsgType::kPaxosLearn:
      HandleLearn(from, *msg->As<PaxosLearnMsg>());
      break;
    case MsgType::kPaxosPrepare:
      HandlePrepare(from, *msg->As<PaxosPrepareMsg>());
      break;
    case MsgType::kPaxosPromise:
      HandlePromise(from, *msg->As<PaxosPromiseMsg>());
      break;
    case MsgType::kCheckpoint:
      HandleCheckpoint(from, *msg->As<CheckpointMsg>());
      break;
    default:
      break;
  }
}

void PaxosEngine::DropProposeQueue() {
  if (propose_queue_.empty()) return;
  ctx_.env->metrics.Inc("paxos.queue_dropped_on_takeover",
                        propose_queue_.size());
  propose_queue_.clear();
}

void PaxosEngine::ObserveBallot(uint64_t b) {
  if (b <= ballot_) return;
  ballot_ = b;
  // Leadership moved past us: queued proposals can only be driven by
  // the new leader (clients retransmit there). Re-proposing them on a
  // later takeover would duplicate already-committed transactions.
  if (!IsPrimary()) {
    leading_ = false;
    DropProposeQueue();
  }
}

void PaxosEngine::HandleAccept(NodeId from, const PaxosAcceptMsg& m) {
  if (m.ballot < promised_ || m.ballot < ballot_) return;  // stale leader
  promised_ = std::max(promised_, m.ballot);
  ObserveBallot(m.ballot);
  if (from != PrimaryNode()) return;
  // One lookup serves the GC'd-slot check and the state access below.
  auto it = slots_.find(m.slot);
  if (m.slot <= last_delivered_ && it == slots_.end()) {
    // Delivered and garbage-collected: the leader is refreshing a slot we
    // already applied. Ack it so its catch-up can quorum; CFT leaders are
    // honest, and post-phase-1 re-drives carry only decided values.
    auto resp = std::make_shared<PaxosAcceptedMsg>();
    resp->ballot = m.ballot;
    resp->slot = m.slot;
    resp->value_digest = m.value_digest;
    ctx_.send(from, resp);
    return;
  }
  if (it == slots_.end()) it = slots_.try_emplace(m.slot).first;
  SlotState& st = it->second;
  if (st.delivered) {
    // Already applied here, but the (new) leader may be re-driving the
    // slot to finish its own catch-up: ack the decided value so it can
    // gather a quorum — silently ignoring it would starve the leader
    // into an endless takeover loop.
    if (st.digest == m.value_digest) {
      auto resp = std::make_shared<PaxosAcceptedMsg>();
      resp->ballot = m.ballot;
      resp->slot = m.slot;
      resp->value_digest = m.value_digest;
      ctx_.send(from, resp);
    }
    return;
  }
  if (st.learned && st.digest != m.value_digest) {
    // A correct post-phase-1 leader can never change a learned value;
    // surfaced as a metric so the chaos auditor's trace points here.
    ctx_.env->metrics.Inc("paxos.conflicting_accept_ignored");
    return;
  }
  st.ballot = m.ballot;
  st.value = m.value;
  st.digest = m.value_digest;
  st.have_value = true;

  auto resp = std::make_shared<PaxosAcceptedMsg>();
  resp->ballot = m.ballot;
  resp->slot = m.slot;
  resp->value_digest = m.value_digest;
  ctx_.send(from, resp);
  // A LEARN for this slot overtook the ACCEPT (reordered delivery):
  // consume it now that the value is known.
  if (st.learn_pending && st.learn_digest == st.digest && !st.learned) {
    ctx_.env->metrics.Inc("paxos.pending_learn_consumed");
    MarkLearned(m.slot, st);
    DeliverReady();
    return;
  }
  ArmSlotTimer(m.slot, st);
}

void PaxosEngine::HandleAccepted(NodeId from, const PaxosAcceptedMsg& m) {
  if (m.ballot != ballot_ || !IsPrimary() || !leading_) return;
  SlotState& st = slots_[m.slot];
  if (!st.have_value || st.digest != m.value_digest) return;
  st.accepted.Insert(from);
  if (st.learned || st.accepted.size() < Quorum()) return;
  auto learn = std::make_shared<PaxosLearnMsg>();
  learn->ballot = m.ballot;
  learn->slot = m.slot;
  learn->value_digest = st.digest;
  ctx_.broadcast(learn);
  MarkLearned(m.slot, st);
  DeliverReady();
}

void PaxosEngine::HandleLearn(NodeId from, const PaxosLearnMsg& m) {
  if (from != ctx_.cluster[m.ballot % ClusterSize()]) return;
  ObserveBallot(m.ballot);
  if (m.slot <= last_delivered_) return;  // delivered (possibly GC'd)
  SlotState& st = slots_[m.slot];
  if (!st.have_value || st.digest != m.value_digest) {
    // Value not seen yet (the LEARN overtook its ACCEPT). Buffer the
    // decision: HandleAccept consumes it when the value arrives. Dropping
    // it here would stall this node's delivery sequence forever.
    ctx_.env->metrics.Inc("paxos.learn_before_value");
    st.learn_pending = true;
    st.learn_digest = m.value_digest;
    return;
  }
  MarkLearned(m.slot, st);
  DeliverReady();
}

void PaxosEngine::DeliverReady() {
  while (true) {
    auto it = slots_.find(last_delivered_ + 1);
    if (it == slots_.end() || !it->second.learned || it->second.delivered ||
        !it->second.have_value) {
      break;
    }
    it->second.delivered = true;
    ++last_delivered_;
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

void PaxosEngine::GarbageCollectBelow(uint64_t slot) {
  for (auto it = slots_.begin(); it != slots_.end();) {
    it = it->first <= slot ? slots_.erase(it) : std::next(it);
  }
  my_open_slots_.EraseUpTo(slot);
  for (auto it = gathered_.begin(); it != gathered_.end();) {
    it = it->first <= slot ? gathered_.erase(it) : std::next(it);
  }
}

void PaxosEngine::AdvanceFrontierTo(uint64_t slot) {
  last_delivered_ = slot;
  max_learned_ = std::max(max_learned_, slot);
  next_slot_ = std::max(next_slot_, slot + 1);
}

void PaxosEngine::ResumeAfterInstall() {
  DeliverReady();
  // A takeover parked behind the transfer can finish now: the certified
  // frontier is installed, so phase-1 no longer spans GC'd slots.
  if (awaiting_transfer_ <= last_delivered_ && !leading_ && IsPrimary() &&
      promises_.size() >= Quorum()) {
    FinishTakeover();
  }
  DrainProposeQueue();
}

void PaxosEngine::MaybeArmGapTimer() {
  // Stalled iff a learned slot sits beyond the undelivered frontier: the
  // frontier slot's ACCEPT/LEARN were lost while this node was crashed,
  // partitioned, or unlucky — and no slot timer exists for a slot we
  // never heard of. Take over after a timeout: phase-1 promises carry
  // every accepted value above our frontier, closing the gap.
  if (gap_timer_armed_ || max_learned_ <= last_delivered_ + 1) return;
  auto it = slots_.find(last_delivered_ + 1);
  if (it != slots_.end() && it->second.learned) return;  // will deliver
  gap_timer_armed_ = true;
  ctx_.start_timer(base_timeout_, kTagGapTimeout, last_delivered_);
}

void PaxosEngine::ArmSlotTimer(uint64_t slot, SlotState& st) {
  if (st.timer_armed || st.learned) return;
  st.timer_armed = true;
  ctx_.start_timer(base_timeout_, kTagSlotTimeout, slot);
}

void PaxosEngine::SuspectPrimary() {
  if (IsPrimary()) return;
  ctx_.env->metrics.Inc("paxos.suspect_takeover");
  TakeOver();
}

void PaxosEngine::OnHostCrash() {
  // Armed-timer flags must not outlive the timers (the crash epoch kills
  // every pending one), or gap detection stays disabled after recovery.
  gap_timer_armed_ = false;
  for (auto& [slot, st] : slots_) st.timer_armed = false;
}

void PaxosEngine::OnHostRecover() {
  MaybeArmGapTimer();
  if (IsPrimary() && !leading_ && ballot_ > 0) {
    // Mid-takeover crash: the phase-1 retry timer died with the old
    // life; restart the solicitation or the ballot stalls forever.
    ctx_.start_timer(base_timeout_, kTagTakeoverRetry, ballot_);
  }
}

void PaxosEngine::OnTimer(uint64_t tag, uint64_t payload) {
  if (tag == kTagTakeoverRetry) {
    // Phase-1 stalled (promises lost or a quorum unreachable): re-solicit
    // while the ballot is still ours and unfinished.
    if (leading_ || ballot_ != payload || !IsPrimary()) return;
    ctx_.env->metrics.Inc("paxos.takeover_retry");
    auto prep = std::make_shared<PaxosPrepareMsg>();
    prep->ballot = ballot_;
    prep->last_delivered = last_delivered_;
    ctx_.broadcast(prep);
    ctx_.start_timer(base_timeout_, kTagTakeoverRetry, ballot_);
    return;
  }
  if (tag == kTagGapTimeout) {
    gap_timer_armed_ = false;
    if (last_delivered_ != payload) {
      MaybeArmGapTimer();  // progressed; keep watching
      return;
    }
    ctx_.env->metrics.Inc("paxos.gap_takeover");
    TakeOver();
    return;
  }
  if (tag != kTagSlotTimeout) return;
  auto it = slots_.find(payload);
  if (it == slots_.end()) return;
  SlotState& st = it->second;
  st.timer_armed = false;
  if (st.learned) return;
  TakeOver();
}

void PaxosEngine::TakeOver() {
  // Anything still queued was queued under a leadership that has since
  // timed out — clients have retransmitted by now, so re-proposing it
  // here could duplicate transactions an interim leader already
  // committed.
  DropProposeQueue();
  uint64_t nb = ballot_ + 1;
  while (ctx_.cluster[nb % ClusterSize()] != ctx_.self) ++nb;
  ballot_ = nb;
  promised_ = std::max(promised_, nb);
  leading_ = false;
  ctx_.env->metrics.Inc("paxos.leader_takeover");
  if (ctx_.on_view_change) ctx_.on_view_change(ballot_, ctx_.self);

  // Phase-1: gather what a quorum has accepted before driving anything.
  promises_.clear();
  gathered_.clear();
  promises_.Insert(ctx_.self);
  for (const auto& [slot, st] : slots_) {
    if (st.have_value && slot > last_delivered_) {
      MergeGathered(slot, st.ballot, st.value, st.digest);
    }
  }
  auto prep = std::make_shared<PaxosPrepareMsg>();
  prep->ballot = ballot_;
  prep->last_delivered = last_delivered_;
  ctx_.broadcast(prep);
  if (promises_.size() >= Quorum()) {
    FinishTakeover();  // f = 0 degenerate case
  } else {
    ctx_.start_timer(base_timeout_, kTagTakeoverRetry, ballot_);
  }
}

void PaxosEngine::MergeGathered(uint64_t slot, uint64_t ballot,
                                const ConsensusValue& v,
                                const Sha256Digest& digest) {
  auto it = gathered_.find(slot);
  if (it != gathered_.end() && it->second.ballot >= ballot) return;
  PaxosAcceptedSlot a;
  a.slot = slot;
  a.ballot = ballot;
  a.value = v;
  a.digest = digest;
  gathered_[slot] = std::move(a);
}

void PaxosEngine::HandlePrepare(NodeId from, const PaxosPrepareMsg& m) {
  if (m.ballot < promised_) return;  // already promised someone newer
  promised_ = m.ballot;
  ObserveBallot(m.ballot);
  auto pr = std::make_shared<PaxosPromiseMsg>();
  pr->ballot = m.ballot;
  // Gather accepted slots in ascending slot order: slots_ is a hash map,
  // but the emitted promise must keep the deterministic order the old
  // ordered map produced (message contents feed the replay trace).
  std::vector<const std::pair<const uint64_t, SlotState>*> accepted_slots;
  for (const auto& entry : slots_) {
    if (!entry.second.have_value || entry.first <= m.last_delivered) {
      continue;
    }
    accepted_slots.push_back(&entry);
  }
  std::sort(accepted_slots.begin(), accepted_slots.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* entry : accepted_slots) {
    const SlotState& st = entry->second;
    PaxosAcceptedSlot a;
    a.slot = entry->first;
    a.ballot = st.ballot;
    a.value = st.value;
    a.digest = st.digest;
    pr->accepted.push_back(std::move(a));
  }
  // Report our stable checkpoint: a usurper below it cannot learn the
  // GC'd slots per slot and must state-transfer before driving anything.
  pr->stable = stable_checkpoint();
  ctx_.send(from, pr);
}

void PaxosEngine::HandlePromise(NodeId from, const PaxosPromiseMsg& m) {
  if (m.ballot != ballot_ || leading_ || !IsPrimary()) return;
  for (const auto& a : m.accepted) {
    if (a.slot > last_delivered_) {
      MergeGathered(a.slot, a.ballot, a.value, a.digest);
    }
  }
  if (m.stable.slot > last_delivered_ && ctx_.request_state_transfer &&
      m.stable.Valid(ctx_.env->keystore, Quorum())) {
    // The follower certified a frontier beyond ours and has GC'd the
    // slots below it: park the takeover until state transfer installs
    // the checkpoint (ResumeAfterInstall un-parks it). Re-request on
    // EVERY such promise — the takeover-retry loop keeps soliciting
    // them, so a transfer request or reply lost on the wire is retried
    // instead of wedging the parked ballot forever (the host dedups
    // concurrent requests).
    awaiting_transfer_ = std::max(awaiting_transfer_, m.stable.slot);
    ctx_.env->metrics.Inc("paxos.takeover_awaits_transfer");
    ctx_.request_state_transfer(m.stable);
  }
  promises_.Insert(from);
  if (awaiting_transfer_ > last_delivered_) return;
  if (promises_.size() >= Quorum()) FinishTakeover();
}

void PaxosEngine::FinishTakeover() {
  leading_ = true;
  ctx_.env->metrics.Inc("paxos.takeover_complete");
  uint64_t max_slot = last_delivered_;
  for (const auto& [slot, st] : slots_) max_slot = std::max(max_slot, slot);
  for (const auto& [slot, a] : gathered_) max_slot = std::max(max_slot, slot);
  next_slot_ = std::max(next_slot_, max_slot + 1);

  my_open_slots_.clear();
  for (uint64_t slot = last_delivered_ + 1; slot < next_slot_; ++slot) {
    SlotState& st = slots_[slot];
    if (st.delivered) continue;
    auto g = gathered_.find(slot);
    if (g != gathered_.end()) {
      // Quorum intersection: any chosen value appears in some promise —
      // adopt the highest-ballot one; re-driving it is idempotent.
      if (!st.learned) {
        st.value = g->second.value;
        st.digest = g->second.digest;
        st.have_value = true;
      }
    } else if (!st.have_value) {
      // Never accepted anywhere reachable: fill with a no-op so delivery
      // can progress past the hole.
      st.value = ConsensusValue{};
      st.digest = st.value.Digest();
      st.have_value = true;
      ctx_.env->metrics.Inc("paxos.noop_filled");
    }
    st.ballot = ballot_;
    if (st.learned) {
      // Already decided: refresh stragglers (a follower that missed the
      // original ACCEPT/LEARN — e.g. one recovering from a crash — fills
      // its gap from this).
      BroadcastAccept(slot, st);
      auto learn = std::make_shared<PaxosLearnMsg>();
      learn->ballot = ballot_;
      learn->slot = slot;
      learn->value_digest = st.digest;
      ctx_.broadcast(learn);
      continue;
    }
    st.accepted.clear();
    st.accepted.Insert(ctx_.self);
    my_open_slots_.Insert(slot);
    BroadcastAccept(slot, st);
    st.timer_armed = false;
    ArmSlotTimer(slot, st);
  }
  DeliverReady();
  DrainProposeQueue();
}

}  // namespace qanaat
