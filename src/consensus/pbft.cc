#include "consensus/pbft.h"

#include <algorithm>

namespace qanaat {

PbftEngine::PbftEngine(EngineContext ctx, int f, SimTime base_timeout_us)
    : InternalConsensus(std::move(ctx)),
      f_(f),
      base_timeout_(base_timeout_us) {
  slots_.reserve(1 << 12);
}

Sha256Digest PbftEngine::SignableDigest(
    ViewNo v, uint64_t slot, const Sha256Digest& value_digest) const {
  // Shared with CommitCertificate verification (ledger/block.h) so
  // commit-phase signatures double as externally checkable certificates.
  return ConsensusSignable(v, slot, value_digest);
}

namespace {
// The view-change/new-view signables salt a fixed string digest; hash it
// once per process instead of on every vote sent or verified.
const Sha256Digest& ViewChangeSalt() {
  static const Sha256Digest d = Sha256::Hash("view-change");
  return d;
}
const Sha256Digest& NewViewSalt() {
  static const Sha256Digest d = Sha256::Hash("new-view");
  return d;
}
}  // namespace

bool PbftEngine::VerifyVote(const Signature& sig, ViewNo view, uint64_t slot,
                            const Sha256Digest& digest, SlotState* st,
                            Sha256Digest* fresh) {
  const Sha256Digest* covered;
  if (st != nullptr) {
    covered = &st->signable.Get(view, slot, digest);
  } else {
    *fresh = SignableDigest(view, slot, digest);
    covered = fresh;
  }
  return ctx_.env->keystore.Verify(sig, *covered);
}

void PbftEngine::SendPrePrepare(uint64_t slot, SlotState& st) {
  if (!equivocate_) {
    auto pp = std::make_shared<PrePrepareMsg>();
    pp->view = view_;
    pp->slot = slot;
    pp->value = st.value;
    pp->value_digest = st.digest;
    pp->sig = ctx_.env->keystore.Sign(
        ctx_.self, st.signable.Get(view_, slot, st.digest));
    // Backups re-verify the client signature of every transaction in the
    // batch before preparing (PBFT request authentication).
    if (st.value.block != nullptr &&
        st.value.kind != ConsensusValue::Kind::kXCommit) {
      pp->sig_verify_ops = static_cast<uint16_t>(
          std::min<size_t>(1 + st.value.block->tx_count(), 65535));
    }
    ctx_.broadcast(pp);
  } else {
    // Byzantine primary: send a different (garbage) digest to half the
    // replicas. Correct replicas will fail to gather matching quorums and
    // eventually view-change.
    int i = 0;
    for (NodeId peer : ctx_.cluster) {
      if (peer == ctx_.self) continue;
      auto pp = std::make_shared<PrePrepareMsg>();
      pp->view = view_;
      pp->slot = slot;
      pp->value = st.value;
      Sha256Digest d = st.digest;
      if (i++ % 2 == 0) d.bytes[0] ^= 0xff;
      pp->value_digest = d;
      pp->sig =
          ctx_.env->keystore.Sign(ctx_.self, SignableDigest(view_, slot, d));
      ctx_.send(peer, pp);
    }
  }
}

void PbftEngine::Propose(const ConsensusValue& v) {
  if (!IsPrimary()) {
    ctx_.env->metrics.Inc("pbft.propose_on_backup");
    return;
  }
  // Pipelining: cap concurrently open slots; excess proposals queue and
  // start as earlier slots commit. A proposal arriving mid-view-change
  // also queues (a pre-prepare in a dying view would be wasted).
  if (AtPipelineCap() || in_view_change_) {
    propose_queue_.push_back(v);
    ctx_.env->metrics.Inc("pbft.proposal_queued");
    return;
  }
  StartSlot(v);
}

void PbftEngine::StartSlot(const ConsensusValue& v) {
  uint64_t slot = next_slot_++;
  SlotState& st = slots_[slot];
  st.view = view_;
  st.value = v;
  st.digest = v.Digest();
  st.have_preprepare = true;
  my_open_slots_.Insert(slot);
  SendPrePrepare(slot, st);
  // The primary's own PREPARE is implicit in the PRE-PREPARE; the slot
  // memo filled by SendPrePrepare makes this signable a hit.
  st.prepares.Put(ctx_.self, ctx_.env->keystore.Sign(
      ctx_.self, st.signable.Get(view_, slot, st.digest)));
  ArmSlotTimer(slot, st);
}

void PbftEngine::DrainProposeQueue() {
  while (!propose_queue_.empty() && IsPrimary() && !in_view_change_ &&
         !AtPipelineCap()) {
    ConsensusValue v = std::move(propose_queue_.front());
    propose_queue_.pop_front();
    StartSlot(v);
  }
}

void PbftEngine::ArmSlotTimer(uint64_t slot, SlotState& st) {
  if (st.timer_armed || st.committed) return;
  st.timer_armed = true;
  // Exponential backoff on consecutive view changes (§4.3.4).
  SimTime t = base_timeout_ << std::min<uint64_t>(view_change_count_, 6);
  ctx_.start_timer(t, kTagSlotTimeout, slot);
}

void PbftEngine::SuspectPrimary() {
  if (IsPrimary()) return;
  StartViewChange(view_ + 1, /*lone_suspicion=*/true);
}

void PbftEngine::OnHostCrash() {
  // Armed-timer flags must not outlive the timers themselves (the crash
  // epoch kills every pending one) — a stale true here would disable the
  // gap-fill / view-fetch machinery for the whole recovered life.
  gap_timer_armed_ = false;
  view_fetch_armed_ = false;
  fill_stalls_ = 0;
  // A half-done view change dies with the process: its escalation
  // watchdog is gone, so staying in_view_change_ would wedge normal-case
  // handling forever. The recovered replica rejoins the current view and
  // re-suspects if the primary is really gone.
  in_view_change_ = false;
  for (auto& [slot, st] : slots_) st.timer_armed = false;
}

void PbftEngine::OnHostRecover() {
  MaybeRequestFill();
  MaybeFetchView();
}

void PbftEngine::OnTimer(uint64_t tag, uint64_t payload) {
  if (tag == kTagGapFill) {
    gap_timer_armed_ = false;
    if (last_delivered_ > payload) {
      fill_stalls_ = 0;
      MaybeRequestFill();  // progressed on its own; recheck later
      return;
    }
    if (max_committed_ <= last_delivered_) return;
    if (++fill_stalls_ > 3 && ctx_.request_state_transfer) {
      // Per-slot fills are going nowhere — the missing slots may be
      // below every live peer's GC floor. Escalate to state transfer.
      fill_stalls_ = 0;
      ctx_.env->metrics.Inc("pbft.fill_escalated");
      ctx_.request_state_transfer(stable_checkpoint());
      MaybeRequestFill();
      return;
    }
    ctx_.env->metrics.Inc("pbft.fill_requested");
    auto req = std::make_shared<FillRequestMsg>();
    req->from_slot = last_delivered_ + 1;
    req->to_slot = std::min(max_committed_, last_delivered_ + 16);
    NodeId peer = ctx_.self;
    for (int i = 0; i < static_cast<int>(ClusterSize()) && peer == ctx_.self;
         ++i) {
      peer = ctx_.cluster[(ctx_.self_index + 1 + fill_rr_++) % ClusterSize()];
    }
    if (peer != ctx_.self) ctx_.send(peer, req);
    MaybeRequestFill();  // re-arm until the gap closes
    return;
  }
  if (tag == kTagViewFetch) {
    view_fetch_armed_ = false;
    if (view_ >= payload) return;  // the view installed on its own
    ctx_.env->metrics.Inc("pbft.view_fetch");
    auto req = std::make_shared<FillRequestMsg>();
    req->want_view = view_ + 1;
    NodeId peer = ctx_.self;
    for (int i = 0; i < static_cast<int>(ClusterSize()) && peer == ctx_.self;
         ++i) {
      peer = ctx_.cluster[(ctx_.self_index + 1 + view_fetch_rr_++) %
                          ClusterSize()];
    }
    if (peer != ctx_.self) ctx_.send(peer, req);
    MaybeFetchView();  // re-arm until the view catches up
    return;
  }
  if (tag == kTagVcTimeout) {
    // The view change we voted for (payload) never installed — votes or
    // the NEW-VIEW were lost. Escalate to the next view; the exponential
    // backoff in StartViewChange's timer keeps escalation bounded.
    if (view_ >= payload || !in_view_change_) return;
    ctx_.env->metrics.Inc("pbft.view_change_escalated");
    StartViewChange(payload + 1, /*lone_suspicion=*/false);
    return;
  }
  if (tag != kTagSlotTimeout) return;
  auto it = slots_.find(payload);
  if (it == slots_.end()) return;
  // timer_armed doubles as a cancellation flag: a view change clears it,
  // invalidating timers armed in the old view.
  if (!it->second.timer_armed) return;
  it->second.timer_armed = false;
  if (it->second.committed) return;
  // Suspect the primary. A lone suspicion does not abandon the current
  // view — the node broadcasts its VIEW-CHANGE vote but keeps
  // participating until f+1 nodes agree (prevents a single spurious
  // timeout under load from wedging the node).
  StartViewChange(view_ + 1, /*lone_suspicion=*/true);
}

void PbftEngine::StartViewChange(ViewNo target, bool lone_suspicion) {
  if (view_change_voted_.count(target)) return;
  view_change_voted_.insert(target);
  if (!lone_suspicion) in_view_change_ = true;
  ctx_.env->metrics.Inc("pbft.view_change_started");
  // Watchdog for this target: one per target per node (the voted-set
  // guard above makes re-arming impossible).
  ctx_.start_timer(
      base_timeout_ << std::min<uint64_t>(view_change_count_ + 1, 6),
      kTagVcTimeout, target);
  auto vc = std::make_shared<ViewChangeMsg>();
  vc->new_view = target;
  vc->last_delivered = last_delivered_;
  // Gather prepared slots in ascending slot order: slots_ is a hash map,
  // but the emitted proof list must keep the deterministic order the old
  // ordered map produced (message contents feed the replay trace).
  std::vector<const std::pair<const uint64_t, SlotState>*> prepared_slots;
  for (const auto& entry : slots_) {
    if (entry.second.prepared && !entry.second.delivered) {
      prepared_slots.push_back(&entry);
    }
  }
  std::sort(prepared_slots.begin(), prepared_slots.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* entry : prepared_slots) {
    PreparedProof p;
    p.slot = entry->first;
    p.view = entry->second.view;
    p.value = entry->second.value;
    p.value_digest = entry->second.digest;
    vc->prepared.push_back(std::move(p));
  }
  vc->sig = ctx_.env->keystore.Sign(
      ctx_.self, SignableDigest(target, 0, ViewChangeSalt()));
  ctx_.broadcast(vc);
  // Count our own vote.
  HandleViewChange(ctx_.self, *vc);
}

void PbftEngine::OnMessage(NodeId from, const MessageRef& msg) {
  // Buffer normal-case messages that belong to a view we have not
  // installed yet; they are replayed once the NEW-VIEW arrives.
  ViewNo msg_view = view_;
  switch (msg->type) {
    case MsgType::kPrePrepare:
      msg_view = msg->As<PrePrepareMsg>()->view;
      break;
    case MsgType::kPrepare:
      msg_view = msg->As<PrepareMsg>()->view;
      break;
    case MsgType::kCommit:
      msg_view = msg->As<CommitMsg>()->view;
      break;
    default:
      break;
  }
  if (msg_view > view_) {
    if (future_msgs_.size() < 10000) future_msgs_.emplace_back(from, msg);
    MaybeFetchView();
    return;
  }
  switch (msg->type) {
    case MsgType::kPrePrepare:
      HandlePrePrepare(from, *msg->As<PrePrepareMsg>());
      break;
    case MsgType::kPrepare:
      HandlePrepare(from, *msg->As<PrepareMsg>());
      break;
    case MsgType::kCommit:
      HandleCommit(from, *msg->As<CommitMsg>());
      break;
    case MsgType::kViewChange:
      HandleViewChange(from, *msg->As<ViewChangeMsg>());
      break;
    case MsgType::kNewView:
      HandleNewView(from, *msg->As<NewViewMsg>());
      break;
    case MsgType::kFillRequest:
      HandleFillRequest(from, *msg->As<FillRequestMsg>());
      break;
    case MsgType::kFillReply:
      HandleFillReply(from, *msg->As<FillReplyMsg>());
      break;
    case MsgType::kCheckpoint:
      HandleCheckpoint(from, *msg->As<CheckpointMsg>());
      break;
    default:
      break;
  }
}

void PbftEngine::HandlePrePrepare(NodeId from, const PrePrepareMsg& m) {
  if (m.view != view_ || in_view_change_) return;
  if (from != PrimaryNode()) return;
  // Delivered (possibly GC'd) slot: nothing to do, and touching slots_
  // would resurrect an entry below the GC floor.
  if (m.slot <= last_delivered_) return;
  auto it = slots_.find(m.slot);
  Sha256Digest fresh;
  if (!VerifyVote(m.sig, m.view, m.slot, m.value_digest,
                  it != slots_.end() ? &it->second : nullptr, &fresh)) {
    ctx_.env->metrics.Inc("pbft.bad_sig");
    return;  // a bad signature must not create slot state
  }
  if (m.value.Digest() != m.value_digest) {
    // The primary signed a digest that does not describe the value it
    // sent. Preparing it would let a quorum commit a digest whose
    // certificate can never verify against the delivered block (state
    // transfer then rejects it forever), so treat it as equivocation.
    ctx_.env->metrics.Inc("pbft.bad_preprepare_digest");
    StartViewChange(view_ + 1, /*lone_suspicion=*/true);
    return;
  }
  if (!m.value.CarriesItsBlock()) {
    // The digest covers only (kind, block digest): a signed value whose
    // block is missing or hashes elsewhere would commit a block no host
    // can execute. Same remedy as a bad digest.
    ctx_.env->metrics.Inc("pbft.bad_preprepare_block");
    StartViewChange(view_ + 1, /*lone_suspicion=*/true);
    return;
  }
  bool created = it == slots_.end();
  if (created) it = slots_.try_emplace(m.slot).first;
  SlotState& st = it->second;
  if (created) st.signable.Seed(m.view, m.slot, m.value_digest, fresh);
  if (st.delivered) return;  // already decided and applied here
  if (st.have_preprepare && st.digest != m.value_digest) {
    // Conflicting pre-prepare from the primary: equivocation evidence.
    ctx_.env->metrics.Inc("pbft.equivocation_detected");
    StartViewChange(view_ + 1, /*lone_suspicion=*/true);
    return;
  }
  st.view = m.view;
  st.value = m.value;
  st.digest = m.value_digest;
  st.have_preprepare = true;
  // The primary's pre-prepare doubles as its prepare vote (its signature
  // covers the same ⟨view, slot, digest⟩ tuple).
  st.prepares.Put(from, m.sig);
  ArmSlotTimer(m.slot, st);

  auto prep = std::make_shared<PrepareMsg>();
  prep->view = m.view;
  prep->slot = m.slot;
  prep->value_digest = m.value_digest;
  prep->sig = ctx_.env->keystore.Sign(
      ctx_.self, st.signable.Get(m.view, m.slot, m.value_digest));
  ctx_.broadcast(prep);
  st.prepares.Put(ctx_.self, prep->sig);
  MaybePrepared(m.slot, st);
}

void PbftEngine::HandlePrepare(NodeId from, const PrepareMsg& m) {
  if (m.view != view_ || in_view_change_) return;
  if (m.slot <= last_delivered_) return;  // delivered (possibly GC'd)
  auto it = slots_.find(m.slot);
  Sha256Digest fresh;
  if (!VerifyVote(m.sig, m.view, m.slot, m.value_digest,
                  it != slots_.end() ? &it->second : nullptr, &fresh)) {
    ctx_.env->metrics.Inc("pbft.bad_sig");
    return;  // a bad signature must not create slot state
  }
  bool created = it == slots_.end();
  if (created) it = slots_.try_emplace(m.slot).first;
  SlotState& st = it->second;
  if (created) st.signable.Seed(m.view, m.slot, m.value_digest, fresh);
  // Only count prepares matching the pre-prepared digest (once known).
  if (st.have_preprepare && st.digest != m.value_digest) return;
  if (!st.have_preprepare) {
    // Remember the vote; digest consistency is checked when the
    // pre-prepare arrives (mismatched votes simply never quorum).
    st.digest = m.value_digest;
  }
  st.prepares.Put(from, m.sig);
  // Liveness: a vote for an unknown slot starts a timer.
  ArmSlotTimer(m.slot, st);
  MaybePrepared(m.slot, st);
}

void PbftEngine::MaybePrepared(uint64_t slot, SlotState& st) {
  if (st.prepared || !st.have_preprepare) return;
  // PBFT: pre-prepare + 2f matching prepares (self's prepare included in
  // the map; primary's pre-prepare counts as its prepare).
  if (st.prepares.size() < Quorum()) return;
  st.prepared = true;
  auto c = std::make_shared<CommitMsg>();
  c->view = st.view;
  c->slot = slot;
  c->value_digest = st.digest;
  c->sig = ctx_.env->keystore.Sign(
      ctx_.self, st.signable.Get(st.view, slot, st.digest));
  ctx_.broadcast(c);
  st.commits.Put(ctx_.self, c->sig);
  MaybeCommitted(slot, st);
}

void PbftEngine::HandleCommit(NodeId from, const CommitMsg& m) {
  if (m.view != view_ || in_view_change_) return;
  if (m.slot <= last_delivered_) return;  // delivered (possibly GC'd)
  auto it = slots_.find(m.slot);
  Sha256Digest fresh;
  if (!VerifyVote(m.sig, m.view, m.slot, m.value_digest,
                  it != slots_.end() ? &it->second : nullptr, &fresh)) {
    ctx_.env->metrics.Inc("pbft.bad_sig");
    return;  // a bad signature must not create slot state
  }
  bool created = it == slots_.end();
  if (created) it = slots_.try_emplace(m.slot).first;
  SlotState& st = it->second;
  if (created) st.signable.Seed(m.view, m.slot, m.value_digest, fresh);
  if (st.have_preprepare && st.digest != m.value_digest) return;
  st.commits.Put(from, m.sig);
  ArmSlotTimer(m.slot, st);
  MaybeCommitted(m.slot, st);
}

void PbftEngine::MaybeCommitted(uint64_t slot, SlotState& st) {
  if (st.committed || !st.prepared) return;
  if (st.commits.size() < Quorum()) return;
  st.committed = true;
  max_committed_ = std::max(max_committed_, slot);
  my_open_slots_.Erase(slot);
  DeliverReady();
  DrainProposeQueue();
}

void PbftEngine::DeliverReady() {
  while (true) {
    auto it = slots_.find(last_delivered_ + 1);
    if (it == slots_.end() || !it->second.committed ||
        it->second.delivered) {
      break;
    }
    it->second.delivered = true;
    ++last_delivered_;
    fill_stalls_ = 0;
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
  MaybeRequestFill();
}

void PbftEngine::GarbageCollectBelow(uint64_t slot) {
  for (auto it = slots_.begin(); it != slots_.end();) {
    it = it->first <= slot ? slots_.erase(it) : std::next(it);
  }
  my_open_slots_.EraseUpTo(slot);
}

void PbftEngine::AdvanceFrontierTo(uint64_t slot) {
  last_delivered_ = slot;
  max_committed_ = std::max(max_committed_, slot);
  next_slot_ = std::max(next_slot_, slot + 1);
  fill_stalls_ = 0;
}

void PbftEngine::ResumeAfterInstall() {
  // Slots above the installed checkpoint may already be committed
  // locally (they arrived while the transfer ran) — flush them now.
  DeliverReady();
  DrainProposeQueue();
}

void PbftEngine::MaybeRequestFill() {
  // Stalled iff some slot committed locally beyond an undelivered
  // frontier — the frontier slot's messages are gone for good (nothing
  // in PBFT retransmits them), so fetch the decisions from a peer.
  if (gap_timer_armed_ || max_committed_ <= last_delivered_) return;
  gap_timer_armed_ = true;
  ctx_.start_timer(base_timeout_ / 2, kTagGapFill, last_delivered_);
}

void PbftEngine::MaybeFetchView() {
  // Arm one fetch per wedge episode: buffered future messages prove a
  // view beyond ours installed somewhere, and if the NEW-VIEW were
  // merely in flight it would arrive well within a timeout.
  if (view_fetch_armed_ || future_msgs_.empty()) return;
  ViewNo target = view_;
  for (const auto& [sender, msg] : future_msgs_) {
    switch (msg->type) {
      case MsgType::kPrePrepare:
        target = std::max(target, msg->As<PrePrepareMsg>()->view);
        break;
      case MsgType::kPrepare:
        target = std::max(target, msg->As<PrepareMsg>()->view);
        break;
      case MsgType::kCommit:
        target = std::max(target, msg->As<CommitMsg>()->view);
        break;
      default:
        break;
    }
  }
  if (target <= view_) return;
  view_fetch_armed_ = true;
  ctx_.start_timer(base_timeout_, kTagViewFetch, target);
}

void PbftEngine::HandleFillRequest(NodeId from, const FillRequestMsg& m) {
  if (m.want_view > 0) {
    if (last_new_view_msg_ != nullptr &&
        last_new_view_msg_->new_view >= m.want_view) {
      ctx_.env->metrics.Inc("pbft.view_served");
      ctx_.send(from, last_new_view_msg_);
    }
    if (m.to_slot == 0) return;  // pure view-sync request
  }
  if (m.from_slot <= gc_floor() && !stable_checkpoint().empty()) {
    // The requested window starts below our GC floor: those slots no
    // longer exist per slot here. Send the stable checkpoint certificate
    // instead — the requester verifies it and state-transfers.
    ctx_.env->metrics.Inc("pbft.fill_below_gc");
    auto ck = std::make_shared<CheckpointMsg>();
    ck->cert = stable_checkpoint();
    ck->sig_verify_ops = static_cast<uint16_t>(ck->cert.sigs.size());
    ctx_.send(from, ck);
  }
  // At most 17 slots per request, counted rather than bounded: a window
  // ending at 2^64-1 must not wrap the slot counter.
  if (m.to_slot < m.from_slot) return;
  uint64_t count = std::min<uint64_t>(m.to_slot - m.from_slot, 16) + 1;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t slot = m.from_slot + i;
    auto it = slots_.find(slot);
    if (it == slots_.end() || !it->second.committed) continue;
    const SlotState& st = it->second;
    auto fr = std::make_shared<FillReplyMsg>();
    fr->slot = slot;
    fr->view = st.view;
    fr->value = st.value;
    for (const auto& [node, sig] : st.commits.entries()) {
      fr->commit_proof.push_back(sig);
    }
    fr->sig_verify_ops = static_cast<uint16_t>(fr->commit_proof.size());
    ctx_.send(from, fr);
  }
}

void PbftEngine::HandleFillReply(NodeId from, const FillReplyMsg& m) {
  (void)from;
  if (m.slot <= last_delivered_) return;
  // The proof, like a pre-prepare's signature, covers only (kind, block
  // digest); it cannot vouch for a missing or mismatched block.
  if (!m.value.CarriesItsBlock()) {
    ctx_.env->metrics.Inc("pbft.bad_fill_block");
    return;
  }
  SlotState& st = slots_[m.slot];
  if (st.committed || st.delivered) return;
  // Self-certifying: the commit-quorum signatures prove the decision, so
  // a single faulty peer cannot inject a fake one.
  Sha256Digest covered =
      SignableDigest(m.view, m.slot, m.value.Digest());
  std::set<NodeId> distinct;
  for (const auto& sig : m.commit_proof) {
    if (!ctx_.env->keystore.Verify(sig, covered)) {
      ctx_.env->metrics.Inc("pbft.bad_fill_proof");
      return;
    }
    distinct.insert(sig.signer);
  }
  if (distinct.size() < Quorum()) {
    ctx_.env->metrics.Inc("pbft.short_fill_proof");
    return;
  }
  ctx_.env->metrics.Inc("pbft.slot_filled");
  st.view = m.view;
  st.value = m.value;
  st.digest = m.value.Digest();
  st.have_preprepare = true;
  st.prepared = true;
  st.committed = true;
  for (const auto& sig : m.commit_proof) st.commits.Put(sig.signer, sig);
  max_committed_ = std::max(max_committed_, m.slot);
  my_open_slots_.Erase(m.slot);
  DeliverReady();
  DrainProposeQueue();
}

std::vector<Signature> PbftEngine::CommitProof(uint64_t slot) const {
  std::vector<Signature> out;
  auto it = slots_.find(slot);
  if (it == slots_.end()) return out;
  for (const auto& [node, sig] : it->second.commits.entries()) {
    out.push_back(sig);
  }
  return out;
}

void PbftEngine::HandleViewChange(NodeId from, const ViewChangeMsg& m) {
  if (m.new_view <= view_) return;
  auto stored = std::make_shared<ViewChangeMsg>(m);
  view_changes_rcvd_[m.new_view][from] = stored;
  auto& votes = view_changes_rcvd_[m.new_view];

  // Join the view change once f+1 nodes demand it (liveness rule); at
  // that point the node stops working in the old view.
  if (votes.size() >= static_cast<size_t>(f_ + 1)) {
    if (!view_change_voted_.count(m.new_view)) {
      StartViewChange(m.new_view, /*lone_suspicion=*/false);
    }
    in_view_change_ = true;
  }

  // New primary: with 2f+1 view-change messages, install the view.
  NodeId new_primary = ctx_.cluster[m.new_view % ClusterSize()];
  if (new_primary != ctx_.self) return;
  if (votes.size() < Quorum()) return;
  // Exactly one NEW-VIEW per target: a vote arriving after the quorum
  // must not rebuild the message with a larger reproposal set — replicas
  // would re-install the view and reset slots already in flight.
  if (!new_view_sent_.insert(m.new_view).second) return;

  auto nv = std::make_shared<NewViewMsg>();
  nv->new_view = m.new_view;
  // Re-propose every slot any quorum member prepared.
  std::map<uint64_t, PreparedProof> merged;
  for (const auto& [node, vc] : votes) {
    for (const auto& p : vc->prepared) {
      auto cur = merged.find(p.slot);
      if (cur == merged.end() || cur->second.view < p.view) {
        merged[p.slot] = p;
      }
    }
  }
  for (auto& [slot, p] : merged) nv->reproposals.push_back(p);
  nv->sig = ctx_.env->keystore.Sign(
      ctx_.self, SignableDigest(m.new_view, 0, NewViewSalt()));
  ctx_.broadcast(nv);
  HandleNewView(ctx_.self, *nv);
}

void PbftEngine::HandleNewView(NodeId from, const NewViewMsg& m) {
  (void)from;
  if (m.new_view < view_) return;
  // Process each view's NEW-VIEW at most once (duplicated deliveries
  // under fault injection would otherwise reset in-flight slots).
  if (m.new_view <= last_new_view_processed_) return;
  // The message is self-certifying: it must be SIGNED by the view's
  // primary, but any peer may deliver it — the view-fetch path re-serves
  // a retained NEW-VIEW from whichever replica holds it, which matters
  // exactly when the primary that built it is unreachable.
  NodeId expected_primary = ctx_.cluster[m.new_view % ClusterSize()];
  if (m.sig.signer != expected_primary) return;
  if (!ctx_.env->keystore.Verify(
          m.sig, SignableDigest(m.new_view, 0, NewViewSalt()))) {
    return;
  }
  view_ = m.new_view;
  last_new_view_processed_ = m.new_view;
  in_view_change_ = false;
  ++view_change_count_;
  ctx_.env->metrics.Inc("pbft.view_installed");
  // Retain the installed NEW-VIEW for view-wedged peers (see
  // MaybeFetchView / the want_view fill path).
  if (last_new_view_msg_ == nullptr ||
      last_new_view_msg_->new_view < m.new_view) {
    last_new_view_msg_ = std::make_shared<NewViewMsg>(m);
  }

  // Open-slot accounting restarts in the new view (re-proposed slots are
  // re-opened below at the new primary).
  my_open_slots_.clear();

  // Reset per-slot vote state for undelivered slots; prepared slots are
  // re-proposed by the new primary below.
  uint64_t max_slot = last_delivered_;
  for (auto& [slot, st] : slots_) {
    max_slot = std::max(max_slot, slot);
    if (st.delivered) continue;
    st.have_preprepare = false;
    st.prepared = false;
    st.committed = false;
    st.prepares.clear();
    st.commits.clear();
    st.timer_armed = false;
  }

  if (ctx_.self == expected_primary) {
    // Slots delivered anywhere in the quorum are decided; never overwrite
    // them with no-ops — fetch them via the fill protocol instead.
    uint64_t quorum_delivered = last_delivered_;
    for (const auto& [node, vc] : view_changes_rcvd_[m.new_view]) {
      quorum_delivered = std::max(quorum_delivered, vc->last_delivered);
    }
    next_slot_ = std::max(next_slot_, max_slot + 1);
    next_slot_ = std::max(next_slot_, quorum_delivered + 1);
    std::set<uint64_t> reproposed;
    for (const auto& p : m.reproposals) {
      if (p.slot <= last_delivered_) continue;
      reproposed.insert(p.slot);
      SlotState& st = slots_[p.slot];
      st.view = view_;
      st.value = p.value;
      st.digest = p.value_digest;
      st.have_preprepare = true;
      my_open_slots_.Insert(p.slot);
      SendPrePrepare(p.slot, st);
      st.prepares.Put(ctx_.self, ctx_.env->keystore.Sign(
          ctx_.self, st.signable.Get(view_, p.slot, st.digest)));
      ArmSlotTimer(p.slot, st);
    }
    // Fill abandoned slots (proposed in the old view but prepared
    // nowhere) with no-ops so later slots can deliver.
    for (uint64_t slot = last_delivered_ + 1; slot < next_slot_; ++slot) {
      if (reproposed.count(slot)) continue;
      SlotState& st = slots_[slot];
      if (st.delivered || st.committed) continue;
      if (slot <= quorum_delivered) continue;  // decided elsewhere: fill
      st.view = view_;
      st.value = ConsensusValue{};
      st.digest = st.value.Digest();
      st.have_preprepare = true;
      my_open_slots_.Insert(slot);
      SendPrePrepare(slot, st);
      st.prepares.Put(ctx_.self, ctx_.env->keystore.Sign(
          ctx_.self, st.signable.Get(view_, slot, st.digest)));
      ArmSlotTimer(slot, st);
    }
  } else {
    // Replicas accept the re-proposals as fresh pre-prepares in the new
    // view via the normal path (the new primary broadcast them).
    for (const auto& p : m.reproposals) {
      if (p.slot <= last_delivered_) continue;
      SlotState& st = slots_[p.slot];
      st.view = view_;
      st.value = p.value;
      st.digest = p.value_digest;
      st.have_preprepare = true;
      auto prep = std::make_shared<PrepareMsg>();
      prep->view = view_;
      prep->slot = p.slot;
      prep->value_digest = p.value_digest;
      prep->sig = ctx_.env->keystore.Sign(
          ctx_.self, st.signable.Get(view_, p.slot, p.value_digest));
      ctx_.broadcast(prep);
      st.prepares.Put(ctx_.self, prep->sig);
      ArmSlotTimer(p.slot, st);
    }
  }
  // Queued proposals were accepted in an earlier view; even if this node
  // is primary again now, the intervening views may have committed them
  // via client retransmission, so re-proposing would duplicate them.
  // Drop unconditionally — clients retransmit whatever really was lost.
  if (!propose_queue_.empty()) {
    ctx_.env->metrics.Inc("pbft.queue_dropped_on_view_change",
                          propose_queue_.size());
    propose_queue_.clear();
  }
  if (ctx_.on_view_change) {
    ctx_.on_view_change(view_, ctx_.cluster[view_ % ClusterSize()]);
  }
  // Replay messages that raced ahead of this NEW-VIEW.
  std::vector<std::pair<NodeId, MessageRef>> replay;
  replay.swap(future_msgs_);
  for (auto& [sender, message] : replay) OnMessage(sender, message);
}

}  // namespace qanaat
