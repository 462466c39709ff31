#include "protocols/ordering_node.h"

#include <algorithm>

#include "consensus/paxos.h"
#include "consensus/pbft.h"

namespace qanaat {

OrderingNode::OrderingNode(Env* env, const Directory* dir,
                           const DataModel* model, int cluster_id, int index)
    : Actor(env, "order/" + std::to_string(cluster_id) + "/" +
                     std::to_string(index),
            dir->Cluster(cluster_id).region),
      dir_(dir),
      model_(model),
      cfg_(dir->Cluster(cluster_id)),
      index_(index),
      exec_(env, model, cfg_.enterprise, cfg_.shard),
      batcher_(
          BatcherConfig{dir->params.batch_size, dir->params.batch_timeout_us},
          [this](SimTime delay, uint64_t token) {
            StartTimer(delay, kTagBatch, token);
          },
          [this](const FlowKey& key, std::vector<Transaction> txs,
                 BatchClose why) { OnBatchClosed(key, std::move(txs), why); }) {
  // No reservations: the dedup windows hold only what is in flight here,
  // and the committed record grows per client.
  EngineContext ctx;
  ctx.env = env;
  ctx.self = id();
  ctx.cluster = cfg_.ordering;
  ctx.self_index = index;
  ctx.pipeline_depth = static_cast<size_t>(
      dir_->params.pipeline_depth < 0 ? 0 : dir_->params.pipeline_depth);
  ctx.send = [this](NodeId to, MessageRef m) { Send(to, std::move(m)); };
  ctx.broadcast = [this](MessageRef m) {
    for (NodeId peer : cfg_.ordering) {
      if (peer != id()) Send(peer, m);
    }
  };
  ctx.start_timer = [this](SimTime d, uint64_t tag, uint64_t payload) {
    StartTimer(d, tag, payload);
  };
  ctx.deliver = [this](uint64_t slot, const ConsensusValue& v) {
    OnDecide(slot, v);
  };
  ctx.checkpoint_interval = static_cast<size_t>(
      dir_->params.checkpoint_interval < 0
          ? 0
          : dir_->params.checkpoint_interval);
  ctx.request_state_transfer = [this](const CheckpointCertificate&) {
    // The peer's StateReply carries its own certificate; all the host
    // needs to know is that per-slot catch-up cannot work.
    ScheduleStateSync(dir_->params.consensus_timeout_us / 4);
  };
  ctx.on_view_change = [this](ViewNo, NodeId new_primary) {
    if (new_primary == id()) ReplayExecPushes();
  };
  if (cfg_.failure_model == FailureModel::kByzantine) {
    engine_ = std::make_unique<PbftEngine>(
        std::move(ctx), dir_->params.f, dir_->params.consensus_timeout_us);
  } else {
    engine_ = std::make_unique<PaxosEngine>(
        std::move(ctx), dir_->params.f, dir_->params.consensus_timeout_us);
  }
}

SimTime OrderingNode::CostOf(const Message& msg) const {
  if (msg.type == MsgType::kRequest) {
    SimTime auth = cfg_.failure_model == FailureModel::kCrash
                       ? env()->costs.mac_verify_us
                       : env()->costs.verify_sig_us;
    SimTime pf = dir_->params.use_firewall
                     ? env()->costs.pf_tx_overhead_us
                     : 0;
    return env()->costs.base_proc_us + auth + pf;
  }
  return Actor::CostOf(msg);
}

void OrderingNode::OnCrash() {
  // Volatile intake state dies with the process: pending batch items are
  // recovered by client retransmission, and the batcher's armed-timer
  // flags must not outlive the timers (which the crash epoch discards).
  batcher_.Reset();
  parked_.clear();
  parked_ids_.clear();
  release_armed_ = false;  // its timer died with the old epoch
  progress_checks_.clear();
  pending_exec_push_.clear();
  state_sync_pending_ = false;  // its timer died with the old epoch
  exec_wedge_armed_ = false;
  exec_wedged_ = false;
  engine_->OnHostCrash();
}

void OrderingNode::MaybeWatchExecWedge() {
  if (exec_wedge_armed_) return;
  if (exec_.pending_blocks() == 0) return;
  exec_wedge_armed_ = true;
  exec_ledger_at_arm_ = exec_.ledger().size();
  StartTimer(dir_->params.cross_timeout_us, kTagExecWedge, 0);
}

void OrderingNode::OnRecover() {
  engine_->OnHostRecover();
  MaybeWatchExecWedge();
  // A restarted replica missed every commit of its downtime — including
  // cross-cluster commits nothing will ever retransmit (completed
  // instances stop re-driving). Proactively fetch the gap from a peer;
  // the tail still catches up through the normal fill protocols.
  ScheduleStateSync(dir_->params.consensus_timeout_us / 2);
}

// --------------------------------------------------------------- intake

void OrderingNode::OnMessage(NodeId from, const MessageRef& msg) {
  switch (msg->type) {
    case MsgType::kRequest:
      HandleRequest(from, *msg->As<RequestMsg>());
      break;
    case MsgType::kPrePrepare:
      ObserveProposedValue(msg->As<PrePrepareMsg>()->value);
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kPaxosAccept:
      ObserveProposedValue(msg->As<PaxosAcceptMsg>()->value);
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kViewChange:
      for (const auto& p : msg->As<ViewChangeMsg>()->prepared) {
        ObserveProposedValue(p.value);
      }
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kNewView:
      for (const auto& p : msg->As<NewViewMsg>()->reproposals) {
        ObserveProposedValue(p.value);
      }
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kPaxosPromise:
      for (const auto& a : msg->As<PaxosPromiseMsg>()->accepted) {
        ObserveProposedValue(a.value);
      }
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kPrepare:
    case MsgType::kCommit:
    case MsgType::kPaxosAccepted:
    case MsgType::kPaxosLearn:
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kFillReply:
      ObserveProposedValue(msg->As<FillReplyMsg>()->value);
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kPaxosPrepare:
    case MsgType::kFillRequest:
    case MsgType::kCheckpoint:
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kStateRequest:
      HandleStateRequest(from, *msg->As<StateRequestMsg>());
      break;
    case MsgType::kStateReply:
      HandleStateReply(from, *msg->As<StateReplyMsg>());
      break;
    case MsgType::kXPrepare:
      ObserveProposedBlock(msg->As<XPrepareMsg>()->block);
      HandleXPrepare(from, *msg->As<XPrepareMsg>());
      break;
    case MsgType::kXPrepared:
      HandleXPrepared(from, *msg->As<XPreparedMsg>());
      break;
    case MsgType::kXCommit:
    case MsgType::kXAbort:
      HandleXCommit(from, *msg->As<XCommitMsg>());
      break;
    case MsgType::kFPropose:
      ObserveProposedBlock(msg->As<FProposeMsg>()->block);
      HandleFPropose(from, *msg->As<FProposeMsg>());
      break;
    case MsgType::kFAccept:
      HandleFAccept(from, *msg->As<FAcceptMsg>());
      break;
    case MsgType::kFCommit:
      HandleFCommit(from, *msg->As<FCommitMsg>());
      break;
    case MsgType::kCommitQuery:
    case MsgType::kPreparedQuery:
      HandleQuery(from, *msg->As<QueryMsg>());
      break;
    case MsgType::kReplyCert:
      ForwardReplyCert(msg);
      break;
    case MsgType::kExecReply: {
      // Fig 4(b) path: crash-only execution nodes report to the primary,
      // which forwards a plain reply to the client machines.
      const auto& m = *msg->As<ExecReplyMsg>();
      auto reply = std::make_shared<ReplyMsg>();
      reply->block_digest = m.block_digest;
      reply->result_digest = m.result_digest;
      reply->clients = m.clients;
      reply->sig = env()->keystore.Sign(id(), m.result_digest);
      SendToClients(m.clients, reply);
      break;
    }
    default:
      break;
  }
  RetireFinished();
}

void OrderingNode::OnTimer(uint64_t tag, uint64_t payload) {
  HandleTimer(tag, payload);
  RetireFinished();
}

void OrderingNode::HandleTimer(uint64_t tag, uint64_t payload) {
  if (tag >= InternalConsensus::kEngineTimerBase) {
    engine_->OnTimer(tag, payload);
    return;
  }
  if (tag == kTagBatch) {
    batcher_.OnTimer(payload);
    return;
  }
  if (tag == kTagRetry) {
    RunRetry(payload);
    return;
  }
  if (tag == kTagStateSync) {
    state_sync_pending_ = false;
    SendStateRequest();
    MaybeReleaseParked();
    return;
  }
  if (tag == kTagIntakeRelease) {
    ReleaseParked();
    return;
  }
  if (tag == kTagExecPush) {
    auto it = pending_exec_push_.find(payload);
    if (it == pending_exec_push_.end()) return;
    if (reply_cache_.count(it->second.msg->cert.block_digest)) {
      // A reply certificate came back down the firewall: the execution
      // nodes saw the block, nothing to do.
      pending_exec_push_.erase(it);
      return;
    }
    env()->metrics.Inc("order.exec_push_backup");
    PushToExecution(it->second.msg);
    if (++it->second.tries >= 3) {
      pending_exec_push_.erase(it);
    } else {
      StartTimer(dir_->params.cross_timeout_us, kTagExecPush, payload);
    }
    return;
  }
  if (tag == kTagExecWedge) {
    exec_wedge_armed_ = false;
    if (exec_.pending_blocks() == 0) {
      exec_wedged_ = false;
    } else if (exec_.ledger().size() == exec_ledger_at_arm_) {
      exec_wedged_ = true;
      env()->metrics.Inc("order.exec_wedge_detected");
      ScheduleStateSync(0);
    } else {
      exec_wedged_ = false;  // progressing again
    }
    MaybeWatchExecWedge();  // re-arms only while blocks sit deferred
    MaybeReleaseParked();
    return;
  }
  if (tag == kTagProgress) {
    auto it = progress_checks_.find(payload);
    if (it == progress_checks_.end()) return;
    if (ObservedRecently(it->second.id) ||
        RecentlyIn(seen_requests_, it->second.id)) {
      // A proposal carrying the request was observed — primary is live.
      // A pin in pending_cross_ proves nothing here: the stalled instance
      // of a dead primary stays pinned until it finishes.
      progress_checks_.erase(it);
      return;
    }
    if (engine_->LastDelivered() != it->second.delivered_at_arm) {
      // Consensus moved since the relay: the primary is alive and the
      // request is parked for some other (legitimate) reason. Suspecting
      // here would thrash views on a healthy cluster.
      progress_checks_.erase(it);
      return;
    }
    if (++it->second.tries > 3) {
      // The request is lost upstream (e.g. dropped on the wire); the
      // client's retransmission will start a fresh watchdog.
      progress_checks_.erase(it);
      return;
    }
    env()->metrics.Inc("order.primary_suspected");
    engine_->SuspectPrimary();
    it->second.delivered_at_arm = engine_->LastDelivered();
    StartTimer(2 * dir_->params.consensus_timeout_us, kTagProgress, payload);
    return;
  }
  if (tag == kTagCross) {
    auto it = cross_timer_digest_.find(payload);
    if (it == cross_timer_digest_.end()) return;
    Sha256Digest d = it->second;
    cross_timer_digest_.erase(it);
    auto xit = xstates_.find(d);
    if (xit == xstates_.end()) return;  // finished and retired
    XState& xs = xit->second;
    xs.timer_armed = false;
    env()->metrics.Inc("cross.timeout");
    // Initiator/coordinator primary: re-drive the instance — some votes
    // or the PREPARE/PROPOSE itself may have been lost, and nothing else
    // retransmits them.
    RedriveCross(xs);
    // The re-drive may have aborted the instance into the retry
    // machinery (arbitration back-off). It stays in xstates_, done, until
    // the event ends, so the reference is still valid.
    if (xs.done) return;
    // §4.3.4: query the coordinator/initiator cluster for the outcome.
    auto q = std::make_shared<QueryMsg>(MsgType::kCommitQuery);
    q->from_cluster = cfg_.cluster_id;
    q->block_digest = d;
    q->sig = env()->keystore.Sign(id(), d);
    int coord = xs.involved.empty() ? cfg_.cluster_id : xs.involved.front();
    if (xs.block) {
      coord = CoordinatorClusterOf(xs.block->id.alpha.collection,
                                   AllShards(xs));
    }
    Multicast(dir_->Cluster(coord).ordering, q);
    ArmCrossTimer(d);
    return;
  }
}

std::vector<ShardId> OrderingNode::AllShards(const XState& xs) {
  std::vector<ShardId> out;
  out.reserve(xs.assignments.size());
  for (const auto& [s, a] : xs.assignments) out.push_back(s);
  if (out.empty() && xs.block) {
    out = xs.block->txs.empty() ? std::vector<ShardId>{0}
                                : xs.block->txs.front().shards;
  }
  return out;
}

void OrderingNode::HandleRequest(NodeId /*from*/, const RequestMsg& m) {
  const Transaction& tx = m.tx;
  // Authorization + signature (paper §4.1: "valid signed request from an
  // authorized client").
  if (!env()->keystore.Verify(tx.client_sig, tx.Digest())) {
    env()->metrics.Inc("order.bad_request_sig");
    return;
  }
  if (!engine_->IsPrimary()) {
    // Relay to the current primary (§4.3.4 client retransmission path).
    if (m.is_retransmission) {
      auto it = reply_cache_.end();
      // Re-send a cached reply if we executed it already.
      for (auto& [digest, cached] : reply_cache_) {
        for (auto& [c, ts] : cached->clients) {
          if (c == tx.client && ts == tx.client_ts) {
            it = reply_cache_.find(digest);
            break;
          }
        }
        if (it != reply_cache_.end()) break;
      }
      if (it != reply_cache_.end()) {
        Send(tx.client, it->second);
        return;
      }
    }
    Send(engine_->PrimaryNode(), std::make_shared<RequestMsg>(m));
    WatchRelayedRequest(tx);
    return;
  }
  if (IsDuplicateRequest({tx.client, tx.client_ts})) {
    env()->metrics.Inc("order.duplicate_request");
    return;
  }
  if (IntakeGated()) {
    // A catching-up primary must not admit fresh batches: its permanent
    // at-most-once record is still incomplete, so a retransmission of a
    // transaction whose commit it has not yet learned would be ordered a
    // second time. The request waits here and is replayed through this
    // function as soon as the gate clears.
    env()->metrics.Inc("order.intake_gated");
    ParkRequest(m);
    return;
  }
  // Write rule (§3.2): the transaction must target a collection its
  // initiating enterprise is involved in.
  Status ok = model_->ValidateWrite(tx.collection, cfg_.enterprise);
  if (!ok.ok()) {
    env()->metrics.Inc("order.rejected_write_rule");
    return;
  }
  seen_requests_.Put({tx.client, tx.client_ts}, now());
  MaybePurgeDedup();

  // Requests of one flow (same collection + shard set) can legally share
  // a block; cross-cluster flows use the longer batch window.
  FlowKey key{tx.collection, tx.shards};
  SimTime window = IsCross(key) ? dir_->params.cross_batch_timeout_us : 0;
  batcher_.Add(key, tx, window);
}

void OrderingNode::ObserveProposedValue(const ConsensusValue& v) {
  if (v.kind != ConsensusValue::Kind::kBlock &&
      v.kind != ConsensusValue::Kind::kXOrder) {
    return;
  }
  ObserveProposedBlock(v.block);
}

void OrderingNode::ObserveProposedBlock(const BlockPtr& block) {
  if (block == nullptr) return;
  for (const Transaction& tx : block->txs) {
    // A view change, promise or fill can carry a value committed here
    // long ago; the windows hold only what is still in flight.
    RequestId id{tx.client, tx.client_ts};
    if (!committed_requests_.Contains(id)) observed_requests_.Put(id, now());
  }
  // Backups never take the intake path, so the observation map must be
  // purged here too or it grows for the whole run on (n-1)/n nodes.
  MaybePurgeDedup();
}

bool OrderingNode::IntakeGated() const {
  // Deferred blocks gate intake from the FIRST deferral, not only once
  // the wedge watchdog confirms one: the gap between "a commit we have
  // not applied exists" and "the watchdog noticed" is exactly where a
  // catching-up leader re-orders a retransmission into a duplicate
  // block (the chaos corpus reproduces this deterministically). Under
  // cross-shard load the gate is closed often — out-of-order commits of
  // one chain are routine there — so gated requests are parked and
  // replayed when it clears instead of waiting for the client's
  // retransmission timeout.
  return state_sync_pending_ || exec_wedged_ || exec_.pending_blocks() > 0;
}

void OrderingNode::ParkRequest(const RequestMsg& m) {
  if (!parked_ids_.insert({m.tx.client, m.tx.client_ts}).second) return;
  parked_.push_back(m);
}

void OrderingNode::MaybeReleaseParked() {
  if (parked_.empty() || release_armed_ || IntakeGated()) return;
  release_armed_ = true;
  StartTimer(0, kTagIntakeRelease, 0);
}

void OrderingNode::ReleaseParked() {
  release_armed_ = false;
  if (IntakeGated()) return;  // closed again; the next clearing re-arms
  std::deque<RequestMsg> batch;
  batch.swap(parked_);
  parked_ids_.clear();
  env()->metrics.Inc("order.intake_released", batch.size());
  for (const RequestMsg& m : batch) HandleRequest(kInvalidNode, m);
}

SimTime OrderingNode::DedupWindowUs() const {
  // The window a live proposal could still commit in (internal rounds
  // plus a full re-driven cross instance); past it the proposal is
  // presumed abandoned and the transaction may be batched afresh.
  return 2 * dir_->params.cross_timeout_us;
}

bool OrderingNode::RecentlyIn(const RequestTable& m,
                              const RequestId& id) const {
  const SimTime* at = m.Find(id);
  return at != nullptr && now() - *at <= DedupWindowUs();
}

bool OrderingNode::ObservedRecently(const RequestId& id) const {
  return committed_requests_.Contains(id) ||
         RecentlyIn(observed_requests_, id);
}

bool OrderingNode::IsDuplicateRequest(const RequestId& id) const {
  // Intake dedup uses the same expiry as observation dedup: past the
  // window, this node's own proposal is presumed abandoned and a client
  // retransmission may be admitted afresh — otherwise a transaction lost
  // in an abandoned proposal would stay blacklisted here until another
  // node became primary.
  // pending_cross_ deliberately has no expiry: those requests sit in a
  // live cross instance that keeps being re-driven, so they are never
  // abandoned while pinned (see FinishCross for the release).
  return committed_requests_.Contains(id) ||
         pending_cross_.find(id) != pending_cross_.end() ||
         RecentlyIn(seen_requests_, id) ||
         RecentlyIn(observed_requests_, id);
}

void OrderingNode::PinCross(const BlockPtr& block) {
  for (const auto& tx : block->txs) {
    ++pending_cross_[{tx.client, tx.client_ts}];
  }
}

void OrderingNode::PinInstance(XState& xs) {
  if (xs.pinned) return;
  xs.pinned = true;
  PinCross(xs.block);
}

void OrderingNode::UnpinCross(const BlockPtr& block) {
  if (block == nullptr) return;
  for (const auto& tx : block->txs) {
    auto it = pending_cross_.find({tx.client, tx.client_ts});
    if (it == pending_cross_.end()) continue;
    if (--it->second == 0) pending_cross_.erase(it);
  }
}

void OrderingNode::RecordCommitted(const Block& block) {
  for (const Transaction& tx : block.txs) {
    RequestId id{tx.client, tx.client_ts};
    committed_requests_.Insert(id);
    seen_requests_.Erase(id);
    observed_requests_.Erase(id);
  }
}

void OrderingNode::MaybePurgeDedup() {
  if (now() - last_dedup_purge_ <= DedupWindowUs()) return;
  last_dedup_purge_ = now();
  SimTime horizon = now() - DedupWindowUs();
  seen_requests_.PurgeBefore(horizon);
  observed_requests_.PurgeBefore(horizon);
  PurgeDecidedClaims();
}

void OrderingNode::PurgeDecidedClaims() {
  // Every other reader of a claim at or below the executed head refuses
  // the slot whether the claim is there or not: SendFAccept and
  // HandleXPrepare refuse it as stale, and the assigner path draws
  // numbers above the committed state. Only a live instance's own vote
  // paths (MaybeSendFCommit, ResendCrossVotes) still read its slots'
  // claims.
  std::vector<std::pair<ShardRef, SeqNo>> held;
  for (const auto& [d, xs] : xstates_) {
    for (const auto& [shard, a] : xs.assignments) {
      held.push_back({ShardRef{a.alpha.collection, a.alpha.shard}, a.alpha.n});
    }
  }
  std::sort(held.begin(), held.end());
  for (auto* claims : {&validated_digest_, &commit_locked_}) {
    for (auto it = claims->begin(); it != claims->end();) {
      const auto& slot = it->first;
      if (slot.second <= exec_.ledger().HeadOf(slot.first) &&
          !std::binary_search(held.begin(), held.end(), slot)) {
        it = claims->erase(it);
      } else {
        ++it;
      }
    }
  }
}

size_t OrderingNode::decided_slot_claims() const {
  size_t n = 0;
  for (const auto* claims : {&validated_digest_, &commit_locked_}) {
    for (const auto& [slot, d] : *claims) {
      if (slot.second <= exec_.ledger().HeadOf(slot.first)) ++n;
    }
  }
  return n;
}

void OrderingNode::WatchRelayedRequest(const Transaction& tx) {
  uint64_t token = next_progress_++;
  ProgressCheck pc;
  pc.id = {tx.client, tx.client_ts};
  pc.delivered_at_arm = engine_->LastDelivered();
  progress_checks_[token] = pc;
  StartTimer(2 * dir_->params.consensus_timeout_us, kTagProgress, token);
}

LocalPart OrderingNode::NextAlpha(const CollectionId& c) {
  LocalPart a;
  a.collection = c;
  a.shard = cfg_.shard;
  // In optimistic (non-designated) mode another enterprise's commits may
  // have advanced the chain past our own assignment counter.
  SeqNo base = std::max(next_seq_[c], StateOfCollection(c));
  a.n = base + 1;
  next_seq_[c] = a.n;
  return a;
}

SeqNo OrderingNode::StateOfCollection(const CollectionId& c) const {
  const SeqNo* at = state_.Find(c);
  return at == nullptr ? 0 : *at;
}

SeqNo OrderingNode::CommittedHeadOf(const CollectionId& c) const {
  return exec_.ledger().HeadOf(ShardRef{c, cfg_.shard});
}

std::vector<GammaEntry> OrderingNode::CaptureGamma(
    const CollectionId& c) const {
  // §4.1: the global part includes the current state of *all* collections
  // d_c is order-dependent on, because the read-set is unknown until
  // execution.
  std::vector<GammaEntry> gamma;
  for (const CollectionId& dep : model_->OrderDependenciesOf(c)) {
    const SeqNo* at = state_.Find(dep);
    SeqNo m = at == nullptr ? 0 : *at;
    gamma.push_back(GammaEntry{dep, m});
  }
  return gamma;
}

BlockPtr OrderingNode::MakeBlock(const FlowKey& key,
                                 std::vector<Transaction> txs,
                                 uint32_t attempt) {
  auto block = std::make_shared<Block>();
  block->attempt = attempt;
  block->id.alpha = NextAlpha(key.collection);
  block->id.gamma = CaptureGamma(key.collection);
  // Sealed blocks stay in every replica's ledger for the whole run, so
  // they keep no growth slack from the batch they were collected in.
  txs.shrink_to_fit();
  block->txs = std::move(txs);
  block->Seal();
  // Batching cost: hashing/assembling the block.
  const_cast<OrderingNode*>(this)->ChargeCpu(
      static_cast<SimTime>(block->txs.size()) * env()->costs.batch_tx_us);
  return block;
}

void OrderingNode::OnBatchClosed(const FlowKey& key,
                                 std::vector<Transaction> txs,
                                 BatchClose why) {
  // A transaction observed in another leader's proposal between intake
  // and batch close is (or will be) ordered there — proposing it again
  // here would commit it twice.
  size_t before = txs.size();
  txs.erase(std::remove_if(txs.begin(), txs.end(),
                           [this](const Transaction& tx) {
                             return ObservedRecently(
                                 {tx.client, tx.client_ts});
                           }),
            txs.end());
  if (txs.size() != before) {
    env()->metrics.Inc("order.dup_tx_filtered", before - txs.size());
  }
  if (txs.empty()) return;
  env()->metrics.Inc(std::string("batch.closed_") + BatchCloseName(why));
  env()->metrics.Hist("batch.txs").Add(static_cast<int64_t>(txs.size()));

  BlockPtr block = MakeBlock(key, std::move(txs));
  if (!IsCross(key)) {
    // Intra-shard intra-enterprise: internal consensus commits directly.
    ConsensusValue v = ConsensusValue::ForBlock(block);
    v.batch_close = static_cast<uint8_t>(why);
    engine_->Propose(v);
    return;
  }
  StartCross(block);
}

// --------------------------------------------------- consensus plumbing

CommitCertificate OrderingNode::MakeCert(uint64_t slot,
                                         const Sha256Digest& digest,
                                         ConsensusValue::Kind kind) {
  CommitCertificate cert;
  cert.block_digest = digest;
  cert.view = engine_->view();
  cert.slot = slot;
  cert.value_kind = static_cast<uint8_t>(kind);
  cert.sigs = engine_->CommitProof(slot);
  if (cert.sigs.empty()) {
    // Crash clusters don't exchange signatures during consensus; the
    // appending node certifies the decided block itself.
    cert.direct = true;
    cert.sigs.push_back(env()->keystore.Sign(id(), digest));
  }
  return cert;
}

void OrderingNode::OnDecide(uint64_t slot, const ConsensusValue& v) {
  switch (v.kind) {
    case ConsensusValue::Kind::kBlock: {
      CommitCertificate cert =
          MakeCert(slot, v.block_digest, ConsensusValue::Kind::kBlock);
      CommitBlock(v.block, std::move(cert), v.block->id.alpha,
                  v.block->id.gamma, /*reply_from_here=*/true);
      break;
    }
    case ConsensusValue::Kind::kXOrder:
      OnXOrderDecided(slot, v);
      break;
    case ConsensusValue::Kind::kXCommit:
      OnXCommitDecided(slot, v, /*is_abort=*/false);
      break;
    case ConsensusValue::Kind::kXAbort:
      OnXCommitDecided(slot, v, /*is_abort=*/true);
      break;
    case ConsensusValue::Kind::kNoop:
      break;
  }
}

// ------------------------------------------------- commit & execution

void OrderingNode::CommitBlock(const BlockPtr& block, CommitCertificate cert,
                               const LocalPart& alpha,
                               const std::vector<GammaEntry>& gamma,
                               bool reply_from_here) {
  RecordCommitted(*block);
  // Track committed state for future γ captures.
  auto& st = state_[alpha.collection];
  st = std::max(st, alpha.n);
  committed_blocks_++;
  committed_txs_ += block->tx_count();
  if (reply_from_here && cfg_.HasFirewall()) {
    reply_owner_.insert(cert.block_digest);
  }

  if (cfg_.SeparatedExecution()) {
    // Byzantine with separation: the primary pushes the request + commit
    // certificate through the privacy firewall (§4.2). Backups keep the
    // recent pushes instead of discarding them — if the primary crashed
    // between committing and forwarding, the next primary replays the
    // tail on its view change (execution-side dedup absorbs duplicates).
    auto eo = std::make_shared<ExecOrderMsg>();
    eo->block = block;
    eo->cert = std::move(cert);
    eo->alpha_here = alpha;
    eo->gamma_here = gamma;
    eo->sig_verify_ops = static_cast<uint16_t>(eo->cert.sigs.size());
    if (engine_->IsPrimary()) {
      PushToExecution(eo);
    } else {
      uint64_t token = next_exec_push_++;
      pending_exec_push_[token] = PendingExecPush{std::move(eo), 0};
      StartTimer(dir_->params.cross_timeout_us, kTagExecPush, token);
    }
    return;
  }

  // Co-located execution (crash clusters; Byzantine without separation):
  // every ordering node executes.
  Status st2 = exec_.Submit(
      block, std::move(cert), alpha, gamma,
      [this, reply_from_here](const ExecutorCore::ExecResult& res) {
        ChargeCpu(res.cpu_cost);
        if (!reply_from_here) return;
        OnExecutedReply(res);
      });
  if (!st2.ok() && st2.code() != StatusCode::kAlreadyExists) {
    env()->metrics.Inc("order.commit_submit_error");
  }
  MaybeWatchExecWedge();
  MaybeReleaseParked();  // the commit may have drained deferred blocks
}

void OrderingNode::OnExecutedReply(const ExecutorCore::ExecResult& res) {
  // Every executing node replies; the client machine applies its
  // acceptance rule (first reply on crash clusters, f+1 matching results
  // on Byzantine ones). Suppressing non-primary replies on crash
  // clusters — the cheaper steady-state choice — deadlocks under chaos:
  // leadership can land on a recovered replica whose execution lags its
  // consensus (its ledger misses blocks from its crashed life), and then
  // nobody ever answers the clients.
  auto reply = std::make_shared<ReplyMsg>();
  reply->block_digest = res.block->Digest();
  reply->result_digest = res.result_digest;
  reply->clients = res.clients;
  reply->sig = env()->keystore.Sign(id(), res.result_digest);
  SendToClients(res.clients, reply);
}

void OrderingNode::ForwardReplyCert(const MessageRef& msg) {
  // Reply certificate arrived from the bottom filter row; the primary
  // forwards it to the client machines (§4.2). All nodes cache the
  // received message for client retransmissions. For cross-cluster
  // blocks only the initiator cluster replies.
  auto cert = std::static_pointer_cast<const ReplyCertMsg>(msg);
  reply_cache_[cert->block_digest] = cert;
  if (!engine_->IsPrimary()) return;
  if (!reply_owner_.count(cert->block_digest)) return;
  SendToClients(cert->clients, msg);
}

void OrderingNode::SendToClients(
    const std::vector<std::pair<NodeId, uint64_t>>& clients,
    const MessageRef& msg) {
  // Distinct machines in ascending id order (the send order the pinned
  // trace hashes assume), without a tree allocation per reply.
  SortedVec<NodeId> machines;
  for (const auto& [c, ts] : clients) machines.Insert(c);
  for (NodeId c : machines) Send(c, msg);
}

void OrderingNode::PushToExecution(const MessageRef& msg) {
  if (cfg_.HasFirewall()) {
    Multicast(cfg_.filter_rows.front(), msg);
  } else {
    Multicast(cfg_.execution, msg);
  }
}

// ------------------------------------------------- cross-cluster common

bool OrderingNode::IsCross(const FlowKey& key) const {
  return key.collection.members.size() > 1 || key.shards.size() > 1;
}

std::vector<int> OrderingNode::InvolvedClusters(
    const CollectionId& c, const std::vector<ShardId>& shards) const {
  std::vector<int> out;
  for (EnterpriseId e : c.members.Members()) {
    for (ShardId s : shards) {
      out.push_back(dir_->ClusterIdOf(e, s));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

int OrderingNode::CoordinatorClusterOf(
    const CollectionId& c, const std::vector<ShardId>& shards) const {
  ShardId s = shards.empty() ? 0 : *std::min_element(shards.begin(),
                                                     shards.end());
  EnterpriseId e = dir_->params.designated_coordinator
                       ? dir_->CoordinatorEnterpriseOf(c, s)
                       : cfg_.enterprise;
  if (c.members.size() == 1) e = c.members.First();
  return dir_->ClusterIdOf(e, s);
}

bool OrderingNode::IAmShardAssigner(const CollectionId& c,
                                    EnterpriseId initiator_enterprise) const {
  if (!c.members.Contains(cfg_.enterprise)) return false;
  if (c.members.size() == 1) return c.members.First() == cfg_.enterprise;
  if (dir_->params.designated_coordinator) {
    return dir_->CoordinatorEnterpriseOf(c, cfg_.shard) == cfg_.enterprise;
  }
  return cfg_.enterprise == initiator_enterprise;
}

bool OrderingNode::HasCrossShardConflict(
    const BlockPtr& block, const std::vector<ShardId>& shards) const {
  auto intersects2 = [&shards](const std::vector<ShardId>& other) {
    std::vector<ShardId> inter;
    std::set_intersection(shards.begin(), shards.end(), other.begin(),
                          other.end(), std::back_inserter(inter));
    return inter.size() >= 2;
  };
  for (const auto& [d, s] : active_cross_) {
    if (intersects2(s)) return true;
  }
  for (const BlockPtr& d : deferred_cross_) {
    if (d == block) continue;  // re-admission of the head itself
    if (!d->txs.empty() && intersects2(d->txs.front().shards)) return true;
  }
  return false;
}

OrderingNode::XState& OrderingNode::StateFor(const Sha256Digest& d) {
  auto [it, created] = xstates_.try_emplace(d);
  XState& xs = it->second;
  if (!created) return xs;
  xs.digest = d;
  std::optional<XOutcome> out = RetiredOutcome(d);
  if (!out) return xs;
  xs.block = std::move(out->block);
  xs.outcome_cert = std::move(out->cert);
  xs.outcome_known = out->known;
  xs.outcome_abort = out->abort;
  for (ShardAssignment& a : out->assignments) {
    xs.assignments.emplace(a.alpha.shard, std::move(a));
  }
  xs.done = true;
  if (retired_.erase(d) == 0) compact_retired_.erase(d);
  finished_.push_back(d);
  return xs;
}

void OrderingNode::RetireFinished() {
  for (const Sha256Digest& d : finished_) {
    auto it = xstates_.find(d);
    if (it == xstates_.end()) continue;
    XState& xs = it->second;
    auto own = xs.assignments.find(cfg_.shard);
    std::optional<size_t> entry;
    if (xs.outcome_known && !xs.outcome_abort &&
        own != xs.assignments.end()) {
      entry = LedgerEntryOf(d, xs.outcome_cert, own->second);
    }
    if (entry) {
      CompactOutcome& out = compact_retired_[d];
      out.ledger_index = *entry;
      out.assigner = own->second.cluster;
      out.others.reserve(xs.assignments.size() - 1);
      for (auto& [shard, a] : xs.assignments) {
        if (shard != cfg_.shard) out.others.push_back(std::move(a));
      }
    } else {
      XOutcome& out = retired_[d];
      out.block = std::move(xs.block);
      out.cert = std::move(xs.outcome_cert);
      out.known = xs.outcome_known;
      out.abort = xs.outcome_abort;
      out.assignments.reserve(xs.assignments.size());
      for (auto& [shard, a] : xs.assignments) {
        out.assignments.push_back(std::move(a));
      }
    }
    xstates_.erase(it);
  }
  finished_.clear();
}

std::optional<size_t> OrderingNode::LedgerEntryOf(
    const Sha256Digest& d, const CommitCertificate& cert,
    const ShardAssignment& own) const {
  const DagLedger& ledger = exec_.ledger();
  const std::vector<size_t>& chain =
      ledger.ChainOf(ShardRef{own.alpha.collection, own.alpha.shard});
  // A chain is gapless from height 1, so height n is its (n-1)th entry.
  if (own.alpha.n == 0 || own.alpha.n > chain.size()) return std::nullopt;
  size_t index = chain[own.alpha.n - 1];
  const DagLedger::Entry& e = ledger.entry(index);
  // A state transfer may have installed the block under a peer's
  // certificate: the record must answer with the outcome's own.
  if (e.block->Digest() != d || !(e.cert == cert) ||
      e.gamma() != own.gamma) {
    return std::nullopt;
  }
  return index;
}

std::optional<OrderingNode::XOutcome> OrderingNode::RetiredOutcome(
    const Sha256Digest& d) const {
  auto full = retired_.find(d);
  if (full != retired_.end()) return full->second;
  auto it = compact_retired_.find(d);
  if (it == compact_retired_.end()) return std::nullopt;
  const CompactOutcome& c = it->second;
  const DagLedger::Entry& e = exec_.ledger().entry(c.ledger_index);
  XOutcome out;
  out.block = e.block;
  out.cert = e.cert;
  out.known = true;
  // This shard's assignment goes back in its place in shard order.
  auto later = std::find_if(c.others.begin(), c.others.end(),
                            [&e](const ShardAssignment& a) {
                              return a.alpha.shard > e.alpha.shard;
                            });
  out.assignments.reserve(c.others.size() + 1);
  out.assignments.insert(out.assignments.end(), c.others.begin(), later);
  out.assignments.push_back(ShardAssignment{c.assigner, e.alpha, e.gamma()});
  out.assignments.insert(out.assignments.end(), later, c.others.end());
  return out;
}

size_t OrderingNode::ledger_recorded_full_outcomes() const {
  size_t n = 0;
  for (const auto& [d, out] : retired_) {
    if (!out.known || out.abort) continue;
    for (const ShardAssignment& a : out.assignments) {
      if (a.alpha.shard == cfg_.shard && LedgerEntryOf(d, out.cert, a)) ++n;
    }
  }
  return n;
}

void OrderingNode::ArmCrossTimer(const Sha256Digest& d) {
  XState& xs = StateFor(d);
  if (xs.timer_armed || xs.done) return;
  xs.timer_armed = true;
  uint64_t token = next_cross_timer_++;
  cross_timer_digest_[token] = d;
  StartTimer(dir_->params.cross_timeout_us, kTagCross, token);
}

void OrderingNode::StartCross(const BlockPtr& block) {
  const Transaction& probe = block->txs.front();
  int initiator = CoordinatorClusterOf(probe.collection, probe.shards);
  if (initiator != cfg_.cluster_id) {
    // We received requests for a flow another cluster coordinates or
    // initiates; hand the whole batch over.
    for (const auto& tx : block->txs) {
      auto req = std::make_shared<RequestMsg>();
      req->tx = tx;
      Send(dir_->Cluster(initiator).InitialPrimary(), req);
    }
    return;
  }

  // Concurrency control (§4.3.2, §4.4.2): defer blocks that intersect an
  // active cross-shard transaction in >= 2 shards.
  if (probe.shards.size() > 1) {
    if (HasCrossShardConflict(block, probe.shards)) {
      deferred_cross_.push_back(block);
      PinCross(block);
      env()->metrics.Inc("cross.deferred_conflict");
      return;
    }
    active_cross_[block->Digest()] = probe.shards;
  }

  XState& xs = StateFor(block->Digest());
  BindBlock(xs, block);
  xs.i_coordinate = true;
  PinInstance(xs);
  xs.assignments[block->id.alpha.shard] =
      ShardAssignment{cfg_.cluster_id, block->id.alpha, block->id.gamma};
  own_pending_.insert({ShardRef{block->id.alpha.collection,
                                block->id.alpha.shard},
                       block->id.alpha.n});
  if (dir_->params.family == ProtocolFamily::kCoordinator) {
    ProposeCoordinated(xs);
  } else {
    ProposeFlattened(xs);
  }
}

void OrderingNode::BindBlock(XState& xs, const BlockPtr& block) {
  xs.block = block;
  const Transaction& probe = block->txs.front();
  xs.involved = InvolvedClusters(probe.collection, probe.shards);
  xs.is_cross_enterprise = probe.collection.members.size() > 1;
  xs.is_cross_shard = probe.shards.size() > 1;
}

void OrderingNode::SendToInvolved(const XState& xs, const MessageRef& msg) {
  for (int c : xs.involved) {
    for (NodeId n : dir_->Cluster(c).ordering) {
      if (n != id()) Send(n, msg);
    }
  }
}

void OrderingNode::SettleCross(XState& xs, const CommitCertificate& cert,
                               bool committed, bool reply_from_here) {
  xs.outcome_cert = cert;
  xs.outcome_known = true;
  xs.outcome_abort = !committed;
  if (committed) {
    auto mine = xs.assignments.find(cfg_.shard);
    if (mine != xs.assignments.end()) {
      CommitBlock(xs.block, cert, mine->second.alpha, mine->second.gamma,
                  reply_from_here);
    }
  }
  FinishCross(xs, committed);
}

void OrderingNode::FinishCross(XState& xs, bool committed) {
  xs.done = true;
  finished_.push_back(xs.digest);
  if (xs.pinned) {
    xs.pinned = false;
    UnpinCross(xs.block);
  }
  if (!committed) aborted_blocks_++;
  for (const auto& [shard, a] : xs.assignments) {
    if (a.cluster == cfg_.cluster_id) {
      own_pending_.erase(
          {ShardRef{a.alpha.collection, a.alpha.shard}, a.alpha.n});
    }
  }
  // Release the shard reservation and admit deferred conflicting blocks.
  auto it = active_cross_.find(xs.digest);
  if (it != active_cross_.end()) {
    active_cross_.erase(it);
    if (!deferred_cross_.empty()) {
      std::vector<BlockPtr> retry;
      retry.swap(deferred_cross_);
      for (const BlockPtr& d : retry) {
        // Hand the pin from the deferred entry to whatever holder the
        // restart lands in (new instance, or back onto the deferred
        // queue) — StartCross re-pins.
        UnpinCross(d);
        StartCross(d);
      }
    }
  }
  // Abort at the initiating cluster: retry the batch under a fresh block
  // (same transactions, new ID) after a deterministic per-cluster backoff
  // (§4.3.5: different timers per cluster prevent repeated deadlocks).
  if (!committed) {
    // Release slot claims and roll back our own assignment counters so
    // replacements can reuse the burned sequence numbers. Only this
    // block's own endorsement is released: after a §4.3.5 arbitration
    // switch the slot entry holds the rival winner's digest, and erasing
    // it would let a third claim sneak into a decided slot.
    for (const auto& [shard, a] : xs.assignments) {
      std::pair<ShardRef, SeqNo> slot{
          ShardRef{a.alpha.collection, a.alpha.shard}, a.alpha.n};
      auto claim = validated_digest_.find(slot);
      if (claim != validated_digest_.end() && claim->second == xs.digest) {
        validated_digest_.erase(claim);
      }
      auto locked = commit_locked_.find(slot);
      if (locked != commit_locked_.end() && locked->second == xs.digest) {
        commit_locked_.erase(locked);
      }
      if (a.cluster == cfg_.cluster_id && engine_->IsPrimary() &&
          next_seq_[a.alpha.collection] == a.alpha.n) {
        --next_seq_[a.alpha.collection];
      }
    }
  }
  if (!committed && xs.i_coordinate && xs.block != nullptr &&
      engine_->IsPrimary() && xs.retries < 8) {
    env()->metrics.Inc("cross.retry");
    uint64_t token = next_retry_++;
    retry_blocks_[token] = {xs.block, xs.retries + 1};
    PinCross(xs.block);
    SimTime backoff = 1000 * (cfg_.cluster_id + 1) * (xs.retries + 1);
    StartTimer(backoff, kTagRetry, token);
  }
  // §4.3.5 loser re-proposal is a flattened-mode mechanism: only there
  // does the commit-vote lock guarantee a slot-losing rival can never
  // commit, making its abort-and-requeue safe. In the coordinator
  // family a slot collision is a duplicate redrive whose transactions
  // may ride in another live instance — requeueing would mint a third
  // copy and break exactly-once (the paxos-seed-32 scenario).
  if (committed && dir_->params.family == ProtocolFamily::kFlattened) {
    RequeueArbitrationLosers(xs);
  }
}

void OrderingNode::RequeueArbitrationLosers(const XState& winner) {
  if (winner.assignments.empty()) return;
  std::vector<std::pair<ShardRef, SeqNo>> slots;
  slots.reserve(winner.assignments.size());
  for (const auto& [shard, a] : winner.assignments) {
    slots.push_back(
        {ShardRef{a.alpha.collection, a.alpha.shard}, a.alpha.n});
  }
  // xstates_ is a hashed container — collect matches, then order the
  // losers by digest so the abort (and retry) schedule is deterministic.
  // Collecting first also keeps the scan's iterators valid: aborting a
  // loser can insert into xstates_ (deferred re-admission starts fresh
  // instances), and an insert that rehashes invalidates iterators, though
  // not references. The winner itself is already done.
  std::vector<Sha256Digest> losers;
  for (const auto& [d, rival] : xstates_) {
    if (rival.done) continue;
    for (const auto& [shard, a] : rival.assignments) {
      std::pair<ShardRef, SeqNo> slot{
          ShardRef{a.alpha.collection, a.alpha.shard}, a.alpha.n};
      if (std::find(slots.begin(), slots.end(), slot) != slots.end()) {
        losers.push_back(d);
        break;
      }
    }
  }
  std::sort(losers.begin(), losers.end());
  for (const Sha256Digest& d : losers) {
    auto it = xstates_.find(d);
    if (it == xstates_.end() || it->second.done) continue;
    env()->metrics.Inc("cross.arbitration_loser");
    if (it->second.block != nullptr) {
      for (const Transaction& tx : it->second.block->txs) {
        arbitration_loser_txs_.insert({tx.client, tx.client_ts});
      }
    }
    // The winner holds the slot, and its commit-vote majorities keep it
    // locked at a local majority of every involved cluster — the loser
    // can never commit, so its transactions can safely go back through
    // the retry machinery (the pin in pending_cross_ rides along, which
    // is what keeps re-admission exactly-once).
    FinishCross(it->second, /*committed=*/false);
  }
}

void OrderingNode::RunRetry(uint64_t token) {
  auto it = retry_blocks_.find(token);
  if (it == retry_blocks_.end()) return;
  auto [old_block, retries] = it->second;
  retry_blocks_.erase(it);
  // The retry entry's pin moves to the fresh block's holder below.
  UnpinCross(old_block);
  // Exactly-once: drop transactions that committed meanwhile. An aborted
  // instance can share requests with the block that beat it — a §4.3.5
  // arbitration loser that was a duplicate admission of the winner, or a
  // redrive whose original finally landed — and re-proposing those would
  // commit them twice (committed_requests_ is the permanent record).
  std::vector<Transaction> txs;
  txs.reserve(old_block->txs.size());
  for (const Transaction& tx : old_block->txs) {
    if (!committed_requests_.Contains({tx.client, tx.client_ts})) {
      txs.push_back(tx);
    }
  }
  if (txs.empty()) {
    env()->metrics.Inc("cross.retry_settled");
    return;
  }
  const Transaction& probe = txs.front();
  BlockPtr fresh = MakeBlock(FlowKey{probe.collection, probe.shards},
                             std::move(txs),
                             static_cast<uint32_t>(retries));
  XState& xs = StateFor(fresh->Digest());
  xs.retries = retries;
  StartCross(fresh);
}

void OrderingNode::RedriveCross(XState& xs) {
  if (xs.done || xs.block == nullptr || !xs.i_coordinate ||
      !engine_->IsPrimary()) {
    return;
  }
  // §4.3.5: if one of our claimed slots has meanwhile committed under a
  // different block (learned via votes or state transfer), this instance
  // lost its arbitration and can never commit — the winner's commit-vote
  // majorities hold the slot locked. Abort into the retry machinery
  // instead of re-driving a dead claim forever.
  for (const auto& [shard, a] : xs.assignments) {
    if (a.cluster != cfg_.cluster_id) continue;
    ShardRef ref{a.alpha.collection, a.alpha.shard};
    if (exec_.ledger().HeadOf(ref) < a.alpha.n) continue;
    for (size_t i : exec_.ledger().ChainOf(ref)) {
      const DagLedger::Entry& e = exec_.ledger().entry(i);
      if (e.alpha.n != a.alpha.n) continue;
      if (e.block->Digest() != xs.digest) {
        env()->metrics.Inc("cross.arbitration_backoff");
        FinishCross(xs, /*committed=*/false);
        return;
      }
      break;
    }
  }
  env()->metrics.Inc("cross.redrive");
  if (dir_->params.family == ProtocolFamily::kFlattened) {
    SendFPropose(xs);
    ResendCrossVotes(xs);
  } else if (xs.order_cert_known) {
    SendXPrepare(xs);
  }
}

void OrderingNode::HandleQuery(NodeId from, const QueryMsg& m) {
  std::optional<XOutcome> out = RetiredOutcome(m.block_digest);
  if (out && out->known && out->block != nullptr) {
    // §4.3.4: answer with the certified outcome. The asker lost the
    // original commit (crash, partition, drop); without this resend its
    // chain — and every collection order-dependent on it — stalls
    // forever.
    env()->metrics.Inc("cross.query_answered");
    auto cm = std::make_shared<XCommitMsg>();
    cm->coord_cluster = cfg_.cluster_id;
    cm->block = std::move(out->block);
    cm->block_digest = m.block_digest;
    cm->coord_cert = std::move(out->cert);
    cm->is_abort = out->abort;
    if (out->abort) cm->type = MsgType::kXAbort;
    cm->assignments = std::move(out->assignments);
    cm->sig_verify_ops = static_cast<uint16_t>(cm->coord_cert.sigs.size());
    Send(from, cm);
    return;
  }
  // If we have no record or it is still pending, count suspicion toward
  // the primary (a local-majority of queries triggers a view change,
  // §4.3.4).
  env()->metrics.Inc("cross.query_pending");
}

// ------------------------------------- checkpointed state transfer

void OrderingNode::ScheduleStateSync(SimTime delay) {
  if (state_sync_pending_) return;
  state_sync_pending_ = true;
  StartTimer(delay, kTagStateSync, 0);
}

void OrderingNode::SendStateRequest() {
  size_t n = cfg_.ordering.size();
  if (n <= 1) return;
  NodeId peer = id();
  for (size_t i = 0; i < n && peer == id(); ++i) {
    peer = cfg_.ordering[(static_cast<size_t>(index_) + 1 +
                          static_cast<size_t>(state_sync_rr_++)) % n];
  }
  if (peer == id()) return;
  auto req = std::make_shared<StateRequestMsg>();
  req->heads = ChainHeadsOf(exec_);
  req->frontier = engine_->LastDelivered();
  env()->metrics.Inc("order.state_requested");
  Send(peer, req);
}

void OrderingNode::HandleStateRequest(NodeId from, const StateRequestMsg& m) {
  // The stable checkpoint travels (and is charged) even when empty.
  auto rep = BuildStateReply(exec_, m, &engine_->stable_checkpoint());
  if (rep == nullptr) return;
  env()->metrics.Inc("order.state_served");
  env()->metrics.Inc("order.state_blocks_served", rep->entries.size());
  Send(from, rep);
}

bool OrderingNode::InstallTransferredBlock(const StateReplyMsg::Entry& e) {
  RecordCommitted(*e.block);
  auto& st = state_[e.alpha.collection];
  st = std::max(st, e.alpha.n);
  // Re-execution rebuilds the multi-versioned store deterministically;
  // Submit defers entries whose chain predecessor or γ dependencies have
  // not landed yet (transfers interleave chains arbitrarily) and dedups
  // entries already queued by an earlier chunk.
  Status s = exec_.Submit(
      e.block, e.cert, e.alpha, e.gamma,
      [this](const ExecutorCore::ExecResult& res) {
        ChargeCpu(res.cpu_cost);
      });
  MaybeWatchExecWedge();
  if (s.code() == StatusCode::kAlreadyExists) return false;
  if (!s.ok()) {
    env()->metrics.Inc("order.state_install_error");
    return false;
  }
  committed_blocks_++;
  committed_txs_ += e.block->tx_count();
  env()->metrics.Inc("order.state_block_installed");
  return true;
}

void OrderingNode::HandleStateReply(NodeId /*from*/, const StateReplyMsg& m) {
  size_t installed = 0;
  for (const auto& e : m.entries) {
    ShardRef ref{e.alpha.collection, e.alpha.shard};
    if (e.alpha.n <= exec_.ledger().HeadOf(ref)) continue;  // have it
    if (!VerifyTransferredLedgerEntry(*dir_, env()->keystore, e)) {
      env()->metrics.Inc("order.bad_state_block");
      continue;
    }
    if (InstallTransferredBlock(e)) ++installed;
  }
  if (m.ckpt.slot > engine_->LastDelivered()) {
    if (!engine_->InstallCheckpoint(m.ckpt)) {
      env()->metrics.Inc("order.bad_state_ckpt");
    }
  }
  if (installed > 0) {
    // Another round in case the serving peer itself was behind; it
    // no-ops (and goes unanswered) once everyone agrees.
    ScheduleStateSync(dir_->params.consensus_timeout_us);
  }
  MaybeReleaseParked();
}

void OrderingNode::ReplayExecPushes() {
  if (!cfg_.SeparatedExecution() || pending_exec_push_.empty()) return;
  env()->metrics.Inc("order.exec_push_replayed", pending_exec_push_.size());
  for (const auto& [token, p] : pending_exec_push_) {
    if (reply_cache_.count(p.msg->cert.block_digest)) continue;
    PushToExecution(p.msg);
  }
  pending_exec_push_.clear();
}

}  // namespace qanaat
