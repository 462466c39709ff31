#include "baselines/fabric.h"

#include <algorithm>

namespace qanaat {

// ------------------------------------------------------------ FabricSystem

FabricSystem::FabricSystem(FabricConfig cfg)
    : cfg_(cfg),
      env_(std::make_unique<Env>(cfg.seed)),
      net_(std::make_unique<Network>(env_.get())),
      model_(cfg.enterprises) {
  // Single channel: no sharding. Same collection layout as Qanaat
  // (locals, pairwise private data collections, the public root).
  model_.set_default_shard_count(1);
  model_.AddWorkflow(EnterpriseSet::All(cfg.enterprises));
  for (int a = 0; a < cfg.enterprises; ++a) {
    for (int b = a + 1; b < cfg.enterprises; ++b) {
      model_.AddIntermediateCollection(EnterpriseSet{
          static_cast<EnterpriseId>(a), static_cast<EnterpriseId>(b)});
    }
  }
  for (int e = 0; e < cfg.enterprises; ++e) {
    peers_.push_back(std::make_unique<FabricPeer>(
        env_.get(), this, &model_, static_cast<EnterpriseId>(e)));
  }
  for (int i = 0; i < cfg.orderers; ++i) {
    orderers_.push_back(
        std::make_unique<FabricOrderer>(env_.get(), this, i));
  }
}

FabricSystem::~FabricSystem() = default;

NodeId FabricSystem::leader_id() const { return orderers_[0]->id(); }

std::vector<NodeId> FabricSystem::peer_ids() const {
  std::vector<NodeId> out;
  for (const auto& p : peers_) out.push_back(p->id());
  return out;
}

FabricClient* FabricSystem::AddClient(WorkloadParams wl, double rate_tps) {
  // Reuse the SmallBank generator with a single-shard directory view.
  client_dir_.params.num_enterprises = cfg_.enterprises;
  client_dir_.params.shards_per_enterprise = 1;
  auto workload = std::make_unique<SmallBankWorkload>(
      &model_, &client_dir_, wl, Rng(cfg_.seed * 97 + clients_.size() + 11));
  clients_.push_back(std::make_unique<FabricClient>(
      env_.get(), this, std::move(workload), rate_tps,
      cfg_.seed + 1000 + clients_.size()));
  return clients_.back().get();
}

uint64_t FabricSystem::TotalMeasuredCommits() const {
  uint64_t t = 0;
  for (const auto& c : clients_) t += c->measured_commits();
  return t;
}

uint64_t FabricSystem::TotalCommitted() const {
  uint64_t t = 0;
  for (const auto& c : clients_) t += c->committed();
  return t;
}

uint64_t FabricSystem::TotalInvalidated() const {
  uint64_t t = 0;
  for (const auto& c : clients_) t += c->invalidated();
  return t;
}

Histogram FabricSystem::MergedLatencies() const {
  Histogram h;
  for (const auto& c : clients_) h.Merge(c->latencies());
  return h;
}

// -------------------------------------------------------------- FabricPeer

FabricPeer::FabricPeer(Env* env, FabricSystem* sys, const DataModel* model,
                       EnterpriseId enterprise)
    : Actor(env, "fabric-peer/" + std::to_string(enterprise)),
      sys_(sys),
      model_(model),
      enterprise_(enterprise) {
  if (sys_->config().peer_catchup_period_us > 0) {
    // Stagger the polls per peer so they never land on the same tick.
    StartTimer(sys_->config().peer_catchup_period_us + enterprise,
               kTagCatchup, 0);
  }
}

void FabricPeer::OnTimer(uint64_t tag, uint64_t /*payload*/) {
  if (tag != kTagCatchup) return;
  RequestMissingBlocks();
  StartTimer(sys_->config().peer_catchup_period_us + enterprise_,
             kTagCatchup, 0);
}

void FabricPeer::RequestMissingBlocks() {
  auto req = std::make_shared<BlockFetchReqMsg>();
  req->from_block = next_block_;
  Send(sys_->leader_id(), req);
}

SimTime FabricPeer::CostOf(const Message& msg) const {
  switch (msg.type) {
    case MsgType::kEndorseReq:
      return env()->costs.base_proc_us + env()->costs.endorse_tx_us;
    case MsgType::kOrderedBlock: {
      // Per-transaction validation cost; private transactions of other
      // enterprises only cost hashing.
      const auto& m = static_cast<const OrderedBlockMsg&>(msg);
      SimTime total = env()->costs.base_proc_us;
      for (const auto& etx : *m.txs) {
        bool member = etx.tx.collection.members.Contains(enterprise_);
        total += member ? env()->costs.validate_tx_us
                        : env()->costs.hash_tx_us;
      }
      return total;
    }
    default:
      return Actor::CostOf(msg);
  }
}

void FabricPeer::HandleEndorse(NodeId from, const EndorseReqMsg& m) {
  if (!env()->keystore.Verify(m.tx.client_sig, m.tx.Digest())) {
    env()->metrics.Inc("fabric.bad_request_sig");
    return;
  }
  auto resp = std::make_shared<EndorseRespMsg>();
  resp->tx_digest = m.tx.Digest();
  resp->client = m.tx.client;
  resp->client_ts = m.tx.client_ts;
  // Simulate: read current committed versions, produce the write set.
  uint16_t coll = m.tx.collection.members.mask();
  for (const auto& op : m.tx.ops) {
    auto it = state_.find({coll, op.key});
    int64_t val = it == state_.end() ? 0 : it->second.first;
    uint64_t ver = it == state_.end() ? 0 : it->second.second;
    switch (op.kind) {
      case TxOp::Kind::kRead:
      case TxOp::Kind::kReadDep:
        resp->read_set.push_back({op.key, ver});
        break;
      case TxOp::Kind::kWrite:
        resp->write_set.push_back({op.key, op.value});
        break;
      case TxOp::Kind::kAdd:
        resp->read_set.push_back({op.key, ver});
        resp->write_set.push_back({op.key, val + op.value});
        break;
    }
  }
  resp->sig = env()->keystore.Sign(id(), resp->tx_digest);
  Send(from, resp);
}

std::vector<size_t> FabricPeer::ReorderBlock(
    const std::vector<EndorsedTx>& txs, std::vector<bool>* early_abort) const {
  // Fabric++ (Sharma et al., SIGMOD'19), simplified: within a block,
  // transactions that only *read* a key are ordered before transactions
  // that *write* it (removing r-w conflicts), and of several writers of
  // the same key all but the first are early-aborted (w-w conflict).
  size_t n = txs.size();
  std::vector<size_t> order(n);
  early_abort->assign(n, false);
  std::map<std::pair<uint16_t, uint64_t>, size_t> first_writer;
  for (size_t i = 0; i < n; ++i) {
    uint16_t coll = txs[i].tx.collection.members.mask();
    for (const auto& [k, v] : txs[i].write_set) {
      auto key = std::make_pair(coll, k);
      auto it = first_writer.find(key);
      if (it == first_writer.end()) {
        first_writer.emplace(key, i);
      } else {
        (*early_abort)[i] = true;  // w-w conflict: later writer aborts
        break;
      }
    }
  }
  // Readers-before-writers: stable partition by "has writes".
  size_t pos = 0;
  for (size_t i = 0; i < n; ++i) {
    if (txs[i].write_set.empty()) order[pos++] = i;
  }
  for (size_t i = 0; i < n; ++i) {
    if (!txs[i].write_set.empty()) order[pos++] = i;
  }
  return order;
}

void FabricPeer::HandleBlock(const MessageRef& msg) {
  const auto& m = *msg->As<OrderedBlockMsg>();
  // The ordering service semantically delivers a stream: blocks apply in
  // block-number order exactly once. Duplicates and reorderings injected
  // by the datagram transport model are absorbed here.
  if (m.block_no < next_block_ || block_log_.count(m.block_no) ||
      held_blocks_.count(m.block_no)) {
    env()->metrics.Inc("fabric.duplicate_block");
    return;
  }
  held_blocks_[m.block_no] =
      std::static_pointer_cast<const OrderedBlockMsg>(msg);
  while (true) {
    auto it = held_blocks_.find(next_block_);
    if (it == held_blocks_.end()) break;
    std::shared_ptr<const OrderedBlockMsg> blk = it->second;
    held_blocks_.erase(it);
    ++next_block_;
    ApplyBlock(*blk);
  }
  if (!held_blocks_.empty() && sys_->config().peer_catchup_period_us > 0) {
    // A successor arrived but its predecessor did not. Give a merely
    // reordered predecessor one more arrival to show up; a gap that
    // persists means the block was lost — fetch it now rather than on
    // the next poll.
    if (had_gap_) {
      env()->metrics.Inc("fabric.gap_fetch");
      RequestMissingBlocks();
    }
    had_gap_ = true;
  } else {
    had_gap_ = false;
  }
}

void FabricPeer::ApplyBlock(const OrderedBlockMsg& m) {
  const auto& txs = *m.txs;
  // Content digest over the ordered transactions (id + read/write sets):
  // what all peers must agree on per block number.
  {
    Sha256 h;
    for (const auto& etx : txs) {
      Sha256Digest d = etx.tx.Digest();
      h.Update(d.bytes.data(), d.bytes.size());
      for (const auto& r : etx.read_set) {
        h.Update(&r.key, sizeof(r.key));
        h.Update(&r.version, sizeof(r.version));
      }
      for (const auto& [k, v] : etx.write_set) {
        h.Update(&k, sizeof(k));
        h.Update(&v, sizeof(v));
      }
    }
    block_log_[m.block_no] = h.Finalize();
  }
  std::vector<size_t> order(txs.size());
  std::vector<bool> early_abort(txs.size(), false);
  if (sys_->config().variant == FabricVariant::kFabricPP) {
    order = ReorderBlock(txs, &early_abort);
  } else {
    for (size_t i = 0; i < txs.size(); ++i) order[i] = i;
  }

  auto done = std::make_shared<ValidateDoneMsg>();
  done->block_no = m.block_no;

  for (size_t oi = 0; oi < order.size(); ++oi) {
    size_t i = order[oi];
    const EndorsedTx& etx = txs[i];
    bool member = etx.tx.collection.members.Contains(enterprise_);
    if (!member) {
      // Private data collection of other enterprises: this peer stores
      // only the hash on its copy of the single global ledger.
      hashed_txs_++;
      continue;
    }
    bool valid = !early_abort[i];
    uint16_t coll = etx.tx.collection.members.mask();
    if (valid) {
      // MVCC validation: every read version must still be current.
      for (const auto& r : etx.read_set) {
        auto it = state_.find({coll, r.key});
        uint64_t cur = it == state_.end() ? 0 : it->second.second;
        if (cur != r.version) {
          valid = false;
          break;
        }
      }
    }
    if (valid) {
      for (const auto& [k, v] : etx.write_set) {
        state_[{coll, k}] = {v, m.block_no};
      }
      if (!committed_ids_.insert({etx.tx.client, etx.tx.client_ts}).second) {
        env()->metrics.Inc("fabric.safety.double_commit");
      }
      valid_txs_++;
    } else {
      invalid_txs_++;
      env()->metrics.Inc("fabric.invalidated");
    }
    // Only the client's own enterprise peer notifies it (one
    // notification per transaction).
    if (etx.tx.initiator == enterprise_) {
      done->outcomes.push_back({etx.tx.client, etx.tx.client_ts, valid});
    }
  }
  if (!done->outcomes.empty()) {
    std::set<NodeId> machines;
    for (const auto& [c, ts, ok] : done->outcomes) machines.insert(c);
    for (NodeId c : machines) Send(c, done);
  }
}

void FabricPeer::OnMessage(NodeId from, const MessageRef& msg) {
  switch (msg->type) {
    case MsgType::kEndorseReq:
      HandleEndorse(from, *msg->As<EndorseReqMsg>());
      break;
    case MsgType::kOrderedBlock:
      HandleBlock(msg);
      break;
    default:
      break;
  }
}

// ----------------------------------------------------------- FabricOrderer

FabricOrderer::FabricOrderer(Env* env, FabricSystem* sys, int index)
    : Actor(env, "fabric-orderer/" + std::to_string(index)),
      sys_(sys),
      index_(index),
      batcher_(
          BatcherConfig{sys->config().batch_size,
                        sys->config().batch_timeout_us},
          [this](SimTime delay, uint64_t token) {
            StartTimer(delay, kTagBatch, token);
          },
          [this](const int& /*channel*/, std::vector<EndorsedTx> txs,
                 BatchClose /*why*/) { CloseBatch(std::move(txs)); }) {}

bool FabricOrderer::IsLeader() const { return index_ == 0; }

bool FabricOrderer::IsStale(const EndorsedTx& etx) const {
  uint16_t coll = etx.tx.collection.members.mask();
  for (const auto& r : etx.read_set) {
    auto it = last_write_block_.find({coll, r.key});
    if (it != last_write_block_.end() && it->second > r.version) {
      return true;
    }
  }
  return false;
}

SimTime FabricOrderer::CostOf(const Message& msg) const {
  if (msg.type == MsgType::kOrderSubmit) {
    // Per-transaction ordering cost — the Fabric bottleneck. FastFabric
    // only handles the transaction hash; Fabric++ early-aborts stale
    // submissions with a cheap version check before full processing.
    if (sys_->config().variant == FabricVariant::kFabricPP && IsLeader() &&
        IsStale(static_cast<const OrderSubmitMsg&>(msg).etx)) {
      return env()->costs.base_proc_us + 6;
    }
    SimTime per_tx =
        sys_->config().variant == FabricVariant::kFastFabric
            ? env()->costs.fastfabric_order_tx_us
            : env()->costs.fabric_order_tx_us;
    return env()->costs.base_proc_us + per_tx;
  }
  return Actor::CostOf(msg);
}

void FabricOrderer::OnMessage(NodeId from, const MessageRef& msg) {
  switch (msg->type) {
    case MsgType::kOrderSubmit: {
      if (!IsLeader()) return;  // clients submit to the leader
      const EndorsedTx& etx = msg->As<OrderSubmitMsg>()->etx;
      if (!seen_submits_.insert({etx.tx.client, etx.tx.client_ts}).second) {
        env()->metrics.Inc("fabric.duplicate_submit");
        return;
      }
      if (sys_->config().variant == FabricVariant::kFabricPP &&
          IsStale(msg->As<OrderSubmitMsg>()->etx)) {
        early_aborted_++;
        env()->metrics.Inc("fabric.early_aborted");
        return;
      }
      batcher_.Add(0, msg->As<OrderSubmitMsg>()->etx);
      break;
    }
    case MsgType::kRaftAppend: {
      const auto& m = *msg->As<RaftAppendMsg>();
      auto resp = std::make_shared<RaftAppendRespMsg>();
      resp->term = m.term;
      resp->index = m.index;
      Send(from, resp);
      break;
    }
    case MsgType::kRaftAppendResp: {
      const auto& m = *msg->As<RaftAppendRespMsg>();
      if (!IsLeader() || delivered_.count(m.index)) break;
      auto& acks = acks_[m.index];
      acks.insert(from);
      // Majority = leader + floor(n/2) followers.
      if (acks.size() + 1 >
          static_cast<size_t>(sys_->config().orderers) / 2) {
        delivered_.insert(m.index);
        auto blk = std::make_shared<OrderedBlockMsg>();
        blk->block_no = m.index;
        blk->txs = inflight_[m.index];
        ordered_txs_ += blk->txs->size();
        block_store_[m.index] = blk->txs;
        for (NodeId p : sys_->peer_ids()) Send(p, blk);
        inflight_.erase(m.index);
        acks_.erase(m.index);
      }
      break;
    }
    case MsgType::kBlockFetchReq:
      HandleBlockFetch(from, *msg->As<BlockFetchReqMsg>());
      break;
    default:
      break;
  }
}

void FabricOrderer::HandleBlockFetch(NodeId from, const BlockFetchReqMsg& m) {
  // The fetch doubles as a frontier report: once every peer has
  // reported, blocks below the slowest frontier can never be fetched
  // again and are dropped from the store.
  peer_frontier_[from] = std::max(peer_frontier_[from], m.from_block);
  if (peer_frontier_.size() >= sys_->peers().size()) {
    uint64_t low = UINT64_MAX;
    for (const auto& [peer, frontier] : peer_frontier_) {
      low = std::min(low, frontier);
    }
    block_store_.erase(block_store_.begin(), block_store_.lower_bound(low));
  }
  // Resend up to 8 retained blocks per request; the peer's next fetch
  // (gap-triggered or periodic) walks further. Silence when the peer is
  // already current keeps the steady-state cost at one request message.
  int sent = 0;
  for (auto it = block_store_.lower_bound(m.from_block);
       it != block_store_.end() && sent < 8; ++it, ++sent) {
    auto blk = std::make_shared<OrderedBlockMsg>();
    blk->block_no = it->first;
    blk->txs = it->second;
    Send(from, blk);
  }
  if (sent > 0) env()->metrics.Inc("fabric.blocks_refetched", sent);
}

void FabricOrderer::OnTimer(uint64_t tag, uint64_t payload) {
  if (tag == kTagRaftRetry) {
    if (delivered_.count(payload) || !inflight_.count(payload)) return;
    env()->metrics.Inc("fabric.raft_retry");
    SendAppend(payload);
    StartTimer(10 * sys_->config().batch_timeout_us, kTagRaftRetry,
               payload);
    return;
  }
  if (tag != kTagBatch) return;
  batcher_.OnTimer(payload);
}

void FabricOrderer::SendAppend(uint64_t index) {
  auto it = inflight_.find(index);
  if (it == inflight_.end()) return;
  auto append = std::make_shared<RaftAppendMsg>();
  append->term = 1;
  append->index = index;
  append->txs = it->second;
  for (int i = 0; i < sys_->config().orderers; ++i) {
    if (i != index_) Send(sys_->orderer(i)->id(), append);
  }
}

void FabricOrderer::CloseBatch(std::vector<EndorsedTx> batch) {
  auto txs = std::make_shared<std::vector<EndorsedTx>>(std::move(batch));
  uint64_t index = next_block_++;
  if (sys_->config().variant == FabricVariant::kFabricPP) {
    for (const auto& etx : *txs) {
      uint16_t coll = etx.tx.collection.members.mask();
      for (const auto& [k, v] : etx.write_set) {
        last_write_block_[{coll, k}] = index;
      }
    }
  }
  inflight_[index] = txs;
  SendAppend(index);
  if (sys_->config().orderers > 1) {
    StartTimer(10 * sys_->config().batch_timeout_us, kTagRaftRetry, index);
  }
  // Single-orderer degenerate case delivers immediately.
  if (sys_->config().orderers == 1) {
    auto blk = std::make_shared<OrderedBlockMsg>();
    blk->block_no = index;
    blk->txs = txs;
    ordered_txs_ += txs->size();
    block_store_[index] = txs;
    for (NodeId p : sys_->peer_ids()) Send(p, blk);
    delivered_.insert(index);
    inflight_.erase(index);
  }
}

// ------------------------------------------------------------ FabricClient

FabricClient::FabricClient(Env* env, FabricSystem* sys,
                           std::unique_ptr<SmallBankWorkload> workload,
                           double rate_tps, uint64_t seed)
    : Actor(env, "fabric-client"),
      sys_(sys),
      workload_(std::move(workload)),
      rate_tps_(rate_tps),
      rng_(seed) {}

void FabricClient::Start(SimTime start, SimTime stop, SimTime measure_from,
                         SimTime measure_to) {
  stop_at_ = stop;
  measure_from_ = measure_from;
  measure_to_ = measure_to;
  StartTimer(start, kTagIssue, 0);
}

void FabricClient::OnTimer(uint64_t tag, uint64_t /*payload*/) {
  if (tag != kTagIssue) return;
  if (now() >= stop_at_) return;
  IssueNext();
  StartTimer(static_cast<SimTime>(rng_.Exponential(1e6 / rate_tps_)) + 1,
             kTagIssue, 0);
}

void FabricClient::IssueNext() {
  uint64_t ts = next_ts_++;
  Transaction tx = workload_->Next(id(), ts);
  tx.shards = {0};  // single channel, no sharding
  tx.client_sig = env()->keystore.Sign(id(), tx.Digest());

  PendingTx p;
  p.sent_at = now();
  p.etx.tx = tx;
  // Endorsement policy: every involved enterprise endorses.
  auto members = tx.collection.members.Members();
  p.endorsements_needed = members.size();
  pending_.emplace(ts, std::move(p));
  issued_++;

  auto req = std::make_shared<EndorseReqMsg>();
  req->tx = tx;
  for (EnterpriseId e : members) {
    Send(sys_->peer(e)->id(), req);
  }
}

void FabricClient::OnMessage(NodeId /*from*/, const MessageRef& msg) {
  switch (msg->type) {
    case MsgType::kEndorseResp: {
      const auto& m = *msg->As<EndorseRespMsg>();
      auto it = pending_.find(m.client_ts);
      if (it == pending_.end() || it->second.submitted) break;
      PendingTx& p = it->second;
      // A duplicated response must not double-count an endorser.
      bool have = false;
      for (const auto& e : p.etx.endorsements) {
        if (e.signer == m.sig.signer) {
          have = true;
          break;
        }
      }
      if (have) break;
      p.etx.endorsements.push_back(m.sig);
      if (p.etx.read_set.empty() && p.etx.write_set.empty()) {
        p.etx.read_set = m.read_set;
        p.etx.write_set = m.write_set;
      }
      if (p.etx.endorsements.size() >= p.endorsements_needed) {
        p.submitted = true;
        auto submit = std::make_shared<OrderSubmitMsg>();
        submit->etx = p.etx;
        submit->hash_only =
            sys_->config().variant == FabricVariant::kFastFabric;
        Send(sys_->leader_id(), submit);
      }
      break;
    }
    case MsgType::kValidateDone: {
      const auto& m = *msg->As<ValidateDoneMsg>();
      for (const auto& [client, ts, valid] : m.outcomes) {
        if (client != id()) continue;
        auto it = pending_.find(ts);
        if (it == pending_.end() || it->second.done) continue;
        it->second.done = true;
        if (valid) {
          committed_++;
          if (now() >= measure_from_ && now() < measure_to_) {
            measured_commits_++;
            latencies_.Add(now() - it->second.sent_at);
          }
        } else {
          invalidated_++;
        }
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace qanaat
