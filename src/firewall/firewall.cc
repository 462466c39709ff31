#include "firewall/firewall.h"

#include "protocols/cross_messages.h"

namespace qanaat {

// ------------------------------------------------------- ExecutionNode

ExecutionNode::ExecutionNode(Env* env, const Directory* dir,
                             const DataModel* model, int cluster_id,
                             int index)
    : Actor(env, "exec/" + std::to_string(cluster_id) + "/" +
                     std::to_string(index),
            dir->Cluster(cluster_id).region),
      dir_(dir),
      cfg_(dir->Cluster(cluster_id)),
      index_(index),
      core_(env, model, cfg_.enterprise, cfg_.shard) {}

void ExecutionNode::OnMessage(NodeId from, const MessageRef& msg) {
  if (msg->type == MsgType::kExecOrder) {
    HandleExecOrder(*msg->As<ExecOrderMsg>());
  } else if (msg->type == MsgType::kStateRequest) {
    HandleStateRequest(from, *msg->As<StateRequestMsg>());
  } else if (msg->type == MsgType::kStateReply) {
    HandleStateReply(*msg->As<StateReplyMsg>());
  }
}

void ExecutionNode::OnTimer(uint64_t tag, uint64_t /*payload*/) {
  if (tag != kTagPull) return;
  pull_armed_ = false;
  if (core_.pending_blocks() == 0) return;  // the push stream caught up
  if (core_.ledger().size() > pull_ledger_mark_) {
    // Progress since arming: pushes are draining the gap. Keep watching
    // without pulling, so a merely-slow stream never costs a transfer.
    ArmPullWatchdog();
    return;
  }
  env()->metrics.Inc("exec.pull_wedged");
  SendPullRequest();
  ArmPullWatchdog();
}

void ExecutionNode::OnCrash() {
  pull_armed_ = false;  // its timer died with the old epoch
}

void ExecutionNode::OnRecover() {
  env()->metrics.Inc("exec.pull_on_recover");
  SendPullRequest();
  ArmPullWatchdog();
}

void ExecutionNode::ArmPullWatchdog() {
  if (pull_armed_) return;
  pull_armed_ = true;
  pull_ledger_mark_ = core_.ledger().size();
  StartTimer(dir_->params.consensus_timeout_us, kTagPull);
}

void ExecutionNode::SendPullRequest() {
  auto req = std::make_shared<StateRequestMsg>();
  req->heads = ChainHeadsOf(core_);
  // An executor has no consensus frontier; the max sentinel suppresses
  // checkpoint-only replies — it only ever wants ledger entries.
  req->frontier = UINT64_MAX;
  req->requester = id();
  env()->metrics.Inc("exec.pull_requested");
  if (cfg_.HasFirewall()) {
    // The top filter row brokers the transfer to a serving peer.
    const std::vector<NodeId>& hop = cfg_.filter_rows.back();
    Send(hop[pull_rr_++ % hop.size()], req);
    return;
  }
  // No firewall (Fig 4(b)): pull from a peer execution node directly —
  // they, not the ordering nodes, retain the executable ledger.
  std::vector<NodeId> peers;
  for (NodeId p : cfg_.execution) {
    if (p != id()) peers.push_back(p);
  }
  if (peers.empty()) return;
  Send(peers[pull_rr_++ % peers.size()], req);
}

void ExecutionNode::HandleStateRequest(NodeId from,
                                       const StateRequestMsg& m) {
  if (!cfg_.IsExecutionNode(m.requester)) {
    return;  // filters validate this too; defense in depth
  }
  // No checkpoint: executors run no consensus.
  auto rep = BuildStateReply(core_, m, /*ckpt=*/nullptr);
  if (rep == nullptr) return;  // nothing the requester lacks
  env()->metrics.Inc("exec.state_served");
  env()->metrics.Inc("exec.state_blocks_served", rep->entries.size());
  // With a firewall `from` is the brokering top-row filter, which routes
  // the reply to the requester; without one it is the requester itself.
  Send(from, rep);
}

void ExecutionNode::HandleStateReply(const StateReplyMsg& m) {
  size_t installed = 0;
  for (const auto& e : m.entries) {
    ShardRef ref{e.alpha.collection, e.alpha.shard};
    if (e.alpha.n <= core_.ledger().HeadOf(ref)) continue;  // have it
    if (!VerifyTransferredLedgerEntry(*dir_, env()->keystore, e)) {
      env()->metrics.Inc("exec.bad_pull_block");
      continue;
    }
    // Re-execution rebuilds the store deterministically. No reply share
    // goes out for pulled blocks: the clients were answered by the
    // executors that stayed up, this node only needs to converge. Submit
    // refuses a block already queued.
    Status st = core_.Submit(
        e.block, e.cert, e.alpha, e.gamma,
        [this](const ExecutorCore::ExecResult& res) {
          ChargeCpu(res.cpu_cost);
        });
    if (st.ok()) {
      ++installed;
      env()->metrics.Inc("exec.pull_block_installed");
    }
  }
  if (installed > 0) {
    // Another round with the advanced heads: replies are chunked, and
    // the serving node may have committed more meanwhile. The exchange
    // quiesces once a round installs nothing new.
    SendPullRequest();
  }
}

void ExecutionNode::HandleExecOrder(const ExecOrderMsg& m) {
  // Verify the commit certificate: 2f+1 ordering-node signatures over
  // the block digest. The wire admits a missing block.
  if (m.block == nullptr || m.cert.block_digest != m.block->Digest() ||
      !m.cert.Valid(env()->keystore, dir_->params.CertQuorum())) {
    env()->metrics.Inc("exec.bad_cert");
    return;
  }
  // Submit refuses a block at or below its chain's head or already
  // queued: the duplicate pushes of a view change's replay and the
  // backups' watchdogs end here.
  Status st = core_.Submit(
      m.block, m.cert, m.alpha_here, m.gamma_here,
      [this](const ExecutorCore::ExecResult& res) {
        ChargeCpu(res.cpu_cost);
        auto reply = std::make_shared<ExecReplyMsg>();
        reply->block_digest = res.block->Digest();
        reply->result_digest = res.result_digest;
        if (corrupt_replies_) {
          // Byzantine executor: stuff a bogus (potentially confidential)
          // payload into the reply. Correct executors' replies won't
          // match, so the top filter row can never assemble g+1 shares
          // around this value.
          reply->result_digest.bytes[0] ^= 0x5a;
          reply->stuffed = true;
        }
        reply->clients = res.clients;
        reply->sig = env()->keystore.SignShare(
            id(), ExecReplyMsg::Signable(reply->block_digest,
                                         reply->result_digest,
                                         reply->clients));

        if (cfg_.HasFirewall()) {
          Multicast(cfg_.filter_rows.back(), reply);
        } else {
          // Fig 4(b): crash-only execution nodes reply straight to the
          // ordering primary, which forwards to clients.
          Send(cfg_.InitialPrimary(), reply);
        }
      });
  if (st.code() == StatusCode::kAlreadyExists) return;
  if (!st.ok()) env()->metrics.Inc("exec.submit_error");
  // A block parked behind a missing predecessor or γ dependency means a
  // ledger gap: start (or keep) the pull watchdog so a push lost for
  // good cannot wedge this executor forever.
  if (core_.pending_blocks() > 0) ArmPullWatchdog();
}

// ----------------------------------------------------------- FilterNode

FilterNode::FilterNode(Env* env, const Directory* dir, int cluster_id,
                       int row, int index)
    : Actor(env, "filter/" + std::to_string(cluster_id) + "/" +
                     std::to_string(row) + "/" + std::to_string(index),
            dir->Cluster(cluster_id).region),
      dir_(dir),
      cfg_(dir->Cluster(cluster_id)),
      row_(row),
      index_(index),
      top_row_(row ==
               static_cast<int>(cfg_.filter_rows.size()) - 1) {}

std::vector<NodeId> FilterNode::Above() const {
  if (top_row_) return cfg_.execution;
  return cfg_.filter_rows[row_ + 1];
}

std::vector<NodeId> FilterNode::Below() const {
  if (row_ == 0) return cfg_.ordering;
  return cfg_.filter_rows[row_ - 1];
}

void FilterNode::OnMessage(NodeId from, const MessageRef& msg) {
  switch (msg->type) {
    case MsgType::kExecOrder:
      HandleExecOrder(from, msg);
      break;
    case MsgType::kExecReply:
      HandleExecReply(from, *msg->As<ExecReplyMsg>());
      break;
    case MsgType::kReplyCert:
      HandleReplyCert(from, msg);
      break;
    case MsgType::kStateRequest:
      HandleStateRequest(from, msg);
      break;
    case MsgType::kStateReply:
      HandleStateReply(from, msg);
      break;
    default:
      ++filtered_;
      env()->metrics.Inc("firewall.filtered_unknown");
      break;
  }
}

void FilterNode::HandleExecOrder(NodeId /*from*/, const MessageRef& msg) {
  const auto& m = *msg->As<ExecOrderMsg>();
  // Filters check the request and commit certificate are valid (§4.2)
  // before passing them toward the execution nodes. The wire admits a
  // missing block, and any Byzantine ordering node can send one.
  if (m.block == nullptr || m.cert.block_digest != m.block->Digest() ||
      !m.cert.Valid(env()->keystore, dir_->params.CertQuorum())) {
    ++filtered_;
    env()->metrics.Inc("firewall.filtered_bad_cert");
    return;
  }
  if (forwarded_down_.count(m.cert.block_digest)) return;
  forwarded_down_.insert(m.cert.block_digest);
  if (byzantine()) {
    // A malicious filter may corrupt what it forwards; the next row's
    // certificate check drops the damaged copy, and the row-mate's clean
    // copy keeps the protocol live (the h+1-per-row argument, §3.4).
    auto evil = std::make_shared<ExecOrderMsg>(m);
    evil->cert.sigs[0] = env()->keystore.Forge(evil->cert.sigs[0].signer);
    Multicast(Above(), evil);
    return;
  }
  Multicast(Above(), msg);
}

void FilterNode::HandleExecReply(NodeId from, const ExecReplyMsg& m) {
  if (!top_row_) {
    // Reply shares are only accepted by the top row, directly from the
    // execution nodes; anything else is out-of-protocol traffic.
    ++filtered_;
    env()->metrics.Inc("firewall.filtered_misrouted_reply");
    return;
  }
  Sha256Digest signable =
      ExecReplyMsg::Signable(m.block_digest, m.result_digest, m.clients);
  if (m.sig.signer != from ||
      !env()->keystore.VerifyShare(m.sig, signable)) {
    ++filtered_;
    env()->metrics.Inc("firewall.filtered_bad_share");
    return;
  }
  if (forwarded_up_.count(m.block_digest)) return;

  // Shares count per signable: only the shares over this exact result and
  // client list can certify them.
  ReplyTally& tally = reply_shares_[m.block_digest][signable];
  if (tally.shares.empty()) {
    tally.result_digest = m.result_digest;
    tally.clients = m.clients;
  }
  tally.shares[from] = m.sig;
  if (tally.shares.size() < static_cast<size_t>(dir_->params.g) + 1) return;
  // g+1 matching replies: assemble the reply certificate (§4.2).
  forwarded_up_.insert(m.block_digest);
  auto cert_msg = std::make_shared<ReplyCertMsg>();
  cert_msg->block_digest = m.block_digest;
  cert_msg->result_digest = tally.result_digest;
  cert_msg->clients = std::move(tally.clients);
  for (auto& [node, sig] : tally.shares) cert_msg->cert.sigs.push_back(sig);
  Multicast(Below(), cert_msg);
  reply_shares_.erase(m.block_digest);
}

void FilterNode::HandleReplyCert(NodeId /*from*/, const MessageRef& msg) {
  const auto& m = *msg->As<ReplyCertMsg>();
  if (top_row_) {
    // Certificates originate at the top row; one arriving from elsewhere
    // is out-of-protocol.
    ++filtered_;
    return;
  }
  // Each row re-validates the certificate, so a row of correct filters
  // drops anything a malicious filter below the top row injected.
  Sha256Digest signable =
      ExecReplyMsg::Signable(m.block_digest, m.result_digest, m.clients);
  size_t quorum = static_cast<size_t>(dir_->params.g) + 1;
  std::set<NodeId> distinct;
  for (const auto& s : m.cert.sigs) {
    if (!env()->keystore.VerifyShare(s, signable)) {
      ++filtered_;
      env()->metrics.Inc("firewall.filtered_bad_cert_share");
      return;
    }
    distinct.insert(s.signer);
  }
  if (distinct.size() < quorum) {
    ++filtered_;
    env()->metrics.Inc("firewall.filtered_short_cert");
    return;
  }
  if (forwarded_up_.count(m.block_digest)) return;
  forwarded_up_.insert(m.block_digest);
  if (byzantine()) {
    auto evil = std::make_shared<ReplyCertMsg>(m);
    evil->result_digest.bytes[0] ^= 0x77;  // tampered result
    Multicast(Below(), evil);
    return;
  }
  Multicast(Below(), msg);
}

void FilterNode::HandleStateRequest(NodeId /*from*/, const MessageRef& msg) {
  const auto& m = *msg->As<StateRequestMsg>();
  // Only pulls originated by this cluster's execution nodes may use the
  // firewall, and only through the top row; anything else is
  // out-of-protocol traffic.
  if (!top_row_ || !cfg_.IsExecutionNode(m.requester)) {
    ++filtered_;
    env()->metrics.Inc("firewall.filtered_bad_pull");
    return;
  }
  // Broker to a serving peer — never back to the requester itself.
  std::vector<NodeId> peers;
  for (NodeId p : cfg_.execution) {
    if (p != m.requester) peers.push_back(p);
  }
  if (peers.empty()) {
    ++filtered_;
    env()->metrics.Inc("firewall.filtered_bad_pull");
    return;
  }
  Send(peers[pull_rr_serve_++ % peers.size()], msg);
}

void FilterNode::HandleStateReply(NodeId /*from*/, const MessageRef& msg) {
  const auto& m = *msg->As<StateReplyMsg>();
  // Transfers never cross below the top row, and only ever serve this
  // cluster's execution nodes: anything else was injected or misrouted.
  if (!top_row_ || !cfg_.IsExecutionNode(m.requester)) {
    ++filtered_;
    env()->metrics.Inc("firewall.filtered_bad_pull");
    return;
  }
  // The requester validated above is one of our execution nodes, so this
  // delivery stays inside the firewall's wiring.
  Send(m.requester, msg);
}

// --------------------------------------------------- link restrictions

void RestrictFirewallLinks(Network* net, const ClusterConfig& cfg) {
  if (!cfg.HasFirewall()) return;
  const int rows = static_cast<int>(cfg.filter_rows.size());
  // Execution nodes: only the top filter row.
  for (NodeId e : cfg.execution) {
    net->RestrictLinks(e, cfg.filter_rows[rows - 1]);
  }
  // Filters: only the rows above and below.
  for (int r = 0; r < rows; ++r) {
    std::vector<NodeId> peers;
    const std::vector<NodeId>& below =
        (r == 0) ? cfg.ordering : cfg.filter_rows[r - 1];
    const std::vector<NodeId>& above =
        (r == rows - 1) ? cfg.execution : cfg.filter_rows[r + 1];
    peers.insert(peers.end(), below.begin(), below.end());
    peers.insert(peers.end(), above.begin(), above.end());
    for (NodeId fnode : cfg.filter_rows[r]) {
      net->RestrictLinks(fnode, peers);
    }
  }
}

}  // namespace qanaat
