// Flattened cross-cluster consensus (paper §4.4, Fig 6): no coordinator —
// the initiator primary PROPOSEs to every node of all involved clusters,
// primaries of the initiator enterprise's other clusters announce their
// shard's ⟨α, γ⟩ in their ACCEPT, every node multicasts ACCEPT and then
// COMMIT, and a node commits on matching votes from a local-majority of
// every involved cluster. Crash-only cross-shard intra-enterprise
// transactions use the cheaper centralized fast path of §4.4.2.

#include <algorithm>

#include "protocols/ordering_node.h"

namespace qanaat {

bool OrderingNode::FlattenedCftFastPath(const XState& xs) const {
  return cfg_.failure_model == FailureModel::kCrash &&
         !xs.is_cross_enterprise && xs.is_cross_shard;
}

void OrderingNode::ProposeFlattened(XState& xs) {
  SendFPropose(xs);
  ArmCrossTimer(xs.digest);
  SendFAccept(xs);
}

void OrderingNode::SendFPropose(const XState& xs) {
  auto prop = std::make_shared<FProposeMsg>();
  prop->initiator_cluster = cfg_.cluster_id;
  prop->block = xs.block;
  prop->block_digest = xs.digest;
  prop->sig = env()->keystore.Sign(id(), xs.digest);
  SendToInvolved(xs, prop);
}

void OrderingNode::HandleFPropose(NodeId from, const FProposeMsg& m) {
  const ClusterConfig& init = dir_->Cluster(m.initiator_cluster);
  // Provenance: signed by a member of the initiator cluster (the primary
  // may have changed; membership is what a remote node can check). The
  // block is checked first: the wire admits a missing or empty one.
  if (m.block == nullptr || m.block->txs.empty() ||
      !init.IsOrderingNode(from) || m.sig.signer != from ||
      !env()->keystore.Verify(m.sig, m.block_digest) ||
      m.block->Digest() != m.block_digest) {
    env()->metrics.Inc("cross.bad_propose");
    return;
  }
  if (IsRetired(m.block_digest)) return;  // a re-drive of a finished one
  XState& xs = StateFor(m.block_digest);
  BindBlock(xs, m.block);
  PinInstance(xs);
  const Transaction& probe = m.block->txs.front();
  // Replies to clients come from the initiator cluster — every node of
  // it, so the client can gather f+1 matching results.
  xs.i_coordinate = (m.initiator_cluster == cfg_.cluster_id);
  xs.assignments[m.block->id.alpha.shard] = ShardAssignment{
      m.initiator_cluster, m.block->id.alpha, m.block->id.gamma};
  ArmCrossTimer(m.block_digest);

  // Replay a fast-path commit that overtook this propose.
  if (xs.pending_fast_commit != nullptr) {
    std::shared_ptr<const FCommitMsg> held = xs.pending_fast_commit;
    NodeId held_from = xs.pending_fast_commit_from;
    xs.pending_fast_commit = nullptr;
    HandleFCommit(held_from, *held);
    if (xs.done) return;
  }

  // Duplicate propose (initiator re-drive after losing votes): re-vote
  // idempotently instead of falling through the first-time paths.
  if (xs.sent_accept) {
    ResendCrossVotes(xs);
    return;
  }

  // Assigner clusters on other shards assign their own ID and announce
  // it in their primary's ACCEPT (§4.4.2, §4.4.3).
  if (xs.is_cross_shard &&
      IAmShardAssigner(probe.collection, init.enterprise) &&
      cfg_.cluster_id != m.initiator_cluster && engine_->IsPrimary() &&
      !xs.assignments.count(cfg_.shard)) {
    ShardAssignment mine;
    mine.cluster = cfg_.cluster_id;
    mine.alpha = NextAlpha(probe.collection);
    // Register the claim like any other vote. A primary whose sequence
    // counter is stale (fresh after a leadership change) must also skip
    // numbers already claimed by other in-flight blocks — assigning a
    // claimed number and voting for it anyway is how two blocks end up
    // committed at one height.
    {
      ShardRef ref{mine.alpha.collection, mine.alpha.shard};
      while (true) {
        auto claim = validated_digest_.find({ref, mine.alpha.n});
        if (claim == validated_digest_.end() ||
            claim->second == m.block_digest) {
          break;
        }
        env()->metrics.Inc("cross.assign_skip_claimed");
        mine.alpha.n = ++next_seq_[probe.collection];
      }
      validated_digest_[{ref, mine.alpha.n}] = m.block_digest;
    }
    mine.gamma = CaptureGamma(probe.collection);
    xs.assignments[cfg_.shard] = mine;

    auto acc = std::make_shared<FAcceptMsg>();
    acc->from_cluster = cfg_.cluster_id;
    acc->block_digest = m.block_digest;
    acc->has_assignment = true;
    acc->assignment = mine;
    acc->sig =
        env()->keystore.Sign(id(), FAcceptMsg::Signable(m.block_digest));
    if (FlattenedCftFastPath(xs)) {
      // Fast path: announce to own cluster nodes; votes go to the whole
      // initiator cluster — leadership may have moved off the initial
      // primary, and a vote sent only there would never be tallied.
      for (NodeId n : cfg_.ordering) {
        if (n != id()) Send(n, acc);
      }
      for (NodeId n : init.ordering) {
        if (n != id()) Send(n, acc);
      }
      xs.sent_accept = true;
      return;
    }
    SendToInvolved(xs, acc);
    xs.sent_accept = true;
    xs.accepts[cfg_.cluster_id][id()] = acc->sig;
    MaybeSendFCommit(xs);
    return;
  }
  SendFAccept(xs);
}

void OrderingNode::SendFAccept(XState& xs) {
  if (xs.sent_accept || xs.done || xs.block == nullptr) return;
  const Transaction& probe = xs.block->txs.front();
  if (FlattenedCftFastPath(xs)) {
    // Fast path (§4.4.2): a node endorses its own shard's order as soon
    // as it knows it; only the initiator primary assembles the rest.
    bool involves_us =
        std::find(probe.shards.begin(), probe.shards.end(), cfg_.shard) !=
        probe.shards.end();
    if (involves_us && !xs.assignments.count(cfg_.shard)) return;
  } else {
    // General path: a node votes once it knows the block and the ⟨α, γ⟩
    // assignment of every involved shard.
    for (ShardId s : probe.shards) {
      if (!xs.assignments.count(s)) return;
    }
  }
  // Validate the assignment on our own chain before voting: idempotent
  // for the same block, refused for a rival claim to the slot. This
  // applies to our own cluster's assignments too — after a leadership
  // change the new primary may unknowingly re-assign a sequence number
  // the old primary's still-in-flight block already claimed, and a node
  // endorsing both would let two different blocks commit at one height.
  auto mine = xs.assignments.find(cfg_.shard);
  if (mine != xs.assignments.end()) {
    const LocalPart& alpha = mine->second.alpha;
    ShardRef ref{alpha.collection, alpha.shard};
    std::pair<ShardRef, SeqNo> slot{ref, alpha.n};
    auto claim = validated_digest_.find(slot);
    if (claim != validated_digest_.end()) {
      if (claim->second != xs.digest) {
        // §4.3.5 digest-priority arbitration: when two live claims
        // contest one slot, every validator deterministically prefers
        // the lower block digest. Switching the endorsement is safe only
        // before this node commit-votes the endorsed block
        // (commit_locked_), only for a live slot, and never on the
        // §4.4.2 fast path — fast-path commits carry no commit votes, so
        // the lock cannot protect them.
        if (FlattenedCftFastPath(xs) || commit_locked_.count(slot) ||
            alpha.n <= CommittedHeadOf(alpha.collection) ||
            !(xs.digest < claim->second)) {
          env()->metrics.Inc("cross.conflict_nack");
          return;
        }
        env()->metrics.Inc("cross.arbitration_switch");
        claim->second = xs.digest;
      }
    } else {
      if (mine->second.cluster != cfg_.cluster_id &&
          own_pending_.count(slot)) {
        // Our cluster's claim is in flight but not yet endorsed here, so
        // the digests are not comparable yet — nack; arbitration decides
        // once both claims are registered.
        env()->metrics.Inc("cross.conflict_nack");
        return;
      }
      if (alpha.n <= CommittedHeadOf(alpha.collection)) {
        env()->metrics.Inc("cross.stale_accept");
        return;
      }
      validated_digest_[slot] = xs.digest;
    }
  }
  xs.sent_accept = true;

  auto acc = std::make_shared<FAcceptMsg>();
  acc->from_cluster = cfg_.cluster_id;
  acc->block_digest = xs.digest;
  acc->sig = env()->keystore.Sign(id(), FAcceptMsg::Signable(xs.digest));
  if (FlattenedCftFastPath(xs)) {
    acc->sig_verify_ops = 0;
    // Vote to every node of the initiator cluster: only its current
    // primary tallies, and that may no longer be the initial one.
    for (NodeId n : dir_->Cluster(xs.involved.front()).ordering) {
      if (n != id()) Send(n, acc);
    }
    if (engine_->IsPrimary() && xs.i_coordinate) {
      xs.accepts[cfg_.cluster_id][id()] = acc->sig;
      MaybeSendFCommit(xs);
    }
    return;
  }
  SendToInvolved(xs, acc);
  xs.accepts[cfg_.cluster_id][id()] = acc->sig;
  MaybeSendFCommit(xs);
}

void OrderingNode::ResendCrossVotes(XState& xs) {
  if (xs.done || xs.block == nullptr || !xs.sent_accept) return;
  // Re-validate the slot claim: if the chain slot has since been won by
  // a different block, re-voting for this one could hand two different
  // blocks a quorum at the same height.
  auto claimed = xs.assignments.find(cfg_.shard);
  if (claimed != xs.assignments.end()) {
    const LocalPart& alpha = claimed->second.alpha;
    auto claim = validated_digest_.find(
        {ShardRef{alpha.collection, alpha.shard}, alpha.n});
    if (claim == validated_digest_.end() || claim->second != xs.digest) {
      env()->metrics.Inc("cross.resend_suppressed");
      return;
    }
  }
  auto acc = std::make_shared<FAcceptMsg>();
  acc->from_cluster = cfg_.cluster_id;
  acc->block_digest = xs.digest;
  acc->sig = env()->keystore.Sign(id(), FAcceptMsg::Signable(xs.digest));
  auto mine = xs.assignments.find(cfg_.shard);
  if (mine != xs.assignments.end() &&
      mine->second.cluster == cfg_.cluster_id && engine_->IsPrimary()) {
    acc->has_assignment = true;
    acc->assignment = mine->second;
  }
  if (FlattenedCftFastPath(xs)) {
    acc->sig_verify_ops = 0;
    for (NodeId n : dir_->Cluster(xs.involved.front()).ordering) {
      if (n != id()) Send(n, acc);
    }
    return;
  }
  SendToInvolved(xs, acc);
  if (xs.sent_commit) {
    auto cm = std::make_shared<FCommitMsg>();
    cm->from_cluster = cfg_.cluster_id;
    cm->block_digest = xs.digest;
    cm->sig = env()->keystore.Sign(id(), xs.digest);
    for (const auto& [s2, a] : xs.assignments) cm->assignments.push_back(a);
    SendToInvolved(xs, cm);
  }
}

void OrderingNode::HandleFAccept(NodeId from, const FAcceptMsg& m) {
  if (IsRetired(m.block_digest)) return;  // a late vote
  const ClusterConfig& sender = dir_->Cluster(m.from_cluster);
  if (!sender.IsOrderingNode(from) || m.sig.signer != from ||
      !env()->keystore.Verify(m.sig,
                              FAcceptMsg::Signable(m.block_digest))) {
    env()->metrics.Inc("cross.bad_accept");
    return;
  }
  XState& xs = StateFor(m.block_digest);
  if (m.has_assignment) {
    auto it = xs.assignments.find(m.assignment.alpha.shard);
    if (it == xs.assignments.end()) {
      xs.assignments[m.assignment.alpha.shard] = m.assignment;
    } else if (!(it->second.alpha == m.assignment.alpha)) {
      env()->metrics.Inc("cross.conflicting_assignment");
      return;
    }
  }
  xs.accepts[m.from_cluster][from] = m.sig;

  if (xs.block != nullptr && FlattenedCftFastPath(xs)) {
    SendFAccept(xs);  // vote toward the initiator primary
    if (xs.i_coordinate && engine_->IsPrimary()) MaybeSendFCommit(xs);
    return;
  }
  SendFAccept(xs);  // we may have been waiting for an assignment
  MaybeSendFCommit(xs);
}

void OrderingNode::MaybeSendFCommit(XState& xs) {
  if (xs.sent_commit || xs.done || xs.block == nullptr || !xs.sent_accept) {
    return;
  }
  size_t quorum = dir_->params.LocalMajority();
  for (int c : xs.involved) {
    auto it = xs.accepts.find(c);
    if (it == xs.accepts.end() || it->second.size() < quorum) return;
  }
  const Transaction& probe = xs.block->txs.front();
  for (ShardId s : probe.shards) {
    if (!xs.assignments.count(s)) return;
  }
  // §4.3.5 commit-vote guard: a node commit-votes at most one digest per
  // slot. The endorsement may have moved to a lower rival after our
  // accept; commit-voting the abandoned block anyway would let two
  // commit-vote majorities assemble inside one cluster.
  auto here = xs.assignments.find(cfg_.shard);
  if (here != xs.assignments.end()) {
    const LocalPart& alpha = here->second.alpha;
    std::pair<ShardRef, SeqNo> slot{ShardRef{alpha.collection, alpha.shard},
                                    alpha.n};
    auto endorsed = validated_digest_.find(slot);
    auto locked = commit_locked_.find(slot);
    if ((endorsed != validated_digest_.end() &&
         endorsed->second != xs.digest) ||
        (locked != commit_locked_.end() && locked->second != xs.digest)) {
      env()->metrics.Inc("cross.commit_vote_suppressed");
      return;
    }
    commit_locked_[slot] = xs.digest;
  }
  xs.sent_commit = true;

  auto cm = std::make_shared<FCommitMsg>();
  cm->from_cluster = cfg_.cluster_id;
  cm->block_digest = xs.digest;
  cm->sig = env()->keystore.Sign(id(), xs.digest);

  if (FlattenedCftFastPath(xs)) {
    // §4.4.2 fast path: the initiator primary alone disseminates the
    // commit instruction, carrying the collected assignments.
    cm->fast_path = true;
    cm->sig_verify_ops = 1;
    for (const auto& [s, a] : xs.assignments) cm->assignments.push_back(a);
    SendToInvolved(xs, cm);
    // Commit locally.
    CommitCertificate cert;
    cert.block_digest = xs.digest;
    cert.direct = true;
    cert.sigs.push_back(cm->sig);
    SettleCross(xs, cert, /*committed=*/true, /*reply_from_here=*/true);
    return;
  }

  for (const auto& [s2, a] : xs.assignments) cm->assignments.push_back(a);
  SendToInvolved(xs, cm);
  xs.commit_votes[cfg_.cluster_id][id()] = cm->sig;
  for (const auto& [s2, a] : xs.assignments) {
    auto& slot = xs.assignment_votes[a.alpha.shard][a.alpha.n];
    slot.first = a;
    slot.second.insert(id());
  }
  MaybeFCommitDone(xs);
}

void OrderingNode::HandleFCommit(NodeId from, const FCommitMsg& m) {
  if (IsRetired(m.block_digest)) return;  // a late vote
  const ClusterConfig& sender = dir_->Cluster(m.from_cluster);
  if (!sender.IsOrderingNode(from) || m.sig.signer != from ||
      !env()->keystore.Verify(m.sig, m.block_digest)) {
    env()->metrics.Inc("cross.bad_fcommit");
    return;
  }
  XState& xs = StateFor(m.block_digest);

  if (m.fast_path) {
    // Crash-only fast path: trust the initiator primary's instruction.
    if (xs.block == nullptr) {
      // The commit overtook its FPropose (reordered delivery). Hold it —
      // dropping it would stall this replica's chain forever, since the
      // initiator does not retransmit fast-path commits.
      env()->metrics.Inc("cross.fcommit_before_propose");
      xs.pending_fast_commit = std::make_shared<FCommitMsg>(m);
      xs.pending_fast_commit_from = from;
      return;
    }
    for (const auto& a : m.assignments) {
      xs.assignments[a.alpha.shard] = a;
    }
    CommitCertificate cert;
    cert.block_digest = m.block_digest;
    cert.direct = true;
    cert.sigs.push_back(m.sig);
    SettleCross(xs, cert, /*committed=*/true, /*reply_from_here=*/false);
    return;
  }

  xs.commit_votes[m.from_cluster][from] = m.sig;
  for (const auto& a : m.assignments) {
    auto& slot = xs.assignment_votes[a.alpha.shard][a.alpha.n];
    slot.first = a;
    slot.second.insert(from);
  }
  if (xs.block == nullptr) {
    // Commit votes for a block this replica never saw proposed: the
    // FPropose was lost on the wire. The voters are already past accept
    // and will finish without us — and completed instances stop
    // re-driving, so without action this chain is gapped forever (the
    // cross-shard liveness hole the post-heal convergence audit trips
    // on). Arm the §4.3.4 query timer; the timeout path multicasts a
    // CommitQuery and any finished peer answers with the certified
    // outcome, block included.
    env()->metrics.Inc("cross.fcommit_before_propose");
    ArmCrossTimer(m.block_digest);
  }
  MaybeFCommitDone(xs);
}

void OrderingNode::MaybeFCommitDone(XState& xs) {
  if (xs.done || !xs.sent_commit || xs.block == nullptr) return;
  size_t quorum = dir_->params.LocalMajority();
  for (int c : xs.involved) {
    auto it = xs.commit_votes.find(c);
    if (it == xs.commit_votes.end() || it->second.size() < quorum) return;
  }
  // Commit certificate: our own cluster's commit votes (they sign the
  // block digest directly).
  CommitCertificate cert;
  cert.block_digest = xs.digest;
  cert.direct = true;
  for (const auto& [node, sig] : xs.commit_votes[cfg_.cluster_id]) {
    cert.sigs.push_back(sig);
  }
  // Commit under the assignment a local-majority of its assigner cluster
  // endorsed, not under our local belief: a recovered replica that
  // self-assigned a stale sequence number while wrongly leading must not
  // append the block at that height.
  auto av = xs.assignment_votes.find(cfg_.shard);
  if (av != xs.assignment_votes.end()) {
    size_t best = 0;
    const ShardAssignment* winner = nullptr;
    for (const auto& [n, variant] : av->second) {
      const ClusterConfig& assigner = dir_->Cluster(variant.first.cluster);
      size_t backing = 0;
      for (NodeId v : variant.second) {
        if (assigner.IsOrderingNode(v)) ++backing;
      }
      if (backing >= dir_->params.LocalMajority() && backing > best) {
        best = backing;
        winner = &variant.first;
      }
    }
    if (winner != nullptr &&
        !(xs.assignments[cfg_.shard] == *winner)) {
      env()->metrics.Inc("cross.assignment_corrected");
      xs.assignments[cfg_.shard] = *winner;
    }
  }
  SettleCross(xs, cert, /*committed=*/true,
              /*reply_from_here=*/xs.i_coordinate);
}

}  // namespace qanaat
