#include "qanaat/client.h"

#include <set>

namespace qanaat {

ClientMachine::ClientMachine(Env* env, const Directory* dir,
                             std::unique_ptr<SmallBankWorkload> workload,
                             double rate_tps, uint64_t seed)
    : Actor(env, "client", 0),
      dir_(dir),
      workload_(std::move(workload)),
      rate_tps_(rate_tps),
      rng_(seed) {}

void ClientMachine::Start(SimTime start, SimTime stop, SimTime measure_from,
                          SimTime measure_to) {
  stop_at_ = stop;
  measure_from_ = measure_from;
  measure_to_ = measure_to;
  StartTimer(start, kTagIssue, 0);
}

void ClientMachine::OnTimer(uint64_t tag, uint64_t payload) {
  if (tag == kTagIssue) {
    if (now() >= stop_at_) return;
    IssueNext();
    // Poisson arrivals at rate_tps_.
    double gap_us = rng_.Exponential(1e6 / rate_tps_);
    StartTimer(static_cast<SimTime>(gap_us) + 1, kTagIssue, 0);
    return;
  }
  if (tag == kTagRetransmit) {
    auto it = pending_.find(payload);
    if (it == pending_.end()) return;  // settled (erased) meanwhile
    // §4.3.4: multicast the request to all nodes of the target cluster.
    auto req = std::make_shared<RequestMsg>(*it->second.request);
    req->is_retransmission = true;
    Multicast(dir_->Cluster(it->second.target_cluster).ordering, req);
    env()->metrics.Inc("client.retransmit");
    StartTimer(retransmit_timeout_, kTagRetransmit, payload);
  }
}

void ClientMachine::IssueNext() {
  uint64_t ts = next_ts_++;
  Transaction tx = workload_->Next(id(), ts);
  tx.client_sig = env()->keystore.Sign(id(), tx.Digest());
  int target = workload_->TargetCluster(tx);

  auto req = std::make_shared<RequestMsg>();
  req->tx = tx;

  PendingTx p;
  p.sent_at = now();
  p.target_cluster = target;
  if (retransmit_timeout_ > 0) {
    p.request = req;
    StartTimer(retransmit_timeout_, kTagRetransmit, ts);
  }
  pending_.emplace(ts, std::move(p));
  issued_++;
  Send(dir_->Cluster(target).InitialPrimary(), req);
}

void ClientMachine::Settle(uint64_t ts, bool matching_rule_met) {
  if (!matching_rule_met) return;
  auto it = pending_.find(ts);
  if (it == pending_.end()) return;  // already settled
  accepted_++;
  SimTime lat = now() - it->second.sent_at;
  // Throughput is counted by completion time (settles per second of the
  // measurement window) so an over-driven run reports the sustainable
  // rate rather than the offered one.
  if (now() >= measure_from_ && now() < measure_to_) {
    measured_commits_++;
    latencies_.Add(lat);
  }
  pending_.erase(it);
}

void ClientMachine::HandleReply(NodeId /*from*/, const ReplyMsg& m) {
  if (!env()->keystore.Verify(m.sig, m.result_digest)) {
    env()->metrics.Inc("client.bad_reply_sig");
    return;
  }
  // Find our transactions inside the block's client list.
  size_t needed = 1;
  if (dir_->params.failure_model == FailureModel::kByzantine &&
      !dir_->params.use_firewall) {
    needed = static_cast<size_t>(dir_->params.f) + 1;
  }
  for (const auto& [client, ts] : m.clients) {
    if (client != id()) continue;
    auto it = pending_.find(ts);
    if (it == pending_.end()) continue;  // settled already
    if (needed == 1) {
      Settle(ts, true);
      continue;
    }
    uint64_t result = m.result_digest.Prefix64();
    auto& votes = it->second.votes;
    bool dup = false;
    size_t matching = 1;  // this reply
    for (const auto& [r, signer] : votes) {
      if (signer == m.sig.signer && r == result) dup = true;
      if (r == result) ++matching;
    }
    if (dup) continue;
    votes.emplace_back(result, m.sig.signer);
    if (matching >= needed) Settle(ts, true);
  }
}

void ClientMachine::HandleReplyCert(const ReplyCertMsg& m) {
  // Re-verify the certificate: g+1 valid shares from distinct executors
  // over the block, its result and the client list settled below.
  std::set<NodeId> distinct;
  Sha256Digest signable =
      ExecReplyMsg::Signable(m.block_digest, m.result_digest, m.clients);
  for (const auto& s : m.cert.sigs) {
    if (!env()->keystore.VerifyShare(s, signable)) {
      env()->metrics.Inc("client.bad_reply_cert");
      return;
    }
    distinct.insert(s.signer);
  }
  if (distinct.size() < static_cast<size_t>(dir_->params.g) + 1) {
    env()->metrics.Inc("client.short_reply_cert");
    return;
  }
  // Per-request matching inside a batched certificate: one block-granular
  // certificate settles every pending request of ours it covers.
  uint64_t settled = 0;
  for (const auto& [client, ts] : m.clients) {
    if (client != id()) continue;
    Settle(ts, true);
    ++settled;
  }
  if (settled > 0) {
    env()->metrics.Hist("client.settles_per_cert")
        .Add(static_cast<int64_t>(settled));
  }
}

void ClientMachine::OnMessage(NodeId from, const MessageRef& msg) {
  switch (msg->type) {
    case MsgType::kReply:
      HandleReply(from, *msg->As<ReplyMsg>());
      break;
    case MsgType::kReplyCert:
      HandleReplyCert(*msg->As<ReplyCertMsg>());
      break;
    default:
      break;
  }
}

}  // namespace qanaat
