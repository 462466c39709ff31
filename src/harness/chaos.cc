#include "harness/chaos.h"

#include <algorithm>
#include <functional>
#include <map>
#include <utility>
#include <vector>

namespace qanaat {

const char* ChaosStackName(ChaosStack s) {
  switch (s) {
    case ChaosStack::kQanaatPbft:
      return "qanaat-pbft";
    case ChaosStack::kQanaatPaxos:
      return "qanaat-paxos";
    case ChaosStack::kFabric:
      return "fabric";
  }
  return "?";
}

namespace {

/// Every executor core of the deployment with the node that owns it
/// (core.ledger() is the chain surface, the core itself the store
/// surface for state-identity checks).
std::vector<std::pair<NodeId, const ExecutorCore*>> AllCores(
    QanaatSystem& sys) {
  std::vector<std::pair<NodeId, const ExecutorCore*>> out;
  for (int c = 0; c < sys.cluster_count(); ++c) {
    const ClusterConfig& cc = sys.directory().Cluster(c);
    for (size_t i = 0; i < cc.ordering.size(); ++i) {
      out.emplace_back(cc.ordering[i],
                       &sys.ordering_node(c, static_cast<int>(i))
                            ->exec_core());
    }
    for (size_t i = 0; i < cc.execution.size(); ++i) {
      out.emplace_back(cc.execution[i],
                       &sys.execution_node(c, static_cast<int>(i))
                            ->core());
    }
  }
  return out;
}

std::string NodeLabel(NodeId n) { return "node " + std::to_string(n); }

}  // namespace

Status SafetyAuditor::AuditLinkContainment(const Network& net) {
  for (const auto& [from, to] : net.delivered_links()) {
    if (!net.LinkAllowed(from, to)) {
      return Status::Internal("firewall containment violated: message "
                              "delivered on restricted link " +
                              std::to_string(from) + " -> " +
                              std::to_string(to));
    }
  }
  return Status::Ok();
}

Status SafetyAuditor::AuditQanaat(QanaatSystem& sys, bool full,
                                  const std::set<NodeId>* converged_except) {
  auto cores = AllCores(sys);
  std::vector<std::pair<NodeId, const DagLedger*>> ledgers;
  ledgers.reserve(cores.size());
  for (const auto& [node, core] : cores) {
    ledgers.emplace_back(node, &core->ledger());
  }

  // 1. Chain agreement: at every (collection shard, height) all replicas
  // — within a cluster and across clusters sharing the chain — hold the
  // same block under the same ⟨α, γ⟩.
  std::map<std::pair<ShardRef, size_t>, std::pair<Sha256Digest, NodeId>>
      canon;
  for (const auto& [node, led] : ledgers) {
    for (const auto& [ref, chain] : led->chains()) {
      for (size_t i = 0; i < chain.size(); ++i) {
        const DagLedger::Entry& e = led->entry(chain[i]);
        Sha256Digest d = e.block->Digest();
        auto [it, inserted] =
            canon.emplace(std::make_pair(ref, i), std::make_pair(d, node));
        if (!inserted && !(it->second.first == d)) {
          return Status::Internal(
              "chain disagreement on " + ref.Label() + " height " +
              std::to_string(i + 1) + ": " + NodeLabel(node) + " vs " +
              NodeLabel(it->second.second));
        }
      }
    }
  }

  // 2. At-most-once commit per ledger.
  for (const auto& [node, led] : ledgers) {
    std::set<std::pair<NodeId, uint64_t>> seen;
    for (size_t i = 0; i < led->size(); ++i) {
      for (const Transaction& tx : led->entry(i).block->txs) {
        if (!seen.insert({tx.client, tx.client_ts}).second) {
          return Status::Internal(
              "transaction committed twice on " + NodeLabel(node) +
              ": client " + std::to_string(tx.client) + " ts " +
              std::to_string(tx.client_ts));
        }
      }
    }
  }

  // 3. Full audit: hash chains, γ monotonicity, certificates, wiring.
  if (full) {
    for (const auto& [node, led] : ledgers) {
      Status st = led->VerifyChain(sys.env().keystore, 0);
      if (!st.ok()) {
        return Status::Internal("ledger audit failed on " + NodeLabel(node) +
                                ": " + st.ToString());
      }
    }
    QANAAT_RETURN_IF_ERROR(AuditLinkContainment(sys.net()));
  }

  // 4. Convergence: every executing replica of a chain not explicitly
  // excluded — since the checkpoint/state-transfer subsystem, recovered
  // replicas are NOT excluded — ends with the same head (digest equality
  // along the way is implied by 1) AND an identical multi-versioned
  // store for the chain's collection (state identity, not just prefix
  // consistency: re-execution after state transfer must land on the
  // exact same bytes).
  if (converged_except != nullptr) {
    // Expected maintainers of ShardRef{coll, s}: the executing replicas
    // (execution nodes when separated, ordering nodes otherwise) of
    // cluster (e, s) for every member enterprise e.
    std::map<NodeId, const ExecutorCore*> by_node(cores.begin(),
                                                  cores.end());
    std::set<ShardRef> all_chains;
    for (const auto& [node, led] : ledgers) {
      for (const auto& [ref, chain] : led->chains()) all_chains.insert(ref);
    }
    for (const ShardRef& ref : all_chains) {
      size_t expect = 0;
      uint64_t expect_state = 0;
      bool have_expect = false;
      NodeId expect_node = kInvalidNode;
      for (EnterpriseId e : ref.collection.members.Members()) {
        int c = sys.directory().ClusterIdOf(e, ref.shard);
        const ClusterConfig& cc = sys.directory().Cluster(c);
        const std::vector<NodeId>& executing =
            cc.SeparatedExecution() ? cc.execution : cc.ordering;
        for (NodeId n : executing) {
          if (converged_except->count(n)) continue;
          const ExecutorCore* core = by_node.at(n);
          size_t len = core->ledger().ChainOf(ref).size();
          uint64_t state = core->StateFingerprintOf(ref.collection);
          if (!have_expect) {
            expect = len;
            expect_state = state;
            have_expect = true;
            expect_node = n;
          } else if (len != expect) {
            return Status::Internal(
                "post-heal divergence on " + ref.Label() + ": " +
                NodeLabel(n) + " has " + std::to_string(len) + " blocks, " +
                NodeLabel(expect_node) + " has " + std::to_string(expect));
          } else if (state != expect_state) {
            return Status::Internal(
                "post-heal state divergence on " + ref.Label() + ": " +
                NodeLabel(n) + " and " + NodeLabel(expect_node) +
                " agree on " + std::to_string(len) +
                " blocks but their stores differ");
          }
        }
      }
    }

    // 5. Eventual commit of arbitration losers (§4.3.5): a transaction
    // whose block lost a digest-priority arbitration was re-queued for
    // re-proposal, so after heal it must appear on some winning block in
    // some ledger. Chain agreement (1) and at-most-once (2) upgrade
    // "eventually commits" to "commits exactly once".
    std::set<std::pair<NodeId, uint64_t>> losers;
    for (int c = 0; c < sys.cluster_count(); ++c) {
      const ClusterConfig& cc = sys.directory().Cluster(c);
      for (size_t i = 0; i < cc.ordering.size(); ++i) {
        const auto& l = sys.ordering_node(c, static_cast<int>(i))
                            ->arbitration_loser_txs();
        losers.insert(l.begin(), l.end());
      }
    }
    if (!losers.empty()) {
      std::set<std::pair<NodeId, uint64_t>> committed;
      for (const auto& [node, led] : ledgers) {
        for (size_t i = 0; i < led->size(); ++i) {
          for (const Transaction& tx : led->entry(i).block->txs) {
            committed.insert({tx.client, tx.client_ts});
          }
        }
      }
      for (const auto& [client, ts] : losers) {
        if (!committed.count({client, ts})) {
          return Status::Internal(
              "arbitration loser never re-committed: client " +
              std::to_string(client) + " ts " + std::to_string(ts));
        }
      }
    }
  }
  return Status::Ok();
}

Status SafetyAuditor::AuditFabric(FabricSystem& sys) {
  // Cross-peer agreement on every shared block number.
  std::map<uint64_t, std::pair<Sha256Digest, EnterpriseId>> canon;
  EnterpriseId e = 0;
  for (const auto& peer : sys.peers()) {
    // The applied prefix must be gapless: in-order admission guarantees
    // block_log covers exactly [1, next_block).
    if (peer->block_log().size() != peer->next_block_to_apply() - 1) {
      return Status::Internal("peer " + std::to_string(e) +
                              " applied a gapped block sequence");
    }
    for (const auto& [no, digest] : peer->block_log()) {
      auto [it, inserted] = canon.emplace(no, std::make_pair(digest, e));
      if (!inserted && !(it->second.first == digest)) {
        return Status::Internal(
            "fabric peers disagree on block " + std::to_string(no) +
            ": enterprise " + std::to_string(e) + " vs " +
            std::to_string(it->second.second));
      }
    }
    ++e;
  }
  if (sys.env().metrics.Get("fabric.safety.double_commit") != 0) {
    return Status::Internal("a transaction id validated twice");
  }
  return Status::Ok();
}

namespace {

/// Fills in stack-appropriate defaults for a staged adversary: which
/// message types a selective-silence link swallows, and which adversaries
/// are meaningful on the stack at all (equivocation needs a Byzantine
/// engine; Fabric's pinned Raft leader only supports gray failure).
ChaosProfile ResolveAdversary(const ChaosOptions& opts) {
  ChaosProfile p = opts.profile;
  if (p.adversary == AdversaryKind::kNone) return p;
  const bool pbft = opts.stack == ChaosStack::kQanaatPbft;
  if (opts.stack == ChaosStack::kFabric &&
      p.adversary != AdversaryKind::kGrayFailure) {
    p.adversary = AdversaryKind::kNone;
    return p;
  }
  if (p.adversary == AdversaryKind::kEquivocation && !pbft) {
    // A crash-model cluster assumes no Byzantine nodes (paper §3.2); an
    // equivocation run on Paxos would test an excluded fault class.
    p.adversary = AdversaryKind::kNone;
    return p;
  }
  if (p.adversary == AdversaryKind::kSelectiveSilence &&
      p.silence_types == 0) {
    using LF = Network::LinkFault;
    // Masks must name traffic that actually FLOWS on the target's links,
    // or the rules never bite (checkpoint votes come once per interval;
    // view changes only exist once something is already wrong). PBFT:
    // swallow the primary's PRE-PREPAREs — the cluster must view-change
    // past a link-mute primary — plus the view-change/new-view and
    // checkpoint traffic toward the target, so it sits out the election
    // and recovers via the (unsilenced) fill/state-transfer path. Paxos:
    // swallow the leader's LEARNs and the fill traffic inside the window
    // — peers stall on chosen-value notifications and must catch up once
    // the window closes.
    p.silence_types =
        pbft ? LF::TypeBit(MsgType::kPrePrepare) |
                   LF::TypeBit(MsgType::kViewChange) |
                   LF::TypeBit(MsgType::kNewView) |
                   LF::TypeBit(MsgType::kCheckpoint)
             : LF::TypeBit(MsgType::kPaxosLearn) |
                   LF::TypeBit(MsgType::kCheckpoint) |
                   LF::TypeBit(MsgType::kFillRequest) |
                   LF::TypeBit(MsgType::kFillReply);
  }
  return p;
}

/// What one protocol stack hands the shared chaos driver.
struct ChaosStackHooks {
  /// The periodic safety audit.
  std::function<Status()> audit;
  /// The final audit at run_until. Sets *converged when it also checked
  /// that the replicas converged.
  std::function<Status(const FaultPlan& plan, bool* converged)> final_audit;
  /// Transactions settled at clients so far.
  std::function<uint64_t()> settled;
};

/// The schedule every stack shares: install `plan`, audit every
/// audit_period, clock the first settle after heal_at, run to run_until,
/// audit once more and fill the report.
ChaosReport DriveChaos(const ChaosOptions& opts, Env& env, Network& net,
                       FaultPlan plan, const ChaosStackHooks& hooks) {
  ChaosReport rep;
  rep.plan_summary = plan.Summary();

  FaultInjector injector(&env, &net);
  injector.Install(std::move(plan));

  Status first = Status::Ok();
  std::function<void()> audit = [&]() {
    ++rep.audits;
    if (first.ok()) first = hooks.audit();
    if (env.sim.now() + opts.audit_period < opts.run_until) {
      env.sim.Schedule(opts.audit_period, audit);
    }
  };
  env.sim.Schedule(opts.audit_period, audit);
  // Liveness-resume clock: poll from heal until the first post-heal
  // settle (10ms granularity). The poll only reads counters, so it never
  // perturbs the network trace.
  std::function<void()> resume_poll = [&]() {
    if (hooks.settled() > rep.commits_at_heal) {
      rep.liveness_resume_us = env.sim.now() - opts.heal_at;
      return;
    }
    if (env.sim.now() + 10 * kMillisecond < opts.run_until) {
      env.sim.Schedule(10 * kMillisecond, resume_poll);
    }
  };
  env.sim.ScheduleAt(opts.heal_at + 1, [&]() {
    rep.commits_at_heal = hooks.settled();
    resume_poll();
  });

  env.sim.Run(opts.run_until);

  if (first.ok()) {
    ++rep.audits;
    first = hooks.final_audit(injector.plan(), &rep.convergence_checked);
  }
  rep.safety = first;
  rep.trace_hash = net.trace_hash();
  rep.faults_applied = injector.applied();
  rep.commits_total = hooks.settled();
  rep.liveness_resumed = rep.commits_total > rep.commits_at_heal;
  rep.net_duplicated = net.duplicated();
  rep.net_reordered = net.reordered();
  rep.net_dropped = env.metrics.Get("net.dropped");
  rep.net_silenced = net.silenced();
  rep.intake_parked = env.metrics.Get("order.intake_gated");
  rep.client_retransmits = env.metrics.Get("client.retransmit");
  return rep;
}

ChaosReport RunQanaatChaos(const ChaosOptions& opts) {
  QanaatSystem::Options so;
  so.params.num_enterprises = opts.enterprises;
  so.params.shards_per_enterprise = opts.shards_per_enterprise;
  so.params.failure_model = opts.stack == ChaosStack::kQanaatPbft
                                ? FailureModel::kByzantine
                                : FailureModel::kCrash;
  so.params.family = opts.family;
  so.params.designated_coordinator = opts.designated_coordinator;
  so.params.use_firewall =
      opts.use_firewall && opts.stack == ChaosStack::kQanaatPbft;
  so.seed = opts.seed;
  const bool firewalled = so.params.use_firewall;
  QanaatSystem sys(std::move(so));
  sys.net().set_record_delivered_links(true);
  if (opts.byzantine_executor && firewalled) {
    for (int c = 0; c < sys.cluster_count(); ++c) {
      const ClusterConfig& cc = sys.directory().Cluster(c);
      if (cc.execution.empty()) continue;
      ExecutionNode* bad =
          sys.execution_node(c, static_cast<int>(cc.execution.size()) - 1);
      bad->SetByzantine(true);
      bad->SetCorruptReplies(true);
    }
  }

  WorkloadParams wl;
  wl.cross_kind = opts.cross_kind;
  wl.cross_fraction = opts.cross_fraction;
  double per_client = opts.offered_tps / opts.client_machines;
  for (int i = 0; i < opts.client_machines; ++i) {
    ClientMachine* c = sys.AddClient(wl, per_client);
    if (opts.client_retransmit_us > 0) {
      c->SetRetransmitTimeout(opts.client_retransmit_us);
    }
    c->Start(0, opts.issue_until, 0, opts.run_until);
  }

  // Fault groups: each cluster tolerates f chaos victims among its
  // ordering nodes — initial primaries included. Primary crashes ride
  // the random corpus since the checkpoint/state-transfer subsystem:
  // view changes / ballot takeovers hand leadership over, and the
  // recovered primary converges back via state transfer.
  std::vector<CrashGroup> groups;
  AdversaryTargets targets;
  for (int c = 0; c < sys.cluster_count(); ++c) {
    const ClusterConfig& cc = sys.directory().Cluster(c);
    CrashGroup g;
    g.crashable.assign(cc.ordering.begin(), cc.ordering.end());
    g.max_faulty = sys.directory().params.f;
    groups.push_back(std::move(g));
    targets.primaries.push_back(cc.InitialPrimary());
  }
  ChaosProfile profile = ResolveAdversary(opts);
  FaultPlan plan =
      MakeRandomPlan(opts.seed, groups, opts.heal_at, profile, targets);

  ChaosStackHooks hooks;
  hooks.audit = [&]() {
    return SafetyAuditor::AuditQanaat(sys, /*full=*/false, nullptr);
  };
  hooks.final_audit = [&](const FaultPlan& installed, bool* converged) {
    // Post-heal convergence covers EVERY live replica — crash victims
    // that recovered, partition endpoints, all of them (the
    // recovered-replica exclusion predates state transfer). Untargeted
    // loss still only asserts prefix agreement: a message lost after the
    // last checkpoint boundary leaves no signal to catch up from.
    bool converge = !installed.HasUntargetedLoss();
    static const std::set<NodeId> kNoExclusions;
    Status s = SafetyAuditor::AuditQanaat(
        sys, /*full=*/true, converge ? &kNoExclusions : nullptr);
    *converged = converge && s.ok();
    return s;
  };
  hooks.settled = [&]() { return sys.TotalAccepted(); };
  return DriveChaos(opts, sys.env(), sys.net(), std::move(plan), hooks);
}

ChaosReport RunFabricChaos(const ChaosOptions& opts) {
  FabricConfig fc;
  fc.enterprises = std::max(2, opts.enterprises);
  fc.seed = opts.seed;
  FabricSystem sys(fc);
  sys.net().set_record_delivered_links(true);

  WorkloadParams wl;
  wl.cross_kind = opts.cross_kind;
  wl.cross_fraction = opts.cross_fraction;
  double per_client = opts.offered_tps / opts.client_machines;
  for (int i = 0; i < opts.client_machines; ++i) {
    sys.AddClient(wl, per_client)
        ->Start(0, opts.issue_until, 0, opts.run_until);
  }

  // Victims: Raft followers only (a majority with the leader survives
  // one follower down; the model pins leadership to orderer 0).
  CrashGroup g;
  for (int i = 1; i < sys.orderer_count(); ++i) {
    g.crashable.push_back(sys.orderer(i)->id());
  }
  g.max_faulty = (sys.orderer_count() - 1) / 2;

  // The only stageable adversary on this stack is a gray-failed (slow-
  // but-alive) leader: leadership is pinned, so equivocation/silence
  // have no recovery path and are resolved to kNone.
  ChaosProfile profile = ResolveAdversary(opts);
  AdversaryTargets targets;
  targets.primaries.push_back(sys.leader_id());

  // Loss is injected network-wide, exactly like the Qanaat stacks: peers
  // now have a block catch-up protocol (gap-triggered + periodic fetch
  // from the ordering service), so a block lost on the wire no longer
  // wedges a peer forever.
  FaultPlan plan =
      MakeRandomPlan(opts.seed, {g}, opts.heal_at, profile, targets);

  ChaosStackHooks hooks;
  hooks.audit = [&]() { return SafetyAuditor::AuditFabric(sys); };
  hooks.final_audit = [&](const FaultPlan&, bool* converged) {
    Status s = SafetyAuditor::AuditFabric(sys);
    if (!s.ok()) return s;
    // Block delivery is loss-free by construction, so at quiesce every
    // peer must have applied the exact same block sequence.
    uint64_t head = sys.peers().front()->next_block_to_apply();
    for (const auto& p : sys.peers()) {
      if (p->next_block_to_apply() != head) {
        return Status::Internal("fabric peers did not converge");
      }
    }
    *converged = true;
    return s;
  };
  hooks.settled = [&]() { return sys.TotalCommitted(); };
  return DriveChaos(opts, sys.env(), sys.net(), std::move(plan), hooks);
}

}  // namespace

ChaosReport RunChaos(const ChaosOptions& opts) {
  if (opts.stack == ChaosStack::kFabric) return RunFabricChaos(opts);
  return RunQanaatChaos(opts);
}

}  // namespace qanaat
