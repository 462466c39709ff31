// Cross-shard conflict resolution (§4.3.5) and pull-based executor state
// transfer: digest-priority arbitration of symmetric rival claims, loser
// re-proposal, and the firewall-routed StateRequest/StateReply path a
// gapped execution node uses to converge. Also intake parking: a primary
// whose committed blocks sit deferred (the routine out-of-order commits of
// cross-shard ordering) holds fresh requests until it catches up. Also the
// cross-instance lifecycle: a finished instance is retired to its outcome
// record, which still answers commit queries and ignores late votes. Also
// cross proposals whose block is missing or empty, which the wire codec
// admits: they are rejected before anything reads the block.

#include <gtest/gtest.h>

#include "harness/chaos.h"
#include "qanaat/system.h"

namespace qanaat {
namespace {

/// Inert request source for hand-crafted rivalry scenarios.
class ClientStub : public Actor {
 public:
  explicit ClientStub(Env* env) : Actor(env, "client-stub") {}
  void OnMessage(NodeId, const MessageRef& msg) override {
    last = msg;
    if (msg->type == MsgType::kReply || msg->type == MsgType::kReplyCert) {
      if (replies++ == 0) first_reply_at = now();
    }
  }
  int replies = 0;
  SimTime first_reply_at = 0;
  MessageRef last;
};

// --------------------------------------- §4.3.5 arbitration symmetry

/// Runs the two-enterprise rivalry scenario with the given per-side
/// initiation times, asserts full settlement (both rival transactions
/// commit exactly once, every replica converges), and returns the
/// client timestamp of the transaction that won the contested height 1
/// of the shared chain.
uint64_t RunRivalry(SimTime fire_ent0, SimTime fire_ent1) {
  QanaatSystem::Options so;
  so.params.num_enterprises = 2;
  so.params.shards_per_enterprise = 1;
  so.params.failure_model = FailureModel::kCrash;
  so.params.family = ProtocolFamily::kFlattened;
  so.params.designated_coordinator = false;  // optimistic mode: races
  so.seed = 3;
  so.cluster_regions = {0, 1};
  QanaatSystem sys(std::move(so));
  // WAN latency between the enterprises: both sides below claim n=1
  // before either one-way trip (50ms) can reveal the rival claim.
  sys.net().SetRtt(0, 1, 100 * kMillisecond);
  ClientStub stub(&sys.env());

  CollectionId shared(EnterpriseSet{0, 1});
  auto make_req = [&](uint64_t ts, EnterpriseId initiator) {
    auto req = std::make_shared<RequestMsg>();
    req->tx.client = stub.id();
    req->tx.client_ts = ts;
    req->tx.collection = shared;
    req->tx.shards = {0};
    req->tx.initiator = initiator;
    req->tx.ops.push_back(TxOp{TxOp::Kind::kAdd, 1, 5, {}});
    req->tx.client_sig =
        sys.env().keystore.Sign(stub.id(), req->tx.Digest());
    return req;
  };
  sys.env().sim.ScheduleAt(fire_ent0, [&]() {
    sys.net().Send(stub.id(), sys.directory().Cluster(0).InitialPrimary(),
                   make_req(1, 0));
  });
  sys.env().sim.ScheduleAt(fire_ent1, [&]() {
    sys.net().Send(stub.id(), sys.directory().Cluster(1).InitialPrimary(),
                   make_req(2, 1));
  });
  sys.env().sim.Run(2 * kSecond);

  static const std::set<NodeId> kNone;
  Status st = SafetyAuditor::AuditQanaat(sys, true, &kNone);
  EXPECT_TRUE(st.ok()) << st.ToString();
  // A loser existed and went through the re-proposal path.
  EXPECT_GT(sys.env().metrics.Get("cross.arbitration_loser"), 0u);
  // Both rival transactions settled, exactly once each.
  uint64_t winner_ts = 0;
  ShardRef ref{shared, 0};
  for (int c = 0; c < sys.cluster_count(); ++c) {
    uint64_t committed = 0;
    const DagLedger& led = sys.ordering_node(c, 0)->exec_core().ledger();
    for (size_t i = 0; i < led.size(); ++i) {
      for (const auto& tx : led.entry(i).block->txs) {
        if (tx.client == stub.id()) ++committed;
      }
    }
    EXPECT_EQ(committed, 2u) << "cluster " << c << " did not settle";
    const auto& chain = led.ChainOf(ref);
    if (!chain.empty()) {
      winner_ts = led.entry(chain[0]).block->txs[0].client_ts;
    }
  }
  return winner_ts;
}

TEST(ArbitrationTest, SymmetricClaimsConvergeOnSameWinnerEitherOrder) {
  // Digest priority is a function of block content, not claim-arrival
  // order: whichever side proposes first, the contested height must go
  // to the same block, and the other side's transaction must re-propose
  // onto the next height. The stub lives in region 0, so enterprise 1's
  // propose lags its firing by the 50ms one-way trip: with ent0 firing
  // 20ms (resp. 80ms) after ent1, both claims are in flight before
  // either side can commit-lock, in opposite propose orders.
  uint64_t winner_a = RunRivalry(30 * kMillisecond, 10 * kMillisecond);
  uint64_t winner_b = RunRivalry(90 * kMillisecond, 10 * kMillisecond);
  EXPECT_NE(winner_a, 0u);
  EXPECT_EQ(winner_a, winner_b)
      << "arbitration picked different winners for different claim orders";
}

TEST(ArbitrationTest, LateRivalYieldsToCommittedWinner) {
  // When the claims are NOT concurrent — enterprise 0's block is
  // proposed, accepted by both clusters and commit-locked before
  // enterprise 1's rival even exists — digest priority must not unseat
  // it: the lock wins, the latecomer loses and re-proposes behind it.
  uint64_t winner = RunRivalry(10 * kMillisecond, 30 * kMillisecond);
  EXPECT_EQ(winner, 1u) << "a committed claim was unseated by a late rival";
}

// ----------------------------- pull-based executor state transfer

SystemParams FirewallParams() {
  SystemParams p;
  p.num_enterprises = 2;
  p.shards_per_enterprise = 1;
  p.failure_model = FailureModel::kByzantine;
  p.use_firewall = true;
  p.family = ProtocolFamily::kFlattened;
  return p;
}

TEST(ExecutorPullTest, CrashedExecutorRecoversThroughFilterRows) {
  QanaatSystem::Options opts;
  opts.params = FirewallParams();
  opts.seed = 7;
  QanaatSystem sys(std::move(opts));

  WorkloadParams wl;
  wl.cross_fraction = 0.0;
  ClientMachine* client = sys.AddClient(wl, 300);
  client->Start(0, 1200 * kMillisecond, 0, 2000 * kMillisecond);

  // Crash one executor mid-stream; every ExecOrder push in the window is
  // lost to it (pushes are fire-and-forget through the filters). On
  // recovery it must pull the missed blocks back through the firewall —
  // nothing else would ever close the gap.
  ExecutionNode* victim = sys.execution_node(0, 2);
  sys.env().sim.ScheduleAt(300 * kMillisecond, [&]() { victim->Crash(); });
  sys.env().sim.ScheduleAt(900 * kMillisecond, [&]() { victim->Recover(); });
  sys.env().sim.Run(2000 * kMillisecond);

  ASSERT_GT(client->measured_commits(), 100u);
  EXPECT_GT(sys.env().metrics.Get("exec.pull_on_recover"), 0u);
  EXPECT_GT(sys.env().metrics.Get("exec.pull_block_installed"), 0u);
  // Store-fingerprint identity includes the recovered executor: the
  // convergence audit runs with an EMPTY exclusion set.
  static const std::set<NodeId> kNone;
  Status st = SafetyAuditor::AuditQanaat(sys, true, &kNone);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(ExecutorPullTest, TamperedStateReplyBlockRejected) {
  QanaatSystem::Options opts;
  opts.params = FirewallParams();
  opts.seed = 11;
  QanaatSystem sys(std::move(opts));

  const ClusterConfig& cc = sys.directory().Cluster(0);
  ExecutionNode* exec = sys.execution_node(0, 0);

  // A sealed block whose body was tampered AFTER sealing: the memoized
  // tx_root no longer matches the transactions, exactly what a faulty
  // serving peer (or filter) would have to produce to smuggle state into
  // an executor. The verifier recomputes the root from canonical bytes,
  // so the entry must be rejected before any certificate math.
  auto block = std::make_shared<Block>();
  block->id.alpha = {CollectionId(EnterpriseSet{0}), 0, 1};
  Transaction tx;
  tx.collection = block->id.alpha.collection;
  tx.ops.push_back(TxOp{TxOp::Kind::kWrite, 1, 777, {}});
  block->txs.push_back(tx);
  block->Seal();
  block->txs[0].ops[0].value = 999999;  // post-seal tamper

  auto rep = std::make_shared<StateReplyMsg>();
  StateReplyMsg::Entry entry;
  entry.block = block;
  entry.cert.block_digest = block->Digest();
  entry.cert.direct = true;
  entry.cert.sigs.push_back(sys.env().keystore.Forge(cc.ordering[0]));
  entry.alpha = block->id.alpha;
  rep->entries.push_back(entry);
  rep->requester = exec->id();

  // Inject on the legitimate link (top filter row -> executor).
  sys.net().Send(cc.filter_rows.back()[0], exec->id(), rep);
  sys.env().sim.RunAll();

  EXPECT_GE(sys.env().metrics.Get("exec.bad_pull_block"), 1u);
  EXPECT_EQ(sys.env().metrics.Get("exec.pull_block_installed"), 0u);
  EXPECT_EQ(exec->core().executed_blocks(), 0u);
}

TEST(ExecutorPullTest, FiltersDropPullsNotFromAnExecutionNode) {
  QanaatSystem::Options opts;
  opts.params = FirewallParams();
  opts.seed = 13;
  QanaatSystem sys(std::move(opts));

  const ClusterConfig& cc = sys.directory().Cluster(0);
  // A StateRequest whose requester is not one of this cluster's
  // execution nodes is out-of-protocol traffic: filters refuse to route
  // it in either direction.
  auto req = std::make_shared<StateRequestMsg>();
  req->frontier = UINT64_MAX;
  req->requester = kInvalidNode;
  sys.net().Send(cc.execution[0], cc.filter_rows.back()[0], req);
  sys.env().sim.RunAll();

  EXPECT_GE(sys.env().metrics.Get("firewall.filtered_bad_pull"), 1u);
  EXPECT_EQ(sys.env().metrics.Get("order.state_served"), 0u);
}

// ------------------------------------------- intake parking (gated primary)

/// Cluster 0 of a two-enterprise crash-model deployment; the tests use
/// only its local chain. At 10ms every replica receives, by state
/// transfer, a certified block at height 2 of the local chain but not its
/// predecessor: the block is deferred, so the primary's intake is gated
/// until height 1 lands at 100ms.
class GatedPrimary {
 public:
  static constexpr SimTime kPredecessorAt = 100 * kMillisecond;

  explicit GatedPrimary(uint64_t seed)
      : sys_(Options(seed)), stub_(&sys_.env()) {
    InstallAt(10 * kMillisecond, 2);
    InstallAt(kPredecessorAt, 1);
  }

  QanaatSystem& sys() { return sys_; }
  const ClientStub& stub() const { return stub_; }
  const ClusterConfig& cluster() const { return sys_.directory().Cluster(0); }
  OrderingNode* primary() { return sys_.ordering_node(0, 0); }
  uint64_t Metric(const char* name) { return sys_.env().metrics.Get(name); }

  /// Sends client request `ts` at `at`: a first send goes to the primary,
  /// a retransmission to every ordering node (as ClientMachine does).
  void RequestAt(SimTime at, uint64_t ts, bool retransmission = false) {
    sys_.env().sim.ScheduleAt(at, [this, ts, retransmission]() {
      auto req = std::make_shared<RequestMsg>();
      req->tx = Tx(ts);
      req->is_retransmission = retransmission;
      if (!retransmission) {
        sys_.net().Send(stub_.id(), cluster().InitialPrimary(), req);
        return;
      }
      for (NodeId n : cluster().ordering) sys_.net().Send(stub_.id(), n, req);
    });
  }

  /// How many times request `ts` appears in each replica's ledger.
  std::vector<uint64_t> CommitsOf(uint64_t ts) {
    std::vector<uint64_t> out;
    for (size_t i = 0; i < cluster().ordering.size(); ++i) {
      const DagLedger& led =
          sys_.ordering_node(0, static_cast<int>(i))->exec_core().ledger();
      uint64_t n = 0;
      for (size_t e = 0; e < led.size(); ++e) {
        for (const auto& tx : led.entry(e).block->txs) {
          if (tx.client == stub_.id() && tx.client_ts == ts) ++n;
        }
      }
      out.push_back(n);
    }
    return out;
  }
  /// CommitsOf when every replica holds the request `n` times.
  std::vector<uint64_t> Each(uint64_t n) const {
    return std::vector<uint64_t>(cluster().ordering.size(), n);
  }

 private:
  static QanaatSystem::Options Options(uint64_t seed) {
    QanaatSystem::Options so;
    so.params.num_enterprises = 2;
    so.params.shards_per_enterprise = 1;
    so.params.failure_model = FailureModel::kCrash;
    so.seed = seed;
    return so;
  }

  Transaction Tx(uint64_t ts) {
    Transaction tx;
    tx.client = stub_.id();
    tx.client_ts = ts;
    tx.collection = CollectionId(EnterpriseSet{0});
    tx.shards = {0};
    tx.initiator = 0;
    tx.ops.push_back(TxOp{TxOp::Kind::kAdd, 1, 5, {}});
    tx.client_sig = sys_.env().keystore.Sign(stub_.id(), tx.Digest());
    return tx;
  }

  /// Schedules a StateReply carrying a certified block at height `n` to
  /// every replica.
  void InstallAt(SimTime at, SeqNo n) {
    sys_.env().sim.ScheduleAt(at, [this, n]() {
      auto block = std::make_shared<Block>();
      block->id.alpha = {CollectionId(EnterpriseSet{0}), 0, n};
      block->txs.push_back(Tx(1000 + n));
      block->Seal();
      StateReplyMsg::Entry e;
      e.block = block;
      e.cert.block_digest = block->Digest();
      e.cert.direct = true;
      e.cert.sigs.push_back(
          sys_.env().keystore.Sign(cluster().ordering[1], block->Digest()));
      e.alpha = block->id.alpha;
      auto rep = std::make_shared<StateReplyMsg>();
      rep->entries.push_back(e);
      for (NodeId node : cluster().ordering) {
        sys_.net().Send(stub_.id(), node, rep);
      }
    });
  }

  QanaatSystem sys_;
  ClientStub stub_;
};

// ------------------------------- observers pin live cross instances

TEST(CrossPinTest, ObserverTurnedPrimaryRefusesALiveInstancesRequest) {
  // A backup of the initiator cluster observes an FPropose whose instance
  // then stalls: the other involved cluster is partitioned away and the
  // initiator primary crashes, so nobody re-drives it and the backup's
  // observation expires (DedupWindowUs). The backup becomes primary and
  // the client retransmits. Admitting the retransmission would mint a
  // second live block carrying the same request; only slot arbitration
  // would then stand between the two and a double commit, and nothing
  // does when the second block claims a different chain slot. Observers
  // therefore pin the instance's requests until it finishes, like its
  // driver does, and the new primary re-drives the original instead.
  QanaatSystem::Options so;
  so.params.num_enterprises = 2;
  so.params.shards_per_enterprise = 2;
  so.params.failure_model = FailureModel::kCrash;
  so.params.family = ProtocolFamily::kFlattened;
  so.seed = 5;
  QanaatSystem sys(std::move(so));
  ClientStub stub(&sys.env());
  const Directory& dir = sys.directory();
  const ClusterConfig& c0 = dir.Cluster(dir.ClusterIdOf(0, 0));
  const ClusterConfig& c1 = dir.Cluster(dir.ClusterIdOf(0, 1));

  auto req = std::make_shared<RequestMsg>();
  req->tx.client = stub.id();
  req->tx.client_ts = 1;
  req->tx.collection = CollectionId(EnterpriseSet{0});
  req->tx.shards = {0, 1};
  req->tx.initiator = 0;
  req->tx.ops.push_back(TxOp{TxOp::Kind::kAdd, 1, 5, {}});
  req->tx.client_sig =
      sys.env().keystore.Sign(stub.id(), req->tx.Digest());
  auto retransmission = std::make_shared<RequestMsg>(*req);
  retransmission->is_retransmission = true;

  auto& sim = sys.env().sim;
  sim.ScheduleAt(10 * kMillisecond, [&]() {
    for (NodeId a : c0.ordering) {
      for (NodeId b : c1.ordering) sys.net().Partition(a, b);
    }
  });
  sim.ScheduleAt(20 * kMillisecond, [&]() {
    sys.net().Send(stub.id(), c0.InitialPrimary(), req);
  });
  sim.ScheduleAt(100 * kMillisecond,
                 [&]() { sys.ordering_node(c0.cluster_id, 0)->Crash(); });
  for (SimTime at : {900 * kMillisecond, 1500 * kMillisecond}) {
    sim.ScheduleAt(at, [&]() {
      for (NodeId n : c0.ordering) {
        sys.net().Send(stub.id(), n, retransmission);
      }
    });
  }
  sim.ScheduleAt(1600 * kMillisecond,
                 [&]() { sys.net().HealAllPartitions(); });
  sim.Run(4 * kSecond);

  // One block ever carried the request: the new primary refused to batch
  // the retransmission again.
  EXPECT_GT(sys.env().metrics.Get("order.duplicate_request"), 0u);
  EXPECT_EQ(sys.env().metrics.Get("batch.closed_timeout"), 1u);
  Status st = SafetyAuditor::AuditQanaat(sys, true, nullptr);
  EXPECT_TRUE(st.ok()) << st.ToString();
  for (int i = 1; i < static_cast<int>(c0.ordering.size()); ++i) {
    const DagLedger& led =
        sys.ordering_node(c0.cluster_id, i)->exec_core().ledger();
    uint64_t commits = 0;
    for (size_t e = 0; e < led.size(); ++e) {
      for (const auto& tx : led.entry(e).block->txs) {
        if (tx.client == stub.id()) ++commits;
      }
    }
    EXPECT_EQ(commits, 1u) << "replica " << i;
  }
}

TEST(IntakeParkingTest, GatedRequestSettlesOnceAfterPredecessorLands) {
  // No retransmission exists in this test: before parking, a request
  // reaching a gated primary was dropped and only a client retransmission
  // could recover it.
  GatedPrimary g(21);
  g.RequestAt(20 * kMillisecond, 1);
  g.sys().env().sim.Run(GatedPrimary::kPredecessorAt);
  EXPECT_EQ(g.Metric("order.intake_gated"), 1u);
  EXPECT_EQ(g.primary()->parked_requests(), 1u);
  EXPECT_EQ(g.CommitsOf(1), g.Each(0));

  g.sys().env().sim.Run(2 * kSecond);
  EXPECT_EQ(g.Metric("order.intake_released"), 1u);
  EXPECT_EQ(g.primary()->parked_requests(), 0u);
  EXPECT_EQ(g.CommitsOf(1), g.Each(1));
  EXPECT_GT(g.stub().replies, 0);
  EXPECT_GT(g.stub().first_reply_at, GatedPrimary::kPredecessorAt);
  static const std::set<NodeId> kNone;
  Status st = SafetyAuditor::AuditQanaat(g.sys(), true, &kNone);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(IntakeParkingTest, CrashLosesParkedRequestsAndRetransmissionSettles) {
  // The parked queue is volatile, like the batcher: a crash drops it and
  // nothing replays it. The clients' retransmissions then settle each
  // request exactly once.
  GatedPrimary g(22);
  g.RequestAt(20 * kMillisecond, 1);
  g.RequestAt(20 * kMillisecond, 2);
  g.sys().env().sim.ScheduleAt(30 * kMillisecond,
                               [&g]() { g.primary()->Crash(); });
  g.sys().env().sim.ScheduleAt(40 * kMillisecond,
                               [&g]() { g.primary()->Recover(); });
  g.sys().env().sim.Run(500 * kMillisecond);
  EXPECT_EQ(g.Metric("order.intake_gated"), 2u);
  EXPECT_EQ(g.Metric("order.intake_released"), 0u);
  EXPECT_EQ(g.primary()->parked_requests(), 0u);
  EXPECT_EQ(g.CommitsOf(1), g.Each(0));
  EXPECT_EQ(g.CommitsOf(2), g.Each(0));

  g.RequestAt(510 * kMillisecond, 1, /*retransmission=*/true);
  g.RequestAt(510 * kMillisecond, 2, /*retransmission=*/true);
  g.sys().env().sim.Run(2 * kSecond);
  for (uint64_t ts : {1, 2}) {
    EXPECT_EQ(g.CommitsOf(ts), g.Each(1)) << "ts " << ts;
  }
  EXPECT_EQ(g.Metric("order.intake_released"), 0u);
  static const std::set<NodeId> kNone;
  Status st = SafetyAuditor::AuditQanaat(g.sys(), true, &kNone);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(IntakeParkingTest, RetransmissionsOfAParkedRequestParkItOnce) {
  GatedPrimary g(23);
  g.RequestAt(20 * kMillisecond, 1);
  g.RequestAt(40 * kMillisecond, 1, /*retransmission=*/true);
  g.RequestAt(60 * kMillisecond, 1, /*retransmission=*/true);
  g.sys().env().sim.Run(GatedPrimary::kPredecessorAt);
  // The original, two direct retransmissions and the backups' relays of
  // them all reached the gated primary; one entry holds them all.
  EXPECT_GE(g.Metric("order.intake_gated"), 3u);
  EXPECT_EQ(g.primary()->parked_requests(), 1u);

  g.sys().env().sim.Run(2 * kSecond);
  EXPECT_EQ(g.Metric("order.intake_released"), 1u);
  EXPECT_EQ(g.CommitsOf(1), g.Each(1));
}

// ------------------------------- finished cross instances retire

/// A fault-free run of two enterprises x two shards (Byzantine PBFT,
/// ordering nodes executing in place) under cross-shard cross-enterprise
/// load in one protocol family, drained: the client stops at 300ms and
/// the run ends at 2s.
class DrainedCrossRun {
 public:
  explicit DrainedCrossRun(ProtocolFamily family)
      : sys_(Options(family)), stub_(&sys_.env()) {
    WorkloadParams wl;
    wl.cross_kind = CrossKind::kCrossShardCrossEnterprise;
    wl.cross_fraction = 1.0;
    sys_.AddClient(wl, 300)->Start(0, 300 * kMillisecond, 0,
                                   300 * kMillisecond);
    sys_.env().sim.Run(2 * kSecond);
  }

  QanaatSystem& sys() { return sys_; }
  ClientStub& stub() { return stub_; }
  uint64_t Metric(const char* name) { return sys_.env().metrics.Get(name); }
  /// The node every test below probes, and a peer in its cluster.
  OrderingNode* node() { return sys_.ordering_node(0, 1); }
  NodeId peer() const { return sys_.directory().Cluster(0).ordering[0]; }
  /// Sends `msg` to node() as if from `from`, then runs past a cross
  /// timeout so anything the message armed fires.
  void Deliver(NodeId from, MessageRef msg) {
    sys_.net().Send(from, node()->id(), std::move(msg));
    sys_.env().sim.Run(sys_.env().sim.now() + kSecond);
  }
  /// The first cross-shard block node() committed, if any.
  const DagLedger::Entry* CrossEntry() {
    const DagLedger& led = node()->exec_core().ledger();
    for (size_t i = 0; i < led.size(); ++i) {
      if (led.entry(i).block->txs.front().shards.size() > 1) {
        return &led.entry(i);
      }
    }
    return nullptr;
  }
  /// The cluster whose ordering nodes signed `cert`.
  int SignerCluster(const CommitCertificate& cert) {
    for (int c = 0; c < sys_.cluster_count(); ++c) {
      if (sys_.directory().Cluster(c).IsOrderingNode(
              cert.sigs.front().signer)) {
        return c;
      }
    }
    return -1;
  }

 private:
  static QanaatSystem::Options Options(ProtocolFamily family) {
    QanaatSystem::Options so;
    so.params.num_enterprises = 2;
    so.params.shards_per_enterprise = 2;
    so.params.failure_model = FailureModel::kByzantine;
    so.params.family = family;
    so.seed = 9;
    return so;
  }

  QanaatSystem sys_;
  ClientStub stub_;
};

TEST(CrossRetireTest, DrainedRunsLeaveNoLiveInstances) {
  for (ProtocolFamily family :
       {ProtocolFamily::kFlattened, ProtocolFamily::kCoordinator}) {
    DrainedCrossRun run(family);
    ASSERT_NE(run.CrossEntry(), nullptr);
    for (int c = 0; c < run.sys().cluster_count(); ++c) {
      const auto& ord = run.sys().directory().Cluster(c).ordering;
      for (int i = 0; i < static_cast<int>(ord.size()); ++i) {
        EXPECT_EQ(run.sys().ordering_node(c, i)->live_cross_instances(), 0u)
            << "family " << static_cast<int>(family) << ", node " << c
            << "/" << i;
      }
    }
    static const std::set<NodeId> kNone;
    Status st = SafetyAuditor::AuditQanaat(run.sys(), true, &kNone);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
}

TEST(CrossRetireTest, LateFlattenedMessagesCreateNoInstance) {
  // A re-driven PROPOSE and a late ACCEPT and COMMIT vote, all genuine,
  // for a block this node finished long ago. Treated as a new instance,
  // they would re-vote, query its outcome and commit the block again.
  DrainedCrossRun run(ProtocolFamily::kFlattened);
  ASSERT_NE(run.CrossEntry(), nullptr);
  // A deque-backed ledger keeps this reference valid while it grows.
  const DagLedger::Entry& e = *run.CrossEntry();
  const Sha256Digest d = e.block->Digest();
  const uint64_t committed = run.node()->committed_blocks();
  KeyStore& ks = run.sys().env().keystore;

  auto prop = std::make_shared<FProposeMsg>();
  prop->initiator_cluster = 0;
  prop->block = e.block;
  prop->block_digest = d;
  prop->sig = ks.Sign(run.peer(), d);
  run.Deliver(run.peer(), prop);
  EXPECT_EQ(run.node()->live_cross_instances(), 0u) << "FPropose";

  auto acc = std::make_shared<FAcceptMsg>();
  acc->from_cluster = 0;
  acc->block_digest = d;
  acc->sig = ks.Sign(run.peer(), FAcceptMsg::Signable(d));
  run.Deliver(run.peer(), acc);
  EXPECT_EQ(run.node()->live_cross_instances(), 0u) << "FAccept";

  auto cm = std::make_shared<FCommitMsg>();
  cm->from_cluster = 0;
  cm->block_digest = d;
  cm->sig = ks.Sign(run.peer(), d);
  cm->assignments.push_back(ShardAssignment{0, e.alpha, e.gamma()});
  run.Deliver(run.peer(), cm);
  EXPECT_EQ(run.node()->live_cross_instances(), 0u) << "FCommit";

  EXPECT_EQ(run.node()->committed_blocks(), committed);
  EXPECT_EQ(run.Metric("cross.bad_propose") + run.Metric("cross.bad_accept") +
                run.Metric("cross.bad_fcommit"),
            0u);
}

TEST(CrossRetireTest, LateCoordinatorMessagesCreateNoInstance) {
  // The coordinator family's counterparts: a re-driven PREPARE, a late
  // PREPARED vote and a late COMMIT for a finished block.
  DrainedCrossRun run(ProtocolFamily::kCoordinator);
  ASSERT_NE(run.CrossEntry(), nullptr);
  // A deque-backed ledger keeps this reference valid while it grows.
  const DagLedger::Entry& e = *run.CrossEntry();
  const Sha256Digest d = e.block->Digest();
  const uint64_t committed = run.node()->committed_blocks();
  // The entry's certificate is the coordinator cluster's: a valid
  // credential for both a PREPARE and a COMMIT of this block.
  const int coord = run.SignerCluster(e.cert);
  ASSERT_GE(coord, 0);
  const NodeId coord_node = run.sys().directory().Cluster(coord).ordering[0];

  auto prep = std::make_shared<XPrepareMsg>();
  prep->coord_cluster = coord;
  prep->block = e.block;
  prep->block_digest = d;
  prep->coord_cert = e.cert;
  run.Deliver(coord_node, prep);
  EXPECT_EQ(run.node()->live_cross_instances(), 0u) << "XPrepare";

  auto pd = std::make_shared<XPreparedMsg>();
  pd->from_cluster = 0;
  pd->block_digest = d;
  pd->sig = run.sys().env().keystore.Sign(run.peer(), d);
  run.Deliver(run.peer(), pd);
  EXPECT_EQ(run.node()->live_cross_instances(), 0u) << "XPrepared";

  auto cm = std::make_shared<XCommitMsg>();
  cm->coord_cluster = coord;
  cm->block = e.block;
  cm->block_digest = d;
  cm->coord_cert = e.cert;
  cm->assignments.push_back(ShardAssignment{0, e.alpha, e.gamma()});
  run.Deliver(coord_node, cm);
  EXPECT_EQ(run.node()->live_cross_instances(), 0u) << "XCommit";

  EXPECT_EQ(run.node()->committed_blocks(), committed);
  EXPECT_EQ(run.Metric("cross.bad_prepare") +
                run.Metric("cross.bad_prepared_sig") +
                run.Metric("cross.bad_commit"),
            0u);
}

TEST(CrossRetireTest, CommitQueryForARetiredInstanceIsAnswered) {
  // §4.3.4: a replica that lost a commit recovers by querying a peer; the
  // peer's answer now comes from the outcome record.
  DrainedCrossRun run(ProtocolFamily::kFlattened);
  ASSERT_NE(run.CrossEntry(), nullptr);
  // A deque-backed ledger keeps this reference valid while it grows.
  const DagLedger::Entry& e = *run.CrossEntry();
  const Sha256Digest d = e.block->Digest();
  const uint64_t answered = run.Metric("cross.query_answered");

  auto q = std::make_shared<QueryMsg>(MsgType::kCommitQuery);
  q->from_cluster = 1;
  q->block_digest = d;
  q->sig = run.sys().env().keystore.Sign(run.stub().id(), d);
  run.Deliver(run.stub().id(), q);

  EXPECT_EQ(run.Metric("cross.query_answered"), answered + 1);
  ASSERT_NE(run.stub().last, nullptr);
  ASSERT_EQ(run.stub().last->type, MsgType::kXCommit);
  const auto& ans = *run.stub().last->As<XCommitMsg>();
  EXPECT_EQ(ans.block_digest, d);
  ASSERT_NE(ans.block, nullptr);
  EXPECT_EQ(ans.block->Digest(), d);
  EXPECT_FALSE(ans.is_abort);
  EXPECT_EQ(ans.coord_cert.block_digest, d);
  EXPECT_EQ(ans.coord_cert.sigs, e.cert.sigs);
  bool has_ours = false;
  for (const ShardAssignment& a : ans.assignments) {
    has_ours |= a.alpha == e.alpha && a.gamma == e.gamma();
  }
  EXPECT_TRUE(has_ours) << "the answer lacks this shard's assignment";
  EXPECT_EQ(ans.assignments.size(), e.block->txs.front().shards.size());
}

TEST(CrossRetireTest, ForgedVotesForAnUnknownDigestAllocateNothing) {
  // Votes are verified before any state is allocated: a forged or
  // misrouted vote for a block nobody proposed would otherwise leave an
  // instance behind that never finishes.
  DrainedCrossRun run(ProtocolFamily::kFlattened);
  const Sha256Digest d = Sha256::Hash(std::string("no such block"));
  KeyStore& ks = run.sys().env().keystore;

  auto forged_acc = std::make_shared<FAcceptMsg>();
  forged_acc->from_cluster = 0;
  forged_acc->block_digest = d;
  forged_acc->sig = ks.Forge(run.peer());
  run.Deliver(run.peer(), forged_acc);

  // Validly signed, but the sender is not in the cluster it claims.
  auto misrouted_acc = std::make_shared<FAcceptMsg>();
  misrouted_acc->from_cluster = 1;
  misrouted_acc->block_digest = d;
  misrouted_acc->sig = ks.Sign(run.peer(), FAcceptMsg::Signable(d));
  run.Deliver(run.peer(), misrouted_acc);

  auto forged_cm = std::make_shared<FCommitMsg>();
  forged_cm->from_cluster = 0;
  forged_cm->block_digest = d;
  forged_cm->sig = ks.Forge(run.peer());
  run.Deliver(run.peer(), forged_cm);

  EXPECT_EQ(run.node()->live_cross_instances(), 0u);
  EXPECT_EQ(run.Metric("cross.bad_accept"), 2u);
  EXPECT_EQ(run.Metric("cross.bad_fcommit"), 1u);
}

// ------------------------------ proposals without a usable block

/// An FPropose that passes every provenance check — sent and signed by a
/// member of the initiator cluster — but carries `block`, which may be
/// missing or empty.
MessageRef SignedFPropose(DrainedCrossRun& run, BlockPtr block,
                          const Sha256Digest& digest) {
  auto prop = std::make_shared<FProposeMsg>();
  prop->initiator_cluster = 0;
  prop->block = std::move(block);
  prop->block_digest = digest;
  prop->sig = run.sys().env().keystore.Sign(run.peer(), digest);
  return prop;
}

TEST(CrossProposalTest, SignedFProposeWithAnEmptyBlockIsRejected) {
  DrainedCrossRun run(ProtocolFamily::kFlattened);
  auto empty = std::make_shared<Block>();
  empty->Seal();
  const uint64_t bad = run.Metric("cross.bad_propose");
  run.Deliver(run.peer(), SignedFPropose(run, empty, empty->Digest()));
  EXPECT_EQ(run.Metric("cross.bad_propose"), bad + 1);
  EXPECT_EQ(run.node()->live_cross_instances(), 0u);
}

TEST(CrossProposalTest, SignedFProposeWithoutABlockIsRejected) {
  DrainedCrossRun run(ProtocolFamily::kFlattened);
  const Sha256Digest d = Sha256::Hash(std::string("no block"));
  const uint64_t bad = run.Metric("cross.bad_propose");
  run.Deliver(run.peer(), SignedFPropose(run, nullptr, d));
  EXPECT_EQ(run.Metric("cross.bad_propose"), bad + 1);
  EXPECT_EQ(run.node()->live_cross_instances(), 0u);
}

TEST(CrossProposalTest, UnsignedXPrepareWithoutABlockIsRejected) {
  // Sent by a client: the certificate names the digest but carries no
  // signature, and the block check must come before any use of it.
  DrainedCrossRun run(ProtocolFamily::kCoordinator);
  const Sha256Digest d = Sha256::Hash(std::string("no block"));
  auto prep = std::make_shared<XPrepareMsg>();
  prep->coord_cluster = 0;
  prep->block_digest = d;
  prep->coord_cert.block_digest = d;
  const uint64_t bad = run.Metric("cross.bad_prepare");
  run.Deliver(run.stub().id(), prep);
  EXPECT_EQ(run.Metric("cross.bad_prepare"), bad + 1);
  EXPECT_EQ(run.node()->live_cross_instances(), 0u);
}

}  // namespace
}  // namespace qanaat
