// Cross-shard conflict resolution (§4.3.5) and pull-based executor state
// transfer: digest-priority arbitration of symmetric rival claims, loser
// re-proposal, and the firewall-routed StateRequest/StateReply path a
// gapped execution node uses to converge. Also intake parking: a primary
// whose committed blocks sit deferred (the routine out-of-order commits of
// cross-shard ordering) holds fresh requests until it catches up. Also the
// cross-instance lifecycle: a finished instance is retired to its outcome
// record, which still answers commit queries and ignores late votes, and
// which defers to the ledger once the ledger records the outcome; slot
// claims the ledger has decided go at the dedup sweep. Also
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

TEST(ExecutorPullTest, WatchdogArmedAtACrashArmsAgainAfterRecovery) {
  // Each silence window costs one executor the ExecOrder pushes of 30 ms,
  // so later blocks wait on a missing predecessor and the pull watchdog
  // arms. The first window's watchdog is armed when the executor
  // crashes, and its timer dies with the crash. The flag must die too:
  // otherwise the watchdog never arms again, and the second window's gap
  // stays open for the rest of the run.
  QanaatSystem::Options opts;
  opts.params = FirewallParams();
  opts.seed = 7;
  QanaatSystem sys(std::move(opts));

  WorkloadParams wl;
  wl.cross_fraction = 0.0;
  sys.AddClient(wl, 300)->Start(0, 1800 * kMillisecond, 0,
                                1800 * kMillisecond);

  ExecutionNode* victim = sys.execution_node(0, 2);
  const std::vector<NodeId>& top =
      sys.directory().Cluster(0).filter_rows.back();
  Network::LinkFault silence;
  silence.silence_mask = Network::LinkFault::TypeBit(MsgType::kExecOrder);
  auto& sim = sys.env().sim;
  for (SimTime from : {200 * kMillisecond, 900 * kMillisecond}) {
    sim.ScheduleAt(from, [&sys, &top, victim, silence]() {
      for (NodeId f : top) sys.net().SetLinkFault(f, victim->id(), silence);
    });
    sim.ScheduleAt(from + 30 * kMillisecond, [&sys, &top, victim]() {
      for (NodeId f : top) sys.net().ClearLinkFaultBetween(f, victim->id());
    });
  }
  sim.ScheduleAt(260 * kMillisecond, [victim]() { victim->Crash(); });
  sim.ScheduleAt(600 * kMillisecond, [victim]() { victim->Recover(); });
  sim.Run(3 * kSecond);

  EXPECT_EQ(sys.env().metrics.Get("exec.pull_wedged"), 1u);
  EXPECT_EQ(victim->core().pending_blocks(), 0u);
  static const std::set<NodeId> kNone;
  Status st = SafetyAuditor::AuditQanaat(sys, true, &kNone);
  EXPECT_TRUE(st.ok()) << st.ToString();
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
/// the run ends at 2s. The second form runs other parameters and load.
class DrainedCrossRun {
 public:
  explicit DrainedCrossRun(ProtocolFamily family)
      : DrainedCrossRun(Params(family),
                        CrossKind::kCrossShardCrossEnterprise) {}
  DrainedCrossRun(const SystemParams& params, CrossKind kind)
      : sys_(Options(params)), stub_(&sys_.env()) {
    WorkloadParams wl;
    wl.cross_kind = kind;
    wl.cross_fraction = 1.0;
    sys_.AddClient(wl, 300)->Start(0, 300 * kMillisecond, 0,
                                   300 * kMillisecond);
    sys_.env().sim.Run(2 * kSecond);
  }

  QanaatSystem& sys() { return sys_; }
  ClientStub& stub() { return stub_; }
  uint64_t Metric(const char* name) { return sys_.env().metrics.Get(name); }
  /// The node most tests below probe, and a peer in its cluster.
  OrderingNode* node() { return sys_.ordering_node(0, 1); }
  NodeId peer() const { return sys_.directory().Cluster(0).ordering[0]; }
  /// Sends `msg` to `to` (node() by default) as if from `from`, then runs
  /// past a cross timeout so anything the message armed fires.
  void Deliver(NodeId from, MessageRef msg, const Actor* to = nullptr) {
    sys_.net().Send(from, (to != nullptr ? to : node())->id(),
                    std::move(msg));
    sys_.env().sim.Run(sys_.env().sim.now() + kSecond);
  }
  /// The first cross-shard block node() committed, if any.
  const DagLedger::Entry* CrossEntry() {
    return CrossEntryOf(node()->exec_core().ledger());
  }
  /// The first cross-cluster block in `led`, if any.
  static const DagLedger::Entry* CrossEntryOf(const DagLedger& led) {
    for (size_t i = 0; i < led.size(); ++i) {
      const Transaction& probe = led.entry(i).block->txs.front();
      if (probe.shards.size() > 1 || probe.collection.members.size() > 1) {
        return &led.entry(i);
      }
    }
    return nullptr;
  }
  /// The entry of block `d` in `led`; null if it has none.
  static const DagLedger::Entry* EntryOf(const DagLedger& led,
                                         const Sha256Digest& d) {
    for (size_t i = 0; i < led.size(); ++i) {
      if (led.entry(i).block->Digest() == d) return &led.entry(i);
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
  /// The assignment of `entry`'s cluster for its shard. With designated
  /// coordinators one cluster assigns each shard in both families: the
  /// one of the shard's designated enterprise.
  ShardAssignment AssignmentOf(const DagLedger::Entry& entry) const {
    const Directory& dir = sys_.directory();
    const LocalPart& alpha = entry.alpha;
    int assigner = dir.ClusterIdOf(
        dir.CoordinatorEnterpriseOf(alpha.collection, alpha.shard),
        alpha.shard);
    return ShardAssignment{assigner, alpha, entry.gamma()};
  }
  /// Calls fn on every ordering node, labelled for failure messages.
  template <class Fn>
  void ForEachOrderingNode(Fn fn) {
    for (int c = 0; c < sys_.cluster_count(); ++c) {
      const auto& ord = sys_.directory().Cluster(c).ordering;
      for (int i = 0; i < static_cast<int>(ord.size()); ++i) {
        fn(sys_.ordering_node(c, i),
           "node " + std::to_string(c) + "/" + std::to_string(i));
      }
    }
  }
  /// Runs the dedup sweep at every ordering node: a local request to each
  /// cluster's primary is swept in at intake, and its pre-prepare at
  /// every backup. The drained run is quiet, so the sweep's period has
  /// passed everywhere.
  void SweepEveryNode() {
    for (int c = 0; c < sys_.cluster_count(); ++c) {
      const ClusterConfig& cc = sys_.directory().Cluster(c);
      auto req = std::make_shared<RequestMsg>();
      req->tx.client = stub_.id();
      req->tx.client_ts = static_cast<uint64_t>(c) + 1;
      req->tx.collection = CollectionId(EnterpriseSet{cc.enterprise});
      req->tx.shards = {cc.shard};
      req->tx.initiator = cc.enterprise;
      req->tx.ops.push_back(TxOp{TxOp::Kind::kAdd, 1, 5, {}});
      req->tx.client_sig =
          sys_.env().keystore.Sign(stub_.id(), req->tx.Digest());
      sys_.net().Send(stub_.id(), cc.InitialPrimary(), req);
    }
    sys_.env().sim.Run(sys_.env().sim.now() + kSecond);
  }
  /// A rival to `winner` for each of its slots: the same ID and
  /// transactions under a new attempt number, so a new digest.
  static BlockPtr RivalOf(const Block& winner) {
    auto rival = std::make_shared<Block>(winner);
    rival->attempt = winner.attempt + 1;
    rival->Seal();
    return rival;
  }
  /// A certificate over `d` in the direct form, signed by a quorum of
  /// cluster `c`'s ordering nodes.
  CommitCertificate ClusterCert(int c, const Sha256Digest& d) {
    CommitCertificate cert;
    cert.block_digest = d;
    cert.direct = true;
    const auto& ord = sys_.directory().Cluster(c).ordering;
    for (size_t i = 0; i < sys_.directory().params.CertQuorum(); ++i) {
      cert.sigs.push_back(sys_.env().keystore.Sign(ord[i], d));
    }
    return cert;
  }
  /// Silences `types` on every link from `from` to an ordering node;
  /// the network's silenced() count then tells whether it sent any.
  void SilenceFrom(const Actor* from, std::initializer_list<MsgType> types) {
    Network::LinkFault silence;
    for (MsgType t : types) {
      silence.silence_mask |= Network::LinkFault::TypeBit(t);
    }
    ForEachOrderingNode([&](OrderingNode* n, const std::string&) {
      if (n != from) sys_.net().SetLinkFault(from->id(), n->id(), silence);
    });
  }

 private:
  static SystemParams Params(ProtocolFamily family) {
    SystemParams p;
    p.num_enterprises = 2;
    p.shards_per_enterprise = 2;
    p.failure_model = FailureModel::kByzantine;
    p.family = family;
    return p;
  }
  static QanaatSystem::Options Options(const SystemParams& params) {
    QanaatSystem::Options so;
    so.params = params;
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
    run.ForEachOrderingNode([&](OrderingNode* n, const std::string& label) {
      EXPECT_EQ(n->live_cross_instances(), 0u)
          << "family " << static_cast<int>(family) << ", " << label;
    });
    static const std::set<NodeId> kNone;
    Status st = SafetyAuditor::AuditQanaat(run.sys(), true, &kNone);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
}

TEST(CrossRetireTest, DrainedRunsDeferToTheLedger) {
  // Every instance a node committed and executed keeps only what the
  // ledger lacks, and once the sweep has run no slot claim outlives the
  // ledger's decision on its slot.
  for (ProtocolFamily family :
       {ProtocolFamily::kFlattened, ProtocolFamily::kCoordinator}) {
    DrainedCrossRun run(family);
    ASSERT_NE(run.CrossEntry(), nullptr);
    run.SweepEveryNode();
    run.ForEachOrderingNode([&](OrderingNode* n, const std::string& label) {
      std::string where =
          "family " + std::to_string(static_cast<int>(family)) + ", " + label;
      EXPECT_GT(n->compact_outcomes(), 0u) << where;
      EXPECT_EQ(n->ledger_recorded_full_outcomes(), 0u) << where;
      EXPECT_EQ(n->decided_slot_claims(), 0u) << where;
    });
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

/// Sends a commit query for `d` from the stub to `to` and returns the
/// answer; null if none came.
const XCommitMsg* QueryOutcome(DrainedCrossRun& run, const Actor* to,
                               const Sha256Digest& d) {
  run.stub().last = nullptr;
  auto q = std::make_shared<QueryMsg>(MsgType::kCommitQuery);
  q->from_cluster = 1;
  q->block_digest = d;
  q->sig = run.sys().env().keystore.Sign(run.stub().id(), d);
  run.Deliver(run.stub().id(), q, to);
  const MessageRef& last = run.stub().last;
  if (last == nullptr || (last->type != MsgType::kXCommit &&
                          last->type != MsgType::kXAbort)) {
    return nullptr;
  }
  return last->As<XCommitMsg>();
}

/// An answer states outcome `cert` of block `d`, signature for
/// signature, with its assignments in ascending shard order, this
/// shard's `ours` among them.
void ExpectAnswer(const XCommitMsg& ans, const Sha256Digest& d,
                  const CommitCertificate& cert, bool is_abort,
                  const ShardAssignment& ours) {
  EXPECT_EQ(ans.block_digest, d);
  ASSERT_NE(ans.block, nullptr);
  EXPECT_EQ(ans.block->Digest(), d);
  EXPECT_EQ(ans.is_abort, is_abort);
  EXPECT_EQ(ans.type, is_abort ? MsgType::kXAbort : MsgType::kXCommit);
  EXPECT_TRUE(ans.coord_cert == cert);
  EXPECT_EQ(ans.coord_cert.sigs, cert.sigs);
  for (size_t i = 1; i < ans.assignments.size(); ++i) {
    EXPECT_LT(ans.assignments[i - 1].alpha.shard,
              ans.assignments[i].alpha.shard);
  }
  EXPECT_NE(std::find(ans.assignments.begin(), ans.assignments.end(), ours),
            ans.assignments.end())
      << "the answer lacks this shard's assignment";
}

TEST(CrossRetireTest, CommitQueryForARetiredInstanceIsAnswered) {
  // §4.3.4: a replica that lost a commit recovers by querying a peer; the
  // peer's answer now comes from the outcome record. Here the record is
  // compact, and the ledger entry supplies the answer's block,
  // certificate and this shard's assignment.
  for (ProtocolFamily family :
       {ProtocolFamily::kFlattened, ProtocolFamily::kCoordinator}) {
    DrainedCrossRun run(family);
    ASSERT_NE(run.CrossEntry(), nullptr);
    ASSERT_EQ(run.node()->ledger_recorded_full_outcomes(), 0u);
    // A deque-backed ledger keeps this reference valid while it grows.
    const DagLedger::Entry& e = *run.CrossEntry();
    const Sha256Digest d = e.block->Digest();
    const uint64_t answered = run.Metric("cross.query_answered");

    const XCommitMsg* ans = QueryOutcome(run, run.node(), d);
    ASSERT_NE(ans, nullptr) << "family " << static_cast<int>(family);
    EXPECT_EQ(run.Metric("cross.query_answered"), answered + 1);
    ExpectAnswer(*ans, d, e.cert, /*is_abort=*/false, run.AssignmentOf(e));
    EXPECT_EQ(ans->assignments.size(), e.block->txs.front().shards.size());
  }
}

TEST(CrossRetireTest, CommitQueryForAnAbortedInstanceIsAnswered) {
  // An aborted instance keeps its record in full: no ledger records it.
  // A validator of the coordinator's shard receives a genuine PREPARE
  // for a fresh block on the next height of its chain, then the
  // coordinator cluster's ABORT of it.
  DrainedCrossRun run(ProtocolFamily::kCoordinator);
  const Directory& dir = run.sys().directory();
  const CollectionId shared(EnterpriseSet{0, 1});
  const int coord = dir.ClusterIdOf(dir.CoordinatorEnterpriseOf(shared, 0), 0);
  const int other = dir.ClusterIdOf(1 - dir.Cluster(coord).enterprise, 0);
  OrderingNode* validator = run.sys().ordering_node(other, 1);
  const NodeId coord_node = dir.Cluster(coord).ordering[0];
  const uint64_t aborted = validator->aborted_blocks();

  auto block = std::make_shared<Block>();
  block->id.alpha = {shared, 0,
                     validator->exec_core().ledger().HeadOf({shared, 0}) + 1};
  Transaction tx;
  tx.client = run.stub().id();
  tx.client_ts = 1;
  tx.collection = shared;
  tx.shards = {0};
  tx.ops.push_back(TxOp{TxOp::Kind::kAdd, 1, 5, {}});
  tx.client_sig = run.sys().env().keystore.Sign(run.stub().id(), tx.Digest());
  block->txs.push_back(tx);
  block->Seal();
  const Sha256Digest d = block->Digest();

  auto prep = std::make_shared<XPrepareMsg>();
  prep->coord_cluster = coord;
  prep->block = block;
  prep->block_digest = d;
  prep->coord_cert = run.ClusterCert(coord, d);
  run.Deliver(coord_node, prep, validator);

  const ShardAssignment ours{coord, block->id.alpha, block->id.gamma};
  auto abort = std::make_shared<XCommitMsg>();
  abort->type = MsgType::kXAbort;
  abort->coord_cluster = coord;
  abort->block = block;
  abort->block_digest = d;
  abort->coord_cert = run.ClusterCert(coord, d);
  abort->assignments = {ours};
  abort->is_abort = true;
  run.Deliver(coord_node, abort, validator);
  ASSERT_EQ(validator->aborted_blocks(), aborted + 1);
  ASSERT_EQ(validator->live_cross_instances(), 0u);

  const XCommitMsg* ans = QueryOutcome(run, validator, d);
  ASSERT_NE(ans, nullptr);
  ExpectAnswer(*ans, d, abort->coord_cert, /*is_abort=*/true, ours);
  EXPECT_EQ(ans->assignments.size(), 1u);
  static const std::set<NodeId> kNone;
  Status st = SafetyAuditor::AuditQanaat(run.sys(), true, &kNone);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(CrossRetireTest, CommitQueryBehindTheFirewallIsAnswered) {
  // Behind the firewall an ordering node keeps no ledger, so every record
  // stays in full; the execution nodes' ledgers hold the certificate the
  // primary pushed through the firewall.
  for (ProtocolFamily family :
       {ProtocolFamily::kFlattened, ProtocolFamily::kCoordinator}) {
    SystemParams params = FirewallParams();
    params.family = family;
    DrainedCrossRun run(params, CrossKind::kIntraShardCrossEnterprise);
    OrderingNode* primary = run.sys().ordering_node(0, 0);
    EXPECT_EQ(primary->compact_outcomes(), 0u);
    const DagLedger& led = run.sys().execution_node(0, 0)->core().ledger();
    ASSERT_NE(DrainedCrossRun::CrossEntryOf(led), nullptr);
    const DagLedger::Entry& e = *DrainedCrossRun::CrossEntryOf(led);
    const Sha256Digest d = e.block->Digest();

    const XCommitMsg* ans = QueryOutcome(run, primary, d);
    ASSERT_NE(ans, nullptr) << "family " << static_cast<int>(family);
    ExpectAnswer(*ans, d, e.cert, /*is_abort=*/false, run.AssignmentOf(e));
  }
}

TEST(CrossRetireTest, RivalClaimAfterTheSweepGetsNoVote) {
  // Once the sweep has dropped a decided slot's claims, nothing records
  // which block won the slot but the ledger. A genuine rival proposal for
  // the slot must still get no vote: the claim paths refuse a slot at or
  // below the executed head as stale.
  {
    DrainedCrossRun run(ProtocolFamily::kFlattened);
    ASSERT_NE(run.CrossEntry(), nullptr);
    run.SweepEveryNode();
    ASSERT_EQ(run.node()->decided_slot_claims(), 0u);
    const DagLedger::Entry& e = *run.CrossEntry();
    BlockPtr rival = DrainedCrossRun::RivalOf(*e.block);
    const Sha256Digest d = rival->Digest();
    KeyStore& ks = run.sys().env().keystore;
    const int initiator = run.AssignmentOf(e).cluster;
    ASSERT_EQ(e.alpha, e.block->id.alpha) << "node() is not the initiator's";

    run.SilenceFrom(run.node(), {MsgType::kFAccept, MsgType::kFCommit});
    const uint64_t silenced = run.sys().net().silenced();
    const uint64_t refused =
        run.Metric("cross.stale_accept") + run.Metric("cross.conflict_nack");
    auto prop = std::make_shared<FProposeMsg>();
    prop->initiator_cluster = initiator;
    prop->block = rival;
    prop->block_digest = d;
    const NodeId proposer =
        run.sys().directory().Cluster(initiator).ordering[0];
    prop->sig = ks.Sign(proposer, d);
    run.Deliver(proposer, prop);
    // The other shard's assigner announces the winner's assignment for
    // the rival too, so the node knows every assignment and reaches its
    // slot check.
    const Directory& dir = run.sys().directory();
    for (ShardId s : e.block->txs.front().shards) {
      if (s == e.alpha.shard) continue;
      const OrderingNode* holder =
          run.sys().ordering_node(dir.ClusterIdOf(0, s), 0);
      const DagLedger& led = holder->exec_core().ledger();
      const DagLedger::Entry* there =
          DrainedCrossRun::EntryOf(led, e.block->Digest());
      ASSERT_NE(there, nullptr);
      const ShardAssignment a = run.AssignmentOf(*there);
      auto acc = std::make_shared<FAcceptMsg>();
      acc->from_cluster = a.cluster;
      acc->block_digest = d;
      acc->has_assignment = true;
      acc->assignment = a;
      const NodeId assigner = dir.Cluster(a.cluster).ordering[0];
      acc->sig = ks.Sign(assigner, FAcceptMsg::Signable(d));
      run.Deliver(assigner, acc);
    }
    EXPECT_EQ(run.Metric("cross.stale_accept") +
                  run.Metric("cross.conflict_nack"),
              refused + 1);
    EXPECT_EQ(run.sys().net().silenced(), silenced) << "a vote went out";
    static const std::set<NodeId> kNone;
    Status st = SafetyAuditor::AuditQanaat(run.sys(), true, &kNone);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  {
    DrainedCrossRun run(ProtocolFamily::kCoordinator);
    ASSERT_NE(run.CrossEntry(), nullptr);
    run.SweepEveryNode();
    const DagLedger::Entry& e = *run.CrossEntry();
    const int coord = run.SignerCluster(e.cert);
    ASSERT_GE(coord, 0);
    // The validator: the other enterprise's cluster of the coordinator's
    // shard, which endorsed the winner's slot.
    const Directory& dir = run.sys().directory();
    const int other = dir.ClusterIdOf(1 - dir.Cluster(coord).enterprise,
                                      dir.Cluster(coord).shard);
    OrderingNode* validator = run.sys().ordering_node(other, 1);
    ASSERT_EQ(validator->decided_slot_claims(), 0u);
    BlockPtr rival = DrainedCrossRun::RivalOf(*e.block);
    const Sha256Digest d = rival->Digest();

    // The only message a refusal sends is its abort vote.
    run.SilenceFrom(validator, {MsgType::kXPrepared});
    const uint64_t silenced = run.sys().net().silenced();
    const uint64_t refused = run.Metric("cross.stale_prepare") +
                             run.Metric("cross.conflict_stale") +
                             run.Metric("cross.conflict_nack");
    auto prep = std::make_shared<XPrepareMsg>();
    prep->coord_cluster = coord;
    prep->block = rival;
    prep->block_digest = d;
    prep->coord_cert = run.ClusterCert(coord, d);
    run.Deliver(dir.Cluster(coord).ordering[0], prep, validator);
    EXPECT_EQ(run.Metric("cross.stale_prepare") +
                  run.Metric("cross.conflict_stale") +
                  run.Metric("cross.conflict_nack"),
              refused + 1);
    EXPECT_EQ(run.sys().net().silenced(), silenced + 1);
    static const std::set<NodeId> kNone;
    Status st = SafetyAuditor::AuditQanaat(run.sys(), true, &kNone);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
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
