// Targeted checkpoint + state-transfer tests: the recovery subsystem's
// contract, piece by piece — certified checkpoints garbage-collect only
// once stable, tampered certificates are rejected, recovered replicas
// converge to byte-identical state on every stack, state transfer is
// served by non-primary peers, the one state-transfer server chunks its
// replies as both catch-up paths expect, and Fabric peers catch up
// across lossy block delivery. The random chaos corpus (chaos_test.cc)
// exercises the same machinery under arbitrary schedules; these tests pin
// down each mechanism in isolation.

#include <gtest/gtest.h>

#include <numeric>

#include "consensus/paxos.h"
#include "consensus/pbft.h"
#include "harness/chaos.h"
#include "protocols/cross_messages.h"
#include "protocols/wire.h"
#include "sim/faults.h"

namespace qanaat {
namespace {

// ----------------------------------------------------- engine-level GC

/// Minimal engine host (consensus_test.cc pattern) with a checkpoint
/// interval and an optional checkpoint-vote filter, so a test can starve
/// one replica of the quorum that would make its checkpoint stable.
class CkptHost : public Actor {
 public:
  CkptHost(Env* env, int index) : Actor(env, "ckpt-host"), index_(index) {}

  void Init(const std::vector<NodeId>& cluster, bool byzantine_engine,
            int f, size_t checkpoint_interval) {
    EngineContext ctx;
    ctx.env = env();
    ctx.self = id();
    ctx.cluster = cluster;
    ctx.self_index = index_;
    ctx.checkpoint_interval = checkpoint_interval;
    ctx.send = [this](NodeId to, MessageRef m) { Send(to, std::move(m)); };
    ctx.broadcast = [this, cluster](MessageRef m) {
      for (NodeId p : cluster) {
        if (p != id()) Send(p, m);
      }
    };
    ctx.start_timer = [this](SimTime d, uint64_t tag, uint64_t payload) {
      StartTimer(d, tag, payload);
    };
    ctx.deliver = [this](uint64_t slot, const ConsensusValue& v) {
      delivered.emplace_back(slot, v.block_digest);
    };
    if (byzantine_engine) {
      engine = std::make_unique<PbftEngine>(std::move(ctx), f, 20000);
    } else {
      engine = std::make_unique<PaxosEngine>(std::move(ctx), f, 20000);
    }
  }

  void OnMessage(NodeId from, const MessageRef& msg) override {
    if (drop_checkpoint_votes && msg->type == MsgType::kCheckpoint) return;
    engine->OnMessage(from, msg);
  }
  void OnTimer(uint64_t tag, uint64_t payload) override {
    engine->OnTimer(tag, payload);
  }

  std::unique_ptr<InternalConsensus> engine;
  std::vector<std::pair<uint64_t, Sha256Digest>> delivered;
  bool drop_checkpoint_votes = false;

 private:
  int index_;
};

struct CkptFixture {
  CkptFixture(bool byz, int n, int f, size_t interval) : env(11), net(&env) {
    for (int i = 0; i < n; ++i) {
      hosts.push_back(std::make_unique<CkptHost>(&env, i));
    }
    std::vector<NodeId> ids;
    for (auto& h : hosts) ids.push_back(h->id());
    for (auto& h : hosts) h->Init(ids, byz, f, interval);
  }

  ConsensusValue MakeValue(uint64_t tag) {
    ConsensusValue v;
    v.kind = ConsensusValue::Kind::kBlock;
    auto b = std::make_shared<Block>();
    b->id.alpha = {CollectionId(EnterpriseSet{0}), 0, ++seq};
    b->txs.push_back(Transaction{});
    b->txs.back().client_ts = tag;
    b->Seal();
    v.block = b;
    v.block_digest = b->Digest();
    return v;
  }

  Env env;
  Network net;
  std::vector<std::unique_ptr<CkptHost>> hosts;
  SeqNo seq = 0;
};

TEST(CheckpointTest, GcNeverDiscardsSlotsBelowUnstableCheckpoint) {
  // Host 0 drops every incoming CHECKPOINT vote: its own checkpoints are
  // proposed but can never gather a quorum. Unstable checkpoints must
  // not garbage-collect — otherwise a replica could discard slot state
  // (and its ability to serve fills) on its own unconfirmed say-so.
  CkptFixture fx(/*byz=*/true, 4, 1, /*interval=*/4);
  fx.hosts[0]->drop_checkpoint_votes = true;
  for (int i = 0; i < 10; ++i) {
    fx.hosts[0]->engine->Propose(fx.MakeValue(100 + i));
    fx.env.sim.Run(fx.env.sim.now() + 50000);
  }
  ASSERT_GE(fx.hosts[0]->delivered.size(), 8u);

  // Peers received all votes: stable at a boundary, slots below GC'd.
  const InternalConsensus& peer = *fx.hosts[1]->engine;
  EXPECT_GE(peer.stable_checkpoint().slot, 4u);
  EXPECT_EQ(peer.gc_floor(), peer.stable_checkpoint().slot);
  EXPECT_FALSE(peer.HasSlotState(1));

  // The starved host proposed the same checkpoints but none went stable:
  // every slot must still be retained.
  InternalConsensus& starved = *fx.hosts[0]->engine;
  EXPECT_TRUE(starved.stable_checkpoint().empty());
  EXPECT_EQ(starved.gc_floor(), 0u);
  EXPECT_TRUE(starved.HasSlotState(1));
  EXPECT_TRUE(starved.HasSlotState(4));

  // Handing it a peer's certificate (the carried-cert path a fill
  // request below the GC floor triggers) makes it stable and GCs.
  EXPECT_TRUE(starved.InstallCheckpoint(peer.stable_checkpoint()));
  EXPECT_EQ(starved.gc_floor(), peer.stable_checkpoint().slot);
  EXPECT_FALSE(starved.HasSlotState(1));
}

TEST(CheckpointTest, TamperedCertificateRejected) {
  CkptFixture fx(/*byz=*/true, 4, 1, /*interval=*/4);
  for (int i = 0; i < 6; ++i) {
    fx.hosts[0]->engine->Propose(fx.MakeValue(200 + i));
    fx.env.sim.Run(fx.env.sim.now() + 50000);
  }
  const CheckpointCertificate& good =
      fx.hosts[1]->engine->stable_checkpoint();
  ASSERT_FALSE(good.empty());
  ASSERT_TRUE(good.Valid(fx.env.keystore, 3));

  // Flipped history digest: every signature now covers the wrong bytes.
  CheckpointCertificate bad_digest = good;
  bad_digest.digest.bytes[0] ^= 0xff;
  bad_digest.slot += 4;  // claim a further frontier
  EXPECT_FALSE(bad_digest.Valid(fx.env.keystore, 3));
  EXPECT_FALSE(fx.hosts[3]->engine->InstallCheckpoint(bad_digest));

  // Forged signature inside an otherwise-correct certificate.
  CheckpointCertificate bad_sig = good;
  bad_sig.sigs[0].tag_lo ^= 1;
  EXPECT_FALSE(fx.hosts[3]->engine->InstallCheckpoint(bad_sig));

  // Too few distinct signers (duplicated entries must not count twice).
  CheckpointCertificate thin = good;
  thin.sigs.resize(1);
  thin.sigs.push_back(thin.sigs[0]);
  thin.sigs.push_back(thin.sigs[0]);
  EXPECT_FALSE(fx.hosts[3]->engine->InstallCheckpoint(thin));

  // The untampered certificate installs fine.
  EXPECT_TRUE(fx.hosts[3]->engine->InstallCheckpoint(good));
  EXPECT_EQ(fx.env.metrics.Get("ckpt.invalid_cert"), 3u);
}

// ----------------------------------------- recovered-replica convergence

struct RecoverySystem {
  explicit RecoverySystem(FailureModel fm, uint64_t seed = 21) {
    QanaatSystem::Options so;
    so.params.num_enterprises = 2;
    so.params.shards_per_enterprise = 1;
    so.params.failure_model = fm;
    so.params.family = ProtocolFamily::kFlattened;
    so.params.checkpoint_interval = 8;  // small: checkpoints + GC bite
    so.seed = seed;
    sys = std::make_unique<QanaatSystem>(std::move(so));
    sys->net().set_record_delivered_links(true);
    WorkloadParams wl;
    wl.cross_kind = CrossKind::kIntraShardCrossEnterprise;
    wl.cross_fraction = 0.3;
    client = sys->AddClient(wl, 400.0);
    client->SetRetransmitTimeout(250 * kMillisecond);
    client->Start(0, 1200 * kMillisecond, 0, 1800 * kMillisecond);
  }

  std::unique_ptr<QanaatSystem> sys;
  ClientMachine* client = nullptr;
};

void RunCrashRecoverConvergence(FailureModel fm) {
  RecoverySystem rs(fm);
  // One backup per cluster crashes mid-run and recovers under load: each
  // misses internal AND cross-cluster commits (the latter are never
  // retransmitted once the instance completes everywhere).
  FaultPlan plan;
  for (int c = 0; c < rs.sys->cluster_count(); ++c) {
    const ClusterConfig& cc = rs.sys->directory().Cluster(c);
    plan.CrashWindow(300 * kMillisecond, 700 * kMillisecond,
                     cc.ordering[1]);
  }
  plan.Sort();
  FaultInjector injector(&rs.sys->env(), &rs.sys->net());
  injector.Install(std::move(plan));
  rs.sys->env().sim.Run(1800 * kMillisecond);

  // Full audit with NO exclusions: the recovered replicas end with
  // chains and multi-versioned stores byte-identical to their peers'.
  static const std::set<NodeId> kNone;
  Status st = SafetyAuditor::AuditQanaat(*rs.sys, /*full=*/true, &kNone);
  EXPECT_TRUE(st.ok()) << st.ToString();
  // ...and state transfer is what got them there.
  EXPECT_GT(rs.sys->env().metrics.Get("order.state_block_installed"), 0u);
  EXPECT_GT(rs.sys->env().metrics.Get("ckpt.stable"), 0u);
}

TEST(StateTransferTest, RecoveredReplicaConvergesPbft) {
  RunCrashRecoverConvergence(FailureModel::kByzantine);
}

TEST(StateTransferTest, RecoveredReplicaConvergesPaxos) {
  RunCrashRecoverConvergence(FailureModel::kCrash);
}

TEST(StateTransferTest, FabricPeerCatchesUpAcrossLossyDelivery) {
  FabricConfig fc;
  fc.enterprises = 3;
  fc.seed = 9;
  FabricSystem sys(fc);
  WorkloadParams wl;
  wl.cross_kind = CrossKind::kIntraShardCrossEnterprise;
  wl.cross_fraction = 0.2;
  FabricClient* c = sys.AddClient(wl, 400.0);
  c->Start(0, 1200 * kMillisecond, 0, 1800 * kMillisecond);

  // Sever block delivery to peer 0 completely for 400ms: every ordered
  // block in the window is lost on that link, the exact pattern that
  // wedged a peer forever before catch-up existed.
  FaultPlan plan;
  Network::LinkFault f;
  f.drop = 1.0;
  plan.LinkFaultWindow(200 * kMillisecond, 600 * kMillisecond,
                       sys.leader_id(), sys.peer(0)->id(), f);
  plan.Sort();
  FaultInjector injector(&sys.env(), &sys.net());
  injector.Install(std::move(plan));
  sys.env().sim.Run(1800 * kMillisecond);

  EXPECT_TRUE(SafetyAuditor::AuditFabric(sys).ok());
  uint64_t head = sys.peers().front()->next_block_to_apply();
  EXPECT_GT(head, 1u);
  for (const auto& p : sys.peers()) {
    EXPECT_EQ(p->next_block_to_apply(), head) << "peer did not converge";
  }
  EXPECT_GT(sys.env().metrics.Get("fabric.blocks_refetched"), 0u);
}

TEST(StateTransferTest, ServedEntirelyByNonPrimaryPeers) {
  RecoverySystem rs(FailureModel::kByzantine, /*seed=*/33);
  // Crash ordering[2] at 300ms; while it is down the other three nodes
  // advance stable checkpoints past its frontier and garbage-collect
  // (interval 8), so per-slot fills cannot serve its gap. At 500ms the
  // initial primary dies for good (view change hands leadership to
  // ordering[1]). When ordering[2] recovers at 900ms its round-robin
  // state sync starts at ordering[3] — a backup — and the dead node 0
  // can never serve; convergence therefore proves non-primary peers
  // carry the whole transfer.
  const ClusterConfig& cc = rs.sys->directory().Cluster(0);
  FaultPlan plan;
  plan.CrashWindow(300 * kMillisecond, 900 * kMillisecond, cc.ordering[2]);
  FaultAction kill;
  kill.kind = FaultAction::Kind::kCrash;
  kill.a = cc.ordering[0];
  plan.Add(500 * kMillisecond, kill);
  plan.Sort();
  FaultInjector injector(&rs.sys->env(), &rs.sys->net());
  injector.Install(std::move(plan));
  rs.sys->env().sim.Run(1800 * kMillisecond);

  // The permanently-dead initial primary is legitimately excluded; the
  // recovered ordering[2] is not.
  std::set<NodeId> dead = {cc.ordering[0]};
  Status st = SafetyAuditor::AuditQanaat(*rs.sys, /*full=*/true, &dead);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(rs.sys->env().metrics.Get("order.state_block_installed"), 0u);
  EXPECT_GT(rs.client->accepted(), 100u);
}

// ------------------------------------------ state-reply chunking policy

/// An executor core holding two chains of shard 0 — the enterprise-local
/// collection and the shared root — for driving the one state-transfer
/// server (BuildStateReply) directly. Every block carries one transaction
/// and a single-signature certificate.
struct ReplyFixture {
  ReplyFixture() : env(5), model(2), core(&env, &model, 0, 0) {
    EXPECT_TRUE(model.AddWorkflow(EnterpriseSet::All(2)).ok());
  }

  /// Submits block `n` of chain `c`: it commits, or waits behind a gap.
  void Commit(const CollectionId& c, SeqNo n) {
    auto b = std::make_shared<Block>();
    b->id.alpha = {c, 0, n};
    Transaction tx;
    tx.collection = c;
    tx.shards = {0};
    tx.client_ts = n;
    tx.ops.push_back(TxOp{TxOp::Kind::kWrite, 1, static_cast<int64_t>(n), {}});
    b->txs.push_back(tx);
    b->Seal();
    CommitCertificate cert;
    cert.block_digest = b->Digest();
    cert.direct = true;
    cert.sigs.push_back(env.keystore.Sign(0, cert.block_digest));
    ASSERT_TRUE(core.Submit(b, cert, b->id.alpha, {}, nullptr).ok());
  }
  void CommitChain(const CollectionId& c, SeqNo len) {
    for (SeqNo n = 1; n <= len; ++n) Commit(c, n);
  }

  Env env;
  DataModel model;
  ExecutorCore core;
  CollectionId local{EnterpriseSet::Single(0)};
  CollectionId root{EnterpriseSet::All(2)};
};

std::vector<SeqNo> ServedHeights(const StateReplyMsg& rep,
                                 const CollectionId& c) {
  std::vector<SeqNo> out;
  for (const auto& e : rep.entries) {
    if (e.alpha.collection == c) out.push_back(e.alpha.n);
  }
  return out;
}

TEST(StateReplyTest, RoundRobinAcrossChainsUpToTheCap) {
  ReplyFixture fx;
  fx.CommitChain(fx.local, 300);
  fx.CommitChain(fx.root, 3);
  StateRequestMsg req;  // a requester holding nothing
  auto rep = BuildStateReply(fx.core, req, nullptr);
  ASSERT_NE(rep, nullptr);
  ASSERT_EQ(rep->entries.size(), 256u);
  // The short chain is served in full, inside the first three rounds,
  // next to the long one; the long chain fills the rest of the cap.
  EXPECT_EQ(ServedHeights(*rep, fx.root), (std::vector<SeqNo>{1, 2, 3}));
  for (size_t i = 6; i < rep->entries.size(); ++i) {
    EXPECT_EQ(rep->entries[i].alpha.collection, fx.local) << "entry " << i;
  }
  std::vector<SeqNo> first(253);
  std::iota(first.begin(), first.end(), SeqNo{1});
  EXPECT_EQ(ServedHeights(*rep, fx.local), first);

  // The next round starts at the requester's advanced heads.
  req.heads = {{fx.local, 0, 290}, {fx.root, 0, 3}};
  rep = BuildStateReply(fx.core, req, nullptr);
  ASSERT_NE(rep, nullptr);
  std::vector<SeqNo> rest(10);
  std::iota(rest.begin(), rest.end(), SeqNo{291});
  EXPECT_EQ(ServedHeights(*rep, fx.local), rest);
  EXPECT_TRUE(ServedHeights(*rep, fx.root).empty());
}

TEST(StateReplyTest, PendingTailAboveTheRequesterHeadsTravels) {
  ReplyFixture fx;
  fx.CommitChain(fx.local, 2);
  fx.Commit(fx.local, 4);  // certified, but waits on the missing block 3
  fx.Commit(fx.local, 5);
  ASSERT_EQ(fx.core.pending_blocks(), 2u);
  StateRequestMsg req;
  req.heads = {{fx.local, 0, 2}};
  auto rep = BuildStateReply(fx.core, req, nullptr);
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(ServedHeights(*rep, fx.local), (std::vector<SeqNo>{4, 5}));
  req.heads = {{fx.local, 0, 4}};
  rep = BuildStateReply(fx.core, req, nullptr);
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(ServedHeights(*rep, fx.local), (std::vector<SeqNo>{5}));
}

TEST(StateReplyTest, NothingWhenTheRequesterLacksNothing) {
  ReplyFixture fx;
  fx.CommitChain(fx.local, 3);
  fx.Commit(fx.local, 5);
  StateRequestMsg req;
  req.heads = {{fx.local, 0, 5}};
  // Executors pull with the max frontier and serve no checkpoint.
  req.frontier = UINT64_MAX;
  EXPECT_EQ(BuildStateReply(fx.core, req, nullptr), nullptr);
  // An ordering node's checkpoint alone earns a reply only when it lies
  // above the requester's consensus frontier.
  CheckpointCertificate ckpt;
  ckpt.slot = 64;
  req.frontier = 64;
  EXPECT_EQ(BuildStateReply(fx.core, req, &ckpt), nullptr);
  req.frontier = 63;
  auto rep = BuildStateReply(fx.core, req, &ckpt);
  ASSERT_NE(rep, nullptr);
  EXPECT_TRUE(rep->entries.empty());
  EXPECT_EQ(rep->ckpt.slot, 64u);
  // The requester side reports exactly the heads the server compares.
  EXPECT_EQ(ChainHeadsOf(fx.core).size(), 1u);
  EXPECT_EQ(ChainHeadsOf(fx.core).front().head, 3u);
}

TEST(StateReplyTest, WireBytesChargeEntriesAndOnlyAPassedCheckpoint) {
  ReplyFixture fx;
  fx.CommitChain(fx.local, 2);
  fx.CommitChain(fx.root, 1);
  StateRequestMsg req;
  req.requester = NodeId{42};
  auto rep = BuildStateReply(fx.core, req, nullptr);
  ASSERT_NE(rep, nullptr);
  ASSERT_EQ(rep->entries.size(), 3u);
  size_t verify_ops = 0;
  for (const auto& e : rep->entries) verify_ops += e.cert.sigs.size();
  EXPECT_EQ(rep->sig_verify_ops, verify_ops);
  EXPECT_EQ(rep->requester, NodeId{42});
  // The network charges exactly the reply's envelope encoding.
  auto encoded = [](const Message& m) {
    Encoder enc;
    EXPECT_TRUE(EncodeMessage(m, &enc));
    return enc.size();
  };
  EXPECT_EQ(rep->WireBytes(), encoded(*rep));
  // A passed checkpoint's signatures are verified and carried; without
  // one the reply still carries an empty certificate.
  KeyStore ks(9);
  CheckpointCertificate ckpt;
  ckpt.slot = 8;
  ckpt.sigs = {ks.Sign(0, ckpt.digest), ks.Sign(1, ckpt.digest)};
  auto charged = BuildStateReply(fx.core, req, &ckpt);
  ASSERT_NE(charged, nullptr);
  EXPECT_EQ(charged->sig_verify_ops, verify_ops + 2);
  EXPECT_EQ(charged->WireBytes(), encoded(*charged));
  EXPECT_EQ(charged->WireBytes(), rep->WireBytes() + 2 * 20);
}

// --------------------- §4.3.5 rivalry settlement (former ROADMAP gap)

/// Inert request source for hand-crafted rivalry scenarios.
class ClientStub : public Actor {
 public:
  explicit ClientStub(Env* env) : Actor(env, "client-stub") {}
  void OnMessage(NodeId, const MessageRef& msg) override {
    if (msg->type == MsgType::kReply || msg->type == MsgType::kReplyCert) {
      ++replies;
    }
  }
  int replies = 0;
};

TEST(StateTransferTest, RivalBlockTransactionsSettleExactlyOnce) {
  // Formerly the pinned ROADMAP gap (NackedRivalBlockTransactionsAre-
  // DroppedToday): in optimistic (non-designated-coordinator) FLATTENED
  // mode two enterprises initiate rival blocks claiming the same
  // (chain, n) of a shared collection, and the second claim used to be
  // nacked forever — both instances deadlocked and their transactions
  // were dropped. Digest-priority arbitration (§4.3.5) now settles the
  // rivalry: validators switch their endorsement to the lower-digest
  // block unless already commit-locked, the winner commits, and the
  // loser's transactions are re-queued through the retry machinery and
  // land on a fresh block — so BOTH transactions commit, each exactly
  // once.
  QanaatSystem::Options so;
  so.params.num_enterprises = 2;
  so.params.shards_per_enterprise = 1;
  so.params.failure_model = FailureModel::kCrash;
  so.params.family = ProtocolFamily::kFlattened;
  so.params.designated_coordinator = false;  // optimistic mode: races
  so.seed = 3;
  // WAN latency between the enterprises: an in-flight instance lives
  // ~100ms, so the concurrently initiated rivals below both claim n=1
  // before either side learns of the other.
  so.cluster_regions = {0, 1};
  QanaatSystem sys(std::move(so));
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
  // Rival initiations, one per enterprise, fired together.
  sys.env().sim.ScheduleAt(10 * kMillisecond, [&]() {
    sys.net().Send(stub.id(),
                   sys.directory().Cluster(0).InitialPrimary(),
                   make_req(1, 0));
    sys.net().Send(stub.id(),
                   sys.directory().Cluster(1).InitialPrimary(),
                   make_req(2, 1));
  });
  sys.env().sim.Run(2 * kSecond);

  // Safety holds throughout: the commit-vote lock is what keeps the
  // loser from ever assembling a quorum at the contested height. The
  // convergence audit (empty exclusion set) additionally proves every
  // replica ends on identical chains and stores.
  static const std::set<NodeId> kNone;
  Status st = SafetyAuditor::AuditQanaat(sys, true, &kNone);
  EXPECT_TRUE(st.ok()) << st.ToString();
  // The race happened and was arbitrated, not just nacked...
  EXPECT_GT(sys.env().metrics.Get("cross.arbitration_switch"), 0u);
  EXPECT_GT(sys.env().metrics.Get("cross.arbitration_loser"), 0u);
  // ...and BOTH rival transactions settled, each exactly once across
  // the shared chain (per-ledger double commits are excluded by the
  // audit above; count on one replica of each cluster).
  for (int c = 0; c < sys.cluster_count(); ++c) {
    uint64_t committed = 0;
    const DagLedger& led = sys.ordering_node(c, 0)->exec_core().ledger();
    for (size_t i = 0; i < led.size(); ++i) {
      for (const auto& tx : led.entry(i).block->txs) {
        if (tx.client == stub.id()) ++committed;
      }
    }
    EXPECT_EQ(committed, 2u)
        << "cluster " << c
        << ": rival transactions did not fully settle after arbitration";
  }
}

}  // namespace
}  // namespace qanaat
