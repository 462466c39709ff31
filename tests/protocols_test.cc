#include <gtest/gtest.h>

#include <map>

#include "protocols/request_table.h"
#include "qanaat/system.h"

namespace qanaat {
namespace {

QanaatSystem::Options BaseOpts(ProtocolFamily fam, FailureModel fm,
                               int ents = 2, int shards = 2) {
  QanaatSystem::Options o;
  o.params.num_enterprises = ents;
  o.params.shards_per_enterprise = shards;
  o.params.failure_model = fm;
  o.params.family = fam;
  o.seed = 99;
  return o;
}

/// Scripted single-transaction client for protocol-level assertions.
class ScriptClient : public Actor {
 public:
  ScriptClient(Env* env, const Directory* dir)
      : Actor(env, "script-client"), dir_(dir) {}

  uint64_t Submit(CollectionId coll, std::vector<ShardId> shards,
                  std::vector<TxOp> ops, int target_cluster) {
    Transaction tx;
    tx.client = id();
    tx.client_ts = ++ts_;
    tx.collection = coll;
    tx.shards = std::move(shards);
    tx.initiator = dir_->Cluster(target_cluster).enterprise;
    tx.ops = std::move(ops);
    tx.client_sig = env()->keystore.Sign(id(), tx.Digest());
    auto req = std::make_shared<RequestMsg>();
    req->tx = tx;
    Send(dir_->Cluster(target_cluster).InitialPrimary(), req);
    return ts_;
  }

  void OnMessage(NodeId /*from*/, const MessageRef& msg) override {
    if (msg->type == MsgType::kReply) {
      for (const auto& [c, ts] : msg->As<ReplyMsg>()->clients) {
        if (c == id()) settled_.insert(ts);
      }
    } else if (msg->type == MsgType::kReplyCert) {
      for (const auto& [c, ts] : msg->As<ReplyCertMsg>()->clients) {
        if (c == id()) settled_.insert(ts);
      }
    }
  }

  bool Settled(uint64_t ts) const { return settled_.count(ts) > 0; }

 private:
  const Directory* dir_;
  uint64_t ts_ = 0;
  std::set<uint64_t> settled_;
};

// ----------------------------------------------- γ capture at ordering

TEST(OrderingTest, GammaCapturesOrderDependentState) {
  // Commit traffic on the shared collection, then a local transaction;
  // the local block's γ must reference the shared collection's state.
  auto sys = QanaatSystem(BaseOpts(ProtocolFamily::kFlattened,
                                   FailureModel::kCrash, 2, 1));
  ScriptClient client(&sys.env(), &sys.directory());
  CollectionId root{EnterpriseSet::All(2)};
  CollectionId d_a{EnterpriseSet::Single(0)};

  client.Submit(root, {0}, {TxOp{TxOp::Kind::kWrite, 1, 7, {}}}, 0);
  sys.env().sim.Run(100 * kMillisecond);
  client.Submit(d_a, {0}, {TxOp{TxOp::Kind::kAdd, 2, 1, {}}}, 0);
  sys.env().sim.Run(300 * kMillisecond);

  const DagLedger& lg = sys.ordering_node(0, 0)->exec_core().ledger();
  ShardRef local_ref{d_a, 0};
  ASSERT_EQ(lg.ChainOf(local_ref).size(), 1u);
  const auto& entry = lg.entry(lg.ChainOf(local_ref)[0]);
  // γ includes root at sequence 1 (the committed shared block).
  bool found = false;
  for (const auto& g : entry.gamma()) {
    if (g.collection == root) {
      EXPECT_EQ(g.m, 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "local block must capture root state in γ";
}

TEST(OrderingTest, WriteRuleRejectsUninvolvedEnterprise) {
  // A transaction targeting d_B submitted to enterprise A's cluster is
  // rejected by the write rule (§3.2).
  auto sys = QanaatSystem(BaseOpts(ProtocolFamily::kFlattened,
                                   FailureModel::kCrash, 2, 1));
  ScriptClient client(&sys.env(), &sys.directory());
  CollectionId d_b{EnterpriseSet::Single(1)};
  uint64_t ts =
      client.Submit(d_b, {0}, {TxOp{TxOp::Kind::kWrite, 1, 1, {}}}, 0);
  sys.env().sim.Run(500 * kMillisecond);
  EXPECT_FALSE(client.Settled(ts));
  EXPECT_GE(sys.env().metrics.Get("order.rejected_write_rule"), 1u);
}

TEST(OrderingTest, DuplicateRequestsCommitOnce) {
  auto sys = QanaatSystem(BaseOpts(ProtocolFamily::kFlattened,
                                   FailureModel::kCrash, 2, 1));
  ScriptClient client(&sys.env(), &sys.directory());
  CollectionId d_a{EnterpriseSet::Single(0)};
  // Submit, then replay the identical request (same client timestamp).
  Transaction tx;
  tx.client = client.id();
  tx.client_ts = 42;
  tx.collection = d_a;
  tx.shards = {0};
  tx.ops.push_back(TxOp{TxOp::Kind::kAdd, 5, 100, {}});
  tx.client_sig = sys.env().keystore.Sign(client.id(), tx.Digest());
  auto req = std::make_shared<RequestMsg>();
  req->tx = tx;
  NodeId primary = sys.directory().Cluster(0).InitialPrimary();
  sys.net().Send(client.id(), primary, req);
  sys.net().Send(client.id(), primary, req);
  sys.env().sim.Run(500 * kMillisecond);
  EXPECT_GE(sys.env().metrics.Get("order.duplicate_request"), 1u);
  const auto& core = sys.ordering_node(0, 0)->exec_core();
  auto v = core.StoreOf(d_a).Get(5);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 100);  // applied exactly once
}

TEST(OrderingTest, IntakeDedupExpiresForAbandonedProposal) {
  // ROADMAP gap: the primary's intake dedup (seen_requests_) used to be
  // permanent, so a transaction stranded in that node's abandoned
  // proposal was unrecoverable until another node became primary. With
  // the expiry scheme, a client retransmission after the dedup window is
  // admitted afresh by the same primary.
  auto sys = QanaatSystem(BaseOpts(ProtocolFamily::kFlattened,
                                   FailureModel::kCrash, 2, 1));
  ScriptClient client(&sys.env(), &sys.directory());
  CollectionId d_a{EnterpriseSet::Single(0)};
  const ClusterConfig& cc = sys.directory().Cluster(0);
  NodeId primary = cc.InitialPrimary();
  // Isolate the primary from its cluster peers: its proposal is lost and
  // never commits, but it still receives client traffic and stays leader
  // (no relays, so nobody suspects it).
  Network::LinkFault lost;
  lost.drop = 1.0;
  for (NodeId peer : cc.ordering) {
    if (peer != primary) sys.net().SetLinkFaultBetween(primary, peer, lost);
  }

  Transaction tx;
  tx.client = client.id();
  tx.client_ts = 7;
  tx.collection = d_a;
  tx.shards = {0};
  tx.ops.push_back(TxOp{TxOp::Kind::kAdd, 9, 50, {}});
  tx.client_sig = sys.env().keystore.Sign(client.id(), tx.Digest());
  auto req = std::make_shared<RequestMsg>();
  req->tx = tx;

  sys.net().Send(client.id(), primary, req);
  // A retransmission inside the window is still deduplicated.
  sys.env().sim.Run(100 * kMillisecond);
  sys.net().Send(client.id(), primary, req);
  sys.env().sim.Run(200 * kMillisecond);
  EXPECT_EQ(sys.env().metrics.Get("order.duplicate_request"), 1u);
  // Past the window (2 x cross_timeout = 800ms) the entry expires and
  // the retransmission is admitted again instead of being blacklisted.
  sys.env().sim.Run(1200 * kMillisecond);
  sys.net().Send(client.id(), primary, req);
  sys.env().sim.Run(1500 * kMillisecond);
  EXPECT_EQ(sys.env().metrics.Get("order.duplicate_request"), 1u)
      << "expired intake entry must not flag the retransmission";
}

// ---------------------------------------- permanent at-most-once record

TEST(RequestSetTest, OutOfOrderAndDuplicateInserts) {
  RequestSet set;
  for (uint64_t ts : {5u, 1u, 9u, 3u, 7u, 9u, 5u, 8u}) set.Insert({4, ts});
  EXPECT_EQ(set.size(), 6u);  // 9 and 5 arrived twice
  for (uint64_t ts : {1u, 3u, 5u, 7u, 8u, 9u}) {
    EXPECT_TRUE(set.Contains({4, ts})) << ts;
  }
  for (uint64_t ts : {0u, 2u, 4u, 6u, 10u}) {
    EXPECT_FALSE(set.Contains({4, ts})) << ts;
  }
}

TEST(RequestSetTest, ClientsAreSeparate) {
  RequestSet set;
  EXPECT_FALSE(set.Contains({3, 1}));  // unknown client, empty set
  set.Insert({2, 10});
  set.Insert({7, 10});
  EXPECT_EQ(set.size(), 2u);  // the same ts under two clients
  EXPECT_TRUE(set.Contains({2, 10}));
  EXPECT_TRUE(set.Contains({7, 10}));
  EXPECT_FALSE(set.Contains({3, 10}));  // unknown client
  EXPECT_FALSE(set.Contains({kInvalidNode, 10}));
}

TEST(RequestSetTest, ExtremeTimestamps) {
  RequestSet set;
  set.Insert({1, UINT64_MAX});
  set.Insert({1, 0});
  set.Insert({1, UINT64_MAX});
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.Contains({1, 0}));
  EXPECT_TRUE(set.Contains({1, UINT64_MAX}));
  EXPECT_FALSE(set.Contains({1, UINT64_MAX - 1}));
  EXPECT_FALSE(set.Contains({1, 1}));
}

// ------------------------------------------------ expiring dedup windows

/// Ids whose probe runs start at `home` in a table of `capacity` slots.
std::vector<RequestTable::RequestId> IdsHomedAt(size_t home, size_t capacity,
                                                size_t n) {
  std::vector<RequestTable::RequestId> ids;
  for (uint64_t ts = 0; ids.size() < n; ++ts) {
    RequestTable::RequestId id{3, ts};
    if ((RequestTable::Hash(id) & (capacity - 1)) == home) ids.push_back(id);
  }
  return ids;
}

TEST(RequestTableTest, EraseInsideWrappedRunKeepsOthersFindable) {
  // One probe run over slots 62, 63, 0, ..., 6 of a 64-slot table: ids
  // homed at 62, 63 and 0, inserted in that order, so the run wraps past
  // the last slot. Erasing any one of them must leave every other id
  // reachable from its home slot.
  std::vector<RequestTable::RequestId> ids;
  for (size_t home : {62, 63, 0}) {
    for (const auto& id : IdsHomedAt(home, 64, home == 63 ? 5 : 2)) {
      ids.push_back(id);
    }
  }
  for (size_t victim = 0; victim < ids.size(); ++victim) {
    RequestTable t;
    for (size_t i = 0; i < ids.size(); ++i) t.Put(ids[i], SimTime(i));
    ASSERT_EQ(t.capacity(), 64u);
    t.Erase(ids[victim]);
    EXPECT_EQ(t.size(), ids.size() - 1);
    EXPECT_EQ(t.Find(ids[victim]), nullptr) << victim;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i == victim) continue;
      const SimTime* at = t.Find(ids[i]);
      ASSERT_NE(at, nullptr) << "victim " << victim << " lost " << i;
      EXPECT_EQ(*at, SimTime(i));
    }
  }
}

TEST(RequestTableTest, EraseOfAbsentIdOrTwiceChangesNothing) {
  RequestTable t;
  t.Erase({1, 1});  // empty table
  EXPECT_EQ(t.size(), 0u);
  for (uint64_t ts = 0; ts < 10; ++ts) t.Put({1, ts}, SimTime(ts));
  t.Erase({1, 10});
  t.Erase({2, 3});
  EXPECT_EQ(t.size(), 10u);
  t.Erase({1, 4});
  t.Erase({1, 4});
  EXPECT_EQ(t.size(), 9u);
  for (uint64_t ts = 0; ts < 10; ++ts) {
    const SimTime* at = t.Find({1, ts});
    if (ts == 4) {
      EXPECT_EQ(at, nullptr);
    } else {
      ASSERT_NE(at, nullptr) << ts;
      EXPECT_EQ(*at, SimTime(ts));
    }
  }
}

TEST(RequestTableTest, PutAfterEraseInsertsAgain) {
  RequestTable t;
  t.Put({5, 7}, 100);
  t.Erase({5, 7});
  EXPECT_EQ(t.Find({5, 7}), nullptr);
  t.Put({5, 7}, 200);
  EXPECT_EQ(t.size(), 1u);
  ASSERT_NE(t.Find({5, 7}), nullptr);
  EXPECT_EQ(*t.Find({5, 7}), 200);
}

TEST(RequestTableTest, MatchesStdMapUnderRandomOperations) {
  // A small id space keeps the table dense with collisions, erasures
  // and re-insertions; `now` only grows, as simulated time does.
  RequestTable t;
  std::map<RequestTable::RequestId, SimTime> ref;
  Rng rng(2024);
  SimTime now = 0;
  for (int op = 0; op < 100000; ++op) {
    now += static_cast<SimTime>(rng.Uniform(3));
    RequestTable::RequestId id{static_cast<NodeId>(rng.Uniform(4)),
                               rng.Uniform(300)};
    uint64_t pick = rng.Uniform(1000);
    if (pick < 450) {
      t.Put(id, now);
      ref[id] = now;
    } else if (pick < 800) {
      t.Erase(id);
      ref.erase(id);
    } else if (pick < 998) {
      auto it = ref.find(id);
      const SimTime* at = t.Find(id);
      ASSERT_EQ(at != nullptr, it != ref.end()) << "op " << op;
      if (at != nullptr) {
        ASSERT_EQ(*at, it->second) << "op " << op;
      }
    } else {
      SimTime horizon = now - static_cast<SimTime>(rng.Uniform(400));
      t.PurgeBefore(horizon);
      for (auto it = ref.begin(); it != ref.end();) {
        it = it->second < horizon ? ref.erase(it) : std::next(it);
      }
    }
    ASSERT_EQ(t.size(), ref.size()) << "op " << op;
  }
  for (NodeId c = 0; c < 4; ++c) {
    for (uint64_t ts = 0; ts < 300; ++ts) {
      auto it = ref.find({c, ts});
      const SimTime* at = t.Find({c, ts});
      ASSERT_EQ(at != nullptr, it != ref.end()) << c << "/" << ts;
      if (at != nullptr) {
        EXPECT_EQ(*at, it->second);
      }
    }
  }
}

TEST(RequestTableTest, PurgeShrinksToItsSurvivors) {
  for (size_t keep : {0, 1, 16, 17, 33, 100, 700}) {
    RequestTable t;
    for (uint64_t ts = 0; ts < 1000; ++ts) t.Put({9, ts}, SimTime(ts));
    EXPECT_EQ(t.capacity(), 2048u);
    t.PurgeBefore(SimTime(1000 - keep));
    EXPECT_EQ(t.size(), keep);
    EXPECT_LE(t.capacity(), std::max<size_t>(64, 4 * keep)) << keep;
    EXPECT_GE(t.capacity(), 2 * keep);
    for (uint64_t ts = 0; ts < 1000; ++ts) {
      EXPECT_EQ(t.Find({9, ts}) != nullptr, ts >= 1000 - keep) << ts;
    }
  }
}

// ------------------------------------- cross-shard ID concatenation

TEST(CrossShardTest, EachClusterAppendsUnderOwnAlpha) {
  auto sys = QanaatSystem(BaseOpts(ProtocolFamily::kCoordinator,
                                   FailureModel::kByzantine, 2, 2));
  // A cross-shard intra-enterprise transaction on enterprise A.
  ScriptClient client(&sys.env(), &sys.directory());
  CollectionId d_a{EnterpriseSet::Single(0)};
  uint64_t ts = client.Submit(d_a, {0, 1},
                              {TxOp{TxOp::Kind::kAdd, 0, 10, {}},
                               TxOp{TxOp::Kind::kAdd, 1, -10, {}}},
                              sys.directory().ClusterIdOf(0, 0));
  sys.env().sim.Run(kSecond);
  EXPECT_TRUE(client.Settled(ts));
  const auto& l0 = sys.ordering_node(0, 0)->exec_core().ledger();
  const auto& l1 = sys.ordering_node(1, 0)->exec_core().ledger();
  EXPECT_EQ(l0.HeadOf({d_a, 0}), 1u);
  EXPECT_EQ(l1.HeadOf({d_a, 1}), 1u);
  // Same block digest on both chains (the ID concatenation lives in the
  // ledger entries, not in the block bytes).
  ASSERT_EQ(l0.ChainOf({d_a, 0}).size(), 1u);
  ASSERT_EQ(l1.ChainOf({d_a, 1}).size(), 1u);
  EXPECT_EQ(l0.entry(l0.ChainOf({d_a, 0})[0]).block->Digest(),
            l1.entry(l1.ChainOf({d_a, 1})[0]).block->Digest());
  // Each cluster applied only its shard's ops (keys shard by key % 2).
  EXPECT_TRUE(
      sys.ordering_node(0, 0)->exec_core().StoreOf(d_a).Get(0).ok());
  EXPECT_FALSE(
      sys.ordering_node(0, 0)->exec_core().StoreOf(d_a).Get(1).ok());
  EXPECT_TRUE(
      sys.ordering_node(1, 0)->exec_core().StoreOf(d_a).Get(1).ok());
}

TEST(CrossShardTest, ConflictingBlocksSerialized) {
  // Two concurrent cross-shard transactions intersecting in both shards
  // must serialize (§4.3.2's reservation rule), not deadlock.
  auto sys = QanaatSystem(BaseOpts(ProtocolFamily::kCoordinator,
                                   FailureModel::kByzantine, 2, 2));
  ScriptClient client(&sys.env(), &sys.directory());
  CollectionId d_a{EnterpriseSet::Single(0)};
  int coord = sys.directory().ClusterIdOf(0, 0);
  // Small batch timeout ensures two separate blocks.
  uint64_t t1 = client.Submit(d_a, {0, 1},
                              {TxOp{TxOp::Kind::kAdd, 0, 1, {}},
                               TxOp{TxOp::Kind::kAdd, 1, 1, {}}},
                              coord);
  sys.env().sim.Run(15 * kMillisecond);  // first block forms (batch window)
  uint64_t t2 = client.Submit(d_a, {0, 1},
                              {TxOp{TxOp::Kind::kAdd, 0, 2, {}},
                               TxOp{TxOp::Kind::kAdd, 1, 2, {}}},
                              coord);
  sys.env().sim.Run(2 * kSecond);
  EXPECT_TRUE(client.Settled(t1));
  EXPECT_TRUE(client.Settled(t2));
  const auto& lg = sys.ordering_node(0, 0)->exec_core().ledger();
  EXPECT_EQ(lg.HeadOf({d_a, 0}), 2u);
}

// ------------------------------------------------- client retransmission

TEST(FailureHandlingTest, ClientRetransmitsToAllNodes) {
  auto sys = QanaatSystem(BaseOpts(ProtocolFamily::kFlattened,
                                   FailureModel::kByzantine, 2, 1));
  WorkloadParams wl;
  wl.cross_fraction = 0.0;
  ClientMachine* c = sys.AddClient(wl, 200);
  c->SetRetransmitTimeout(400 * kMillisecond);
  c->Start(0, kSecond, 0, kSecond);
  // Crash the primary of cluster 0 immediately: requests to it vanish;
  // retransmissions reach the backups, which forward to the new primary
  // after the view change.
  sys.ordering_node(0, 0)->Crash();
  sys.env().sim.Run(6 * kSecond);
  EXPECT_GT(sys.env().metrics.Get("client.retransmit"), 0u);
  // A sizable share of transactions still commits (those targeting the
  // healthy cluster immediately; the crashed cluster's after view
  // change + retransmit).
  EXPECT_GT(c->accepted(), c->issued() / 2);
}

// ------------------------------------------------------ geo distribution

TEST(GeoTest, WanLatencyDominatesCommitLatency) {
  QanaatSystem::Options opts =
      BaseOpts(ProtocolFamily::kFlattened, FailureModel::kCrash, 2, 2);
  opts.cluster_regions = {0, 0, 1, 1};  // enterprise B across the WAN
  auto sys = QanaatSystem(std::move(opts));
  sys.net().SetRtt(0, 1, 100000);  // 100 ms
  WorkloadParams wl;
  wl.cross_kind = CrossKind::kIntraShardCrossEnterprise;
  wl.cross_fraction = 1.0;
  ClientMachine* c = sys.AddClient(wl, 100);
  c->Start(0, kSecond, 0, kSecond);
  sys.env().sim.Run(4 * kSecond);
  ASSERT_GT(c->accepted(), 0u);
  // Cross-enterprise commits need >= 1 WAN round trip on top of the
  // ~10ms cross-batch window.
  EXPECT_GT(c->latencies().Mean(), 60000.0);
}

// --------------------------------------------------------- determinism

TEST(DeterminismTest, IdenticalSeedsIdenticalRuns) {
  auto run = [](uint64_t seed) {
    QanaatSystem::Options o =
        BaseOpts(ProtocolFamily::kFlattened, FailureModel::kByzantine);
    o.seed = seed;
    QanaatSystem sys(std::move(o));
    WorkloadParams wl;
    wl.cross_fraction = 0.3;
    ClientMachine* c = sys.AddClient(wl, 500);
    c->Start(0, kSecond, 0, kSecond);
    sys.env().sim.Run(2 * kSecond);
    return std::make_pair(c->accepted(),
                          (uint64_t)c->latencies().Percentile(0.5));
  };
  auto a = run(1234);
  auto b = run(1234);
  auto c = run(4321);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a != c || true);  // different seed may legitimately differ
}

}  // namespace
}  // namespace qanaat
