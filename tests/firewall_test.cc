#include <gtest/gtest.h>

#include "qanaat/system.h"

namespace qanaat {
namespace {

SystemParams PfParams() {
  SystemParams p;
  p.num_enterprises = 2;
  p.shards_per_enterprise = 1;
  p.failure_model = FailureModel::kByzantine;
  p.use_firewall = true;
  p.family = ProtocolFamily::kFlattened;
  return p;
}

struct PfFixture : ::testing::Test {
  void Build(SystemParams p = PfParams(), uint64_t seed = 5) {
    QanaatSystem::Options opts;
    opts.params = p;
    opts.seed = seed;
    sys = std::make_unique<QanaatSystem>(std::move(opts));
  }
  uint64_t RunLoad(double tps = 300, SimTime dur = 1500 * kMillisecond) {
    WorkloadParams wl;
    wl.cross_fraction = 0.0;
    ClientMachine* c = sys->AddClient(wl, tps);
    c->Start(0, dur, 100 * kMillisecond, dur);
    sys->env().sim.Run(dur + 500 * kMillisecond);
    return c->measured_commits();
  }
  std::unique_ptr<QanaatSystem> sys;
};

// ------------------------------------------------- topology & wiring

TEST_F(PfFixture, TopologyHasSeparatedRoles) {
  Build();
  const ClusterConfig& cc = sys->directory().Cluster(0);
  EXPECT_EQ(cc.ordering.size(), 4u);      // 3f+1
  EXPECT_EQ(cc.execution.size(), 3u);     // 2g+1
  ASSERT_EQ(cc.filter_rows.size(), 2u);   // h+1 rows
  EXPECT_EQ(cc.filter_rows[0].size(), 2u);  // of h+1 filters
}

TEST_F(PfFixture, PhysicalWiringBlocksExecToClientLeak) {
  // §3.4: a malicious node can access confidential data OR communicate
  // freely with clients, but not both. The network wiring makes an
  // execution node physically unable to reach anything but the top
  // filter row.
  Build();
  WorkloadParams wl;
  ClientMachine* client = sys->AddClient(wl, 1.0);
  ExecutionNode* evil = sys->execution_node(0, 0);

  uint64_t blocked_before = sys->net().blocked_sends();
  // Leak attempts: to a client machine, to an ordering node, to an
  // execution node of another cluster.
  auto leak = std::make_shared<Message>(MsgType::kReply);
  sys->net().Send(evil->id(), client->id(), leak);
  sys->net().Send(evil->id(), sys->directory().Cluster(0).ordering[0], leak);
  sys->net().Send(evil->id(), sys->directory().Cluster(1).execution[0],
                  leak);
  sys->env().sim.RunAll();
  EXPECT_EQ(sys->net().blocked_sends(), blocked_before + 3);

  // The legitimate path (to the top filter row) is open.
  NodeId top_filter = sys->directory().Cluster(0).filter_rows.back()[0];
  EXPECT_TRUE(sys->net().LinkAllowed(evil->id(), top_filter));
}

TEST_F(PfFixture, FiltersOnlyConnectToAdjacentRows) {
  Build();
  const ClusterConfig& cc = sys->directory().Cluster(0);
  NodeId bottom = cc.filter_rows[0][0];
  NodeId top = cc.filter_rows[1][0];
  // Bottom row: ordering (below) + top row (above); NOT execution.
  EXPECT_TRUE(sys->net().LinkAllowed(bottom, cc.ordering[0]));
  EXPECT_TRUE(sys->net().LinkAllowed(bottom, top));
  EXPECT_FALSE(sys->net().LinkAllowed(bottom, cc.execution[0]));
  // Top row: execution (above) + bottom row (below); NOT ordering.
  EXPECT_TRUE(sys->net().LinkAllowed(top, cc.execution[0]));
  EXPECT_FALSE(sys->net().LinkAllowed(top, cc.ordering[0]));
}

// ------------------------------------------------- end-to-end behaviour

TEST_F(PfFixture, CommitsFlowThroughFirewall) {
  Build();
  uint64_t commits = RunLoad(400);
  EXPECT_GT(commits, 400u);
  // Execution really happened on the execution nodes, not ordering.
  EXPECT_GT(sys->execution_node(0, 0)->core().executed_txs(), 0u);
  EXPECT_EQ(sys->ordering_node(0, 0)->exec_core().executed_txs(), 0u);
}

TEST_F(PfFixture, CorruptExecutorRepliesAreFiltered) {
  // A Byzantine executor stuffs bogus data into replies; with g=1 the
  // other two executors' matching replies still certify, and the bogus
  // value never gathers g+1 shares.
  Build();
  sys->execution_node(0, 0)->SetCorruptReplies(true);
  uint64_t commits = RunLoad(300);
  EXPECT_GT(commits, 300u);  // liveness preserved
}

TEST_F(PfFixture, CrashedFilterToleratedByRowRedundancy) {
  // h+1 filters per row: one crashed filter leaves a live path.
  Build();
  sys->filter_node(0, 0, 0)->Crash();
  sys->filter_node(1, 1, 1)->Crash();
  uint64_t commits = RunLoad(300);
  EXPECT_GT(commits, 300u);
}

TEST_F(PfFixture, CrashedExecutionNodeTolerated) {
  Build();
  sys->execution_node(0, 2)->Crash();
  uint64_t commits = RunLoad(300);
  EXPECT_GT(commits, 300u);
}

TEST_F(PfFixture, ForgedExecOrderRejectedByFilters) {
  // A message with an invalid commit certificate injected at a filter is
  // dropped, never reaching execution.
  Build();
  auto block = std::make_shared<Block>();
  block->id.alpha = {CollectionId(EnterpriseSet{0}), 0, 1};
  Transaction tx;
  tx.collection = block->id.alpha.collection;
  tx.ops.push_back(TxOp{TxOp::Kind::kWrite, 1, 777, {}});
  block->txs.push_back(tx);
  block->Seal();

  auto eo = std::make_shared<ExecOrderMsg>();
  eo->block = block;
  eo->cert.block_digest = block->Digest();
  eo->cert.direct = true;
  eo->cert.sigs.push_back(sys->env().keystore.Forge(3));
  eo->alpha_here = block->id.alpha;

  NodeId bottom = sys->directory().Cluster(0).filter_rows[0][0];
  NodeId order0 = sys->directory().Cluster(0).ordering[0];
  // Inject "from" an ordering node (link allowed) with a bad cert.
  sys->net().Send(order0, bottom, eo);
  sys->env().sim.RunAll();
  EXPECT_EQ(sys->execution_node(0, 0)->core().executed_blocks(), 0u);
  EXPECT_GE(sys->env().metrics.Get("firewall.filtered_bad_cert"), 1u);
}

TEST_F(PfFixture, BlocklessExecOrderRejected) {
  // The wire admits an EXEC-ORDER without a block, and any Byzantine
  // ordering node can send one. The bottom filter row and the execution
  // nodes must drop it as a bad certificate, not dereference the block.
  Build();
  auto eo = std::make_shared<ExecOrderMsg>();
  eo->cert.direct = true;
  eo->cert.sigs.push_back(sys->env().keystore.Forge(3));

  const ClusterConfig& c0 = sys->directory().Cluster(0);
  sys->net().Send(c0.ordering[0], c0.filter_rows.front()[0], eo);
  sys->net().Send(c0.filter_rows.back()[0], sys->execution_node(0, 0)->id(),
                  eo);
  sys->env().sim.RunAll();
  EXPECT_GE(sys->env().metrics.Get("firewall.filtered_bad_cert"), 1u);
  EXPECT_GE(sys->env().metrics.Get("exec.bad_cert"), 1u);
  EXPECT_EQ(sys->execution_node(0, 0)->core().executed_blocks(), 0u);
}

TEST_F(PfFixture, ReplyCertificatesVerifiableByClients) {
  Build();
  uint64_t commits = RunLoad(200);
  ASSERT_GT(commits, 0u);
  EXPECT_EQ(sys->env().metrics.Get("client.bad_reply_cert"), 0u);
  EXPECT_EQ(sys->env().metrics.Get("client.short_reply_cert"), 0u);
}

// Records the client list of every reply certificate it receives.
class CertRecordingClient : public ClientMachine {
 public:
  using ClientMachine::ClientMachine;
  void OnMessage(NodeId from, const MessageRef& msg) override {
    if (msg->type == MsgType::kReplyCert) {
      const auto& m = *msg->As<ReplyCertMsg>();
      certs.emplace_back(m.block_digest, m.clients);
    }
    ClientMachine::OnMessage(from, msg);
  }
  std::vector<std::pair<Sha256Digest, std::vector<std::pair<NodeId, uint64_t>>>>
      certs;
};

TEST_F(PfFixture, ForgedReplyClientListNeverReachesACertificate) {
  // A faulty executor (within g) answers first with a correctly signed
  // share whose client list is edited: one request of the block left
  // out, one pending request from outside the block added. Its list
  // must not reach a certificate, so the client settles exactly the
  // block's requests.
  Build();
  const ClusterConfig& cc = sys->directory().Cluster(0);
  Network::LinkFault slow;
  slow.extra_delay_us = 20 * kMillisecond;  // correct shares land later
  for (NodeId e : cc.execution) {
    for (NodeId top : cc.filter_rows.back()) {
      sys->net().SetLinkFault(e, top, slow);
    }
  }
  WorkloadParams wl;
  wl.cross_fraction = 0.0;
  CertRecordingClient client(
      &sys->env(), &sys->directory(),
      std::make_unique<SmallBankWorkload>(&sys->model(), &sys->directory(),
                                          wl, Rng(17)),
      200, 23);
  const SimTime stop = 300 * kMillisecond;
  client.Start(0, stop, 0, stop);

  // Step until an executor of cluster 0 has executed a block: its shares
  // are still on the slow links.
  ExecutionNode* honest = sys->execution_node(0, 1);
  while (honest->core().executed_blocks() == 0 &&
         sys->env().sim.now() < stop) {
    sys->env().sim.Run(sys->env().sim.now() + 100);
  }
  ASSERT_GT(honest->core().executed_blocks(), 0u);

  // The block's result: replay the executor's ledger on a fresh core.
  Env mirror_env(1);
  ExecutorCore mirror(&mirror_env, &sys->model(), honest->core().enterprise(),
                      honest->core().shard());
  ExecutorCore::ExecResult real;
  const DagLedger& ledger = honest->core().ledger();
  for (size_t i = 0; i < ledger.size(); ++i) {
    const DagLedger::Entry& e = ledger.entry(i);
    mirror.Submit(e.block, e.cert, e.alpha, e.gamma(),
                  [&real](const ExecutorCore::ExecResult& r) { real = r; });
  }
  const Sha256Digest block = real.block->Digest();
  ASSERT_FALSE(real.clients.empty());

  // The edit: drop the block's first request, add the newest issued
  // request that is not in the block.
  auto in_block = [&real](uint64_t ts) {
    for (const auto& [c, t] : real.clients) {
      if (t == ts) return true;
    }
    return false;
  };
  uint64_t outside = client.issued();
  while (outside > 0 && in_block(outside)) --outside;
  ASSERT_GT(outside, 0u);
  auto forged = std::make_shared<ExecReplyMsg>();
  forged->block_digest = block;
  forged->result_digest = real.result_digest;
  forged->clients.assign(real.clients.begin() + 1, real.clients.end());
  forged->clients.emplace_back(client.id(), outside);
  NodeId faulty = cc.execution[0];
  forged->sig = sys->env().keystore.SignShare(
      faulty, ExecReplyMsg::Signable(block, forged->result_digest,
                                     forged->clients));
  for (NodeId top : cc.filter_rows.back()) {
    sys->net().actor(top)->DeliverAt(sys->env().sim.now(), faulty, forged);
  }
  sys->env().sim.Run(stop + 500 * kMillisecond);

  // Every certificate names exactly its block's requests.
  std::map<Sha256Digest, std::vector<std::pair<NodeId, uint64_t>>> lists;
  for (int c = 0; c < sys->cluster_count(); ++c) {
    const DagLedger& l = sys->execution_node(c, 1)->core().ledger();
    for (size_t i = 0; i < l.size(); ++i) {
      auto& list = lists[l.entry(i).block->Digest()];
      list.clear();
      for (const Transaction& tx : l.entry(i).block->txs) {
        list.emplace_back(tx.client, tx.client_ts);
      }
    }
  }
  size_t certs_for_block = 0;
  for (const auto& [digest, clients] : client.certs) {
    ASSERT_TRUE(lists.count(digest));
    EXPECT_EQ(clients, lists[digest]);
    if (digest == block) ++certs_for_block;
  }
  EXPECT_GT(certs_for_block, 0u);
  EXPECT_EQ(sys->env().metrics.Get("firewall.filtered_bad_share"), 0u);
  // The request the forged list left out settled too.
  EXPECT_EQ(client.accepted(), client.issued());
}

TEST_F(PfFixture, ByzantineFilterContainedByRowRedundancy) {
  // One Byzantine filter per row corrupts everything it forwards. With
  // h+1 = 2 filters per row there is still a fully-correct path, and the
  // corrupted copies are dropped by the verification at the next hop
  // (§3.4: a row of non-faulty filters stops malicious messages).
  Build();
  sys->filter_node(0, 0, 1)->SetByzantine(true);
  sys->filter_node(0, 1, 0)->SetByzantine(true);
  uint64_t commits = RunLoad(250);
  EXPECT_GT(commits, 250u);  // liveness through the clean path
  // Corrupted certificates were detected somewhere downstream.
  EXPECT_GT(sys->env().metrics.Get("firewall.filtered_bad_cert") +
                sys->env().metrics.Get("exec.bad_cert") +
                sys->env().metrics.Get("client.bad_reply_cert") +
                sys->env().metrics.Get("firewall.filtered_bad_cert_share"),
            0u);
  // And no corrupted result was ever accepted by a client: every settled
  // transaction implies a valid certificate, which requires g+1 honest
  // matching executions.
  EXPECT_TRUE(sys->VerifyAllLedgers().ok());
}

/// Sends signed requests by hand and records every reply certificate it
/// receives, with its sender.
class ScriptedFirewallClient : public Actor {
 public:
  explicit ScriptedFirewallClient(Env* env) : Actor(env, "script-client") {}
  /// Request `ts` (and its settle mark) on cluster 0's own collection.
  std::shared_ptr<RequestMsg> Request(uint64_t ts) {
    Transaction tx;
    tx.client = id();
    tx.client_ts = ts;
    tx.settled_below = ts;
    tx.collection = CollectionId{EnterpriseSet::Single(0)};
    tx.shards = {0};
    tx.ops.push_back(TxOp{TxOp::Kind::kAdd, 3, 1, {}});
    tx.client_sig = env()->keystore.Sign(id(), tx.Digest());
    auto req = std::make_shared<RequestMsg>();
    req->tx = tx;
    return req;
  }
  void OnMessage(NodeId from, const MessageRef& msg) override {
    if (msg->type != MsgType::kReplyCert) return;
    senders.push_back(from);
    certs.push_back(std::static_pointer_cast<const ReplyCertMsg>(msg));
  }
  std::vector<NodeId> senders;
  std::vector<std::shared_ptr<const ReplyCertMsg>> certs;
};

Network::LinkFault SilenceReplyCerts() {
  Network::LinkFault silence;
  silence.silence_mask = Network::LinkFault::TypeBit(MsgType::kReplyCert);
  return silence;
}

TEST_F(PfFixture, BackupAnswersARetransmissionFromItsRecord) {
  // The request commits and its certificate comes down the firewall,
  // but the primary's forward never reaches the client. A backup the
  // retransmission reaches answers it with the verified certificate it
  // recorded for the request.
  Build();
  const ClusterConfig& cc = sys->directory().Cluster(0);
  ScriptedFirewallClient client(&sys->env());
  sys->net().SetLinkFault(cc.InitialPrimary(), client.id(),
                          SilenceReplyCerts());
  auto req = client.Request(1);
  sys->net().Send(client.id(), cc.InitialPrimary(), req);
  sys->env().sim.Run(300 * kMillisecond);
  ASSERT_TRUE(client.certs.empty());
  ASSERT_EQ(sys->net().silenced(), 1u);  // forwarded once, and lost
  OrderingNode* backup = sys->ordering_node(0, 1);
  EXPECT_EQ(backup->client_record_entries(), 2u);  // committed + owned

  auto again = std::make_shared<RequestMsg>(*req);
  again->is_retransmission = true;
  sys->net().Send(client.id(), backup->id(), again);
  sys->env().sim.Run(600 * kMillisecond);
  ASSERT_EQ(client.certs.size(), 1u);
  EXPECT_EQ(client.senders[0], backup->id());
  const ReplyCertMsg& cert = *client.certs[0];
  EXPECT_EQ(cert.Verify(sys->env().keystore,
                        static_cast<size_t>(sys->directory().params.g) + 1),
            ReplyCertMsg::Check::kValid);
  ASSERT_EQ(cert.clients.size(), 1u);
  EXPECT_EQ(cert.clients[0], std::make_pair(client.id(), uint64_t{1}));
}

TEST_F(PfFixture, BackupWhoseCommitLagsTheCertificateAnswersFromItsRecord) {
  // Every message from the other ordering nodes reaches a backup 60 ms
  // late, so the block's reply certificate, which the bottom filter row
  // sends every ordering node, gets there before the backup commits the
  // block. The backup keeps the verified copy and, once it commits,
  // answers the client's retransmission with it.
  Build();
  const ClusterConfig& cc = sys->directory().Cluster(0);
  OrderingNode* backup = sys->ordering_node(0, 1);
  Network::LinkFault slow;
  slow.extra_delay_us = 60 * kMillisecond;
  for (NodeId n : cc.ordering) {
    if (n != backup->id()) sys->net().SetLinkFault(n, backup->id(), slow);
  }
  ScriptedFirewallClient client(&sys->env());
  sys->net().SetLinkFault(cc.InitialPrimary(), client.id(),
                          SilenceReplyCerts());
  auto req = client.Request(1);
  sys->net().Send(client.id(), cc.InitialPrimary(), req);
  sys->env().sim.Run(40 * kMillisecond);
  ASSERT_EQ(sys->net().silenced(), 1u);  // the certificate is out
  ASSERT_EQ(backup->committed_txs(), 0u);
  sys->env().sim.Run(400 * kMillisecond);
  ASSERT_EQ(backup->committed_txs(), 1u);
  EXPECT_EQ(backup->client_record_entries(), 2u);  // committed + owned
  ASSERT_TRUE(client.certs.empty());

  auto again = std::make_shared<RequestMsg>(*req);
  again->is_retransmission = true;
  sys->net().Send(client.id(), backup->id(), again);
  sys->env().sim.Run(500 * kMillisecond);
  ASSERT_EQ(client.certs.size(), 1u);
  EXPECT_EQ(client.senders[0], backup->id());
  EXPECT_EQ(client.certs[0]->Verify(
                sys->env().keystore,
                static_cast<size_t>(sys->directory().params.g) + 1),
            ReplyCertMsg::Check::kValid);
}

TEST_F(PfFixture, OnlyVerifiedReplyCertificatesAreKeptOrForwarded) {
  // A Byzantine bottom-row filter in each cluster tampers with the
  // result of every reply certificate it passes down, and the primaries'
  // forwards never reach the client, so every request settles on a
  // backup's answer to a retransmission. An ordering node keeps and
  // forwards only a copy with g+1 valid shares, so no answer is one the
  // client must reject.
  Build();
  for (int c = 0; c < sys->cluster_count(); ++c) {
    sys->filter_node(c, 0, 1)->SetByzantine(true);
  }
  WorkloadParams wl;
  wl.cross_fraction = 0.0;
  ClientMachine* client = sys->AddClient(wl, 200);
  client->SetRetransmitTimeout(100 * kMillisecond);
  for (int c = 0; c < sys->cluster_count(); ++c) {
    sys->net().SetLinkFault(sys->directory().Cluster(c).InitialPrimary(),
                            client->id(), SilenceReplyCerts());
  }
  const SimTime stop = 600 * kMillisecond;
  client->Start(0, stop, 0, stop);
  sys->env().sim.Run(stop + 800 * kMillisecond);
  EXPECT_GT(client->issued(), 50u);
  EXPECT_EQ(client->accepted(), client->issued());
  EXPECT_GT(sys->env().metrics.Get("client.retransmit"), 0u);
  EXPECT_GT(sys->env().metrics.Get("order.bad_reply_cert"), 0u);
  EXPECT_EQ(sys->env().metrics.Get("client.bad_reply_cert"), 0u);
}

TEST_F(PfFixture, GeneralCaseWiderFirewall) {
  // h = 2: 3x3 filter grid still commits.
  SystemParams p = PfParams();
  p.h = 2;
  Build(p);
  const ClusterConfig& cc = sys->directory().Cluster(0);
  ASSERT_EQ(cc.filter_rows.size(), 3u);
  EXPECT_EQ(cc.filter_rows[0].size(), 3u);
  uint64_t commits = RunLoad(200);
  EXPECT_GT(commits, 200u);
}

// --------------------------------------------- executor core semantics

TEST(ExecutorCoreTest, GammaReadsResolveAtCapturedVersion) {
  Env env(3);
  DataModel model(2);
  ASSERT_TRUE(model.AddWorkflow(EnterpriseSet::All(2)).ok());
  ExecutorCore core(&env, &model, 0, 0);
  KeyStore& ks = env.keystore;

  CollectionId root{EnterpriseSet::All(2)};
  CollectionId local{EnterpriseSet::Single(0)};

  auto mkblock = [&](CollectionId c, SeqNo n, std::vector<TxOp> ops,
                     std::vector<GammaEntry> gamma) {
    auto b = std::make_shared<Block>();
    b->id.alpha = {c, 0, n};
    b->id.gamma = std::move(gamma);
    Transaction tx;
    tx.collection = c;
    tx.shards = {0};
    tx.client_ts = n * 7 + static_cast<uint64_t>(c.members.mask());
    tx.ops = std::move(ops);
    b->txs.push_back(tx);
    b->Seal();
    return b;
  };
  auto submit = [&](BlockPtr b) {
    CommitCertificate cert;
    cert.block_digest = b->Digest();
    cert.direct = true;
    cert.sigs.push_back(ks.Sign(0, cert.block_digest));
    LocalPart alpha = b->id.alpha;
    auto gamma = b->id.gamma;
    return core.Submit(b, cert, alpha, gamma, nullptr);
  };

  // root: key 5 = 100 at version 1, = 200 at version 2.
  ASSERT_TRUE(
      submit(mkblock(root, 1, {{TxOp::Kind::kWrite, 5, 100, {}}}, {})).ok());
  ASSERT_TRUE(
      submit(mkblock(root, 2, {{TxOp::Kind::kWrite, 5, 200, {}}}, {})).ok());

  // Local tx whose γ captured root at version 1 reads the OLD value even
  // though version 2 is already committed (paper §4.2: every replica
  // reads the captured state).
  TxOp dep{TxOp::Kind::kReadDep, 5, 0, root};
  auto b = mkblock(local, 1, {dep}, {{root, 1}});
  Sha256Digest result_at_1;
  core.Submit(b, [&] {
    CommitCertificate cert;
    cert.block_digest = b->Digest();
    cert.direct = true;
    cert.sigs.push_back(ks.Sign(0, cert.block_digest));
    return cert;
  }(), b->id.alpha, b->id.gamma,
              [&](const ExecutorCore::ExecResult& r) {
                result_at_1 = r.result_digest;
              });

  // Same read with γ at version 2 yields a different result digest.
  auto b2 = mkblock(local, 2, {dep}, {{root, 2}});
  Sha256Digest result_at_2;
  CommitCertificate cert2;
  cert2.block_digest = b2->Digest();
  cert2.direct = true;
  cert2.sigs.push_back(ks.Sign(0, cert2.block_digest));
  core.Submit(b2, cert2, b2->id.alpha, b2->id.gamma,
              [&](const ExecutorCore::ExecResult& r) {
                result_at_2 = r.result_digest;
              });
  EXPECT_NE(result_at_1, result_at_2);
}

TEST(ExecutorCoreTest, BlocksWaitForGammaDependencies) {
  Env env(3);
  DataModel model(2);
  ASSERT_TRUE(model.AddWorkflow(EnterpriseSet::All(2)).ok());
  ExecutorCore core(&env, &model, 0, 0);

  CollectionId root{EnterpriseSet::All(2)};
  CollectionId local{EnterpriseSet::Single(0)};

  auto mk = [&](CollectionId c, SeqNo n, std::vector<GammaEntry> g) {
    auto b = std::make_shared<Block>();
    b->id.alpha = {c, 0, n};
    b->id.gamma = std::move(g);
    Transaction tx;
    tx.collection = c;
    tx.client_ts = n;
    tx.ops.push_back(TxOp{TxOp::Kind::kWrite, 1, 1, {}});
    b->txs.push_back(tx);
    b->Seal();
    return b;
  };
  auto cert_for = [&](const BlockPtr& b) {
    CommitCertificate cert;
    cert.block_digest = b->Digest();
    cert.direct = true;
    cert.sigs.push_back(env.keystore.Sign(0, cert.block_digest));
    return cert;
  };

  // Local block depends on root:1, which has not committed here yet.
  bool executed = false;
  auto blocked = mk(local, 1, {{root, 1}});
  ASSERT_TRUE(core.Submit(blocked, cert_for(blocked), blocked->id.alpha,
                          blocked->id.gamma,
                          [&](const ExecutorCore::ExecResult&) {
                            executed = true;
                          })
                  .ok());
  EXPECT_FALSE(executed);
  EXPECT_EQ(core.pending_blocks(), 1u);

  // Committing root:1 unblocks it.
  auto r1 = mk(root, 1, {});
  ASSERT_TRUE(core.Submit(r1, cert_for(r1), r1->id.alpha, r1->id.gamma,
                          nullptr)
                  .ok());
  EXPECT_TRUE(executed);
  EXPECT_EQ(core.pending_blocks(), 0u);
}

TEST(ExecutorCoreTest, OutOfOrderBlocksExecuteInOrder) {
  Env env(3);
  DataModel model(2);
  ASSERT_TRUE(model.AddWorkflow(EnterpriseSet::All(2)).ok());
  ExecutorCore core(&env, &model, 0, 0);
  CollectionId local{EnterpriseSet::Single(0)};

  std::vector<SeqNo> executed;
  auto submit = [&](SeqNo n) {
    auto b = std::make_shared<Block>();
    b->id.alpha = {local, 0, n};
    Transaction tx;
    tx.collection = local;
    tx.client_ts = n;
    tx.ops.push_back(TxOp{TxOp::Kind::kAdd, 1, 1, {}});
    b->txs.push_back(tx);
    b->Seal();
    CommitCertificate cert;
    cert.block_digest = b->Digest();
    cert.direct = true;
    cert.sigs.push_back(env.keystore.Sign(0, cert.block_digest));
    LocalPart a = b->id.alpha;
    core.Submit(b, cert, a, {},
                [&executed, n](const ExecutorCore::ExecResult&) {
                  executed.push_back(n);
                });
  };
  submit(3);
  submit(2);
  EXPECT_TRUE(executed.empty());
  submit(1);
  EXPECT_EQ(executed, (std::vector<SeqNo>{1, 2, 3}));
}

}  // namespace
}  // namespace qanaat
