#include <gtest/gtest.h>

#include "collections/data_model.h"
#include "firewall/executor_core.h"
#include "ledger/dag_ledger.h"
#include "protocols/cross_messages.h"
#include "sim/env.h"

namespace qanaat {
namespace {

CollectionId Coll(std::initializer_list<EnterpriseId> ids) {
  return CollectionId(EnterpriseSet(ids));
}

Transaction MakeTx(uint64_t key, int64_t delta, CollectionId c) {
  Transaction tx;
  tx.client = 1;
  tx.client_ts = key * 131 + static_cast<uint64_t>(delta);
  tx.collection = c;
  tx.shards = {0};
  tx.ops.push_back(TxOp{TxOp::Kind::kAdd, key, delta, {}});
  return tx;
}

BlockPtr MakeBlock(CollectionId c, ShardId shard, SeqNo n,
                   std::vector<GammaEntry> gamma = {}, int ntx = 3) {
  auto b = std::make_shared<Block>();
  b->id.alpha = {c, shard, n};
  b->id.gamma = std::move(gamma);
  for (int i = 0; i < ntx; ++i) {
    b->txs.push_back(MakeTx(n * 100 + i, 5, c));
  }
  b->Seal();
  return b;
}

CommitCertificate CertFor(const KeyStore& ks, const Block& b, int nsigs = 3) {
  CommitCertificate cert;
  cert.block_digest = b.Digest();
  cert.direct = true;
  for (NodeId i = 0; i < static_cast<NodeId>(nsigs); ++i) {
    cert.sigs.push_back(ks.Sign(i, cert.block_digest));
  }
  return cert;
}

struct LedgerFixture : ::testing::Test {
  KeyStore ks{99};
  DagLedger ledger;

  Status Append(BlockPtr b, SimTime t = 0) {
    CommitCertificate cert = CertFor(ks, *b);
    return ledger.Append(std::move(b), std::move(cert), t);
  }
  /// Appends `b` under this cluster's assignment ⟨alpha, gamma⟩.
  Status AppendAs(BlockPtr b, const LocalPart& alpha,
                  const std::vector<GammaEntry>& gamma) {
    CommitCertificate cert = CertFor(ks, *b);
    return ledger.AppendFor(std::move(b), std::move(cert), 0, alpha, gamma);
  }
};

TEST_F(LedgerFixture, AppendsInSequence) {
  auto c = Coll({0});
  EXPECT_TRUE(Append(MakeBlock(c, 0, 1)).ok());
  EXPECT_TRUE(Append(MakeBlock(c, 0, 2)).ok());
  EXPECT_EQ(ledger.HeadOf({c, 0}), 2u);
  EXPECT_EQ(ledger.size(), 2u);
  EXPECT_EQ(ledger.total_txs(), 6u);
}

TEST_F(LedgerFixture, RejectsGapAndDuplicate) {
  auto c = Coll({0});
  ASSERT_TRUE(Append(MakeBlock(c, 0, 1)).ok());
  EXPECT_EQ(Append(MakeBlock(c, 0, 3)).code(),
            StatusCode::kFailedPrecondition);  // gap
  EXPECT_EQ(Append(MakeBlock(c, 0, 1)).code(),
            StatusCode::kFailedPrecondition);  // duplicate
}

TEST_F(LedgerFixture, IndependentChainsAppendInParallel) {
  // The DAG property (§3.3): order-independent collections have separate
  // chains; e.g. d_AB and d_AC blocks interleave freely.
  auto ab = Coll({0, 1});
  auto ac = Coll({0, 2});
  EXPECT_TRUE(Append(MakeBlock(ab, 0, 1)).ok());
  EXPECT_TRUE(Append(MakeBlock(ac, 0, 1)).ok());
  EXPECT_TRUE(Append(MakeBlock(ab, 0, 2)).ok());
  EXPECT_TRUE(Append(MakeBlock(ac, 0, 2)).ok());
  EXPECT_EQ(ledger.ChainOf({ab, 0}).size(), 2u);
  EXPECT_EQ(ledger.ChainOf({ac, 0}).size(), 2u);
}

TEST_F(LedgerFixture, PerShardChains) {
  auto c = Coll({0});
  EXPECT_TRUE(Append(MakeBlock(c, 0, 1)).ok());
  EXPECT_TRUE(Append(MakeBlock(c, 1, 1)).ok());
  EXPECT_EQ(ledger.HeadOf({c, 0}), 1u);
  EXPECT_EQ(ledger.HeadOf({c, 1}), 1u);
}

TEST_F(LedgerFixture, GlobalConsistencyEnforcedOnAppend) {
  auto ab = Coll({0, 1});
  auto root = Coll({0, 1, 2, 3});
  ASSERT_TRUE(Append(MakeBlock(ab, 0, 1, {{root, 5}})).ok());
  // γ may stay or advance...
  ASSERT_TRUE(Append(MakeBlock(ab, 0, 2, {{root, 5}})).ok());
  ASSERT_TRUE(Append(MakeBlock(ab, 0, 3, {{root, 8}})).ok());
  // ...but never regress (§3.3 rule 2).
  EXPECT_EQ(Append(MakeBlock(ab, 0, 4, {{root, 7}})).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(LedgerFixture, StateOfTracksCommittedSequence) {
  auto c = Coll({0, 1});
  EXPECT_EQ(ledger.StateOf(c), 0u);
  ASSERT_TRUE(Append(MakeBlock(c, 0, 1)).ok());
  ASSERT_TRUE(Append(MakeBlock(c, 0, 2)).ok());
  EXPECT_EQ(ledger.StateOf(c), 2u);
}

TEST_F(LedgerFixture, CertificateMustCoverBlock) {
  auto b = MakeBlock(Coll({0}), 0, 1);
  CommitCertificate cert = CertFor(ks, *b);
  cert.block_digest.bytes[0] ^= 1;
  EXPECT_EQ(ledger.Append(b, cert, 0).code(), StatusCode::kCorruption);
}

TEST_F(LedgerFixture, AppendForUsesPerClusterView) {
  // Cross-shard blocks: each cluster appends the same block under its
  // own ⟨α, γ⟩ (§4.3.2).
  auto c = Coll({0, 1});
  auto b = MakeBlock(c, 0, 1);
  CommitCertificate cert = CertFor(ks, *b);
  LocalPart my_alpha{c, 1, 1};  // our shard's assignment
  EXPECT_TRUE(ledger.AppendFor(b, cert, 0, my_alpha, {}).ok());
  EXPECT_EQ(ledger.HeadOf({c, 1}), 1u);
  EXPECT_EQ(ledger.HeadOf({c, 0}), 0u);  // coordinator's chain untouched
}

TEST_F(LedgerFixture, VerifyChainPassesOnHonestLedger) {
  auto c = Coll({0});
  for (SeqNo n = 1; n <= 5; ++n) ASSERT_TRUE(Append(MakeBlock(c, 0, n)).ok());
  EXPECT_TRUE(ledger.VerifyChain(ks, 3).ok());
}

TEST_F(LedgerFixture, VerifyChainDetectsTamperedTransaction) {
  auto c = Coll({0});
  auto b = MakeBlock(c, 0, 1);
  ASSERT_TRUE(Append(b).ok());
  // Tamper with the committed transaction in place (simulates a
  // malicious enterprise editing its stored ledger).
  auto* mutable_block = const_cast<Block*>(ledger.entry(0).block.get());
  mutable_block->txs[0].ops[0].value = 1000000;
  Status audit = ledger.VerifyChain(ks, 3);
  EXPECT_EQ(audit.code(), StatusCode::kCorruption);
}

TEST_F(LedgerFixture, VerifyChainDetectsShortCertificate) {
  auto c = Coll({0});
  auto b = MakeBlock(c, 0, 1);
  CommitCertificate cert = CertFor(ks, *b, 1);  // only one signature
  ASSERT_TRUE(ledger.Append(b, cert, 0).ok());
  EXPECT_TRUE(ledger.VerifyChain(ks, 1).ok());
  EXPECT_EQ(ledger.VerifyChain(ks, 3).code(), StatusCode::kCorruption);
}

// -------------------------------------------- an entry's effective γ

// One chain, d_AB shard 1, mixing both kinds of entry. own1 and own3 are
// blocks this cluster ordered, appended under their own ID. cross is a
// cross-cluster block sealed under shard 0's ID ⟨d_AB/0:7, root:5⟩ and
// appended here under this shard's assignment ⟨d_AB/1:2, root:4⟩. own3
// captured root:4, below the cross block's own γ but not below the
// assignment's, so only a check against the effective γ accepts it.
struct MixedChain {
  CollectionId ab = Coll({0, 1});
  CollectionId root = Coll({0, 1, 2, 3});
  BlockPtr own1 = MakeBlock(ab, 1, 1, {{root, 3}});
  BlockPtr cross = MakeBlock(ab, 0, 7, {{root, 5}});
  LocalPart cross_alpha{ab, 1, 2};
  std::vector<GammaEntry> cross_gamma{{root, 4}};
  BlockPtr own3 = MakeBlock(ab, 1, 3, {{root, 4}});
};

TEST_F(LedgerFixture, EntryReadsItsBlockGammaUnlessAssignedAnother) {
  MixedChain m;
  ASSERT_TRUE(Append(m.own1).ok());
  ASSERT_TRUE(AppendAs(m.cross, m.cross_alpha, m.cross_gamma).ok());
  ASSERT_TRUE(Append(m.own3).ok());
  ASSERT_EQ(ledger.ChainOf({m.ab, 1}).size(), 3u);

  const DagLedger::Entry& own = ledger.entry(0);
  EXPECT_EQ(own.gamma_override, nullptr);
  EXPECT_EQ(&own.gamma(), &own.block->id.gamma) << "a second copy of γ";
  const DagLedger::Entry& cross = ledger.entry(1);
  EXPECT_EQ(cross.alpha, m.cross_alpha);
  ASSERT_NE(cross.gamma_override, nullptr);
  EXPECT_EQ(cross.gamma(), m.cross_gamma);
  EXPECT_EQ(cross.block->id.gamma, (std::vector<GammaEntry>{{m.root, 5}}));
  EXPECT_EQ(ledger.entry(2).gamma_override, nullptr);
  EXPECT_TRUE(ledger.VerifyChain(ks, 3).ok());

  // Another cluster's α with the block's own γ stores no copy either.
  auto other = MakeBlock(Coll({0, 2}), 0, 4, {{m.root, 1}});
  LocalPart other_alpha{Coll({0, 2}), 1, 1};
  ASSERT_TRUE(AppendAs(other, other_alpha, other->id.gamma).ok());
  EXPECT_EQ(ledger.entry(3).gamma_override, nullptr);
}

TEST_F(LedgerFixture, RegressingGammaOverrideIsRejected) {
  MixedChain m;
  ASSERT_TRUE(Append(m.own1).ok());  // root:3
  // The cross block's own γ (root:5) would pass; the assignment's does
  // not.
  EXPECT_EQ(AppendAs(m.cross, m.cross_alpha, {{m.root, 2}}).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(AppendAs(m.cross, m.cross_alpha, m.cross_gamma).ok());
  // The next block is checked against the override (root:4), not
  // against the cross block's own γ.
  EXPECT_EQ(Append(MakeBlock(m.ab, 1, 3, {{m.root, 3}})).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(Append(m.own3).ok());
  ASSERT_TRUE(ledger.VerifyChain(ks, 3).ok());

  // The audit re-checks the effective γ: an override edited in place to
  // regress below its predecessor (root:3) is caught. (The ledger
  // allocates the override non-const, so the edit is well defined.)
  const DagLedger::Entry& cross = ledger.entry(1);
  const_cast<std::vector<GammaEntry>&>(*cross.gamma_override)[0].m = 2;
  EXPECT_EQ(ledger.VerifyChain(ks, 3).code(),
            StatusCode::kFailedPrecondition);
}

TEST(DagLedgerTest, StateReplyShipsEffectiveGamma) {
  // A fresh replica rebuilt from the state-transfer server's reply holds
  // the same entries: the override travels with its block.
  Env env(7);
  DataModel model(4);
  MixedChain m;
  auto submit = [&env](ExecutorCore& core, const BlockPtr& b,
                       const LocalPart& alpha,
                       const std::vector<GammaEntry>& gamma) {
    return core.Submit(b, CertFor(env.keystore, *b), alpha, gamma, nullptr);
  };
  ExecutorCore server(&env, &model, 0, 1);
  for (SeqNo n = 1; n <= 4; ++n) {  // the root state the γs capture
    auto r = MakeBlock(m.root, 1, n);
    ASSERT_TRUE(submit(server, r, r->id.alpha, r->id.gamma).ok());
  }
  ASSERT_TRUE(submit(server, m.own1, m.own1->id.alpha, m.own1->id.gamma).ok());
  ASSERT_TRUE(submit(server, m.cross, m.cross_alpha, m.cross_gamma).ok());
  ASSERT_TRUE(submit(server, m.own3, m.own3->id.alpha, m.own3->id.gamma).ok());
  ASSERT_EQ(server.ledger().size(), 7u);
  ASSERT_EQ(server.pending_blocks(), 0u);

  auto rep = BuildStateReply(server, StateRequestMsg{}, nullptr);
  ASSERT_NE(rep, nullptr);
  ASSERT_EQ(rep->entries.size(), 7u);
  ExecutorCore replica(&env, &model, 0, 1);
  for (const StateReplyMsg::Entry& e : rep->entries) {
    if (e.block == m.cross) {
      EXPECT_EQ(e.gamma, m.cross_gamma);
    }
    Status st = replica.Submit(e.block, e.cert, e.alpha, e.gamma, nullptr);
    ASSERT_TRUE(st.ok());
  }
  ASSERT_EQ(replica.pending_blocks(), 0u);
  ASSERT_EQ(replica.ledger().chains().size(), 2u);
  for (const auto& [ref, chain] : server.ledger().chains()) {
    const std::vector<size_t>& mirror = replica.ledger().ChainOf(ref);
    ASSERT_EQ(mirror.size(), chain.size()) << ref.Label();
    for (size_t i = 0; i < chain.size(); ++i) {
      const DagLedger::Entry& a = server.ledger().entry(chain[i]);
      const DagLedger::Entry& b = replica.ledger().entry(mirror[i]);
      EXPECT_EQ(a.block, b.block);
      EXPECT_EQ(a.alpha, b.alpha);
      EXPECT_EQ(a.gamma(), b.gamma());
      EXPECT_EQ(a.gamma_override == nullptr, b.gamma_override == nullptr);
    }
  }
}

// ------------------------------------------- certificates stand alone

TEST(CommitCertificateTest, PbftFormVerifies) {
  KeyStore ks(5);
  Sha256Digest d = Sha256::Hash("block");
  CommitCertificate cert;
  cert.block_digest = d;
  cert.view = 2;
  cert.slot = 9;
  cert.value_kind = 1;
  Sha256Digest covered = ConsensusSignable(2, 9, ValueDigestFor(1, d));
  for (NodeId i = 0; i < 3; ++i) cert.sigs.push_back(ks.Sign(i, covered));
  EXPECT_TRUE(cert.Valid(ks, 3));
  EXPECT_FALSE(cert.Valid(ks, 4));
  // Changing any binding field invalidates.
  cert.slot = 10;
  EXPECT_FALSE(cert.Valid(ks, 3));
}

TEST(CommitCertificateTest, ValidFromChecksMembership) {
  KeyStore ks(5);
  Sha256Digest d = Sha256::Hash("block");
  CommitCertificate cert;
  cert.block_digest = d;
  cert.direct = true;
  for (NodeId i = 0; i < 3; ++i) cert.sigs.push_back(ks.Sign(i, d));
  EXPECT_TRUE(cert.ValidFrom(ks, 3, {0, 1, 2, 3}));
  // Signer 2 is not a member of the claimed cluster.
  EXPECT_FALSE(cert.ValidFrom(ks, 3, {0, 1, 3, 4}));
}

TEST(BlockTest, DigestCoversIdAndTxs) {
  auto b1 = MakeBlock(Coll({0}), 0, 1);
  auto b2 = MakeBlock(Coll({0}), 0, 2);
  EXPECT_NE(b1->Digest(), b2->Digest());
  auto b3 = MakeBlock(Coll({0}), 0, 1, {}, 4);
  EXPECT_NE(b1->Digest(), b3->Digest());
}

TEST(BlockTest, TamperingInvalidatesMemoizedDigest) {
  // The block digest is memoized at Seal() for the hot paths; audits
  // must still catch post-hoc tampering. RecomputeTxRoot() bypasses
  // every cache, and an explicit invalidation + re-seal yields a new
  // digest.
  Block b;
  b.id.alpha = {Coll({0}), 0, 1};
  b.txs.push_back(MakeTx(7, 5, Coll({0})));
  b.txs.push_back(MakeTx(8, 5, Coll({0})));
  b.Seal();
  const Sha256Digest sealed = b.Digest();

  // Tamper with transaction content behind the caches.
  b.txs[0].ops[0].value += 1;
  // The memoized digest is stale by design (this is why audit paths must
  // recompute)...
  EXPECT_EQ(b.Digest(), sealed);
  // ...and the cache-bypassing audit recompute catches the tampering.
  Sha256Digest root = b.RecomputeTxRoot();
  EXPECT_NE(root, b.tx_root);
  EXPECT_NE(b.RecomputeDigest(root), sealed);

  // Invalidation + re-seal produces the digest of the tampered content.
  for (const auto& tx : b.txs) tx.InvalidateDigest();
  b.InvalidateDigest();
  b.Seal();
  EXPECT_NE(b.Digest(), sealed);
  EXPECT_EQ(b.tx_root, root);
}

TEST(DagLedgerTest, VerifyChainCatchesPostCommitTampering) {
  KeyStore ks(1);
  DagLedger led;
  auto b = MakeBlock(Coll({0}), 0, 1);
  ASSERT_TRUE(led.Append(b, CertFor(ks, *b), 10).ok());
  ASSERT_TRUE(led.VerifyChain(ks, 1).ok());
  // Tamper with the committed block through its shared pointer; the
  // memoized digest still matches the certificate, so only the
  // recomputing audit can notice.
  auto* block = const_cast<Block*>(led.entry(0).block.get());
  block->txs[0].client_ts ^= 1;
  Status st = led.VerifyChain(ks, 1);
  EXPECT_FALSE(st.ok());
}

}  // namespace
}  // namespace qanaat
