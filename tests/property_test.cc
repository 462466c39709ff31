// Property-based tests: invariants checked over randomized inputs and
// parameterized sweeps (TEST_P), complementing the example-based suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "collections/tx_id.h"
#include "common/enterprise_set.h"
#include "common/rng.h"
#include "consensus/batcher.h"
#include "crypto/sha256.h"
#include "firewall/executor_core.h"
#include "ledger/dag_ledger.h"
#include "store/mvstore.h"

namespace qanaat {
namespace {

// ----------------------------------------------- EnterpriseSet lattice

class LatticeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LatticeProperty, SubsetRelationIsAPartialOrder) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    EnterpriseSet a(static_cast<uint16_t>(rng.Next() & 0xff));
    EnterpriseSet b(static_cast<uint16_t>(rng.Next() & 0xff));
    EnterpriseSet c(static_cast<uint16_t>(rng.Next() & 0xff));
    // Reflexive.
    EXPECT_TRUE(a.IsSubsetOf(a));
    // Antisymmetric.
    if (a.IsSubsetOf(b) && b.IsSubsetOf(a)) {
      EXPECT_EQ(a, b);
    }
    // Transitive.
    if (a.IsSubsetOf(b) && b.IsSubsetOf(c)) {
      EXPECT_TRUE(a.IsSubsetOf(c));
    }
    // Union is an upper bound, intersection a lower bound.
    EXPECT_TRUE(a.IsSubsetOf(a.Union(b)));
    EXPECT_TRUE(a.Intersect(b).IsSubsetOf(a));
    // |A| + |B| = |A∪B| + |A∩B|.
    EXPECT_EQ(a.size() + b.size(),
              a.Union(b).size() + a.Intersect(b).size());
  }
}

TEST_P(LatticeProperty, ReadPermissionFollowsOrderDependency) {
  // CanRead ≡ OrderDependentOn ≡ ⊆; CanVerify ≡ ⊃ — and they never
  // both hold unless equal/impossible.
  Rng rng(GetParam() * 31 + 7);
  for (int i = 0; i < 200; ++i) {
    CollectionId x{EnterpriseSet(static_cast<uint16_t>(rng.Next() & 0xff))};
    CollectionId y{EnterpriseSet(static_cast<uint16_t>(rng.Next() & 0xff))};
    EXPECT_EQ(x.CanRead(y), x.members.IsSubsetOf(y.members));
    EXPECT_EQ(x.CanVerify(y), y.members.IsProperSubsetOf(x.members));
    if (x.CanRead(y) && x.CanVerify(y)) {
      ADD_FAILURE() << "read and verify cannot both hold";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatticeProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// --------------------------------------------------- SHA-256 streaming

class ShaChunking : public ::testing::TestWithParam<int> {};

TEST_P(ShaChunking, IncrementalEqualsOneShotForAnyChunking) {
  Rng rng(GetParam());
  std::string data;
  for (int i = 0; i < 777; ++i) {
    data.push_back(static_cast<char>(rng.Next() & 0xff));
  }
  Sha256 h;
  size_t pos = 0;
  while (pos < data.size()) {
    size_t chunk = 1 + rng.Uniform(100);
    chunk = std::min(chunk, data.size() - pos);
    h.Update(data.data() + pos, chunk);
    pos += chunk;
  }
  EXPECT_EQ(h.Finalize(), Sha256::Hash(data));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShaChunking,
                         ::testing::Range(100, 110));

// ------------------------------------------- MvStore snapshot semantics

class MvStoreProperty : public ::testing::TestWithParam<uint64_t> {};

/// Reference model: every accepted write per key, by version.
using VersionLog = std::map<uint64_t, std::map<SeqNo, int64_t>>;

/// Draws a key: a quarter from a hot set of 20 (long version chains),
/// the rest from a space wide enough to grow the index from its initial
/// 256 buckets to 8192.
uint64_t RandomKey(Rng& rng) {
  return rng.Uniform(4) == 0 ? rng.Uniform(20) : 1000 + rng.Uniform(8000);
}

/// Applies a random history at increasing versions to `store` and
/// returns its model. One write in eight is repeated at the same version
/// (the last one wins), and every tenth version also tries a version
/// regression on a hot key, which must be refused and change nothing.
VersionLog ApplyRandomHistory(uint64_t seed, MvStore* store) {
  Rng rng(seed);
  VersionLog log;
  for (SeqNo version = 1; version <= 2000; ++version) {
    int writes = 1 + static_cast<int>(rng.Uniform(4));
    for (int w = 0; w < writes; ++w) {
      uint64_t key = RandomKey(rng);
      int repeats = rng.Uniform(8) == 0 ? 2 : 1;
      for (int r = 0; r < repeats; ++r) {
        auto val = static_cast<int64_t>(rng.Uniform(1000));
        EXPECT_TRUE(store->Put(key, val, version).ok());
        log[key][version] = val;
      }
    }
    auto hot = log.find(rng.Uniform(20));
    if (version % 10 == 0 && hot != log.end() &&
        hot->second.rbegin()->first > 1) {
      SeqNo stale = 1 + rng.Uniform(hot->second.rbegin()->first - 1);
      EXPECT_EQ(store->Put(hot->first, -1, stale).code(),
                StatusCode::kFailedPrecondition);
    }
  }
  return log;
}

TEST_P(MvStoreProperty, SnapshotReadEqualsSerialReplay) {
  // Model: GetAt(k, v) must equal the last write to k at version <= v in
  // the reference log, and Get/Find the last write of all.
  MvStore store;
  VersionLog log = ApplyRandomHistory(GetParam(), &store);
  SeqNo version = store.latest_version();
  ASSERT_EQ(version, 2000u);
  EXPECT_EQ(store.key_count(), log.size());
  EXPECT_GT(store.key_count(), 2048u);  // the index doubled five times
  for (const auto& [key, versions] : log) {
    EXPECT_EQ(store.VersionCountOf(key), versions.size()) << key;
    ASSERT_NE(store.Find(key), nullptr) << key;
    EXPECT_EQ(*store.Find(key), versions.rbegin()->second) << key;
  }
  EXPECT_EQ(store.Find(999), nullptr);
  EXPECT_EQ(store.VersionCountOf(999), 0u);
  Rng rng(GetParam() + 1);
  for (int probe = 0; probe < 3000; ++probe) {
    uint64_t key = RandomKey(rng);
    SeqNo at = rng.Uniform(version + 1);
    const int64_t* expect = nullptr;
    auto it = log.find(key);
    if (it != log.end()) {
      auto after = it->second.upper_bound(at);
      if (after != it->second.begin()) expect = &std::prev(after)->second;
    }
    auto got = store.GetAt(key, at);
    if (expect == nullptr) {
      EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
    } else {
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, *expect);
    }
  }
}

TEST_P(MvStoreProperty, FingerprintIgnoresKeyOrder) {
  // A replica rebuilt by state transfer writes the same keys in another
  // order than one that executed live; the auditor compares the two by
  // Fingerprint. Replay each key's history, keys in shuffled order.
  MvStore live;
  VersionLog log = ApplyRandomHistory(GetParam(), &live);
  std::vector<uint64_t> keys;
  for (const auto& entry : log) keys.push_back(entry.first);
  Rng rng(GetParam() * 7 + 3);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Uniform(i)]);
  }
  MvStore rebuilt;
  for (uint64_t key : keys) {
    for (const auto& [version, val] : log[key]) {
      ASSERT_TRUE(rebuilt.Put(key, val, version).ok());
    }
  }
  EXPECT_EQ(rebuilt.Fingerprint(), live.Fingerprint());
  // The latest (version, value) of every key is covered.
  ASSERT_TRUE(rebuilt.Put(keys.front(), -7, live.latest_version()).ok());
  EXPECT_NE(rebuilt.Fingerprint(), live.Fingerprint());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MvStoreProperty,
                         ::testing::Values(11, 22, 33, 44));

// --------------------------------------------- DAG ledger γ invariants

class LedgerGammaProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LedgerGammaProperty, RandomMonotoneHistoriesAlwaysAudit) {
  Rng rng(GetParam());
  KeyStore ks(9);
  DagLedger ledger;
  CollectionId root{EnterpriseSet{0, 1, 2, 3}};
  CollectionId abc{EnterpriseSet{0, 1, 2}};
  CollectionId ab{EnterpriseSet{0, 1}};
  std::map<CollectionId, SeqNo> state;  // simulated committed state

  auto append = [&](const CollectionId& c,
                    std::vector<CollectionId> deps) -> Status {
    auto b = std::make_shared<Block>();
    b->id.alpha = {c, 0, state[c] + 1};
    for (const auto& d : deps) {
      b->id.gamma.push_back({d, state[d]});
    }
    Transaction tx;
    tx.collection = c;
    tx.client_ts = rng.Next();
    tx.ops.push_back(TxOp{TxOp::Kind::kAdd, rng.Uniform(10), 1, {}});
    b->txs.push_back(tx);
    b->Seal();
    CommitCertificate cert;
    cert.block_digest = b->Digest();
    cert.direct = true;
    for (NodeId n = 0; n < 3; ++n) {
      cert.sigs.push_back(ks.Sign(n, cert.block_digest));
    }
    Status st = ledger.Append(b, cert, 0);
    if (st.ok()) state[c]++;
    return st;
  };

  // Random interleaving of appends across the three chains; γ always
  // captures the current committed state, so every append must succeed
  // and the full audit must pass.
  for (int i = 0; i < 300; ++i) {
    switch (rng.Uniform(3)) {
      case 0:
        ASSERT_TRUE(append(root, {}).ok());
        break;
      case 1:
        ASSERT_TRUE(append(abc, {root}).ok());
        break;
      default:
        ASSERT_TRUE(append(ab, {abc, root}).ok());
        break;
    }
  }
  EXPECT_TRUE(ledger.VerifyChain(ks, 3).ok());
  // Heads equal the simulated state.
  EXPECT_EQ(ledger.HeadOf({root, 0}), state[root]);
  EXPECT_EQ(ledger.HeadOf({abc, 0}), state[abc]);
  EXPECT_EQ(ledger.HeadOf({ab, 0}), state[ab]);
}

TEST_P(LedgerGammaProperty, RegressingGammaAlwaysRejected) {
  Rng rng(GetParam() + 1000);
  KeyStore ks(9);
  DagLedger ledger;
  CollectionId root{EnterpriseSet{0, 1}};
  CollectionId local{EnterpriseSet{0}};

  auto make = [&](SeqNo n, SeqNo gamma_m) {
    auto b = std::make_shared<Block>();
    b->id.alpha = {local, 0, n};
    b->id.gamma.push_back({root, gamma_m});
    Transaction tx;
    tx.collection = local;
    tx.client_ts = n;
    tx.ops.push_back(TxOp{TxOp::Kind::kAdd, 1, 1, {}});
    b->txs.push_back(tx);
    b->Seal();
    CommitCertificate cert;
    cert.block_digest = b->Digest();
    cert.direct = true;
    cert.sigs.push_back(ks.Sign(0, cert.block_digest));
    return std::make_pair(b, cert);
  };

  SeqNo gamma = 5;
  for (SeqNo n = 1; n <= 50; ++n) {
    // γ advances by a random non-negative amount...
    gamma += rng.Uniform(3);
    auto [b, cert] = make(n, gamma);
    ASSERT_TRUE(ledger.Append(b, cert, 0).ok());
    // ...and any attempt to regress is rejected.
    if (gamma > 0) {
      auto [bad, bad_cert] = make(n + 1, gamma - 1 - rng.Uniform(gamma));
      EXPECT_EQ(ledger.Append(bad, bad_cert, 0).code(),
                StatusCode::kFailedPrecondition);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LedgerGammaProperty,
                         ::testing::Values(5, 6, 7));

// ------------------------------------------------ executor determinism

class ExecutorDeterminism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorDeterminism, ReplicasProduceIdenticalResults) {
  // Two independent executor cores fed the same blocks must produce
  // byte-identical result digests and store contents — the property that
  // lets g+1 matching replies certify execution (paper §4.2).
  Rng rng(GetParam());
  Env env1(1), env2(2);  // different environments, same inputs
  DataModel model(2);
  ASSERT_TRUE(model.AddWorkflow(EnterpriseSet::All(2)).ok());
  ExecutorCore a(&env1, &model, 0, 0);
  ExecutorCore b(&env2, &model, 0, 0);
  KeyStore ks(3);

  CollectionId root{EnterpriseSet::All(2)};
  CollectionId local{EnterpriseSet::Single(0)};
  std::map<CollectionId, SeqNo> seq;

  for (int i = 0; i < 100; ++i) {
    CollectionId c = rng.Uniform(2) ? root : local;
    auto blk = std::make_shared<Block>();
    blk->id.alpha = {c, 0, ++seq[c]};
    if (c == local) blk->id.gamma.push_back({root, seq[root]});
    int ntx = 1 + static_cast<int>(rng.Uniform(5));
    for (int t = 0; t < ntx; ++t) {
      Transaction tx;
      tx.collection = c;
      tx.client = 1;
      tx.client_ts = static_cast<uint64_t>(i) * 100 + t;
      tx.ops.push_back(TxOp{TxOp::Kind::kAdd, rng.Uniform(30),
                            static_cast<int64_t>(rng.Uniform(100)) - 50,
                            {}});
      if (c == local && rng.Uniform(3) == 0) {
        tx.ops.push_back(
            TxOp{TxOp::Kind::kReadDep, rng.Uniform(30), 0, root});
      }
      blk->txs.push_back(std::move(tx));
    }
    blk->Seal();
    CommitCertificate cert;
    cert.block_digest = blk->Digest();
    cert.direct = true;
    cert.sigs.push_back(ks.Sign(0, cert.block_digest));

    Sha256Digest ra, rb;
    ASSERT_TRUE(a.Submit(blk, cert, blk->id.alpha, blk->id.gamma,
                         [&ra](const ExecutorCore::ExecResult& r) {
                           ra = r.result_digest;
                         })
                    .ok());
    ASSERT_TRUE(b.Submit(blk, cert, blk->id.alpha, blk->id.gamma,
                         [&rb](const ExecutorCore::ExecResult& r) {
                           rb = r.result_digest;
                         })
                    .ok());
    ASSERT_EQ(ra, rb) << "divergent execution at block " << i;
  }
  // Store contents agree on every key.
  for (uint64_t key = 0; key < 30; ++key) {
    auto va = a.StoreOf(local).Get(key);
    auto vb = b.StoreOf(local).Get(key);
    ASSERT_EQ(va.ok(), vb.ok());
    if (va.ok()) {
      EXPECT_EQ(*va, *vb);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorDeterminism,
                         ::testing::Values(101, 202, 303, 404, 505));

// --------------------------------------------------- Zipf distribution

TEST(ZipfProperty, FrequenciesDecreaseWithRank) {
  Rng rng(77);
  for (double s : {0.5, 1.0, 2.0}) {
    Zipf z(1000, s);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 100000; ++i) counts[z.Sample(rng)]++;
    // Coarse monotonicity over rank buckets.
    int head = counts[0] + counts[1] + counts[2];
    int mid = counts[10] + counts[11] + counts[12];
    int tail = counts[500] + counts[501] + counts[502];
    EXPECT_GT(head, mid);
    EXPECT_GE(mid, tail);
  }
}

// ---------------------------------- Batcher under chaotic interleavings

class BatcherProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatcherProperty, ConservationUnderRandomTimersAndCrashes) {
  // Model a host that interleaves adds across flows with timers firing
  // in arbitrary order, duplicated/stale timer tokens, forced flushes,
  // and crash-style resets (all armed timers die, pending items drop).
  // Invariants:
  //  * every item is flushed at most once, in FIFO order per flow;
  //  * after the final FlushAll, every item was either flushed or lost
  //    to a crash reset — never silently retained;
  //  * no batch exceeds max_batch; size-closed batches are exactly full;
  //  * a crash-reset batcher keeps working (the armed-timer flags must
  //    not outlive the timers, or timeout flushes stop forever).
  Rng rng(GetParam());
  BatcherConfig cfg;
  cfg.max_batch = 1 + static_cast<int>(rng.Uniform(8));
  cfg.flush_timeout_us = 1000;

  std::vector<uint64_t> armed_tokens;  // live timers (die on crash)
  std::map<int, std::vector<uint64_t>> flushed_per_flow;
  std::set<uint64_t> flushed;
  uint64_t lost_to_crash = 0;

  Batcher<uint64_t, int> batcher(
      cfg,
      [&](SimTime /*delay*/, uint64_t token) { armed_tokens.push_back(token); },
      [&](const int& flow, std::vector<uint64_t> items, BatchClose why) {
        ASSERT_LE(items.size(), static_cast<size_t>(cfg.max_batch));
        if (why == BatchClose::kSize) {
          EXPECT_EQ(items.size(), static_cast<size_t>(cfg.max_batch));
        }
        for (uint64_t it : items) {
          EXPECT_TRUE(flushed.insert(it).second) << "item flushed twice";
          flushed_per_flow[flow].push_back(it);
        }
      });

  uint64_t next_item = 0;
  std::map<int, uint64_t> pending_count;
  for (int step = 0; step < 3000; ++step) {
    switch (rng.Uniform(10)) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4:
      case 5: {  // add an item to a random flow
        int flow = static_cast<int>(rng.Uniform(4));
        batcher.Add(flow, next_item++);
        break;
      }
      case 6: {  // fire a random live timer (arbitrary order)
        if (armed_tokens.empty()) break;
        size_t i = rng.Uniform(armed_tokens.size());
        uint64_t tok = armed_tokens[i];
        armed_tokens.erase(armed_tokens.begin() + static_cast<long>(i));
        batcher.OnTimer(tok);
        break;
      }
      case 7: {  // fire a stale/duplicated token: must be a no-op
        batcher.OnTimer(rng.Next());
        break;
      }
      case 8: {  // forced flush (leadership change)
        if (rng.Uniform(4) == 0) batcher.FlushAll();
        break;
      }
      case 9: {  // crash: timers die, pending items are lost
        if (rng.Uniform(8) != 0) break;
        uint64_t pending = batcher.items_in() - flushed.size() -
                           lost_to_crash;
        lost_to_crash += pending;
        armed_tokens.clear();
        batcher.Reset();
        break;
      }
    }
  }
  // Quiesce: fire every remaining timer, then force-flush.
  for (uint64_t tok : armed_tokens) batcher.OnTimer(tok);
  batcher.FlushAll();

  // Conservation: in = flushed + lost.
  EXPECT_EQ(batcher.items_in(), flushed.size() + lost_to_crash);
  // FIFO per flow.
  for (const auto& [flow, items] : flushed_per_flow) {
    for (size_t i = 1; i < items.size(); ++i) {
      EXPECT_LT(items[i - 1], items[i]) << "flow " << flow
                                        << " flushed out of order";
    }
  }
  // The batcher still works after everything above.
  uint64_t before = batcher.batches_closed();
  for (int i = 0; i < cfg.max_batch; ++i) batcher.Add(0, next_item++);
  EXPECT_EQ(batcher.batches_closed(), before + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatcherProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------------- TxId predicates

class TxIdProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TxIdProperty, GlobalConsistencyIsIntersectionMonotonicity) {
  Rng rng(GetParam());
  CollectionId chain{EnterpriseSet{0, 1}};
  std::vector<CollectionId> deps = {
      CollectionId{EnterpriseSet{0, 1, 2}},
      CollectionId{EnterpriseSet{0, 1, 3}},
      CollectionId{EnterpriseSet{0, 1, 2, 3}},
  };
  for (int i = 0; i < 300; ++i) {
    TxId a, b;
    a.alpha = {chain, 0, 1};
    b.alpha = {chain, 0, 2};
    bool violates = false;
    for (const auto& d : deps) {
      bool in_a = rng.Uniform(2);
      bool in_b = rng.Uniform(2);
      SeqNo ma = rng.Uniform(10);
      SeqNo mb = rng.Uniform(10);
      if (in_a) a.gamma.push_back({d, ma});
      if (in_b) b.gamma.push_back({d, mb});
      if (in_a && in_b && ma > mb) violates = true;
    }
    EXPECT_EQ(CheckGlobalConsistency(a, b).ok(), !violates);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxIdProperty,
                         ::testing::Values(42, 43, 44, 45));

}  // namespace
}  // namespace qanaat
