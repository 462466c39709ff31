// Memory budgets for the per-commit replica state that grows with every
// committed transaction at every replica: the multi-versioned store, the
// DAG ledger and the permanent at-most-once record. Each is filled with
// 1k to 300k entries, and its heap growth is divided by the entry count.
// A last case checks that sealed blocks carry no spare capacity, and one
// that the clients' settle marks bound the per-client records.

#include <malloc.h>

#include <gtest/gtest.h>

#include <cstdio>

#include "ledger/dag_ledger.h"
#include "protocols/request_table.h"
#include "qanaat/system.h"
#include "store/mvstore.h"

namespace qanaat {
namespace {

#if defined(__SANITIZE_ADDRESS__)
#define QANAAT_MALLOC_REPLACED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define QANAAT_MALLOC_REPLACED 1
#endif
#endif

constexpr size_t kSizes[] = {1000, 10000, 100000, 300000};

// Every replica's ledger holds each committed transaction, and the settle
// mark must not grow it: its members are ordered to pack.
static_assert(sizeof(Transaction) <= 144, "Transaction grew");

/// Bytes the heap has handed out: small chunks (uordblks) plus mmapped
/// ones (hblkhd). Large buffers are mmapped, so uordblks alone
/// undercounts them.
double HeapInUse() {
  struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

class MemoryBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef QANAAT_MALLOC_REPLACED
    GTEST_SKIP() << "AddressSanitizer replaces malloc; mallinfo2 sees none "
                    "of its allocations";
#endif
  }
};

TEST_F(MemoryBudgetTest, MvStoreAtMost44BytesPerKey) {
  // 9k and 17k keys sit just past a doubling of a vector-backed array
  // (8,192 and 16,384 records), where its slack peaks.
  constexpr size_t kStoreSizes[] = {1000, 9000, 10000, 17000, 100000, 300000};
  for (size_t n : kStoreSizes) {
    double before = HeapInUse();
    MvStore store;
    // A handful of fresh keys per committed version, as SmallBank
    // transactions write them: one version per key.
    for (size_t k = 0; k < n; ++k) {
      ASSERT_TRUE(store.Put(k, static_cast<int64_t>(k), k / 4 + 1).ok());
    }
    double per_key = (HeapInUse() - before) / static_cast<double>(n);
    std::printf("MvStore, %zu keys: %.1f B/key\n", n, per_key);
    EXPECT_LE(per_key, 44.0) << n << " keys";
  }
}

TEST_F(MemoryBudgetTest, DagLedgerAtMost200BytesPerEntry) {
  // Blocks this cluster ordered itself, appended under their own ID, as
  // most blocks of a run are. Each carries an 8-entry γ and a
  // one-signature direct certificate (a crash cluster's). The blocks and
  // certificates exist before the measured window; each entry copies its
  // certificate, as every replica holds one of its own.
  KeyStore ks(7);
  const CollectionId c(EnterpriseSet{0});
  constexpr size_t kLedgerSizes[] = {1000, 10000, 100000};
  for (size_t n : kLedgerSizes) {
    std::vector<BlockPtr> blocks;
    std::vector<CommitCertificate> certs;
    blocks.reserve(n);
    certs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      auto b = std::make_shared<Block>();
      b->id.alpha = {c, 0, i + 1};
      for (uint16_t d = 1; d <= 8; ++d) {
        b->id.gamma.push_back({CollectionId(EnterpriseSet(d)), i + 1});
      }
      b->Seal();
      CommitCertificate cert;
      cert.block_digest = b->Digest();
      cert.direct = true;
      cert.sigs.push_back(ks.Sign(0, cert.block_digest));
      blocks.push_back(std::move(b));
      certs.push_back(std::move(cert));
    }
    double before = HeapInUse();
    DagLedger ledger;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(ledger.Append(blocks[i], certs[i], 0).ok());
    }
    double per_entry = (HeapInUse() - before) / static_cast<double>(n);
    std::printf("DagLedger, %zu entries: %.1f B/entry\n", n, per_entry);
    EXPECT_LE(per_entry, 200.0) << n << " entries";
  }
}

TEST_F(MemoryBudgetTest, RequestSetAtMost24BytesPerRequest) {
  // The benchmark's 16 client machines, their requests interleaved.
  constexpr NodeId kClients = 16;
  for (size_t n : kSizes) {
    double before = HeapInUse();
    RequestSet set;
    for (size_t i = 0; i < n; ++i) {
      set.Insert({static_cast<NodeId>(i % kClients), i / kClients});
    }
    ASSERT_EQ(set.size(), n);
    double per_request = (HeapInUse() - before) / static_cast<double>(n);
    std::printf("RequestSet, %zu requests: %.1f B/request\n", n,
                per_request);
    EXPECT_LE(per_request, 24.0) << n << " requests";
  }
}

TEST(SettleMarkTest, PerClientRecordsStayWithinOutstandingRequests) {
  // Not a heap count, so it runs under ASan too. A 2x2 deployment behind
  // the privacy firewall, four clients, a tenth of it cross-shard. Every
  // entry a node keeps for a client (committed record and reply record)
  // lies between the node's mark for that client and the client's newest
  // timestamp, and the node's mark trails the client's own only by the
  // requests issued since the node last heard from the client. So each
  // node's entries stay within twice the clients' outstanding requests
  // (from each one's mark to its newest timestamp) at their peak so far,
  // however many requests have committed.
  SystemParams p;
  p.num_enterprises = 2;
  p.shards_per_enterprise = 2;
  p.failure_model = FailureModel::kByzantine;
  p.use_firewall = true;
  p.family = ProtocolFamily::kFlattened;
  QanaatSystem::Options opts;
  opts.params = p;
  opts.seed = 4;
  QanaatSystem sys(std::move(opts));
  WorkloadParams wl;
  wl.cross_kind = CrossKind::kCrossShardCrossEnterprise;
  wl.cross_fraction = 0.1;
  std::vector<ClientMachine*> clients;
  const SimTime stop = 1500 * kMillisecond;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(sys.AddClient(wl, 1000.0));
    clients.back()->SetRetransmitTimeout(250 * kMillisecond);
    clients.back()->Start(0, stop, 0, stop);
  }
  std::vector<const OrderingNode*> nodes;
  for (int c = 0; c < sys.cluster_count(); ++c) {
    for (size_t i = 0; i < sys.directory().Cluster(c).ordering.size(); ++i) {
      nodes.push_back(sys.ordering_node(c, static_cast<int>(i)));
    }
  }
  size_t peak_entries = 0, peak_outstanding = 0;
  for (SimTime t = 50 * kMillisecond; t <= stop; t += 50 * kMillisecond) {
    sys.env().sim.Run(t);
    size_t outstanding = 0;
    for (const ClientMachine* c : clients) {
      outstanding += c->issued() + 1 - c->settle_mark();
    }
    peak_outstanding = std::max(peak_outstanding, outstanding);
    for (const OrderingNode* n : nodes) {
      size_t entries = n->client_record_entries();
      peak_entries = std::max(peak_entries, entries);
      EXPECT_LE(entries, 2 * peak_outstanding) << "at " << t << " us";
    }
  }
  sys.env().sim.Run(stop + 500 * kMillisecond);
  std::printf("peak entries per node %zu, peak outstanding %zu\n",
              peak_entries, peak_outstanding);
  for (const ClientMachine* c : clients) {
    EXPECT_EQ(c->accepted(), c->issued());
  }
  for (const OrderingNode* n : nodes) {
    EXPECT_GT(n->committed_txs(), 20 * peak_entries);
  }
}

bool PowerOfTwo(size_t n) { return n != 0 && (n & (n - 1)) == 0; }

TEST(SealedBlockTest, LedgerBlocksHoldNoGrowthSlack) {
  // Not a heap count, so it runs under ASan too. A batch grown by
  // push_back has spare capacity unless its size is a power of two;
  // every sealed block in a ledger must have none.
  SystemParams p;
  p.failure_model = FailureModel::kCrash;
  p.use_firewall = false;
  p.family = ProtocolFamily::kFlattened;
  p.num_enterprises = 2;
  p.shards_per_enterprise = 2;
  QanaatSystem::Options opts;
  opts.params = p;
  opts.seed = 3;
  QanaatSystem sys(std::move(opts));
  WorkloadParams wl;
  wl.cross_kind = CrossKind::kCrossShardCrossEnterprise;
  wl.cross_fraction = 0.1;
  ClientMachine* client = sys.AddClient(wl, 4000.0);
  client->Start(0, 300 * kMillisecond, 0, 300 * kMillisecond);
  sys.env().sim.Run(800 * kMillisecond);

  size_t blocks = 0, uneven = 0, with_slack = 0;
  for (int c = 0; c < sys.cluster_count(); ++c) {
    const DagLedger& led = sys.ordering_node(c, 0)->exec_core().ledger();
    for (size_t i = 0; i < led.size(); ++i) {
      const std::vector<Transaction>& txs = led.entry(i).block->txs;
      ++blocks;
      if (!PowerOfTwo(txs.size())) ++uneven;
      if (txs.capacity() != txs.size()) ++with_slack;
    }
  }
  std::printf("%zu blocks, %zu uneven, %zu with slack\n", blocks, uneven,
              with_slack);
  EXPECT_GT(blocks, 100u);
  // Only a block of 3, 5, 6, 7, ... transactions can show slack.
  EXPECT_GT(uneven, 10u);
  EXPECT_EQ(with_slack, 0u);
}

}  // namespace
}  // namespace qanaat
