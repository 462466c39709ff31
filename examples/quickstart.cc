// Quickstart: stand up a 2-enterprise Qanaat deployment, submit a few
// transactions on local and shared data collections, and inspect the
// resulting DAG ledger.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "qanaat/system.h"

using namespace qanaat;

int main() {
  // ---- 1. Configure the deployment -------------------------------------
  // Two enterprises (A and B), two data shards each, Byzantine failure
  // model with the privacy firewall enabled: every cluster has 3f+1
  // ordering nodes, 2g+1 execution nodes and an (h+1)x(h+1) filter grid.
  QanaatSystem::Options opts;
  opts.params.num_enterprises = 2;
  opts.params.shards_per_enterprise = 2;
  opts.params.failure_model = FailureModel::kByzantine;
  opts.params.use_firewall = true;
  opts.params.family = ProtocolFamily::kFlattened;
  opts.seed = 2026;
  QanaatSystem sys(std::move(opts));

  std::printf("Deployment: %d clusters, %zu simulated nodes\n",
              sys.cluster_count(), sys.net().node_count());
  std::printf("Collections:\n");
  for (const auto& c : sys.model().Collections()) {
    std::printf("  %-8s shards=%d %s\n", c.Label().c_str(),
                sys.model().ShardCountOf(c),
                c.IsLocal() ? "(local)"
                            : (c.IsRootOf(2) ? "(root)" : "(intermediate)"));
  }

  // ---- 2. Drive a workload ---------------------------------------------
  // A client machine issuing SmallBank payments: 70% internal (on d_A /
  // d_B), 30% on the shared collection d_AB.
  WorkloadParams wl;
  wl.cross_kind = CrossKind::kIntraShardCrossEnterprise;
  wl.cross_fraction = 0.3;
  ClientMachine* client = sys.AddClient(wl, /*rate_tps=*/500);
  client->Start(/*start=*/0, /*stop=*/1 * kSecond,
                /*measure_from=*/0, /*measure_to=*/1 * kSecond);

  // ---- 3. Run the simulation -------------------------------------------
  sys.env().sim.Run(2 * kSecond);

  std::printf("\nissued:   %llu transactions\n",
              static_cast<unsigned long long>(client->issued()));
  std::printf("accepted: %llu (mean latency %.2f ms)\n",
              static_cast<unsigned long long>(client->accepted()),
              client->latencies().Mean() / 1000.0);

  // ---- 4. Inspect a ledger ----------------------------------------------
  // Enterprise A, shard 0. Its DAG ledger holds chains for d_A (its own
  // transactions) and d_AB (replicated shared transactions), cross-linked
  // by the γ entries of each block ID.
  const DagLedger& ledger = sys.execution_node(0, 0)->core().ledger();
  std::printf("\nLedger of enterprise A, shard 0: %zu blocks, %llu txs\n",
              ledger.size(),
              static_cast<unsigned long long>(ledger.total_txs()));
  size_t show = std::min<size_t>(ledger.size(), 6);
  for (size_t i = 0; i < show; ++i) {
    const auto& e = ledger.entry(i);
    std::printf("  block %-28s txs=%-3zu cert_sigs=%zu\n",
                TxId{e.alpha, {}, e.gamma()}.ToString().c_str(),
                e.block->tx_count(), e.cert.sigs.size());
  }

  // ---- 5. Audit ----------------------------------------------------------
  Status audit = ledger.VerifyChain(sys.env().keystore,
                                    sys.directory().params.CertQuorum());
  std::printf("\nledger audit: %s\n", audit.ToString().c_str());
  return audit.ok() ? 0 : 1;
}
