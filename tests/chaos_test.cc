// Deterministic chaos suite: seed-expanded fault schedules (crash/recover,
// partitions, duplication, reordering, loss) against every protocol stack,
// with the SafetyAuditor checking cross-replica agreement continuously and
// at quiesce. Every run here is replayable: a red seed is a one-line
// regression test (see the Replay suite and README "Fault model & chaos
// testing").

#include <gtest/gtest.h>

#include "harness/chaos.h"
#include "harness/corpus.h"
#include "sim/faults.h"

namespace qanaat {
namespace {

// The canonical benign corpus recipe now lives in harness/corpus.h
// (EntryOptions); this suite pins its trace hashes, so any drift in the
// shared recipe — here or in the run_corpus driver — trips the goldens.
ChaosOptions CorpusOptions(ChaosStack stack, uint64_t seed) {
  return EntryOptions(CorpusEntry{stack, seed, AdversaryKind::kNone});
}

class ChaosCorpus
    : public ::testing::TestWithParam<std::tuple<ChaosStack, uint64_t>> {};

TEST_P(ChaosCorpus, SafetyHoldsAndLivenessResumes) {
  auto [stack, seed] = GetParam();
  ChaosOptions opts = CorpusOptions(stack, seed);
  ChaosReport r = RunChaos(opts);
  EXPECT_TRUE(r.safety.ok())
      << ChaosStackName(stack) << " seed " << seed << ": "
      << r.safety.ToString() << "\n"
      << r.plan_summary;
  EXPECT_GT(r.faults_applied, 0u) << r.plan_summary;
  // The corpus keeps duplication/reordering always on; make sure the
  // injected faults actually bit.
  EXPECT_GT(r.net_duplicated + r.net_reordered, 0u);
  // Liveness: transactions keep settling after every fault healed.
  EXPECT_TRUE(r.liveness_resumed)
      << ChaosStackName(stack) << " seed " << seed << ": commits "
      << r.commits_at_heal << " at heal, " << r.commits_total << " total";
  EXPECT_GT(r.commits_total, 100u);
  if (opts.profile.loss == 0.0 && r.safety.ok()) {
    EXPECT_TRUE(r.convergence_checked);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedSweep, ChaosCorpus,
    ::testing::Combine(::testing::Values(ChaosStack::kQanaatPbft,
                                         ChaosStack::kQanaatPaxos,
                                         ChaosStack::kFabric),
                       ::testing::Range<uint64_t>(1, 21)),
    [](const ::testing::TestParamInfo<ChaosCorpus::ParamType>& info) {
      std::string stack;
      switch (std::get<0>(info.param)) {
        case ChaosStack::kQanaatPbft:
          stack = "QanaatPbft";
          break;
        case ChaosStack::kQanaatPaxos:
          stack = "QanaatPaxos";
          break;
        case ChaosStack::kFabric:
          stack = "Fabric";
          break;
      }
      return stack + "Seed" + std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------------------ replayability

TEST(ChaosReplay, SameSeedSameTrace) {
  for (uint64_t seed : {3u, 8u}) {
    ChaosOptions opts = CorpusOptions(ChaosStack::kQanaatPbft, seed);
    ChaosReport a = RunChaos(opts);
    ChaosReport b = RunChaos(opts);
    EXPECT_EQ(a.trace_hash, b.trace_hash) << "seed " << seed;
    EXPECT_EQ(a.commits_total, b.commits_total);
    EXPECT_EQ(a.faults_applied, b.faults_applied);
    EXPECT_EQ(a.net_duplicated, b.net_duplicated);
    EXPECT_EQ(a.net_reordered, b.net_reordered);
  }
}

// Golden seeds: trace hashes pinned on the checkpoint/state-transfer
// subsystem's introduction. Re-pinned from the PR-3 values because this
// PR deliberately changes every corpus schedule, not just speed: random
// plans now draw victims from ALL ordering nodes (primaries included),
// so MakeRandomPlan's RNG consumption differs; engines broadcast
// CHECKPOINT votes every checkpoint_interval slots; Fabric peers poll
// the ordering service for missed blocks; and fill requests grew a
// view-sync field. Replayability itself is unchanged — ChaosReplay
// proves seed => identical trace — and any UNINTENDED scheduling drift
// from future refactors will still trip these pins.
TEST(ChaosGolden, TraceHashesMatchPinnedSchedules) {
  struct Golden {
    ChaosStack stack;
    uint64_t seed;
    uint64_t trace_hash;
    bool firewall = false;
  };
  // Expanded to 5 seeds x 3 stacks by the protocol hot-path overhaul
  // (timer wheel, Paxos slot flattening, signable memoization). Every
  // value below was captured on the tree BEFORE that overhaul — the PR's
  // explicit acceptance bar is that pure performance work changes no
  // schedule, so these pins must NOT be re-pinned by perf refactors; a
  // mismatch means the optimization changed observable behavior.
  // Qanaat pins re-pinned for the §4.3.5 conflict-resolution PR. The
  // intentional behavior changes that moved them: (1) the cross-shard
  // retry path drops transactions that already committed elsewhere and
  // redrives consult the ledger before re-claiming a contested slot
  // (exactly-once); (2) commit votes arriving for a block a replica
  // never saw proposed now arm the §4.3.4 query timer (closing the
  // lost-FPropose tail gap); (3) state transfer serves certified blocks
  // still pending a predecessor (closing the recovery-during-wedge tail
  // gap). Each adds recovery traffic only on faulty schedules — these
  // seeds crash and drop, so their schedules legitimately moved. The
  // Fabric baseline has no cross-shard machinery: its pins MUST hold.
  // All ten Qanaat pins re-pinned again for intake parking: a primary
  // whose committed blocks sit deferred now parks client requests and
  // replays them the moment it catches up, instead of dropping them until
  // the client retransmits. Every Qanaat run defers blocks (recovering
  // replicas, out-of-order cross-shard commits), so every Qanaat schedule
  // moved; every audit still passes. Observers of a live cross proposal
  // now pin its requests too, and the relay watchdog no longer reads a
  // pin as proof of a live primary (pbft/12 and paxos/2 exercise both).
  // The Fabric pins did not move.
  // The two `firewall` rows run separated execution behind the privacy
  // firewall with ChaosFirewall's overrides (Byzantine executor, intra-
  // shard cross-enterprise traffic): seed 11 is flattened, seed 12
  // coordinator-based. Chaos plans crash only ordering nodes, so these
  // guard the ordering side of the firewall path — the push to
  // execution, cross-instance settling and the ordering-side state
  // server — which no benign row exercises.
  // All twelve Qanaat pins re-pinned when the network began charging
  // each message its encoded size (envelope + field-list body + stand-in
  // row) instead of hand-kept estimates 1.3-1.8x larger. Transmission
  // time counts whole microseconds (bytes / 1,250 B/us, truncated), and
  // in every Qanaat run some block-carrying message lost one, so every
  // Qanaat schedule moved; every audit still passes. No Fabric message
  // in these runs changed its count, so the Fabric pins held.
  static const Golden kGolden[] = {
      {ChaosStack::kQanaatPbft, 2u, 0xa91659ff04dcce8fULL},
      {ChaosStack::kQanaatPbft, 3u, 0x9365ba9512b5fafbULL},
      {ChaosStack::kQanaatPbft, 5u, 0x9e92c093abfb7906ULL},
      {ChaosStack::kQanaatPbft, 7u, 0xb03f97ac06547e66ULL},
      {ChaosStack::kQanaatPbft, 12u, 0x666b7de94b5cc806ULL},
      {ChaosStack::kQanaatPaxos, 2u, 0x848d11563bcbceceULL},
      {ChaosStack::kQanaatPaxos, 3u, 0x8aa74a8dcb68c512ULL},
      {ChaosStack::kQanaatPaxos, 5u, 0x2cf414f76b00196fULL},
      {ChaosStack::kQanaatPaxos, 7u, 0x4dc5598053ec436aULL},
      {ChaosStack::kQanaatPaxos, 12u, 0x28785f227ca645eaULL},
      {ChaosStack::kFabric, 2u, 0x967a5df6743242b0ULL},
      {ChaosStack::kFabric, 3u, 0x70b03581c3ee88beULL},
      {ChaosStack::kFabric, 5u, 0xebc0767ebf79ecc1ULL},
      {ChaosStack::kFabric, 7u, 0x9c004389bab0a364ULL},
      {ChaosStack::kFabric, 12u, 0x1cb437fd7f974f07ULL},
      {ChaosStack::kQanaatPbft, 11u, 0xc426ab6f5dc034a4ULL, true},
      {ChaosStack::kQanaatPbft, 12u, 0x9a04e3e887684039ULL, true},
  };
  for (const Golden& g : kGolden) {
    ChaosOptions o = CorpusOptions(g.stack, g.seed);
    if (g.firewall) {
      o.use_firewall = true;
      o.byzantine_executor = true;
      o.cross_kind = CrossKind::kIntraShardCrossEnterprise;
    }
    ChaosReport r = RunChaos(o);
    EXPECT_EQ(r.trace_hash, g.trace_hash)
        << ChaosStackName(g.stack) << " seed " << g.seed
        << (g.firewall ? " (firewall)" : "")
        << " diverged from the pinned schedule";
    EXPECT_TRUE(r.safety.ok());
  }
}

TEST(ChaosReplay, DifferentSeedsDiverge) {
  ChaosReport a = RunChaos(CorpusOptions(ChaosStack::kQanaatPbft, 5));
  ChaosReport b = RunChaos(CorpusOptions(ChaosStack::kQanaatPbft, 6));
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

// --------------------------------------------- firewall containment chaos

TEST(ChaosFirewall, ByzantineExecutorContainedUnderChaos) {
  ChaosOptions o = CorpusOptions(ChaosStack::kQanaatPbft, 11);
  o.use_firewall = true;
  o.byzantine_executor = true;
  o.cross_kind = CrossKind::kIntraShardCrossEnterprise;
  ChaosReport r = RunChaos(o);
  // Corrupted replies never produce a bad certificate at a client, never
  // escape the wiring, and never block progress (g+1 honest executors).
  EXPECT_TRUE(r.safety.ok()) << r.safety.ToString() << "\n" << r.plan_summary;
  EXPECT_TRUE(r.liveness_resumed);
  EXPECT_GT(r.commits_total, 100u);
}

// ------------------------------------------------- targeted primary crash

TEST(ChaosPrimaryCrash, PbftViewChangeRestoresLiveness) {
  // Hand-written plan (not seed-expanded): kill cluster 0's primary under
  // load and keep it down; the view change must hand leadership over and
  // client retransmission must route the backlog to the new primary.
  QanaatSystem::Options so;
  so.params.num_enterprises = 2;
  so.params.shards_per_enterprise = 2;
  so.params.failure_model = FailureModel::kByzantine;
  so.params.family = ProtocolFamily::kFlattened;
  so.seed = 17;
  QanaatSystem sys(std::move(so));
  sys.net().set_record_delivered_links(true);

  WorkloadParams wl;
  wl.cross_fraction = 0.0;  // internal load only: isolates the view change
  ClientMachine* c = sys.AddClient(wl, 400.0);
  c->SetRetransmitTimeout(200 * kMillisecond);
  c->Start(0, 1500 * kMillisecond, 0, 2 * kSecond);

  NodeId primary = sys.directory().Cluster(0).InitialPrimary();
  FaultPlan plan;
  FaultAction crash;
  crash.kind = FaultAction::Kind::kCrash;
  crash.a = primary;
  plan.Add(300 * kMillisecond, crash);

  FaultInjector injector(&sys.env(), &sys.net());
  injector.Install(std::move(plan));

  uint64_t at_crash = 0;
  sys.env().sim.ScheduleAt(301 * kMillisecond,
                           [&]() { at_crash = sys.TotalAccepted(); });
  sys.env().sim.Run(2 * kSecond);

  EXPECT_GE(sys.env().metrics.Get("pbft.view_installed"), 3u)
      << "every replica of cluster 0 should install the new view";
  EXPECT_GT(sys.TotalAccepted(), at_crash + 50)
      << "commits must resume under the new primary";
  std::set<NodeId> degraded = {primary};
  EXPECT_TRUE(SafetyAuditor::AuditQanaat(sys, /*full=*/true, &degraded).ok());
}

// ----------------------------------------- auditor catches real violations

TEST(SafetyAuditorTest, FlagsDivergentReplicas) {
  // Run a clean system, then tamper with one replica's committed block:
  // the full audit must fail (hash-chain check), proving the auditor is
  // not vacuously green.
  QanaatSystem::Options so;
  so.params.num_enterprises = 2;
  so.params.shards_per_enterprise = 1;
  so.params.failure_model = FailureModel::kCrash;
  so.seed = 5;
  QanaatSystem sys(std::move(so));
  WorkloadParams wl;
  wl.cross_fraction = 0.0;
  ClientMachine* c = sys.AddClient(wl, 300.0);
  c->Start(0, 500 * kMillisecond, 0, kSecond);
  sys.env().sim.Run(kSecond);
  ASSERT_TRUE(SafetyAuditor::AuditQanaat(sys, true, nullptr).ok());

  const DagLedger& ledger = sys.ordering_node(0, 0)->exec_core().ledger();
  ASSERT_GT(ledger.size(), 0u);
  // Post-commit tampering with transaction content.
  auto* block = const_cast<Block*>(ledger.entry(0).block.get());
  ASSERT_FALSE(block->txs.empty());
  block->txs[0].client_ts += 1;
  block->txs[0].InvalidateDigest();
  EXPECT_FALSE(SafetyAuditor::AuditQanaat(sys, true, nullptr).ok());
}

}  // namespace
}  // namespace qanaat
