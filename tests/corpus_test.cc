// Corpus-infrastructure suite: hash-stable shard partitioning, the
// adversary rotation, FaultPlan serialization, and determinism + golden
// pins for the three staged adversaries (gray failure, equivocating
// primary, selective silence). The chaos_test ChaosGolden pins guard the
// benign recipe; the pins here guard the adversary schedules the corpus
// adds on top.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "harness/corpus.h"
#include "sim/faults.h"

namespace qanaat {
namespace {

// ------------------------------------------------------------- sharding

TEST(CorpusShard, PartitionIsCompleteAndDisjoint) {
  CorpusManifest m;
  auto entries = m.Enumerate();
  // Rotation entries (3 stacks) plus the cross-conflict profile (the two
  // Qanaat stacks only).
  ASSERT_EQ(entries.size(), static_cast<size_t>(m.seeds) * 3 +
                                static_cast<size_t>(m.conflict_seeds) * 2);

  for (int shard_count : {1, 2, 4, 7}) {
    size_t assigned = 0;
    for (int s = 0; s < shard_count; ++s) {
      for (const auto& e : entries) {
        if (ShardOf(e, shard_count) == s) ++assigned;
      }
    }
    // Every entry lands in exactly one shard.
    EXPECT_EQ(assigned, entries.size()) << shard_count << " shards";
    for (const auto& e : entries) {
      int s = ShardOf(e, shard_count);
      EXPECT_GE(s, 0);
      EXPECT_LT(s, shard_count);
    }
  }
}

TEST(CorpusShard, NoEntryLostOrDuplicated) {
  CorpusManifest m;
  std::set<std::tuple<int, uint64_t, int>> ids;
  for (const auto& e : m.Enumerate()) {
    auto id = std::make_tuple(static_cast<int>(e.stack), e.seed,
                              static_cast<int>(e.adversary));
    EXPECT_TRUE(ids.insert(id).second)
        << "duplicate entry " << StackArgName(e.stack) << " seed " << e.seed;
  }
  EXPECT_EQ(ids.size(), static_cast<size_t>(m.seeds) * 3 +
                            static_cast<size_t>(m.conflict_seeds) * 2);
}

TEST(CorpusShard, StableUnderCorpusGrowth) {
  // Adding seeds must only APPEND: every entry of the smaller manifest
  // exists verbatim in the larger one with an identical shard assignment,
  // for every shard width. This is what lets CI cache / triage per shard
  // while the corpus grows.
  CorpusManifest small;
  small.seeds = 40;
  CorpusManifest large;
  large.seeds = 80;

  std::map<std::pair<int, uint64_t>, CorpusEntry> by_id;
  for (const auto& e : large.Enumerate()) {
    by_id[{static_cast<int>(e.stack), e.seed}] = e;
  }
  for (const auto& e : small.Enumerate()) {
    auto it = by_id.find({static_cast<int>(e.stack), e.seed});
    ASSERT_NE(it, by_id.end());
    EXPECT_EQ(static_cast<int>(it->second.adversary),
              static_cast<int>(e.adversary));
    for (int shard_count : {2, 4, 8}) {
      EXPECT_EQ(ShardOf(e, shard_count), ShardOf(it->second, shard_count));
    }
  }
}

TEST(CorpusShard, KeyDependsOnIdentityOnly) {
  CorpusEntry a{ChaosStack::kQanaatPbft, 5, AdversaryKind::kGrayFailure};
  CorpusEntry b = a;
  EXPECT_EQ(EntryKey(a), EntryKey(b));
  b.seed = 6;
  EXPECT_NE(EntryKey(a), EntryKey(b));
  b = a;
  b.stack = ChaosStack::kQanaatPaxos;
  EXPECT_NE(EntryKey(a), EntryKey(b));
  b = a;
  b.adversary = AdversaryKind::kNone;
  EXPECT_NE(EntryKey(a), EntryKey(b));
}

TEST(CorpusShard, RotationMatchesStackFaultModels) {
  CorpusManifest m;
  bool pbft_equivocates = false;
  bool conflict_seen = false;
  for (const auto& e : m.Enumerate()) {
    if (e.adversary == AdversaryKind::kCrossConflict) {
      // The §4.3.5 profile sits outside the rotation: Qanaat stacks only
      // (Fabric has no cross-shard protocol), its own seed band, and
      // loss-free by construction so the convergence and eventual-commit
      // audits stay armed for every run.
      conflict_seen = true;
      EXPECT_NE(static_cast<int>(e.stack),
                static_cast<int>(ChaosStack::kFabric));
      EXPECT_GT(e.seed, kConflictSeedBase);
      EXPECT_EQ(EntryOptions(e).profile.loss, 0.0);
      continue;
    }
    if (e.stack != ChaosStack::kQanaatPbft) {
      // Only the Byzantine stack ever faces an equivocating primary.
      EXPECT_NE(static_cast<int>(e.adversary),
                static_cast<int>(AdversaryKind::kEquivocation));
    } else if (e.adversary == AdversaryKind::kEquivocation) {
      pbft_equivocates = true;
    }
    if (e.stack == ChaosStack::kFabric) {
      EXPECT_TRUE(e.adversary == AdversaryKind::kNone ||
                  e.adversary == AdversaryKind::kGrayFailure);
    }
    // Loss runs (seed % 4 == 0) stay benign so loss and adversaries are
    // independently attributable.
    if (e.seed % 4 == 0) {
      EXPECT_EQ(static_cast<int>(e.adversary),
                static_cast<int>(AdversaryKind::kNone));
    }
  }
  EXPECT_TRUE(pbft_equivocates);
  EXPECT_TRUE(conflict_seen);
}

// ------------------------------------------------- adversary plan shapes

CrashGroup TestGroup() {
  CrashGroup g;
  g.crashable = {1, 2, 3, 4};
  g.max_faulty = 2;
  return g;
}

ChaosProfile AdversaryProfile(AdversaryKind k) {
  ChaosProfile p;
  p.dup = 0.03;
  p.reorder = 0.05;
  p.adversary = k;
  if (k == AdversaryKind::kSelectiveSilence) {
    p.silence_types =
        Network::LinkFault::TypeBit(MsgType::kViewChange) |
        Network::LinkFault::TypeBit(MsgType::kCheckpoint);
  }
  return p;
}

AdversaryTargets TargetPrimary1() {
  AdversaryTargets t;
  t.primaries.push_back(1);
  return t;
}

NodeId AdversaryVictim(const FaultPlan& plan) {
  for (const auto& ev : plan.events) {
    if (ev.action.kind == FaultAction::Kind::kSlowNode ||
        ev.action.kind == FaultAction::Kind::kEquivocate) {
      return ev.action.a;
    }
    if (ev.action.kind == FaultAction::Kind::kLinkFault &&
        ev.action.fault.silence_mask != 0) {
      return ev.action.a;
    }
  }
  return kInvalidNode;
}

TEST(AdversaryPlan, GrayFailureSlowsAndLagsThePrimary) {
  FaultPlan plan = MakeRandomPlan(11, {TestGroup()}, 800000,
                                  AdversaryProfile(AdversaryKind::kGrayFailure),
                                  TargetPrimary1());
  int slow = 0, restore = 0, lag_links = 0;
  for (const auto& ev : plan.events) {
    if (ev.action.kind == FaultAction::Kind::kSlowNode) {
      if (ev.action.factor > 1.0) {
        ++slow;
        EXPECT_EQ(ev.action.a, 1u);
      } else {
        ++restore;
      }
    }
    if (ev.action.kind == FaultAction::Kind::kLinkFault &&
        ev.action.fault.extra_delay_us > 0) {
      ++lag_links;
      EXPECT_EQ(ev.action.a, 1u);
    }
  }
  EXPECT_EQ(slow, 1);
  EXPECT_GE(restore, 1);
  // One delayed link per cluster peer of the target.
  EXPECT_EQ(lag_links, 3);
  // Gray failure loses nothing: the convergence audit must stay armed.
  EXPECT_FALSE(plan.HasUntargetedLoss());
}

TEST(AdversaryPlan, EquivocationWindowOpensAndCloses) {
  FaultPlan plan = MakeRandomPlan(
      12, {TestGroup()}, 800000,
      AdversaryProfile(AdversaryKind::kEquivocation), TargetPrimary1());
  SimTime start = -1, stop = -1;
  for (const auto& ev : plan.events) {
    if (ev.action.kind == FaultAction::Kind::kEquivocate) {
      start = ev.at;
      EXPECT_EQ(ev.action.a, 1u);
    }
    if (ev.action.kind == FaultAction::Kind::kClearEquivocate &&
        stop == -1) {
      stop = ev.at;
    }
  }
  ASSERT_GE(start, 0);
  ASSERT_GE(stop, 0);
  EXPECT_LT(start, stop);
}

TEST(AdversaryPlan, SelectiveSilenceInstallsTypedDropRules) {
  ChaosProfile p = AdversaryProfile(AdversaryKind::kSelectiveSilence);
  FaultPlan plan =
      MakeRandomPlan(13, {TestGroup()}, 800000, p, TargetPrimary1());
  int silence_links = 0;
  for (const auto& ev : plan.events) {
    if (ev.action.kind == FaultAction::Kind::kLinkFault &&
        ev.action.fault.silence_mask != 0) {
      ++silence_links;
      EXPECT_EQ(ev.action.a, 1u);
      EXPECT_EQ(ev.action.fault.silence_mask, p.silence_types);
      // Typed silence is a deterministic rule, not a coin flip.
      EXPECT_EQ(ev.action.fault.drop, 0.0);
    }
  }
  EXPECT_EQ(silence_links, 3);
  // Silence rules are TARGETED loss (named links): prefix-only auditing
  // is not required, full convergence stays asserted.
  EXPECT_FALSE(plan.HasUntargetedLoss());
}

TEST(AdversaryPlan, TargetConsumesAFaultSlotAndIsNeverCrashed) {
  for (AdversaryKind k :
       {AdversaryKind::kGrayFailure, AdversaryKind::kEquivocation,
        AdversaryKind::kSelectiveSilence}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      FaultPlan plan = MakeRandomPlan(seed, {TestGroup()}, 800000,
                                      AdversaryProfile(k), TargetPrimary1());
      NodeId victim = AdversaryVictim(plan);
      ASSERT_EQ(victim, 1u) << AdversaryName(k) << " seed " << seed;
      for (const auto& ev : plan.events) {
        // The adversary target must never ALSO be a crash or partition
        // victim — combined faults would exceed the group bound.
        if (ev.action.kind == FaultAction::Kind::kCrash ||
            ev.action.kind == FaultAction::Kind::kRecover) {
          EXPECT_NE(ev.action.a, victim)
              << AdversaryName(k) << " seed " << seed;
        }
        if (ev.action.kind == FaultAction::Kind::kPartition) {
          EXPECT_NE(ev.action.a, victim);
          EXPECT_NE(ev.action.b, victim);
        }
      }
    }
  }
}

TEST(AdversaryPlan, NoTargetMeansBenignPlan) {
  // Adversary requested but no eligible target: the plan must degrade to
  // the benign schedule, bit-for-bit.
  ChaosProfile p = AdversaryProfile(AdversaryKind::kGrayFailure);
  AdversaryTargets none;
  none.primaries.push_back(kInvalidNode);
  FaultPlan with = MakeRandomPlan(7, {TestGroup()}, 800000, p, none);
  ChaosProfile benign = p;
  benign.adversary = AdversaryKind::kNone;
  FaultPlan without =
      MakeRandomPlan(7, {TestGroup()}, 800000, benign, TargetPrimary1());
  EXPECT_EQ(EncodePlan(with), EncodePlan(without));
}

TEST(AdversaryPlan, KNoneMatchesHistoricOverload) {
  ChaosProfile p;
  p.dup = 0.03;
  p.reorder = 0.05;
  p.loss = 0.02;
  FaultPlan three = MakeRandomPlan(9, {TestGroup()}, 800000, p);
  FaultPlan five =
      MakeRandomPlan(9, {TestGroup()}, 800000, p, TargetPrimary1());
  EXPECT_EQ(EncodePlan(three), EncodePlan(five));
}

// ------------------------------------------------------------ plan serde

TEST(PlanSerde, RoundTripsEveryAdversary) {
  for (AdversaryKind k :
       {AdversaryKind::kNone, AdversaryKind::kGrayFailure,
        AdversaryKind::kEquivocation, AdversaryKind::kSelectiveSilence,
        AdversaryKind::kCrossConflict}) {
    ChaosProfile p = AdversaryProfile(k);
    p.loss = 0.02;  // cover drop-rate windows too
    FaultPlan plan =
        MakeRandomPlan(21, {TestGroup()}, 800000, p, TargetPrimary1());
    std::vector<uint8_t> buf = EncodePlan(plan);
    FaultPlan decoded;
    ASSERT_TRUE(DecodePlan(buf, &decoded).ok()) << AdversaryName(k);
    ASSERT_EQ(decoded.events.size(), plan.events.size());
    // Canonical encoding: re-encoding the decoded plan is byte-identical.
    EXPECT_EQ(EncodePlan(decoded), buf) << AdversaryName(k);
  }
}

TEST(PlanSerde, RejectsCorruptBuffers) {
  FaultPlan plan = MakeRandomPlan(3, {TestGroup()}, 800000,
                                  AdversaryProfile(AdversaryKind::kNone));
  std::vector<uint8_t> buf = EncodePlan(plan);
  FaultPlan out;

  std::vector<uint8_t> truncated(buf.begin(), buf.end() - 5);
  EXPECT_FALSE(DecodePlan(truncated, &out).ok());

  std::vector<uint8_t> bad_magic = buf;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(DecodePlan(bad_magic, &out).ok());

  std::vector<uint8_t> trailing = buf;
  trailing.push_back(0);
  EXPECT_FALSE(DecodePlan(trailing, &out).ok());

  EXPECT_FALSE(DecodePlan({}, &out).ok());

  // Magic, version 1, then a count of 2^32-1 events and no event bytes:
  // the count exceeds the bytes left, so the decode must fail before
  // anything is allocated for it.
  const std::vector<uint8_t> huge_count = {0x4e, 0x4c, 0x50, 0x51, 1,
                                           0xff, 0xff, 0xff, 0xff};
  Status st;
  EXPECT_NO_THROW(st = DecodePlan(huge_count, &out));
  EXPECT_FALSE(st.ok());
}

TEST(ResultSerde, TsvRoundTripsEveryReportField) {
  // The record a forked corpus worker hands its parent: every field the
  // JSON summary prints must survive the trip.
  CorpusRunResult r;
  r.passed = false;
  r.report.trace_hash = 0xfedcba9876543210ULL;
  r.report.commits_total = 1234;
  r.report.faults_applied = 17;
  r.report.net_silenced = 5;
  r.report.liveness_resume_us = -1;
  r.report.intake_parked = 88;
  r.report.client_retransmits = 364;
  r.failure = "safety:\tline one\nline two \\ done";
  std::string line = EncodeResultTsv(42, r);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  size_t index = 0;
  CorpusRunResult out;
  ASSERT_TRUE(DecodeResultTsv(line, &index, &out));
  EXPECT_EQ(index, 42u);
  EXPECT_EQ(out.passed, r.passed);
  EXPECT_EQ(out.report.trace_hash, r.report.trace_hash);
  EXPECT_EQ(out.report.commits_total, r.report.commits_total);
  EXPECT_EQ(out.report.faults_applied, r.report.faults_applied);
  EXPECT_EQ(out.report.net_silenced, r.report.net_silenced);
  EXPECT_EQ(out.report.liveness_resume_us, r.report.liveness_resume_us);
  EXPECT_EQ(out.report.intake_parked, r.report.intake_parked);
  EXPECT_EQ(out.report.client_retransmits, r.report.client_retransmits);
  EXPECT_EQ(out.failure, r.failure);

  std::string json = SummaryJson(0, 1, {out});
  EXPECT_NE(json.find("\"intake_parked\": 88"), std::string::npos);
  EXPECT_NE(json.find("\"client_retransmits\": 364"), std::string::npos);

  EXPECT_FALSE(DecodeResultTsv("1\t1\t7", &index, &out));
}

// ----------------------------------------- corpus runs: the adversaries

struct AdversaryGolden {
  ChaosStack stack;
  uint64_t seed;
  AdversaryKind adversary;
  uint64_t trace_hash;
};

// Trace hashes pinned when the staged adversaries were introduced. Each
// run must pass the full corpus criteria AND replay to the exact pinned
// hash — any scheduling drift in the adversary machinery shows up here
// the way benign drift shows up in chaos_test's ChaosGolden.
// Six pins re-pinned for intake parking: a gated primary now replays
// parked requests as soon as it catches up, which moves every schedule
// where a primary gates intake (see the ChaosGolden pin-table comment).
// pbft/6 equivocation moved for a second reason too: backups now refuse
// a pre-prepare whose digest does not match its value, so the
// equivocating primary's garbage digests no longer commit and the
// cluster changes view instead. pbft/5 gray and Fabric did not move.
// All seven Qanaat pins re-pinned when messages began to be charged their
// encoded size rather than a hand-kept estimate (see the ChaosGolden
// pin-table comment); the Fabric pin held.
TEST(CorpusGolden, AdversaryTraceHashesMatchPinned) {
  const AdversaryGolden kGolden[] = {
      {ChaosStack::kQanaatPbft, 5, AdversaryKind::kGrayFailure,
       0x122f6e41e0147113ULL},
      {ChaosStack::kQanaatPbft, 6, AdversaryKind::kEquivocation,
       0x4942dd0c934e0c7dULL},
      {ChaosStack::kQanaatPbft, 7, AdversaryKind::kSelectiveSilence,
       0x90daef16c386faedULL},
      {ChaosStack::kQanaatPaxos, 5, AdversaryKind::kGrayFailure,
       0x3c62bf79a505ae78ULL},
      {ChaosStack::kQanaatPaxos, 7, AdversaryKind::kSelectiveSilence,
       0x32524124d180a83cULL},
      {ChaosStack::kFabric, 6, AdversaryKind::kGrayFailure,
       0xebdbb98e6409da29ULL},
      // Cross-conflict profile pins (§4.3.5). pbft/1002 is the seed whose
      // recovery-during-wedge schedule found the certified-but-pending
      // tail hole in state transfer — its pin guards both the arbitration
      // machinery and that fix.
      {ChaosStack::kQanaatPbft, kConflictSeedBase + 2,
       AdversaryKind::kCrossConflict, 0x1d2ebf695fc4b63fULL},
      {ChaosStack::kQanaatPaxos, kConflictSeedBase + 1,
       AdversaryKind::kCrossConflict, 0x3d89ec759513db7fULL},
  };
  for (const auto& g : kGolden) {
    CorpusEntry e{g.stack, g.seed, g.adversary};
    CorpusRunResult r = RunEntry(e);
    EXPECT_TRUE(r.passed) << ReproCommand(e) << ": " << r.failure;
    EXPECT_EQ(r.report.trace_hash, g.trace_hash)
        << StackArgName(g.stack) << " seed " << g.seed << " "
        << AdversaryName(g.adversary) << std::hex << " actual 0x"
        << r.report.trace_hash;
  }
}

TEST(CorpusReplay, AdversaryRunsAreDeterministic) {
  for (AdversaryKind k :
       {AdversaryKind::kGrayFailure, AdversaryKind::kEquivocation,
        AdversaryKind::kSelectiveSilence}) {
    CorpusEntry e{ChaosStack::kQanaatPbft, 10, k};
    ChaosOptions opts = EntryOptions(e);
    ChaosReport a = RunChaos(opts);
    ChaosReport b = RunChaos(opts);
    EXPECT_EQ(a.trace_hash, b.trace_hash) << AdversaryName(k);
    EXPECT_EQ(a.commits_total, b.commits_total) << AdversaryName(k);
    EXPECT_EQ(a.faults_applied, b.faults_applied) << AdversaryName(k);
    EXPECT_EQ(a.net_silenced, b.net_silenced) << AdversaryName(k);
  }
}

TEST(CorpusRun, StackGatingDowngradesImpossibleAdversaries) {
  // Equivocation needs a Byzantine ordering node; on the crash-model
  // Paxos stack the harness downgrades it to a benign run — identical
  // trace to an explicit kNone entry.
  CorpusEntry equiv{ChaosStack::kQanaatPaxos, 9, AdversaryKind::kEquivocation};
  CorpusEntry none{ChaosStack::kQanaatPaxos, 9, AdversaryKind::kNone};
  ChaosReport a = RunChaos(EntryOptions(equiv));
  ChaosReport b = RunChaos(EntryOptions(none));
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.commits_total, b.commits_total);
}

TEST(CorpusRun, CrossRedriveOutlivingDedupWindowStaysAtMostOnce) {
  // Regression: the corpus found this exact run committing a client
  // request twice. A lossy cross instance is re-driven past the intake
  // dedup window (2x cross_timeout), so the client's retransmission was
  // "presumed abandoned" and admitted into a second block — and both
  // blocks committed. Live locally-driven instances now pin their
  // request ids (OrderingNode::pending_cross_) with no time expiry.
  CorpusEntry e{ChaosStack::kQanaatPaxos, 32, AdversaryKind::kNone};
  CorpusRunResult r = RunEntry(e);
  EXPECT_TRUE(r.passed) << r.failure;
  EXPECT_TRUE(r.report.safety.ok()) << r.report.safety.ToString();
}

TEST(CorpusRun, ConflictProfileSettlesExactlyOnce) {
  // §4.3.5 acceptance: under the rivalry regime every contested slot
  // settles on one winner and every transaction commits exactly once —
  // RunEntry's criteria include the full safety audit (double commits,
  // per-chain agreement) and, because the profile is loss-free, the
  // post-heal convergence check across every replica. One seed per
  // Qanaat stack keeps the suite fast; the corpus matrix runs them all.
  for (ChaosStack s : {ChaosStack::kQanaatPbft, ChaosStack::kQanaatPaxos}) {
    CorpusEntry e{s, kConflictSeedBase + 3, AdversaryKind::kCrossConflict};
    CorpusRunResult r = RunEntry(e);
    EXPECT_TRUE(r.passed) << ReproCommand(e) << ": " << r.failure;
    EXPECT_TRUE(r.report.safety.ok()) << r.report.safety.ToString();
  }
}

TEST(CorpusRun, SelectiveSilenceActuallySilences) {
  CorpusEntry e{ChaosStack::kQanaatPbft, 3, AdversaryKind::kSelectiveSilence};
  CorpusRunResult r = RunEntry(e);
  EXPECT_TRUE(r.passed) << r.failure;
  // The typed drop rules must have swallowed real traffic.
  EXPECT_GT(r.report.net_silenced, 0u);
}

// --------------------------------------------------------------- options

TEST(CorpusOptions, ReproCommandNamesTheTriple) {
  CorpusEntry e{ChaosStack::kQanaatPaxos, 42, AdversaryKind::kGrayFailure};
  EXPECT_EQ(ReproCommand(e),
            "tools/run_corpus --stack=paxos --seed=42 --adversary=gray");
}

TEST(CorpusOptions, ParseRoundTrip) {
  for (ChaosStack s : {ChaosStack::kQanaatPbft, ChaosStack::kQanaatPaxos,
                       ChaosStack::kFabric}) {
    ChaosStack out;
    ASSERT_TRUE(ParseStack(StackArgName(s), &out));
    EXPECT_EQ(static_cast<int>(out), static_cast<int>(s));
  }
  for (AdversaryKind k :
       {AdversaryKind::kNone, AdversaryKind::kGrayFailure,
        AdversaryKind::kEquivocation, AdversaryKind::kSelectiveSilence,
        AdversaryKind::kCrossConflict}) {
    AdversaryKind out;
    ASSERT_TRUE(ParseAdversary(AdversaryName(k), &out));
    EXPECT_EQ(static_cast<int>(out), static_cast<int>(k));
  }
  ChaosStack s;
  AdversaryKind k;
  EXPECT_FALSE(ParseStack("raft", &s));
  EXPECT_FALSE(ParseAdversary("bitflip", &k));
}

}  // namespace
}  // namespace qanaat
