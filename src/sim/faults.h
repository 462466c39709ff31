#ifndef QANAAT_SIM_FAULTS_H_
#define QANAAT_SIM_FAULTS_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/network.h"

namespace qanaat {

/// One step of a fault schedule. Declarative so a plan can be printed,
/// serialized (EncodePlan/DecodePlan), stored next to a failing seed and
/// replayed verbatim.
struct FaultAction {
  enum class Kind : uint8_t {
    kCrash = 0,          // crash-stop node a
    kRecover,            // restart node a (fresh epoch semantics)
    kPartition,          // symmetric partition between a and b
    kHealPartition,      // heal the a <-> b partition
    kHealAllPartitions,  // heal every partition
    kLinkFault,          // install `fault` on both directions of a <-> b
    kClearLinkFault,     // remove the a <-> b rules (back to the default)
    kGlobalLinkFault,    // install `fault` as the default for every link
    kClearLinkFaults,    // remove all per-link and default fault rules
    kSetDropRate,        // set the global drop rate to `drop_rate`
    kSlowNode,           // gray failure: node a's CPU charges x `factor`
    kEquivocate,         // node a's consensus primary equivocates
    kClearEquivocate,    // node a stops equivocating
  };

  Kind kind = Kind::kCrash;
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  Network::LinkFault fault;
  double drop_rate = 0.0;
  /// CPU inflation for kSlowNode (1.0 = restore full speed).
  double factor = 1.0;

  std::string ToString() const;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.kind) && io.Check(m.kind <= Kind::kClearEquivocate) &&
           io(m.a) && io(m.b) && io(m.fault) && io(m.drop_rate) &&
           io(m.factor);
  }
};

struct FaultEvent {
  SimTime at = 0;
  FaultAction action;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.at) && io(m.action);
  }
};

/// A declarative, time-ordered fault schedule. Built by hand for targeted
/// tests or expanded from a seed by MakeRandomPlan; in either case the
/// plan alone (plus the seed of the system under test) reproduces a run
/// bit-identically.
struct FaultPlan {
  std::vector<FaultEvent> events;

  void Add(SimTime at, FaultAction action);
  /// Stable-sorts events by time (ties keep insertion order).
  void Sort();

  // -- convenience window builders -------------------------------------
  void CrashWindow(SimTime from, SimTime to, NodeId n);
  void PartitionWindow(SimTime from, SimTime to, NodeId a, NodeId b);
  void LinkFaultWindow(SimTime from, SimTime to, NodeId a, NodeId b,
                       const Network::LinkFault& f);
  void GlobalFaultWindow(SimTime from, SimTime to,
                         const Network::LinkFault& f);
  void DropRateWindow(SimTime from, SimTime to, double rate);
  /// Appends recover-everything / heal-everything events at `at`.
  void HealEverything(SimTime at, const std::vector<NodeId>& crashed_nodes);

  /// True iff the plan loses messages on links it cannot name up front
  /// (global drop-rate windows, destructive default link faults). Without
  /// untargeted loss, every replica NOT in DegradedNodes() must end the
  /// run bit-identical to its peers — the convergence audit; with it,
  /// only prefix agreement can be asserted.
  bool HasUntargetedLoss() const;
  /// Nodes a destructive event touches (crash victims, partition and
  /// lossy-link endpoints): their ledgers may legitimately be stale.
  std::vector<NodeId> DegradedNodes() const;

  std::string Summary() const;
};

/// A set of nodes that tolerate up to `max_faulty` simultaneous chaos
/// victims (e.g. one cluster's ordering nodes with its failure bound f).
/// Random plans pick victims per group and never exceed the bound — a
/// recovered replica may have missed decisions, so a victim counts
/// against the bound for the whole run, not just while crashed.
struct CrashGroup {
  std::vector<NodeId> crashable;
  int max_faulty = 1;
};

/// Active-adversary profile a random plan can stage on top of the benign
/// crash/partition/loss chaos. Each targets one consensus group and must
/// cost only liveness, never safety — the SafetyAuditor proves it.
enum class AdversaryKind : uint8_t {
  kNone = 0,
  /// Slow-but-alive primary: inflated CPU charges plus extra one-way
  /// latency on every link between the primary and its cluster peers.
  /// The node never dies, so naive dead/alive detectors see a healthy
  /// peer while quorums crawl.
  kGrayFailure,
  /// Byzantine ordering node: the targeted primary equivocates —
  /// divergent pre-prepare digests to disjoint replica subsets. Correct
  /// replicas must never commit conflicting values; the cluster pays a
  /// view change.
  kEquivocation,
  /// Selective-silence links: per-message-type deterministic drop rules
  /// between the target and its cluster peers (e.g. swallow only
  /// view-change or checkpoint traffic); everything else flows.
  kSelectiveSilence,
  /// Cross-conflict forcing (§4.3.5): lossy, laggy links between the
  /// target primary and its cluster peers delay its intra-cluster
  /// propose relative to rival clusters' cross-shard claims, so
  /// symmetric claims for the same slot arise and digest-priority
  /// arbitration plus loser re-proposal must settle them. The loss is
  /// targeted (named links only), so convergence and the eventual-commit
  /// audit stay armed. Meaningful with designated_coordinator off.
  kCrossConflict,
};

const char* AdversaryName(AdversaryKind k);

/// Knobs for seed-expanded random plans.
struct ChaosProfile {
  bool crashes = true;
  bool partitions = true;
  bool duplication = true;
  bool reordering = true;
  /// Per-link loss probability during fault windows. 0 keeps the plan
  /// loss-free apart from crashes/partitions.
  double loss = 0.0;
  double dup = 0.02;
  double reorder = 0.05;
  SimTime reorder_delay_us = 2 * kMillisecond;
  /// Crash/recover cycles per victim.
  int crash_cycles = 2;
  SimTime min_window = 50 * kMillisecond;
  SimTime max_window = 250 * kMillisecond;

  /// Staged adversary (kNone reproduces the historic plans bit-for-bit:
  /// no extra RNG draws, no group adjustments).
  AdversaryKind adversary = AdversaryKind::kNone;
  /// Gray failure: CPU inflation on the target and extra one-way latency
  /// on its cluster links.
  double gray_slow_factor = 6.0;
  SimTime gray_link_delay_us = 3 * kMillisecond;
  /// Selective silence: mask of MsgType bits to swallow
  /// (Network::LinkFault::TypeBit). 0 lets the harness pick a
  /// stack-appropriate default.
  uint64_t silence_types = 0;
};

/// Per-group adversary targets for MakeRandomPlan: entry i names the node
/// the staged adversary may target in groups[i] (a cluster's current
/// primary / Fabric's pinned Raft leader); kInvalidNode = no target. The
/// target consumes one of its group's `max_faulty` slots — a Byzantine or
/// gray node counts against the same bound a crash victim would, so the
/// plan never exceeds f combined faults per cluster.
struct AdversaryTargets {
  std::vector<NodeId> primaries;
};

/// Expands a seed into a randomized fault schedule over [0, horizon):
/// crash/recover cycles and partition windows for at most `max_faulty`
/// victims per group, plus network-wide duplication/reorder (and optional
/// loss) windows. The returned plan ends with a heal-everything event at
/// `horizon`, so the system can quiesce and be audited for convergence.
FaultPlan MakeRandomPlan(uint64_t seed, const std::vector<CrashGroup>& groups,
                         SimTime horizon, const ChaosProfile& profile);

/// Same, with staged-adversary support: when profile.adversary != kNone
/// and a target exists, one group is chosen and its target gets the
/// adversary windows (slow-node actions + link delays, equivocation
/// window, or selective-silence link rules). The adversary's RNG draws
/// come strictly after the benign plan's, so kNone plans are bit-identical
/// to the historic three-argument overload.
FaultPlan MakeRandomPlan(uint64_t seed, const std::vector<CrashGroup>& groups,
                         SimTime horizon, const ChaosProfile& profile,
                         const AdversaryTargets& targets);

/// Canonical little-endian serialization of a plan, so a failing seed's
/// expanded schedule can be stored verbatim next to its repro command.
std::vector<uint8_t> EncodePlan(const FaultPlan& plan);
Status DecodePlan(const std::vector<uint8_t>& buf, FaultPlan* out);

/// Executes a FaultPlan against the simulation: an actor whose timers
/// walk the schedule and apply each action to the Network / target
/// actors. Every applied action is folded into the network trace hash so
/// replays cover the fault schedule too.
class FaultInjector : public Actor {
 public:
  FaultInjector(Env* env, Network* net);

  /// Schedules every event of the plan. Call once, before running.
  void Install(FaultPlan plan);

  void OnMessage(NodeId from, const MessageRef& msg) override;
  void OnTimer(uint64_t tag, uint64_t payload) override;

  uint64_t applied() const { return applied_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  static constexpr uint64_t kTagFault = 1;

  void Apply(const FaultAction& a);

  Network* net_;
  FaultPlan plan_;
  uint64_t applied_ = 0;
};

}  // namespace qanaat

#endif  // QANAAT_SIM_FAULTS_H_
