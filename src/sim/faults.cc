#include "sim/faults.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "common/serde.h"

namespace qanaat {

namespace {
const char* KindName(FaultAction::Kind k) {
  switch (k) {
    case FaultAction::Kind::kCrash:
      return "crash";
    case FaultAction::Kind::kRecover:
      return "recover";
    case FaultAction::Kind::kPartition:
      return "partition";
    case FaultAction::Kind::kHealPartition:
      return "heal-partition";
    case FaultAction::Kind::kHealAllPartitions:
      return "heal-all";
    case FaultAction::Kind::kLinkFault:
      return "link-fault";
    case FaultAction::Kind::kClearLinkFault:
      return "clear-link-fault";
    case FaultAction::Kind::kGlobalLinkFault:
      return "global-fault";
    case FaultAction::Kind::kClearLinkFaults:
      return "clear-faults";
    case FaultAction::Kind::kSetDropRate:
      return "drop-rate";
    case FaultAction::Kind::kSlowNode:
      return "slow-node";
    case FaultAction::Kind::kEquivocate:
      return "equivocate";
    case FaultAction::Kind::kClearEquivocate:
      return "clear-equivocate";
  }
  return "?";
}
}  // namespace

const char* AdversaryName(AdversaryKind k) {
  switch (k) {
    case AdversaryKind::kNone:
      return "none";
    case AdversaryKind::kGrayFailure:
      return "gray";
    case AdversaryKind::kEquivocation:
      return "equivocation";
    case AdversaryKind::kSelectiveSilence:
      return "silence";
    case AdversaryKind::kCrossConflict:
      return "conflict";
  }
  return "?";
}

std::string FaultAction::ToString() const {
  std::string s = KindName(kind);
  if (a != kInvalidNode) s += " a=" + std::to_string(a);
  if (b != kInvalidNode) s += " b=" + std::to_string(b);
  if (kind == Kind::kLinkFault || kind == Kind::kGlobalLinkFault) {
    s += " drop=" + std::to_string(fault.drop) +
         " dup=" + std::to_string(fault.duplicate) +
         " reorder=" + std::to_string(fault.reorder);
    if (fault.extra_delay_us > 0) {
      s += " delay=" + std::to_string(fault.extra_delay_us) + "us";
    }
    if (fault.silence_mask != 0) {
      s += " silence=0x";
      char buf[17];
      std::snprintf(buf, sizeof(buf), "%llx",
                    static_cast<unsigned long long>(fault.silence_mask));
      s += buf;
    }
  }
  if (kind == Kind::kSetDropRate) s += " p=" + std::to_string(drop_rate);
  if (kind == Kind::kSlowNode) s += " x=" + std::to_string(factor);
  return s;
}

void FaultPlan::Add(SimTime at, FaultAction action) {
  events.push_back(FaultEvent{at, std::move(action)});
}

void FaultPlan::Sort() {
  std::stable_sort(
      events.begin(), events.end(),
      [](const FaultEvent& x, const FaultEvent& y) { return x.at < y.at; });
}

void FaultPlan::CrashWindow(SimTime from, SimTime to, NodeId n) {
  FaultAction c;
  c.kind = FaultAction::Kind::kCrash;
  c.a = n;
  Add(from, c);
  FaultAction r;
  r.kind = FaultAction::Kind::kRecover;
  r.a = n;
  Add(to, r);
}

void FaultPlan::PartitionWindow(SimTime from, SimTime to, NodeId a,
                                NodeId b) {
  FaultAction p;
  p.kind = FaultAction::Kind::kPartition;
  p.a = a;
  p.b = b;
  Add(from, p);
  FaultAction h;
  h.kind = FaultAction::Kind::kHealPartition;
  h.a = a;
  h.b = b;
  Add(to, h);
}

void FaultPlan::LinkFaultWindow(SimTime from, SimTime to, NodeId a, NodeId b,
                                const Network::LinkFault& f) {
  FaultAction on;
  on.kind = FaultAction::Kind::kLinkFault;
  on.a = a;
  on.b = b;
  on.fault = f;
  Add(from, on);
  FaultAction off;
  // Remove the rule rather than installing an all-zero one: a per-link
  // rule shadows the default rule, so a zero rule would make this link
  // immune to later network-wide fault windows.
  off.kind = FaultAction::Kind::kClearLinkFault;
  off.a = a;
  off.b = b;
  Add(to, off);
}

void FaultPlan::GlobalFaultWindow(SimTime from, SimTime to,
                                  const Network::LinkFault& f) {
  FaultAction on;
  on.kind = FaultAction::Kind::kGlobalLinkFault;
  on.fault = f;
  Add(from, on);
  FaultAction off;
  off.kind = FaultAction::Kind::kGlobalLinkFault;
  off.fault = Network::LinkFault{};
  Add(to, off);
}

void FaultPlan::DropRateWindow(SimTime from, SimTime to, double rate) {
  FaultAction on;
  on.kind = FaultAction::Kind::kSetDropRate;
  on.drop_rate = rate;
  Add(from, on);
  FaultAction off;
  off.kind = FaultAction::Kind::kSetDropRate;
  off.drop_rate = 0.0;
  Add(to, off);
}

void FaultPlan::HealEverything(SimTime at,
                               const std::vector<NodeId>& crashed_nodes) {
  for (NodeId n : crashed_nodes) {
    FaultAction r;
    r.kind = FaultAction::Kind::kRecover;
    r.a = n;
    Add(at, r);
  }
  FaultAction heal;
  heal.kind = FaultAction::Kind::kHealAllPartitions;
  Add(at, heal);
  FaultAction clear;
  clear.kind = FaultAction::Kind::kClearLinkFaults;
  Add(at, clear);
  FaultAction drop;
  drop.kind = FaultAction::Kind::kSetDropRate;
  drop.drop_rate = 0.0;
  Add(at, drop);
}

bool FaultPlan::HasUntargetedLoss() const {
  for (const auto& ev : events) {
    switch (ev.action.kind) {
      case FaultAction::Kind::kGlobalLinkFault:
        if (ev.action.fault.Destructive()) return true;
        break;
      case FaultAction::Kind::kSetDropRate:
        if (ev.action.drop_rate > 0) return true;
        break;
      default:
        break;
    }
  }
  return false;
}

std::vector<NodeId> FaultPlan::DegradedNodes() const {
  std::set<NodeId> out;
  for (const auto& ev : events) {
    switch (ev.action.kind) {
      case FaultAction::Kind::kCrash:
        out.insert(ev.action.a);
        break;
      case FaultAction::Kind::kPartition:
        out.insert(ev.action.a);
        out.insert(ev.action.b);
        break;
      case FaultAction::Kind::kLinkFault:
        if (ev.action.fault.Destructive()) {
          out.insert(ev.action.a);
          out.insert(ev.action.b);
        }
        break;
      default:
        break;
    }
  }
  return std::vector<NodeId>(out.begin(), out.end());
}

std::string FaultPlan::Summary() const {
  std::string s = "plan[" + std::to_string(events.size()) + "]";
  for (const auto& ev : events) {
    s += " @" + std::to_string(ev.at / kMillisecond) + "ms " +
         ev.action.ToString() + ";";
  }
  return s;
}

FaultPlan MakeRandomPlan(uint64_t seed, const std::vector<CrashGroup>& groups,
                         SimTime horizon, const ChaosProfile& profile) {
  return MakeRandomPlan(seed, groups, horizon, profile, AdversaryTargets{});
}

FaultPlan MakeRandomPlan(uint64_t seed, const std::vector<CrashGroup>& groups,
                         SimTime horizon, const ChaosProfile& profile,
                         const AdversaryTargets& targets) {
  Rng rng(seed ^ 0xc4a05e1ab6f0ca75ULL);
  FaultPlan plan;
  std::vector<NodeId> victims;

  // Staged adversary: pick one target group up front and charge the
  // target against that group's failure bound — a gray or Byzantine node
  // counts exactly like a crash victim, so the combined plan never
  // exceeds f faults per cluster. With kNone none of this runs and the
  // RNG stream matches the historic plans bit-for-bit.
  std::vector<CrashGroup> staged = groups;
  NodeId adversary_target = kInvalidNode;
  size_t adversary_group = 0;
  if (profile.adversary != AdversaryKind::kNone) {
    std::vector<size_t> eligible;
    for (size_t i = 0; i < staged.size() && i < targets.primaries.size();
         ++i) {
      if (targets.primaries[i] != kInvalidNode && staged[i].max_faulty > 0) {
        eligible.push_back(i);
      }
    }
    if (!eligible.empty()) {
      adversary_group = eligible[rng.Uniform(eligible.size())];
      adversary_target = targets.primaries[adversary_group];
      CrashGroup& g = staged[adversary_group];
      g.max_faulty -= 1;
      g.crashable.erase(
          std::remove(g.crashable.begin(), g.crashable.end(),
                      adversary_target),
          g.crashable.end());
    }
  }

  // Partition partners come from the whole crashable universe, so cross-
  // group (cross-cluster) partitions arise naturally. The adversary
  // target is excluded: it already consumes its group's fault slot.
  std::vector<NodeId> universe;
  for (const auto& g : staged) {
    universe.insert(universe.end(), g.crashable.begin(), g.crashable.end());
  }

  auto window = [&](SimTime latest_start) {
    SimTime len = profile.min_window;
    if (profile.max_window > profile.min_window) {
      len += static_cast<SimTime>(rng.Uniform(
          static_cast<uint64_t>(profile.max_window - profile.min_window)));
    }
    SimTime start = static_cast<SimTime>(
        rng.Uniform(static_cast<uint64_t>(std::max<SimTime>(latest_start, 1))));
    return std::make_pair(start, std::min(start + len, horizon));
  };

  for (const auto& g : staged) {
    // Up to max_faulty victims per group for the WHOLE run: a recovered
    // replica may have missed committed decisions, so it stays degraded.
    std::vector<NodeId> pool = g.crashable;
    int nv = std::min<int>(g.max_faulty, static_cast<int>(pool.size()));
    for (int i = 0; i < nv && !pool.empty(); ++i) {
      size_t pick = rng.Uniform(pool.size());
      NodeId v = pool[pick];
      pool.erase(pool.begin() + static_cast<long>(pick));
      victims.push_back(v);

      if (profile.crashes) {
        for (int c = 0; c < profile.crash_cycles; ++c) {
          auto [from, to] = window(horizon * 3 / 4);
          plan.CrashWindow(from, to, v);
        }
      }
      if (profile.partitions && universe.size() > 1) {
        NodeId partner = v;
        while (partner == v) {
          partner = universe[rng.Uniform(universe.size())];
        }
        auto [from, to] = window(horizon * 3 / 4);
        plan.PartitionWindow(from, to, v, partner);
      }
    }
  }

  if (profile.duplication || profile.reordering) {
    Network::LinkFault f;
    f.duplicate = profile.duplication ? profile.dup : 0.0;
    f.reorder = profile.reordering ? profile.reorder : 0.0;
    f.reorder_delay_us = profile.reorder_delay_us;
    int windows = 1 + static_cast<int>(rng.Uniform(2));
    for (int i = 0; i < windows; ++i) {
      auto [from, to] = window(horizon * 2 / 3);
      plan.GlobalFaultWindow(from, to, f);
    }
  }
  if (profile.loss > 0) {
    auto [from, to] = window(horizon / 2);
    plan.DropRateWindow(from, to, profile.loss);
  }

  // Staged adversary windows. Drawn after every benign draw so the
  // benign prefix of the schedule matches what the same seed produced
  // before adversaries existed.
  if (adversary_target != kInvalidNode) {
    const std::vector<NodeId>& peers = groups[adversary_group].crashable;
    auto [from, to] = window(horizon / 2);
    switch (profile.adversary) {
      case AdversaryKind::kNone:
        break;
      case AdversaryKind::kGrayFailure: {
        FaultAction slow;
        slow.kind = FaultAction::Kind::kSlowNode;
        slow.a = adversary_target;
        slow.factor = profile.gray_slow_factor;
        plan.Add(from, slow);
        FaultAction restore = slow;
        restore.factor = 1.0;
        plan.Add(to, restore);
        Network::LinkFault lag;
        lag.extra_delay_us = profile.gray_link_delay_us;
        for (NodeId p : peers) {
          if (p == adversary_target) continue;
          plan.LinkFaultWindow(from, to, adversary_target, p, lag);
        }
        break;
      }
      case AdversaryKind::kEquivocation: {
        FaultAction eq;
        eq.kind = FaultAction::Kind::kEquivocate;
        eq.a = adversary_target;
        plan.Add(from, eq);
        FaultAction clear;
        clear.kind = FaultAction::Kind::kClearEquivocate;
        clear.a = adversary_target;
        plan.Add(to, clear);
        break;
      }
      case AdversaryKind::kSelectiveSilence: {
        Network::LinkFault silence;
        silence.silence_mask = profile.silence_types;
        if (silence.silence_mask != 0) {
          for (NodeId p : peers) {
            if (p == adversary_target) continue;
            plan.LinkFaultWindow(from, to, adversary_target, p, silence);
          }
        }
        break;
      }
      case AdversaryKind::kCrossConflict: {
        // Lossy + laggy intra-cluster links around the target primary:
        // its own propose for a contested slot races (and often loses
        // to) the rival cluster's cross-shard claim, manufacturing the
        // symmetric rivalries §4.3.5 arbitrates. Loss is confined to
        // named links, so the plan keeps HasUntargetedLoss() == false
        // and the convergence + eventual-commit audits stay armed.
        Network::LinkFault contested;
        contested.drop = 0.35;
        contested.extra_delay_us = profile.gray_link_delay_us;
        for (NodeId p : peers) {
          if (p == adversary_target) continue;
          plan.LinkFaultWindow(from, to, adversary_target, p, contested);
        }
        break;
      }
    }
    // Belt and braces: whatever a window left behind is reset at the
    // horizon, next to HealEverything's link/partition/drop cleanup.
    FaultAction unslow;
    unslow.kind = FaultAction::Kind::kSlowNode;
    unslow.a = adversary_target;
    unslow.factor = 1.0;
    plan.Add(horizon, unslow);
    FaultAction uneq;
    uneq.kind = FaultAction::Kind::kClearEquivocate;
    uneq.a = adversary_target;
    plan.Add(horizon, uneq);
  }

  plan.HealEverything(horizon, victims);
  plan.Sort();
  return plan;
}

namespace {

constexpr uint32_t kPlanMagic = 0x51504c4e;  // "QPLN"
constexpr uint8_t kPlanVersion = 1;

}  // namespace

// Doubles travel as their IEEE-754 bits (common/serde.h): the round trip
// is exact, which the replay guarantee requires (a re-expanded plan must
// flip the same coins).
std::vector<uint8_t> EncodePlan(const FaultPlan& plan) {
  Encoder enc;
  enc.PutU32(kPlanMagic);
  enc.PutU8(kPlanVersion);
  Writer{&enc}.List32(plan.events);
  return std::move(enc).Take();
}

Status DecodePlan(const std::vector<uint8_t>& buf, FaultPlan* out) {
  Decoder dec(buf);
  uint32_t magic = 0;
  uint8_t version = 0;
  if (!dec.GetU32(&magic) || magic != kPlanMagic) {
    return Status::Corruption("fault plan: bad magic");
  }
  if (!dec.GetU8(&version) || version != kPlanVersion) {
    return Status::Corruption("fault plan: unsupported version");
  }
  FaultPlan plan;
  if (!Reader{&dec}.List32(plan.events)) {
    return Status::Corruption("fault plan: truncated or unknown event");
  }
  if (!dec.Done()) return Status::Corruption("fault plan: trailing bytes");
  *out = std::move(plan);
  return Status::Ok();
}

FaultInjector::FaultInjector(Env* env, Network* net)
    : Actor(env, "fault-injector"), net_(net) {}

void FaultInjector::Install(FaultPlan plan) {
  plan_ = std::move(plan);
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    StartTimer(plan_.events[i].at - now(), kTagFault, i);
  }
}

void FaultInjector::OnMessage(NodeId /*from*/, const MessageRef& /*msg*/) {}

void FaultInjector::OnTimer(uint64_t tag, uint64_t payload) {
  if (tag != kTagFault || payload >= plan_.events.size()) return;
  Apply(plan_.events[payload].action);
}

void FaultInjector::Apply(const FaultAction& a) {
  ++applied_;
  net_->NoteTraceEvent((static_cast<uint64_t>(now()) << 12) ^
                       (static_cast<uint64_t>(a.kind) << 56) ^
                       (static_cast<uint64_t>(a.a) << 28) ^
                       static_cast<uint64_t>(a.b));
  env()->metrics.Inc(std::string("faults.") + KindName(a.kind));
  switch (a.kind) {
    case FaultAction::Kind::kCrash:
      net_->actor(a.a)->Crash();
      break;
    case FaultAction::Kind::kRecover:
      net_->actor(a.a)->Recover();
      break;
    case FaultAction::Kind::kPartition:
      net_->Partition(a.a, a.b);
      break;
    case FaultAction::Kind::kHealPartition:
      net_->HealPartition(a.a, a.b);
      break;
    case FaultAction::Kind::kHealAllPartitions:
      net_->HealAllPartitions();
      break;
    case FaultAction::Kind::kLinkFault:
      net_->SetLinkFaultBetween(a.a, a.b, a.fault);
      break;
    case FaultAction::Kind::kClearLinkFault:
      net_->ClearLinkFaultBetween(a.a, a.b);
      break;
    case FaultAction::Kind::kGlobalLinkFault:
      if (a.fault.Any()) {
        net_->SetDefaultLinkFault(a.fault);
      } else {
        net_->ClearDefaultLinkFault();
      }
      break;
    case FaultAction::Kind::kClearLinkFaults:
      net_->ClearLinkFaults();
      break;
    case FaultAction::Kind::kSetDropRate:
      net_->SetDropRate(a.drop_rate);
      break;
    case FaultAction::Kind::kSlowNode:
      net_->actor(a.a)->SetCpuFactor(a.factor);
      break;
    case FaultAction::Kind::kEquivocate:
      net_->actor(a.a)->SetEquivocating(true);
      break;
    case FaultAction::Kind::kClearEquivocate:
      net_->actor(a.a)->SetEquivocating(false);
      break;
  }
}

}  // namespace qanaat
