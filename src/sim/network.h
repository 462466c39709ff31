#ifndef QANAAT_SIM_NETWORK_H_
#define QANAAT_SIM_NETWORK_H_

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/env.h"
#include "sim/message.h"

namespace qanaat {

class Actor;

/// Growable dense bitset over NodeIds — the flat form of a per-node
/// allow-list (firewall wiring). Membership is one word load on the
/// per-send hot path.
class NodeBitset {
 public:
  void Set(NodeId id) {
    size_t word = id / 64;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    words_[word] |= uint64_t{1} << (id % 64);
  }
  bool Test(NodeId id) const {
    size_t word = id / 64;
    return word < words_.size() &&
           (words_[word] >> (id % 64)) & uint64_t{1};
  }

 private:
  std::vector<uint64_t> words_;
};

/// Simulated transport: per-region RTT matrix, bandwidth, jitter, message
/// drops, partitions, and *physical link restrictions* (the privacy
/// firewall's wiring constraint, paper §3.4: each filter has a physical
/// connection only to the rows above/below, so a malicious execution node
/// cannot reach clients at all).
///
/// Fault injection beyond the global drop rate is expressed as per-link
/// (or default, all-link) `LinkFault` rules: independent drop, duplicate
/// and reorder-delay coins plus a fixed extra latency. Rules are consulted
/// only after the cheap deterministic checks (restriction, partition,
/// crashed endpoints), so blocked sends never consume randomness and a
/// seed replays bit-identically regardless of how many sends were blocked.
class Network {
 public:
  /// Per-link fault rule. All probabilities are independent coins drawn
  /// per message; `reorder_delay_us` bounds the extra delay a reordered
  /// (or duplicated) copy receives, which bounds how far delivery order
  /// can diverge from send order. `silence_mask` is a *deterministic*
  /// per-message-type drop (bit = MsgType): a selective-silence adversary
  /// swallows e.g. only view-change or checkpoint traffic while every
  /// other message passes. Silenced sends consume no randomness, so a
  /// seed replays bit-identically regardless of how many were swallowed.
  struct LinkFault {
    double drop = 0.0;       // loss probability
    double duplicate = 0.0;  // probability of delivering a second copy
    double reorder = 0.0;    // probability of an extra random delay
    SimTime reorder_delay_us = 2000;
    SimTime extra_delay_us = 0;  // fixed additional one-way latency
    uint64_t silence_mask = 0;   // deterministic per-MsgType drop bits

    static constexpr uint64_t TypeBit(MsgType t) {
      return uint64_t{1} << static_cast<unsigned>(t);
    }
    bool Silences(MsgType t) const {
      return (silence_mask >> static_cast<unsigned>(t)) & uint64_t{1};
    }
    bool Destructive() const { return drop > 0.0 || silence_mask != 0; }
    bool Any() const {
      return drop > 0.0 || duplicate > 0.0 || reorder > 0.0 ||
             extra_delay_us > 0 || silence_mask != 0;
    }

    /// Layout inside an encoded FaultPlan (sim/faults.h).
    template <class IO, class Self>
    static bool Fields(IO& io, Self& m) {
      return io(m.drop) && io(m.duplicate) && io(m.reorder) &&
             io(m.reorder_delay_us) && io(m.extra_delay_us) &&
             io(m.silence_mask);
    }
  };

  explicit Network(Env* env);

  /// Adds a region; returns its id. Region 0 exists by default.
  int AddRegion();
  /// Sets the round-trip time between two regions (one-way = rtt/2).
  void SetRtt(int region_a, int region_b, SimTime rtt_us);
  int region_count() const { return static_cast<int>(rtt_.size()); }

  /// Registers an actor and assigns it a NodeId.
  NodeId Register(Actor* actor);
  Actor* actor(NodeId id) const { return actors_[id]; }
  size_t node_count() const { return actors_.size(); }

  /// Restricts `node` so it may exchange messages only with `peers`.
  /// Models the firewall's physical wiring. Unrestricted by default.
  void RestrictLinks(NodeId node, std::vector<NodeId> peers);
  bool LinkAllowed(NodeId from, NodeId to) const;

  /// Unicast with latency + jitter, plus the transmission time of the
  /// message's WireBytes() at the configured bandwidth. Silently drops if
  /// either endpoint is crashed, the link is disallowed/partitioned, or a
  /// drop coin fires.
  void Send(NodeId from, NodeId to, MessageRef msg);
  void Multicast(NodeId from, const std::vector<NodeId>& to, MessageRef msg);

  /// Fault injection.
  void SetDropRate(double p) { drop_rate_ = p; }
  void Partition(NodeId a, NodeId b);  // symmetric
  void HealPartition(NodeId a, NodeId b);
  void HealAllPartitions();

  /// Installs a fault rule on the directed link from -> to.
  void SetLinkFault(NodeId from, NodeId to, const LinkFault& f);
  /// Installs a fault rule on both directions between a and b.
  void SetLinkFaultBetween(NodeId a, NodeId b, const LinkFault& f);
  /// Removes the per-link rules between a and b (the link falls back to
  /// the default rule, unlike installing an all-zero rule which shadows
  /// it).
  void ClearLinkFaultBetween(NodeId a, NodeId b);
  /// Default rule for links without a specific one (whole-network chaos).
  void SetDefaultLinkFault(const LinkFault& f);
  void ClearDefaultLinkFault() { have_default_fault_ = false; }
  /// Removes every per-link rule and the default rule.
  void ClearLinkFaults();

  /// Running hash over every scheduled delivery (time, endpoints, type)
  /// and every fault event folded in via NoteTraceEvent. Two runs of the
  /// same seed must produce the same value — the replayability anchor the
  /// chaos harness asserts.
  uint64_t trace_hash() const { return trace_hash_; }
  void NoteTraceEvent(uint64_t word);

  /// When enabled, records every (from, to) pair a message was actually
  /// scheduled on, so an auditor can re-check the link restrictions post
  /// hoc (firewall containment under fault injection). The accessor
  /// materializes a sorted pair list from the flat-keyed hot-path record.
  void set_record_delivered_links(bool on) { record_links_ = on; }
  std::vector<std::pair<NodeId, NodeId>> delivered_links() const;

  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t blocked_sends() const { return blocked_sends_; }
  uint64_t duplicated() const { return duplicated_; }
  uint64_t reordered() const { return reordered_; }
  uint64_t silenced() const { return silenced_; }

 private:
  /// Directed links are keyed by one packed word on every hot-path
  /// container: no pair comparisons, no tree walks.
  static constexpr uint64_t LinkKey(NodeId from, NodeId to) {
    return (static_cast<uint64_t>(from) << 32) | to;
  }
  /// Mixes the packed key so the flat hash tables spread sequentially
  /// assigned NodeIds instead of clustering them.
  struct LinkKeyHash {
    size_t operator()(uint64_t k) const {
      return static_cast<size_t>(Mix64(k + 0x9e3779b97f4a7c15ULL));
    }
  };

  SimTime LatencyBetween(int region_a, int region_b);
  void RebuildOneWayCache();
  const LinkFault* FaultFor(NodeId from, NodeId to) const;
  /// Schedules one delivery at `arrival`, folding it into the trace hash
  /// and detecting overtakes (a later-sent message scheduled to arrive
  /// before an earlier-sent one on the same link).
  void ScheduleDelivery(NodeId from, NodeId to, SimTime arrival,
                        MessageRef msg);

  Env* env_;
  Rng rng_;
  std::vector<Actor*> actors_;
  std::vector<std::vector<SimTime>> rtt_;  // region x region RTT (µs)
  // Flattened one-way latency (rtt/2) per region pair, rebuilt on
  // AddRegion/SetRtt so the per-send lookup is one indexed load.
  std::vector<SimTime> one_way_;
  std::vector<std::unique_ptr<NodeBitset>> allowed_;  // per node
  // Symmetric partitions, keyed LinkKey(min, max): a small sorted vector
  // beats a tree for the few-entries, read-heavy partition set.
  std::vector<uint64_t> partitions_;
  std::unordered_map<uint64_t, LinkFault, LinkKeyHash> link_faults_;
  LinkFault default_fault_;
  bool have_default_fault_ = false;
  double drop_rate_ = 0.0;
  bool record_links_ = false;
  std::unordered_set<uint64_t, LinkKeyHash> delivered_links_;
  // Latest scheduled arrival per directed link, for overtake detection.
  // Dense node x node matrix (kNoArrival = never used): consulted on
  // every delivery, where even a flat hash map paid a mix + probe per
  // message. Rebuilt lazily when registrations outgrow it; node counts
  // are topology-sized, so the matrix stays a few hundred KB.
  static constexpr SimTime kNoArrival = -1;
  std::vector<SimTime> last_arrival_;
  size_t arrival_dim_ = 0;
  SimTime* ArrivalCell(NodeId from, NodeId to) {
    size_t need = static_cast<size_t>(from < to ? to : from) + 1;
    if (need > arrival_dim_) GrowArrivalMatrix(need);
    return &last_arrival_[static_cast<size_t>(from) * arrival_dim_ + to];
  }
  void GrowArrivalMatrix(size_t need);
  uint64_t trace_hash_ = 0x51ed270b9f652295ULL;
  uint64_t messages_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t blocked_sends_ = 0;
  uint64_t duplicated_ = 0;
  uint64_t reordered_ = 0;
  uint64_t silenced_ = 0;
};

/// Base class for every simulated node (ordering node, execution node,
/// filter, client, endorser, orderer, ...).
///
/// CPU model: each actor is a serial server. A message arriving at time t
/// begins processing at max(t, busy_until) and occupies the CPU for
/// CostOf(msg); the handler runs when processing completes. Queueing delay
/// under load produces the saturation knees in the paper's
/// throughput/latency plots.
///
/// Crash model: Crash() opens a new *epoch*. Timers armed and deliveries
/// accepted in an earlier epoch are discarded even if the node has since
/// Recover()ed — a recovered process has none of its predecessor's timers
/// or half-processed messages (crash-stop semantics).
class Actor {
 public:
  Actor(Env* env, std::string name, int region = 0);
  virtual ~Actor() = default;
  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  NodeId id() const { return id_; }
  int region() const { return region_; }
  const std::string& name() const { return name_; }
  bool crashed() const { return crashed_; }
  uint64_t epoch() const { return epoch_; }

  /// Crash-stop the node (drops queued work and invalidates every timer
  /// and in-flight delivery of the current life) / bring it back.
  void Crash() {
    crashed_ = true;
    ++epoch_;
    OnCrash();
  }
  void Recover() {
    crashed_ = false;
    busy_until_ = 0;  // the restarted process starts with an idle CPU
    OnRecover();
  }

  /// Mark this node Byzantine for fault-injection runs; protocol
  /// subclasses consult this flag to misbehave.
  void SetByzantine(bool b) { byzantine_ = b; }
  bool byzantine() const { return byzantine_; }

  /// Gray-failure injection: every CPU charge (message processing and
  /// explicit ChargeCpu) is multiplied by `f`. A gray node is
  /// slow-but-alive — it keeps answering, just late enough to stall
  /// quorums and trip (or worse, *not* trip) failure detectors. 1.0
  /// restores full speed; the 1.0 path is bit-identical to a node that
  /// was never slowed.
  void SetCpuFactor(double f) { cpu_factor_ = f <= 0 ? 1.0 : f; }
  double cpu_factor() const { return cpu_factor_; }

  /// Byzantine-ordering injection hook: protocol subclasses that run a
  /// consensus engine make their primary equivocate (divergent digests to
  /// disjoint replica subsets). Default: ignore — only ordering nodes
  /// misbehave this way.
  virtual void SetEquivocating(bool /*on*/) {}

  /// Called by the network at delivery time (after transport latency);
  /// enqueues CPU work.
  void DeliverAt(SimTime arrival, NodeId from, MessageRef msg);

  /// Crash hook: subclasses drop volatile state a real process would
  /// lose (pending batches, un-fired timer bookkeeping). Durable state —
  /// the ledger, the store — survives, matching a process restart over
  /// persistent storage.
  virtual void OnCrash() {}
  /// Recovery hook, called when the node restarts: the place to kick off
  /// catch-up work (e.g. ledger state transfer) — a recovered process
  /// has no timers left from its previous life, so nothing else would.
  virtual void OnRecover() {}

  /// Handler, runs after CPU processing completes.
  virtual void OnMessage(NodeId from, const MessageRef& msg) = 0;
  /// Timer callback; `tag` identifies the purpose, `payload` the instance.
  virtual void OnTimer(uint64_t tag, uint64_t payload);

 protected:
  SimTime now() const { return env_->sim.now(); }
  Env* env() const { return env_; }

  void Send(NodeId to, MessageRef msg) { env_->net->Send(id_, to, msg); }
  void Multicast(const std::vector<NodeId>& to, MessageRef msg) {
    env_->net->Multicast(id_, to, msg);
  }
  /// Schedule OnTimer(tag, payload) after `delay`; fires unless crashed
  /// or armed in a previous life (pre-crash epoch).
  void StartTimer(SimTime delay, uint64_t tag, uint64_t payload = 0);
  /// Occupy the CPU for `d` more microseconds (e.g. executing a batch).
  /// The charge starts from now when the CPU is idle: extending a
  /// busy_until_ that lies in the past would under-charge by the idle gap.
  /// A gray-failed node (cpu_factor > 1) pays inflated charges.
  void ChargeCpu(SimTime d) {
    busy_until_ = std::max(now(), busy_until_) + Inflate(d);
  }

  /// Per-message CPU cost; default = base + verifications.
  virtual SimTime CostOf(const Message& msg) const;

 private:
  friend class Network;
  /// Applies the gray-failure CPU inflation. The factor-1.0 fast path
  /// performs no floating-point arithmetic, so un-slowed runs stay
  /// bit-identical to builds that predate the gray-failure adversary.
  SimTime Inflate(SimTime d) const {
    if (cpu_factor_ == 1.0) return d;
    return static_cast<SimTime>(static_cast<double>(d) * cpu_factor_);
  }

  Env* env_;
  std::string name_;
  int region_;
  NodeId id_;
  bool crashed_ = false;
  bool byzantine_ = false;
  uint64_t epoch_ = 0;
  SimTime busy_until_ = 0;
  double cpu_factor_ = 1.0;
};

}  // namespace qanaat

#endif  // QANAAT_SIM_NETWORK_H_
