#ifndef QANAAT_QANAAT_CLIENT_H_
#define QANAAT_QANAAT_CLIENT_H_

#include <map>
#include <memory>
#include <unordered_map>

#include "common/histogram.h"
#include "consensus/messages.h"
#include "protocols/context.h"
#include "sim/network.h"
#include "workload/smallbank.h"

namespace qanaat {

/// A client machine: an open-loop load generator driving many logical
/// clients. Issues signed requests at a Poisson rate to the (designated)
/// primary of each transaction's target cluster, matches replies
/// according to the deployment's acceptance rule, and records end-to-end
/// latency — the measurement methodology of §5 ("results reflect
/// end-to-end measurements from the clients").
///
/// Acceptance rules:
///  * crash cluster                — first reply (from the primary);
///  * Byzantine, no separation    — f+1 matching signed replies;
///  * Byzantine + privacy firewall — one valid reply certificate (g+1
///    execution shares, re-verified here).
class ClientMachine : public Actor {
 public:
  ClientMachine(Env* env, const Directory* dir,
                std::unique_ptr<SmallBankWorkload> workload, double rate_tps,
                uint64_t seed);

  void OnMessage(NodeId from, const MessageRef& msg) override;
  void OnTimer(uint64_t tag, uint64_t payload) override;

  /// Starts issuing requests in [start, stop); measurement window
  /// [measure_from, measure_to) filters warmup/cooldown.
  void Start(SimTime start, SimTime stop, SimTime measure_from,
             SimTime measure_to);

  uint64_t issued() const { return issued_; }
  /// The settle mark the next request carries (Transaction::settled_below).
  uint64_t settle_mark() const { return settled_below_; }
  uint64_t accepted() const { return accepted_; }
  /// Committed transactions inside the measurement window.
  uint64_t measured_commits() const { return measured_commits_; }
  const Histogram& latencies() const { return latencies_; }

  /// Enable client retransmission on timeout (primary-failure handling).
  void SetRetransmitTimeout(SimTime t) { retransmit_timeout_ = t; }

 protected:
  /// A client machine aggregates many physical client hosts; its CPU is
  /// not part of the system under test, so message handling is charged a
  /// token cost (otherwise reply fan-in would bottleneck measurement).
  SimTime CostOf(const Message& /*msg*/) const override { return 2; }

 private:
  struct PendingTx {
    SimTime sent_at = 0;
    int target_cluster = 0;
    std::shared_ptr<RequestMsg> request;  // kept for retransmission
    // Byzantine (no firewall) acceptance rule: one (result prefix,
    // replier) record per reply; settle once `needed` distinct repliers
    // agree on one result. Replies per tx are bounded by cluster size,
    // so a flat vector beats the map<result, set<node>> it replaced.
    std::vector<std::pair<uint64_t, NodeId>> votes;
  };

  static constexpr uint64_t kTagIssue = 1;
  static constexpr uint64_t kTagRetransmit = 2;

  void IssueNext();
  void Settle(uint64_t ts, bool matching_rule_met);
  void HandleReply(NodeId from, const ReplyMsg& m);
  void HandleReplyCert(const ReplyCertMsg& m);

  const Directory* dir_;
  std::unique_ptr<SmallBankWorkload> workload_;
  double rate_tps_;
  Rng rng_;
  SimTime stop_at_ = 0;
  SimTime measure_from_ = 0;
  SimTime measure_to_ = 0;
  SimTime retransmit_timeout_ = 0;  // 0 = disabled

  uint64_t next_ts_ = 1;
  /// The settle mark each new request carries: the lowest timestamp not
  /// yet settled (next_ts_ when none is pending). It only rises, one step
  /// per settled timestamp, so keeping it costs amortized O(1).
  uint64_t settled_below_ = 1;
  /// Sequential timestamps need a mixing hash; accessed on every issue,
  /// reply and retransmission, never iterated.
  struct TsHash {
    size_t operator()(uint64_t ts) const {
      return static_cast<size_t>(Mix64(ts + 0x9e3779b97f4a7c15ULL));
    }
  };
  // Settled entries are erased (late replies and retransmit timers treat
  // "missing" exactly like the old done flag), so the table tracks only
  // in-flight transactions.
  std::unordered_map<uint64_t, PendingTx, TsHash> pending_;

  uint64_t issued_ = 0;
  uint64_t accepted_ = 0;
  uint64_t measured_commits_ = 0;
  Histogram latencies_;
};

}  // namespace qanaat

#endif  // QANAAT_QANAAT_CLIENT_H_
