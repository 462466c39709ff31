#ifndef QANAAT_FIREWALL_FIREWALL_H_
#define QANAAT_FIREWALL_FIREWALL_H_

#include <map>
#include <set>
#include <vector>

#include "consensus/messages.h"
#include "firewall/executor_core.h"
#include "protocols/context.h"
#include "sim/network.h"

namespace qanaat {

/// An execution node of a Byzantine cluster with ordering/execution
/// separation (paper §3.4/§4.2): verifies the commit certificate coming
/// through the firewall, appends the block to its ledger, executes it
/// deterministically, and sends a signed reply share toward the top
/// filter row (or, without a firewall, directly to clients and the
/// ordering nodes — Fig 4(b)).
class ExecutionNode : public Actor {
 public:
  ExecutionNode(Env* env, const Directory* dir, const DataModel* model,
                int cluster_id, int index);

  void OnMessage(NodeId from, const MessageRef& msg) override;
  void OnTimer(uint64_t tag, uint64_t payload) override;
  /// The pull watchdog's timer dies with the crash epoch, so its armed
  /// flag must too, or the watchdog never arms again.
  void OnCrash() override;
  /// A restarted executor has no timers left and may have missed
  /// ExecOrder pushes entirely while down: pull proactively instead of
  /// waiting for a successor block to reveal the gap.
  void OnRecover() override;

  const ExecutorCore& core() const { return core_; }

  /// Byzantine behaviour: corrupt every execution result (a node trying
  /// to smuggle data out through replies). The firewall must filter it.
  void SetCorruptReplies(bool c) { corrupt_replies_ = c; }

 private:
  static constexpr uint64_t kTagPull = 1;

  void HandleExecOrder(const ExecOrderMsg& m);
  /// Serves a peer executor's pull from this node's own ledger. Ordering
  /// nodes cannot serve these: with separated execution they forward
  /// blocks through the firewall without retaining an executable ledger,
  /// so the committed blocks (with their certificates) live only on the
  /// execution side. Entries are self-certifying, so a gapped peer can
  /// safely take them from any single serving executor.
  void HandleStateRequest(NodeId from, const StateRequestMsg& m);
  /// Pull-based state transfer (firewall side): entries are
  /// self-certifying, so the executor verifies each one against its
  /// commit certificate before re-executing — a faulty filter or serving
  /// node cannot inject a fake block.
  void HandleStateReply(const StateReplyMsg& m);
  /// Sends a StateRequest carrying this node's chain heads toward a peer
  /// execution node: via one top-row filter (round-robin) with a
  /// firewall, directly to a peer without one. `requester` routes the
  /// reply back through the top row.
  void SendPullRequest();
  /// Arms the gap watchdog: if blocks are still waiting on missing
  /// predecessors after a consensus timeout with no ledger growth, the
  /// push stream has lost something for good — switch to pulling.
  void ArmPullWatchdog();

  const Directory* dir_;
  ClusterConfig cfg_;
  int index_;
  ExecutorCore core_;
  bool corrupt_replies_ = false;
  bool pull_armed_ = false;
  size_t pull_ledger_mark_ = 0;  // ledger size when the watchdog armed
  uint32_t pull_rr_ = 0;         // round-robins the first-hop target
};

/// A privacy-firewall filter node (paper §3.4). Filters are stateless
/// w.r.t. application data: they verify certificates and forward —
/// downstream-to-upstream for ExecOrder (ordering → execution), and
/// upstream-to-downstream for replies (execution → ordering), where the
/// top row aggregates g+1 matching signed replies into a reply
/// certificate. A row of correct filters therefore stops any message a
/// malicious execution node crafts outside the protocol (leak
/// containment), and the Network link restrictions model the physical
/// wiring (each filter connects only to the rows above and below).
class FilterNode : public Actor {
 public:
  FilterNode(Env* env, const Directory* dir, int cluster_id, int row,
             int index);

  void OnMessage(NodeId from, const MessageRef& msg) override;

  int row() const { return row_; }

  uint64_t filtered_messages() const { return filtered_; }

 private:
  void HandleExecOrder(NodeId from, const MessageRef& msg);
  void HandleExecReply(NodeId from, const ExecReplyMsg& m);
  void HandleReplyCert(NodeId from, const MessageRef& msg);
  /// Executor pull brokering (top row only): a StateRequest from a
  /// gapped execution node is handed to one of its peers (round-robin,
  /// never the requester itself), and the serving peer's StateReply is
  /// routed back to the requester. Transfers never cross below the top
  /// row — with separated execution only the executors hold the ledger —
  /// and the requester simply re-pulls through a different filter if one
  /// hop or serving peer is faulty.
  void HandleStateRequest(NodeId from, const MessageRef& msg);
  void HandleStateReply(NodeId from, const MessageRef& msg);

  /// Nodes in the row toward execution (row above), or the execution
  /// nodes themselves for the top row.
  std::vector<NodeId> Above() const;
  /// Nodes in the row toward ordering (row below), or the ordering nodes
  /// for the bottom row.
  std::vector<NodeId> Below() const;

  const Directory* dir_;
  ClusterConfig cfg_;
  int row_;
  int index_;
  bool top_row_;
  std::set<Sha256Digest> forwarded_down_;  // ExecOrder digests forwarded
  std::set<Sha256Digest> forwarded_up_;    // reply digests forwarded
  // Top-row aggregation: block digest -> share signable -> the result
  // and client list that signable covers, with the shares over it. A
  // block's entry is erased once its certificate is assembled.
  struct ReplyTally {
    Sha256Digest result_digest;
    std::vector<std::pair<NodeId, uint64_t>> clients;
    std::map<NodeId, Signature> shares;
  };
  std::map<Sha256Digest, std::map<Sha256Digest, ReplyTally>> reply_shares_;
  uint64_t filtered_ = 0;
  uint32_t pull_rr_serve_ = 0;  // round-robins the serving peer choice
};

/// Wires the physical link restrictions of a cluster's firewall into the
/// network: ordering ↔ row 0 ↔ row 1 ↔ ... ↔ row h ↔ execution nodes.
/// Execution nodes and filters get NO other links — the paper's
/// guarantee that a malicious execution node cannot talk to clients.
void RestrictFirewallLinks(Network* net, const ClusterConfig& cfg);

}  // namespace qanaat

#endif  // QANAAT_FIREWALL_FIREWALL_H_
