#ifndef QANAAT_PROTOCOLS_CONTEXT_H_
#define QANAAT_PROTOCOLS_CONTEXT_H_

#include <algorithm>
#include <string>
#include <vector>

#include "collections/data_model.h"
#include "common/types.h"

namespace qanaat {

/// Which family of cross-cluster protocols a deployment runs (paper §4.3
/// vs §4.4).
enum class ProtocolFamily : uint8_t {
  kCoordinator = 0,  // prepare / prepared / commit via a coordinator
  kFlattened = 1,    // propose / accept / commit, no coordinator
};

/// Static description of one cluster: the nodes that order (and, without
/// separation, execute) transactions of one data shard of one enterprise.
struct ClusterConfig {
  int cluster_id = 0;
  EnterpriseId enterprise = 0;
  ShardId shard = 0;
  FailureModel failure_model = FailureModel::kByzantine;
  int region = 0;

  std::vector<NodeId> ordering;  // 2f+1 (crash) or 3f+1 (Byzantine)
  /// Separated execution nodes (2g+1); empty when ordering nodes execute.
  std::vector<NodeId> execution;
  /// Privacy firewall rows, bottom (adjacent to ordering) to top
  /// (adjacent to execution); empty when no firewall.
  std::vector<std::vector<NodeId>> filter_rows;

  bool HasFirewall() const { return !filter_rows.empty(); }
  bool SeparatedExecution() const { return !execution.empty(); }
  bool IsOrderingNode(NodeId n) const {
    return std::find(ordering.begin(), ordering.end(), n) != ordering.end();
  }
  bool IsExecutionNode(NodeId n) const {
    return std::find(execution.begin(), execution.end(), n) != execution.end();
  }
  NodeId InitialPrimary() const { return ordering[0]; }
};

/// Global deployment parameters shared by every node.
struct SystemParams {
  int num_enterprises = 4;
  int shards_per_enterprise = 4;
  int f = 1;  // max faulty ordering nodes per cluster
  int g = 1;  // max faulty execution nodes per cluster
  int h = 1;  // max faulty filter nodes per cluster
  FailureModel failure_model = FailureModel::kByzantine;
  bool use_firewall = false;
  ProtocolFamily family = ProtocolFamily::kFlattened;

  /// Batching: blocks close at `batch_size` transactions or after
  /// `batch_timeout_us` since the first pending request of a flow.
  /// Cross-cluster flows use a longer window — their per-block protocol
  /// cost is much higher, so amortizing it over more transactions is the
  /// right trade (the paper's higher cross-transaction latencies absorb
  /// the wait).
  int batch_size = 100;
  SimTime batch_timeout_us = 2000;
  SimTime cross_batch_timeout_us = 10000;

  /// Round pipelining: maximum consensus slots a primary keeps in flight
  /// (proposed but not yet committed) before further batches queue inside
  /// the engine. Bounds per-view memory and view-change proof size while
  /// overlapping the network round trips of consecutive rounds. 0 =
  /// unbounded.
  int pipeline_depth = 8;

  /// Internal consensus timeout; cross-cluster timers are a multiple
  /// (§4.3.4: at least 3x the WAN round-trip).
  SimTime consensus_timeout_us = 150'000;
  SimTime cross_timeout_us = 400'000;

  /// Certified checkpoints: every `checkpoint_interval` delivered
  /// consensus slots each replica broadcasts a signed CHECKPOINT vote; a
  /// quorum of matching votes makes the checkpoint stable, garbage-
  /// collecting per-slot consensus state and bounding the fill window.
  /// <= 0 disables checkpointing.
  int checkpoint_interval = 64;

  /// When true (default), each shared collection shard has a designated
  /// coordinator cluster (the option §4.3.5 describes for avoiding
  /// deadlocks). When false, any involved enterprise's cluster may
  /// coordinate, with digest-priority abort/retry on ID conflicts.
  bool designated_coordinator = true;

  /// Local-majority of a cluster (paper §4): matching votes required.
  size_t LocalMajority() const {
    return failure_model == FailureModel::kByzantine
               ? static_cast<size_t>(2 * f + 1)
               : static_cast<size_t>(f + 1);
  }
  /// Signatures expected on a cluster-signed commit certificate: a full
  /// local-majority for Byzantine clusters; crash clusters do not
  /// exchange signatures during consensus, so their certificates carry a
  /// single (trusted) signature.
  size_t CertQuorum() const {
    return failure_model == FailureModel::kByzantine ? LocalMajority() : 1;
  }
  size_t OrderingClusterSize() const {
    return failure_model == FailureModel::kByzantine
               ? static_cast<size_t>(3 * f + 1)
               : static_cast<size_t>(2 * f + 1);
  }
};

/// Directory of every cluster in the deployment plus request routing.
/// Built once by the topology builder; nodes keep a const pointer.
struct Directory {
  SystemParams params;
  std::vector<ClusterConfig> clusters;  // indexed by cluster_id

  int ClusterIdOf(EnterpriseId e, ShardId s) const {
    return static_cast<int>(e) * params.shards_per_enterprise +
           static_cast<int>(s);
  }
  const ClusterConfig& Cluster(EnterpriseId e, ShardId s) const {
    return clusters[ClusterIdOf(e, s)];
  }
  const ClusterConfig& Cluster(int id) const { return clusters[id]; }

  /// The designated coordinator enterprise for a shard of a shared
  /// collection (the deadlock-free option of §4.3.5, fixed in the
  /// collection's configuration metadata). Rotating the designation by
  /// shard spreads coordination load across the involved enterprises.
  EnterpriseId CoordinatorEnterpriseOf(const CollectionId& c,
                                       ShardId shard) const {
    auto members = c.members.Members();
    return members[shard % members.size()];
  }
};

}  // namespace qanaat

#endif  // QANAAT_PROTOCOLS_CONTEXT_H_
