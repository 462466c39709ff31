#ifndef QANAAT_FIREWALL_EXECUTOR_CORE_H_
#define QANAAT_FIREWALL_EXECUTOR_CORE_H_

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "collections/data_model.h"
#include "ledger/dag_ledger.h"
#include "ledger/transaction.h"
#include "sim/env.h"
#include "store/mvstore.h"

namespace qanaat {

/// Deterministic execution engine for one cluster's data shard:
/// maintains the DAG ledger and the multi-versioned stores of every
/// collection the enterprise is involved in (this cluster's shard of
/// each), executes committed blocks in order, and resolves reads of
/// order-dependent collections at exactly the γ-captured version
/// (paper §4.2).
///
/// Used by execution nodes (Byzantine clusters with separation) and by
/// ordering nodes when ordering and execution are co-located (crash
/// clusters, or Byzantine clusters without the privacy firewall).
class ExecutorCore {
 public:
  struct ExecResult {
    BlockPtr block;
    Sha256Digest result_digest;
    size_t tx_count = 0;
    /// (client machine, client timestamp) per transaction, for replies.
    std::vector<std::pair<NodeId, uint64_t>> clients;
    /// Simulated CPU time consumed executing the block.
    SimTime cpu_cost = 0;
  };
  using ExecCallback = std::function<void(const ExecResult&)>;

  ExecutorCore(Env* env, const DataModel* model, EnterpriseId enterprise,
               ShardId shard);

  /// Submits a committed block for in-order execution. The block runs
  /// once its chain predecessor has run and every γ dependency on a
  /// matching shard is locally committed; otherwise it waits. `on_done`
  /// fires synchronously when the block executes (possibly during a later
  /// Submit that unblocks it). A block that runs at once copies neither
  /// ⟨α, γ⟩ nor `cert`; a deferred one keeps its own copy of ⟨α, γ⟩.
  /// When `gamma` is the block's own γ, the ledger entry stores none.
  Status Submit(BlockPtr block, CommitCertificate cert,
                const LocalPart& alpha_here,
                const std::vector<GammaEntry>& gamma, ExecCallback on_done);

  const DagLedger& ledger() const { return ledger_; }
  const MvStore& StoreOf(const CollectionId& c) const;
  MvStore* MutableStoreOf(const CollectionId& c);

  /// State-identity surface for the chaos auditor: the fingerprint of
  /// this shard's store of collection `c` (0 when never written).
  uint64_t StateFingerprintOf(const CollectionId& c) const {
    return StoreOf(c).Fingerprint();
  }

  EnterpriseId enterprise() const { return enterprise_; }
  ShardId shard() const { return shard_; }
  uint64_t executed_blocks() const { return executed_blocks_; }
  uint64_t executed_txs() const { return executed_txs_; }
  size_t pending_blocks() const { return waiting_.size(); }

  struct Pending {
    BlockPtr block;
    CommitCertificate cert;
    LocalPart alpha;
    std::vector<GammaEntry> gamma;
    ExecCallback on_done;
  };
  /// Committed blocks still waiting on a chain predecessor or γ
  /// dependency. State-transfer servers include these beyond the
  /// requester's heads: a wedged chain would otherwise hide its certified
  /// tail from every sync until the wedge resolves — after which the
  /// requester may never sync again (the tail block has no successor to
  /// reveal the gap).
  const std::vector<Pending>& pending() const { return waiting_; }

 private:

  bool Ready(const LocalPart& alpha,
             const std::vector<GammaEntry>& gamma) const;
  void ExecuteNow(const BlockPtr& block, CommitCertificate cert,
                  const LocalPart& alpha, const std::vector<GammaEntry>& gamma,
                  const ExecCallback& on_done);
  void DrainReady();
  /// Executes one transaction; returns a digest contribution.
  uint64_t ExecuteTx(const Transaction& tx,
                     const std::vector<GammaEntry>& gamma, SeqNo version);

  Env* env_;
  const DataModel* model_;
  EnterpriseId enterprise_;
  ShardId shard_;
  DagLedger ledger_;
  std::map<CollectionId, MvStore> stores_;
  std::vector<Pending> waiting_;
  uint64_t executed_blocks_ = 0;
  uint64_t executed_txs_ = 0;
};

}  // namespace qanaat

#endif  // QANAAT_FIREWALL_EXECUTOR_CORE_H_
