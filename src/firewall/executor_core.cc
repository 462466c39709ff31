#include "firewall/executor_core.h"

#include <algorithm>

namespace qanaat {

ExecutorCore::ExecutorCore(Env* env, const DataModel* model,
                           EnterpriseId enterprise, ShardId shard)
    : env_(env), model_(model), enterprise_(enterprise), shard_(shard) {}

const MvStore& ExecutorCore::StoreOf(const CollectionId& c) const {
  static const MvStore kEmpty;
  auto it = stores_.find(c);
  return it == stores_.end() ? kEmpty : it->second;
}

MvStore* ExecutorCore::MutableStoreOf(const CollectionId& c) {
  return &stores_[c];
}

bool ExecutorCore::Ready(const LocalPart& alpha,
                         const std::vector<GammaEntry>& gamma) const {
  // In-order per chain.
  ShardRef ref{alpha.collection, alpha.shard};
  if (alpha.n != ledger_.HeadOf(ref) + 1) return false;
  // γ dependencies: for entries captured on our shard index, the
  // referenced state must be locally committed so the snapshot read is
  // resolvable (paper §4.2 — nodes execute "if all transactions ... with
  // lower sequence numbers have been executed", and read the captured
  // state of order-dependent collections).
  for (const auto& ge : gamma) {
    if (ledger_.StateOf(ge.collection) < ge.m) return false;
  }
  return true;
}

uint64_t ExecutorCore::ExecuteTx(const Transaction& tx,
                                 const std::vector<GammaEntry>& gamma,
                                 SeqNo version) {
  MvStore* own = MutableStoreOf(tx.collection);
  WriteBatch batch;
  uint64_t acc = 0xcbf29ce484222325ULL;  // FNV accumulator over results
  auto mix = [&acc](uint64_t v) {
    acc = (acc ^ v) * 0x100000001b3ULL;
  };

  // Cross-shard transactions: this cluster applies only the ops whose key
  // lives on its shard (keys are sharded by key % shard_count).
  int shard_count = model_->ShardCountOf(tx.collection);
  auto on_my_shard = [&](uint64_t key) {
    if (tx.shards.size() <= 1) return true;
    return static_cast<ShardId>(key % shard_count) == shard_;
  };

  for (const auto& op : tx.ops) {
    switch (op.kind) {
      case TxOp::Kind::kRead: {
        if (!on_my_shard(op.key)) break;
        const int64_t* v = own->Find(op.key);
        mix(v != nullptr ? static_cast<uint64_t>(*v) : 0);
        break;
      }
      case TxOp::Kind::kWrite: {
        if (!on_my_shard(op.key)) break;
        batch.Put(op.key, op.value);
        mix(static_cast<uint64_t>(op.value));
        break;
      }
      case TxOp::Kind::kAdd: {
        if (!on_my_shard(op.key)) break;
        // Read latest pending-in-batch or committed value.
        int64_t cur = 0;
        bool in_batch = false;
        for (auto it = batch.writes().rbegin(); it != batch.writes().rend();
             ++it) {
          if (it->first == op.key) {
            cur = it->second;
            in_batch = true;
            break;
          }
        }
        if (!in_batch) {
          const int64_t* v = own->Find(op.key);
          if (v != nullptr) cur = *v;
        }
        batch.Put(op.key, cur + op.value);
        mix(static_cast<uint64_t>(cur + op.value));
        break;
      }
      case TxOp::Kind::kReadDep: {
        // Read an order-dependent collection at the γ-captured version.
        const MvStore& dep = StoreOf(op.dep);
        SeqNo at = 0;
        for (const auto& ge : gamma) {
          if (ge.collection == op.dep) {
            at = ge.m;
            break;
          }
        }
        auto v = dep.GetAt(op.key, at);
        mix(v.ok() ? static_cast<uint64_t>(*v) : 0);
        break;
      }
    }
  }
  Status st = batch.ApplyTo(own, version);
  if (!st.ok()) env_->metrics.Inc("exec.apply_error");
  return acc;
}

void ExecutorCore::ExecuteNow(const BlockPtr& block, CommitCertificate cert,
                              const LocalPart& alpha,
                              const std::vector<GammaEntry>& gamma,
                              const ExecCallback& on_done) {
  Status st = ledger_.AppendFor(block, std::move(cert), env_->sim.now(),
                                alpha, gamma);
  if (!st.ok()) {
    env_->metrics.Inc("exec.append_error");
    return;
  }
  ExecResult res;
  res.block = block;
  res.tx_count = block->tx_count();
  uint64_t acc = block->Digest().Prefix64();
  for (const auto& tx : block->txs) {
    acc ^= ExecuteTx(tx, gamma, alpha.n) * 0x9e3779b97f4a7c15ULL;
    res.clients.emplace_back(tx.client, tx.client_ts);
  }
  // The result digest authenticates the 64-bit execution fold `acc`
  // against the (real-SHA) block digest; deriving it with the keyed
  // digest mix instead of hashing an 8-byte buffer keeps the content
  // chain rooted in SHA-256 while dropping a full SHA per block
  // execution per replica (see DeriveDigest in ledger/block.h).
  res.result_digest =
      DeriveDigest(0x52534c54u /* "RSLT" */, acc, alpha.n, block->Digest());
  res.cpu_cost =
      static_cast<SimTime>(res.tx_count) * env_->costs.exec_tx_us;
  executed_blocks_++;
  executed_txs_ += res.tx_count;
  if (on_done) on_done(res);
}

void ExecutorCore::DrainReady() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
      if (Ready(it->alpha, it->gamma)) {
        Pending p = std::move(*it);
        waiting_.erase(it);
        ExecuteNow(p.block, std::move(p.cert), p.alpha, p.gamma, p.on_done);
        progressed = true;
        break;
      }
    }
  }
  // Drop entries overtaken by what just executed (a state transfer can
  // race a live commit of the same block): their sequence number can
  // never match head+1 again, so they would sit in the queue forever.
  waiting_.erase(
      std::remove_if(waiting_.begin(), waiting_.end(),
                     [this](const Pending& p) {
                       ShardRef ref{p.alpha.collection, p.alpha.shard};
                       return p.alpha.n <= ledger_.HeadOf(ref);
                     }),
      waiting_.end());
}

Status ExecutorCore::Submit(BlockPtr block, CommitCertificate cert,
                            const LocalPart& alpha_here,
                            const std::vector<GammaEntry>& gamma,
                            ExecCallback on_done) {
  ShardRef ref{alpha_here.collection, alpha_here.shard};
  if (alpha_here.n <= ledger_.HeadOf(ref)) {
    return Status::AlreadyExists("duplicate block " +
                                 std::to_string(alpha_here.n));
  }
  for (const Pending& w : waiting_) {
    if (w.alpha.collection == alpha_here.collection &&
        w.alpha.shard == alpha_here.shard && w.alpha.n == alpha_here.n) {
      return Status::AlreadyExists("block already queued " +
                                   std::to_string(alpha_here.n));
    }
  }
  if (Ready(alpha_here, gamma)) {
    ExecuteNow(block, std::move(cert), alpha_here, gamma, on_done);
    DrainReady();
  } else {
    env_->metrics.Inc("exec.deferred");
    waiting_.push_back(Pending{std::move(block), std::move(cert), alpha_here,
                               gamma, std::move(on_done)});
  }
  return Status::Ok();
}

}  // namespace qanaat
