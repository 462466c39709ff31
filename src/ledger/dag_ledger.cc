#include "ledger/dag_ledger.h"

#include <algorithm>

namespace qanaat {

namespace {
const std::vector<size_t> kEmptyChain;
}  // namespace

Status DagLedger::CheckGammaMonotone(const std::vector<GammaEntry>& earlier,
                                     const std::vector<GammaEntry>& later) {
  // Global consistency (paper §3.3 rule 2): ∀ d_Y ∈ γ∩γ': m ≤ m'.
  for (const auto& ge : earlier) {
    for (const auto& gl : later) {
      if (ge.collection == gl.collection && ge.m > gl.m) {
        return Status::FailedPrecondition(
            "global consistency violated on " + ge.collection.Label());
      }
    }
  }
  return Status::Ok();
}

Status DagLedger::CheckAppend(const LocalPart& alpha,
                              const std::vector<GammaEntry>& gamma) const {
  ShardRef ref{alpha.collection, alpha.shard};
  // Local consistency: gapless, increasing sequence per collection shard.
  SeqNo head = 0;
  if (const SeqNo* at = heads_.Find(ref)) head = *at;
  if (alpha.n != head + 1) {
    return Status::FailedPrecondition(
        "local consistency: expected n=" + std::to_string(head + 1) +
        " on " + ref.Label() + ", got " + std::to_string(alpha.n));
  }
  auto chain_it = chains_.find(ref);
  if (chain_it != chains_.end() && !chain_it->second.empty()) {
    const Entry& prev = entries_[chain_it->second.back()];
    QANAAT_RETURN_IF_ERROR(CheckGammaMonotone(prev.gamma(), gamma));
  }
  return Status::Ok();
}

Status DagLedger::Append(BlockPtr block, CommitCertificate cert,
                         SimTime when) {
  // The references stay valid: moving the pointer does not move the
  // block it owns.
  const TxId& id = block->id;
  return AppendFor(std::move(block), std::move(cert), when, id.alpha, id.gamma);
}

Status DagLedger::AppendFor(BlockPtr block, CommitCertificate cert,
                            SimTime when, const LocalPart& alpha_here,
                            const std::vector<GammaEntry>& gamma_here) {
  QANAAT_RETURN_IF_ERROR(CheckAppend(alpha_here, gamma_here));
  if (cert.block_digest != block->Digest()) {
    return Status::Corruption("commit certificate does not cover block");
  }
  ShardRef ref{alpha_here.collection, alpha_here.shard};
  size_t idx = entries_.size();
  total_txs_ += block->tx_count();
  heads_[ref] = alpha_here.n;
  auto& st = collection_state_[ref.collection];
  st = std::max(st, alpha_here.n);
  chains_[ref].push_back(idx);
  std::unique_ptr<const std::vector<GammaEntry>> gamma_override;
  if (gamma_here != block->id.gamma) {
    gamma_override = std::make_unique<std::vector<GammaEntry>>(gamma_here);
  }
  entries_.push_back(Entry{std::move(block), std::move(cert), alpha_here,
                           when, std::move(gamma_override)});
  return Status::Ok();
}

SeqNo DagLedger::HeadOf(const ShardRef& ref) const {
  const SeqNo* at = heads_.Find(ref);
  return at == nullptr ? 0 : *at;
}

SeqNo DagLedger::StateOf(const CollectionId& c) const {
  const SeqNo* at = collection_state_.Find(c);
  return at == nullptr ? 0 : *at;
}

const std::vector<size_t>& DagLedger::ChainOf(const ShardRef& ref) const {
  auto it = chains_.find(ref);
  return it == chains_.end() ? kEmptyChain : it->second;
}

Status DagLedger::VerifyChain(const KeyStore& ks, size_t cert_quorum) const {
  for (const auto& [ref, chain] : chains_) {
    SeqNo expect = 1;
    const Entry* prev = nullptr;
    for (size_t idx : chain) {
      const Entry& e = entries_[idx];
      if (e.alpha.n != expect) {
        return Status::Corruption("gap in chain " + ref.Label());
      }
      // Tamper evidence, recomputed from canonical bytes while bypassing
      // every memoized digest (a tampered block may carry a stale cache):
      // the Merkle root over the transactions must match the sealed root,
      // and the certificate must cover the block digest re-derived from
      // that recomputed root. One pass, no block copy, and no redundant
      // re-hash of data either check already covered.
      Sha256Digest root = e.block->RecomputeTxRoot();
      if (root != e.block->tx_root) {
        return Status::Corruption("transaction set tampered in " +
                                  e.block->id.ToString());
      }
      if (e.cert.block_digest != e.block->RecomputeDigest(root)) {
        return Status::Corruption("block " + e.block->id.ToString() +
                                  " does not match its certificate");
      }
      if (cert_quorum > 0 && !e.cert.Valid(ks, cert_quorum)) {
        return Status::Corruption("invalid certificate on " +
                                  e.block->id.ToString());
      }
      if (prev != nullptr) {
        QANAAT_RETURN_IF_ERROR(CheckGammaMonotone(prev->gamma(), e.gamma()));
      }
      prev = &e;
      ++expect;
    }
  }
  return Status::Ok();
}

}  // namespace qanaat
