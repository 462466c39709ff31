#include "ledger/block.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <utility>

#include "common/rng.h"
#include "common/serde.h"

namespace qanaat {

void Block::Seal() {
  std::vector<Sha256Digest> leaves;
  leaves.reserve(txs.size());
  for (const auto& tx : txs) leaves.push_back(tx.Digest());
  tx_root = MerkleTree::RootOf(std::move(leaves));
  digest_valid_ = false;
  digest_cache_ = Digest();
}

Sha256Digest Block::Digest() const {
  if (!digest_valid_) {
    digest_cache_ = RecomputeDigest(tx_root);
    digest_valid_ = true;
  }
  return digest_cache_;
}

Sha256Digest Block::RecomputeTxRoot() const {
  std::vector<Sha256Digest> leaves;
  leaves.reserve(txs.size());
  for (const auto& tx : txs) leaves.push_back(tx.RecomputeDigest());
  return MerkleTree::RootOf(std::move(leaves));
}

Sha256Digest Block::RecomputeDigest(const Sha256Digest& root) const {
  Encoder enc;
  Writer w(&enc);
  w(id);
  w(attempt);
  w(root);
  return Sha256::Hash(enc.buffer());
}

namespace {
bool QuorumOfValidSigs(const KeyStore& ks, const Sha256Digest& digest,
                       const std::vector<Signature>& sigs, size_t quorum,
                       const std::vector<NodeId>* allowed) {
  std::vector<NodeId> distinct;
  distinct.reserve(sigs.size());
  for (const auto& s : sigs) {
    if (!ks.Verify(s, digest)) return false;
    if (allowed != nullptr &&
        std::find(allowed->begin(), allowed->end(), s.signer) ==
            allowed->end()) {
      return false;
    }
    AddDistinctSigner(&distinct, s.signer);
  }
  return distinct.size() >= quorum;
}
}  // namespace

Sha256Digest DeriveDigest(uint64_t salt, uint64_t a, uint64_t b,
                          const Sha256Digest& parent) {
  uint64_t w[4];
  std::memcpy(w, parent.bytes.data(), sizeof(w));
  uint64_t lo = Mix64(salt ^ 0x51ed270b9f652295ULL) ^ Mix64(a);
  uint64_t hi = Mix64(salt + 0x9e3779b97f4a7c15ULL) ^ Mix64(~b);
  for (int k = 0; k < 4; ++k) {
    lo = Mix64(lo ^ w[k]);
    hi = Mix64(hi + w[k] + 0x9e3779b97f4a7c15ULL * (k + 1));
  }
  uint64_t out[4] = {Mix64(lo ^ (hi >> 32)), Mix64(hi ^ (lo << 32)),
                     Mix64(lo + hi + a), Mix64(lo ^ hi ^ b)};
  Sha256Digest d;
  std::memcpy(d.bytes.data(), out, sizeof(out));
  return d;
}

Sha256Digest ValueDigestFor(uint8_t kind, const Sha256Digest& block_digest) {
  return DeriveDigest(0x56444947u /* "VDIG" */, kind, 0, block_digest);
}

Sha256Digest ConsensusSignable(ViewNo view, uint64_t slot,
                               const Sha256Digest& value_digest) {
  return DeriveDigest(0x43534947u /* "CSIG" */, view, slot, value_digest);
}

Sha256Digest CheckpointSignable(uint64_t slot,
                                const Sha256Digest& history_digest) {
  return DeriveDigest(0x434b5054u /* "CKPT" */, slot, 0, history_digest);
}

Sha256Digest CommitCertificate::CoveredDigest() const {
  if (direct) return block_digest;
  return ConsensusSignable(view, slot,
                           ValueDigestFor(value_kind, block_digest));
}

bool CommitCertificate::Valid(const KeyStore& ks, size_t quorum) const {
  return QuorumOfValidSigs(ks, CoveredDigest(), sigs, quorum, nullptr);
}

bool CommitCertificate::ValidFrom(const KeyStore& ks, size_t quorum,
                                  const std::vector<NodeId>& allowed) const {
  return QuorumOfValidSigs(ks, CoveredDigest(), sigs, quorum, &allowed);
}

}  // namespace qanaat
