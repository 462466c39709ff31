#include "consensus/messages.h"

#include <algorithm>

#include "common/serde.h"

namespace qanaat {

bool CheckpointCertificate::Valid(const KeyStore& ks, size_t quorum) const {
  if (empty() || sigs.size() < quorum) return false;
  Sha256Digest covered = CheckpointSignable(slot, digest);
  std::vector<NodeId> signers;
  for (const auto& s : sigs) {
    if (!ks.Verify(s, covered)) return false;
    signers.push_back(s.signer);
  }
  std::sort(signers.begin(), signers.end());
  signers.erase(std::unique(signers.begin(), signers.end()), signers.end());
  return signers.size() >= quorum;
}

Sha256Digest ExecReplyMsg::Signable(
    const Sha256Digest& block_digest, const Sha256Digest& result_digest,
    const std::vector<std::pair<NodeId, uint64_t>>& clients) {
  // The message's own layout up to, and without, the signature.
  Encoder enc;
  Writer w(&enc);
  w(block_digest);
  w(result_digest);
  w.List32(clients);
  return Sha256::Hash(enc.buffer());
}

}  // namespace qanaat
