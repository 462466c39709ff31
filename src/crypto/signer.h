#ifndef QANAAT_CRYPTO_SIGNER_H_
#define QANAAT_CRYPTO_SIGNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "crypto/sha256.h"

namespace qanaat {

/// A signature over a digest by one node, ⟨m⟩_σi in the paper's notation.
///
/// Substitution note (see README "Substitution argument"): instead of
/// ECDSA over a PKI the tag is a 16-byte keyed PRF over the digest.
/// Unforgeability holds against the simulated adversary because secret
/// keys never leave the KeyStore; protocol code only ever observes
/// sign/verify outcomes, exactly as with real signatures.
struct Signature {
  NodeId signer = kInvalidNode;
  uint64_t tag_lo = 0;
  uint64_t tag_hi = 0;

  bool operator==(const Signature& o) const {
    return signer == o.signer && tag_lo == o.tag_lo && tag_hi == o.tag_hi;
  }

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.signer) && io(m.tag_lo) && io(m.tag_hi);
  }
};

/// Public-key infrastructure for the deployment: issues per-node secret
/// keys and performs sign/verify. One global instance per simulation.
///
/// Also issues threshold signature *shares* (σ⟨m⟩_i): a share is a
/// signature under a per-node threshold key; a ThresholdCert combining k
/// distinct valid shares is accepted (paper §3.1 uses n−f shares).
class KeyStore {
 public:
  explicit KeyStore(uint64_t seed) : seed_(seed) {}

  /// Sign a digest with node i's secret key.
  Signature Sign(NodeId i, const Sha256Digest& digest) const;

  /// Verify a signature allegedly from sig.signer over the digest.
  bool Verify(const Signature& sig, const Sha256Digest& digest) const;

  /// Produce a threshold signature share for node i.
  Signature SignShare(NodeId i, const Sha256Digest& digest) const;
  bool VerifyShare(const Signature& share, const Sha256Digest& digest) const;

  /// Produce a forged signature that does NOT verify (used by Byzantine
  /// node models in tests and fault-injection benches).
  Signature Forge(NodeId claimed_signer) const;

 private:
  Signature SignWithDomain(NodeId i, uint64_t domain,
                           const Sha256Digest& digest) const;

  uint64_t seed_;
};

/// Appends `signer` to the flat distinct-signer list unless already
/// present. Certificate validators count distinct signers over
/// quorum-sized lists, where a linear probe over a small vector beats
/// the tree allocation per signature this replaced; shared here so the
/// threshold-share and commit-quorum validators cannot diverge.
inline void AddDistinctSigner(std::vector<NodeId>* distinct, NodeId signer) {
  for (NodeId n : *distinct) {
    if (n == signer) return;
  }
  distinct->push_back(signer);
}

/// A threshold signature certificate: k signature shares from distinct
/// nodes over the same digest. Valid iff it has >= `threshold` distinct
/// valid shares.
struct ThresholdCert {
  std::vector<Signature> shares;

  /// At most 4096 shares decode: a sanity bound on any deployment.
  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io.List32(m.shares) && io.Check(m.shares.size() <= 4096);
  }

  /// Checks distinctness of signers and validity of every share.
  bool Valid(const KeyStore& ks, const Sha256Digest& digest,
             size_t threshold) const;
};

}  // namespace qanaat

#endif  // QANAAT_CRYPTO_SIGNER_H_
