#ifndef QANAAT_CRYPTO_MERKLE_H_
#define QANAAT_CRYPTO_MERKLE_H_

#include <vector>

#include "crypto/sha256.h"

namespace qanaat {

/// Binary Merkle tree over a list of leaf digests. Blocks carry only the
/// root, so a single commit certificate covers every transaction in the
/// batch.
class MerkleTree {
 public:
  /// The root over the leaf digests `level`; an empty list yields the
  /// hash of the empty string. Odd levels duplicate the last node
  /// (Bitcoin-style).
  static Sha256Digest RootOf(std::vector<Sha256Digest> level);

 private:
  static Sha256Digest HashPair(const Sha256Digest& a, const Sha256Digest& b);
};

}  // namespace qanaat

#endif  // QANAAT_CRYPTO_MERKLE_H_
