#include "crypto/merkle.h"

#include <cstring>

namespace qanaat {

Sha256Digest MerkleTree::HashPair(const Sha256Digest& a,
                                  const Sha256Digest& b) {
  // Two child digests fill exactly one compression block, so the padded
  // second compression of a general-purpose hash adds nothing here: every
  // input has the same fixed length and the children are themselves
  // collision-resistant digests. Seal and chain audits both combine
  // children through this one function.
  uint8_t block[64];
  std::memcpy(block, a.bytes.data(), 32);
  std::memcpy(block + 32, b.bytes.data(), 32);
  return Sha256::CompressBlock(block);
}

Sha256Digest MerkleTree::RootOf(std::vector<Sha256Digest> level) {
  if (level.empty()) return Sha256::Hash("", 0);
  // Each level overwrites the front of the one below it: node i reads
  // children 2i and 2i+1, which no earlier node of the level overwrote.
  while (level.size() > 1) {
    size_t parents = (level.size() + 1) / 2;
    for (size_t i = 0; i < parents; ++i) {
      const Sha256Digest& left = level[2 * i];
      const Sha256Digest& right =
          2 * i + 1 < level.size() ? level[2 * i + 1] : left;
      level[i] = HashPair(left, right);
    }
    level.resize(parents);
  }
  return level[0];
}

}  // namespace qanaat
