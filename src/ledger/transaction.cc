#include "ledger/transaction.h"

#include "common/serde.h"

namespace qanaat {

Sha256Digest Transaction::Digest() const {
  if (!digest_valid_) {
    digest_cache_ = RecomputeDigest();
    digest_valid_ = true;
  }
  return digest_cache_;
}

Sha256Digest Transaction::RecomputeDigest() const {
  Encoder enc;
  Writer w(&enc);
  BodyFields(w, *this);
  return Sha256::Hash(enc.buffer());
}

}  // namespace qanaat
