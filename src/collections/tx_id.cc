#include "collections/tx_id.h"

namespace qanaat {

std::string LocalPart::ToString() const {
  std::string s = "[" + collection.members.Label();
  if (shard != 0) s += "^" + std::to_string(shard);
  s += ":" + std::to_string(n) + "]";
  return s;
}

std::optional<SeqNo> TxId::GammaFor(const CollectionId& y) const {
  for (const auto& g : gamma) {
    if (g.collection == y) return g.m;
  }
  return std::nullopt;
}

std::string TxId::ToString() const {
  std::string s = "<" + alpha.ToString();
  for (const auto& a : extra_alphas) s += a.ToString();
  s += ", ";
  if (gamma.empty()) {
    s += "0";  // γ = ∅
  } else {
    s += "[";
    for (size_t i = 0; i < gamma.size(); ++i) {
      if (i) s += ", ";
      s += gamma[i].collection.members.Label() + ":" +
           std::to_string(gamma[i].m);
    }
    s += "]";
  }
  s += ">";
  return s;
}

Status CheckLocalConsistency(const TxId& earlier, const TxId& later) {
  if (earlier.alpha.collection != later.alpha.collection ||
      earlier.alpha.shard != later.alpha.shard) {
    return Status::InvalidArgument(
        "local consistency is defined per collection shard");
  }
  if (earlier.alpha.n >= later.alpha.n) {
    return Status::FailedPrecondition(
        "local consistency violated: " + earlier.ToString() +
        " ordered before " + later.ToString());
  }
  return Status::Ok();
}

Status CheckGlobalConsistency(const TxId& earlier, const TxId& later) {
  for (const auto& ge : earlier.gamma) {
    auto ml = later.GammaFor(ge.collection);
    if (ml.has_value() && ge.m > *ml) {
      return Status::FailedPrecondition(
          "global consistency violated on " + ge.collection.Label() + ": " +
          earlier.ToString() + " -> " + later.ToString());
    }
  }
  return Status::Ok();
}

}  // namespace qanaat
