// Wire codecs for the cross-cluster protocol messages (coordinator-based
// §4.3 and flattened §4.4 families), plus the state-transfer server both
// catch-up paths share. Decoders are defensive: every count is bounded by
// the remaining buffer and a carried block must hash to the digest it
// claims, so arbitrary bytes can never crash or fool a node.

#include "protocols/cross_messages.h"

#include <algorithm>
#include <map>

namespace qanaat {

bool VerifyTransferredLedgerEntry(const Directory& dir, const KeyStore& ks,
                                  const StateReplyMsg::Entry& e) {
  if (e.block == nullptr) return false;
  // Tamper evidence from canonical bytes, bypassing every memoized
  // digest: Merkle root over the transferred transactions, then the
  // block digest the certificate must cover.
  Sha256Digest root = e.block->RecomputeTxRoot();
  if (!(root == e.block->tx_root)) return false;
  if (!(e.cert.block_digest == e.block->RecomputeDigest(root))) {
    return false;
  }
  // Quorum of valid signatures from ordering nodes of the collection's
  // member clusters — the only parties that legitimately certify blocks
  // of this chain (keeps Byzantine execution nodes out of the signer
  // set).
  std::vector<NodeId> allowed;
  for (EnterpriseId ent : e.alpha.collection.members.Members()) {
    for (ShardId s = 0;
         s < static_cast<ShardId>(dir.params.shards_per_enterprise); ++s) {
      const auto& ord = dir.Cluster(dir.ClusterIdOf(ent, s)).ordering;
      allowed.insert(allowed.end(), ord.begin(), ord.end());
    }
  }
  return e.cert.ValidFrom(ks, dir.params.CertQuorum(), allowed);
}

std::vector<StateRequestMsg::ChainHead> ChainHeadsOf(const ExecutorCore& core) {
  std::vector<StateRequestMsg::ChainHead> heads;
  for (const auto& [ref, chain] : core.ledger().chains()) {
    heads.push_back(StateRequestMsg::ChainHead{ref.collection, ref.shard,
                                               core.ledger().HeadOf(ref)});
  }
  return heads;
}

std::shared_ptr<StateReplyMsg> BuildStateReply(
    const ExecutorCore& core, const StateRequestMsg& request,
    const CheckpointCertificate* ckpt) {
  std::map<ShardRef, SeqNo> req_heads;
  for (const auto& h : request.heads) {
    req_heads[ShardRef{h.collection, h.shard}] = h.head;
  }
  auto have = [&req_heads](const ShardRef& ref) {
    auto it = req_heads.find(ref);
    return it == req_heads.end() ? SeqNo{0} : it->second;
  };
  // Chunked like the other catch-up protocols (fills: 16 slots, Fabric
  // fetch: 8 blocks): at most kMaxEntries entries per reply, filled
  // round-robin ACROSS chains — oldest missing entry of each chain
  // first — so a long chain cannot starve the chain its γ dependencies
  // point at. The requester re-requests with updated heads until a
  // round installs nothing new.
  constexpr size_t kMaxEntries = 256;
  auto rep = std::make_shared<StateReplyMsg>();
  uint64_t bytes = 64;
  size_t verify_ops = 0;
  if (ckpt != nullptr) {
    rep->ckpt = *ckpt;
    bytes += ckpt->WireSize();
    verify_ops += ckpt->sigs.size();
  }
  const DagLedger& led = core.ledger();
  // Per-chain cursors into the missing suffix (chain[i] holds the entry
  // committed at sequence number i + 1, so the requester's gap starts
  // at index `head`).
  std::vector<std::pair<const std::vector<size_t>*, size_t>> cursors;
  for (const auto& [ref, chain] : led.chains()) {
    SeqNo from = have(ref);
    if (from < chain.size()) cursors.emplace_back(&chain, from);
  }
  bool any = true;
  while (any && rep->entries.size() < kMaxEntries) {
    any = false;
    for (auto& [chain, i] : cursors) {
      if (i >= chain->size() || rep->entries.size() >= kMaxEntries) {
        continue;
      }
      const DagLedger::Entry& e = led.entry((*chain)[i++]);
      rep->entries.push_back(
          StateReplyMsg::Entry{e.block, e.cert, e.alpha, e.gamma});
      any = true;
    }
  }
  // Certified-but-wedged tail: blocks this server committed whose chain
  // predecessor is still missing live outside the installed chains. A
  // requester that recovers while a chain is globally wedged would never
  // see them in any later sync round (once the wedge clears, the tail
  // block has no successor to reveal the gap) — include them, pending
  // the same predecessors on the requester's side.
  for (const auto& p : core.pending()) {
    if (rep->entries.size() >= kMaxEntries) break;
    if (p.alpha.n <= have(ShardRef{p.alpha.collection, p.alpha.shard})) {
      continue;
    }
    rep->entries.push_back(
        StateReplyMsg::Entry{p.block, p.cert, p.alpha, p.gamma});
  }
  // A lagging ordering node still wants a newer checkpoint on its own;
  // executors request with frontier = UINT64_MAX, so they never do.
  if (rep->entries.empty() && rep->ckpt.slot <= request.frontier) {
    return nullptr;
  }
  for (const auto& e : rep->entries) {
    bytes += 64 + e.block->WireSize() + e.cert.WireSize();
    verify_ops += e.cert.sigs.size();
  }
  rep->requester = request.requester;  // echo for firewall-routed pulls
  rep->wire_bytes =
      static_cast<uint32_t>(std::min<uint64_t>(bytes, UINT32_MAX));
  rep->sig_verify_ops =
      static_cast<uint16_t>(std::min<size_t>(verify_ops, 65535));
  return rep;
}

namespace {

void EncodeBlockPtr(Encoder* enc, const BlockPtr& b) {
  enc->PutBool(b != nullptr);
  if (b != nullptr) b->EncodeTo(enc);
}

bool DecodeBlockPtr(Decoder* dec, BlockPtr* out) {
  bool present;
  if (!dec->GetBool(&present)) return false;
  if (!present) {
    out->reset();
    return true;
  }
  auto b = std::make_shared<Block>();
  if (!Block::DecodeFrom(dec, b.get())) return false;
  *out = std::move(b);
  return true;
}

bool DecodeAssignments(Decoder* dec, std::vector<ShardAssignment>* out) {
  uint16_t n;
  if (!dec->GetU16(&n)) return false;
  if (n > dec->remaining()) return false;
  out->resize(n);
  for (auto& a : *out) {
    if (!ShardAssignment::DecodeFrom(dec, &a)) return false;
  }
  return true;
}

}  // namespace

void XPrepareMsg::EncodeTo(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(coord_cluster));
  EncodeBlockPtr(enc, block);
  EncodeDigestTo(enc, block_digest);
  coord_cert.EncodeTo(enc);
}

bool XPrepareMsg::DecodeFrom(Decoder* dec, XPrepareMsg* out) {
  uint32_t c;
  if (!dec->GetU32(&c)) return false;
  out->coord_cluster = static_cast<int>(c);
  if (!DecodeBlockPtr(dec, &out->block)) return false;
  if (!DecodeDigestFrom(dec, &out->block_digest)) return false;
  if (out->block != nullptr && out->block->Digest() != out->block_digest) {
    return false;
  }
  return CommitCertificate::DecodeFrom(dec, &out->coord_cert);
}

void XPreparedMsg::EncodeTo(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(from_cluster));
  EncodeDigestTo(enc, block_digest);
  enc->PutBool(has_assignment);
  if (has_assignment) assignment.EncodeTo(enc);
  enc->PutBool(is_cluster_cert);
  if (is_cluster_cert) cluster_cert.EncodeTo(enc);
  sig.EncodeTo(enc);
  enc->PutBool(abort);
}

bool XPreparedMsg::DecodeFrom(Decoder* dec, XPreparedMsg* out) {
  uint32_t c;
  if (!dec->GetU32(&c)) return false;
  out->from_cluster = static_cast<int>(c);
  if (!DecodeDigestFrom(dec, &out->block_digest)) return false;
  if (!dec->GetBool(&out->has_assignment)) return false;
  if (out->has_assignment &&
      !ShardAssignment::DecodeFrom(dec, &out->assignment)) {
    return false;
  }
  if (!dec->GetBool(&out->is_cluster_cert)) return false;
  if (out->is_cluster_cert &&
      !CommitCertificate::DecodeFrom(dec, &out->cluster_cert)) {
    return false;
  }
  return Signature::DecodeFrom(dec, &out->sig) && dec->GetBool(&out->abort);
}

void XCommitMsg::EncodeTo(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(coord_cluster));
  EncodeBlockPtr(enc, block);
  EncodeDigestTo(enc, block_digest);
  coord_cert.EncodeTo(enc);
  enc->PutU16(static_cast<uint16_t>(assignments.size()));
  for (const auto& a : assignments) a.EncodeTo(enc);
  enc->PutBool(is_abort);
}

bool XCommitMsg::DecodeFrom(Decoder* dec, XCommitMsg* out) {
  uint32_t c;
  if (!dec->GetU32(&c)) return false;
  out->coord_cluster = static_cast<int>(c);
  if (!DecodeBlockPtr(dec, &out->block)) return false;
  if (!DecodeDigestFrom(dec, &out->block_digest)) return false;
  if (out->block != nullptr && out->block->Digest() != out->block_digest) {
    return false;
  }
  return CommitCertificate::DecodeFrom(dec, &out->coord_cert) &&
         DecodeAssignments(dec, &out->assignments) &&
         dec->GetBool(&out->is_abort);
}

void FProposeMsg::EncodeTo(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(initiator_cluster));
  EncodeBlockPtr(enc, block);
  EncodeDigestTo(enc, block_digest);
  sig.EncodeTo(enc);
}

bool FProposeMsg::DecodeFrom(Decoder* dec, FProposeMsg* out) {
  uint32_t c;
  if (!dec->GetU32(&c)) return false;
  out->initiator_cluster = static_cast<int>(c);
  if (!DecodeBlockPtr(dec, &out->block)) return false;
  if (!DecodeDigestFrom(dec, &out->block_digest)) return false;
  if (out->block != nullptr && out->block->Digest() != out->block_digest) {
    return false;
  }
  return Signature::DecodeFrom(dec, &out->sig);
}

void FAcceptMsg::EncodeTo(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(from_cluster));
  EncodeDigestTo(enc, block_digest);
  enc->PutBool(has_assignment);
  if (has_assignment) assignment.EncodeTo(enc);
  sig.EncodeTo(enc);
}

bool FAcceptMsg::DecodeFrom(Decoder* dec, FAcceptMsg* out) {
  uint32_t c;
  if (!dec->GetU32(&c)) return false;
  out->from_cluster = static_cast<int>(c);
  if (!DecodeDigestFrom(dec, &out->block_digest)) return false;
  if (!dec->GetBool(&out->has_assignment)) return false;
  if (out->has_assignment &&
      !ShardAssignment::DecodeFrom(dec, &out->assignment)) {
    return false;
  }
  return Signature::DecodeFrom(dec, &out->sig);
}

void FCommitMsg::EncodeTo(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(from_cluster));
  EncodeDigestTo(enc, block_digest);
  sig.EncodeTo(enc);
  enc->PutBool(fast_path);
  enc->PutU16(static_cast<uint16_t>(assignments.size()));
  for (const auto& a : assignments) a.EncodeTo(enc);
}

bool FCommitMsg::DecodeFrom(Decoder* dec, FCommitMsg* out) {
  uint32_t c;
  if (!dec->GetU32(&c)) return false;
  out->from_cluster = static_cast<int>(c);
  return DecodeDigestFrom(dec, &out->block_digest) &&
         Signature::DecodeFrom(dec, &out->sig) &&
         dec->GetBool(&out->fast_path) &&
         DecodeAssignments(dec, &out->assignments);
}

void QueryMsg::EncodeTo(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(from_cluster));
  EncodeDigestTo(enc, block_digest);
  sig.EncodeTo(enc);
}

bool QueryMsg::DecodeFrom(Decoder* dec, QueryMsg* out) {
  uint32_t c;
  if (!dec->GetU32(&c)) return false;
  out->from_cluster = static_cast<int>(c);
  return DecodeDigestFrom(dec, &out->block_digest) &&
         Signature::DecodeFrom(dec, &out->sig);
}

}  // namespace qanaat
