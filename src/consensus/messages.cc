// Canonical wire codecs for the internal-consensus messages and the
// values they carry. The simulation exchanges messages as shared structs,
// but every field that influences a digest or a signature is defined by
// these encodings, and the serde fuzz suite drives them with garbage —
// so a malformed byte stream can never crash a node.

#include "consensus/messages.h"

#include <algorithm>

#include "consensus/value.h"

namespace qanaat {

namespace {

void EncodeClients(Encoder* enc,
                   const std::vector<std::pair<NodeId, uint64_t>>& clients) {
  enc->PutU32(static_cast<uint32_t>(clients.size()));
  for (const auto& [c, ts] : clients) {
    enc->PutU32(c);
    enc->PutU64(ts);
  }
}

bool DecodeClients(Decoder* dec,
                   std::vector<std::pair<NodeId, uint64_t>>* clients) {
  uint32_t n;
  if (!dec->GetU32(&n)) return false;
  if (n > dec->remaining()) return false;  // 12 bytes per entry
  clients->resize(n);
  for (auto& [c, ts] : *clients) {
    if (!dec->GetU32(&c) || !dec->GetU64(&ts)) return false;
  }
  return true;
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

void EncodeBlockPtr(Encoder* enc, const BlockPtr& b) {
  enc->PutBool(b != nullptr);
  if (b != nullptr) b->EncodeTo(enc);
}

}  // namespace

// ------------------------------------------------------- ConsensusValue

void ConsensusValue::EncodeTo(Encoder* enc) const {
  enc->PutU8(static_cast<uint8_t>(kind));
  EncodeDigestTo(enc, block_digest);
  enc->PutU8(batch_close);
  EncodeBlockPtr(enc, block);
  enc->PutU16(static_cast<uint16_t>(assignments.size()));
  for (const auto& a : assignments) a.EncodeTo(enc);
}

bool ConsensusValue::DecodeFrom(Decoder* dec, ConsensusValue* out) {
  uint8_t k;
  if (!dec->GetU8(&k)) return false;
  if (k > static_cast<uint8_t>(Kind::kXAbort)) return false;
  out->kind = static_cast<Kind>(k);
  if (!DecodeDigestFrom(dec, &out->block_digest)) return false;
  if (!dec->GetU8(&out->batch_close)) return false;
  if (!DecodeBlockPtr(dec, &out->block)) return false;
  // The carried block must be the one the digest commits to.
  if (out->block != nullptr && out->block->Digest() != out->block_digest) {
    return false;
  }
  uint16_t na;
  if (!dec->GetU16(&na)) return false;
  if (na > dec->remaining()) return false;
  out->assignments.resize(na);
  for (auto& a : out->assignments) {
    if (!ShardAssignment::DecodeFrom(dec, &a)) return false;
  }
  return true;
}

// ------------------------------------------------------ client messages

void RequestMsg::EncodeTo(Encoder* enc) const {
  tx.EncodeTo(enc);
  enc->PutBool(is_retransmission);
}

bool RequestMsg::DecodeFrom(Decoder* dec, RequestMsg* out) {
  return Transaction::DecodeFrom(dec, &out->tx) &&
         dec->GetBool(&out->is_retransmission);
}

void ReplyMsg::EncodeTo(Encoder* enc) const {
  EncodeDigestTo(enc, block_digest);
  EncodeDigestTo(enc, result_digest);
  EncodeClients(enc, clients);
  sig.EncodeTo(enc);
}

bool ReplyMsg::DecodeFrom(Decoder* dec, ReplyMsg* out) {
  return DecodeDigestFrom(dec, &out->block_digest) &&
         DecodeDigestFrom(dec, &out->result_digest) &&
         DecodeClients(dec, &out->clients) &&
         Signature::DecodeFrom(dec, &out->sig);
}

void ReplyCertMsg::EncodeTo(Encoder* enc) const {
  EncodeDigestTo(enc, block_digest);
  EncodeDigestTo(enc, result_digest);
  EncodeClients(enc, clients);
  cert.EncodeTo(enc);
}

bool ReplyCertMsg::DecodeFrom(Decoder* dec, ReplyCertMsg* out) {
  return DecodeDigestFrom(dec, &out->block_digest) &&
         DecodeDigestFrom(dec, &out->result_digest) &&
         DecodeClients(dec, &out->clients) &&
         ReplyCertificate::DecodeFrom(dec, &out->cert);
}

// -------------------------------------------------------- PBFT messages

void PrePrepareMsg::EncodeTo(Encoder* enc) const {
  enc->PutU64(view);
  enc->PutU64(slot);
  value.EncodeTo(enc);
  EncodeDigestTo(enc, value_digest);
  sig.EncodeTo(enc);
}

bool PrePrepareMsg::DecodeFrom(Decoder* dec, PrePrepareMsg* out) {
  return dec->GetU64(&out->view) && dec->GetU64(&out->slot) &&
         ConsensusValue::DecodeFrom(dec, &out->value) &&
         DecodeDigestFrom(dec, &out->value_digest) &&
         Signature::DecodeFrom(dec, &out->sig);
}

void PrepareMsg::EncodeTo(Encoder* enc) const {
  enc->PutU64(view);
  enc->PutU64(slot);
  EncodeDigestTo(enc, value_digest);
  sig.EncodeTo(enc);
}

bool PrepareMsg::DecodeFrom(Decoder* dec, PrepareMsg* out) {
  return dec->GetU64(&out->view) && dec->GetU64(&out->slot) &&
         DecodeDigestFrom(dec, &out->value_digest) &&
         Signature::DecodeFrom(dec, &out->sig);
}

void CommitMsg::EncodeTo(Encoder* enc) const {
  enc->PutU64(view);
  enc->PutU64(slot);
  EncodeDigestTo(enc, value_digest);
  sig.EncodeTo(enc);
}

bool CommitMsg::DecodeFrom(Decoder* dec, CommitMsg* out) {
  return dec->GetU64(&out->view) && dec->GetU64(&out->slot) &&
         DecodeDigestFrom(dec, &out->value_digest) &&
         Signature::DecodeFrom(dec, &out->sig);
}

void PreparedProof::EncodeTo(Encoder* enc) const {
  enc->PutU64(slot);
  enc->PutU64(view);
  value.EncodeTo(enc);
  EncodeDigestTo(enc, value_digest);
}

bool PreparedProof::DecodeFrom(Decoder* dec, PreparedProof* out) {
  return dec->GetU64(&out->slot) && dec->GetU64(&out->view) &&
         ConsensusValue::DecodeFrom(dec, &out->value) &&
         DecodeDigestFrom(dec, &out->value_digest);
}

namespace {
bool DecodeProofList(Decoder* dec, std::vector<PreparedProof>* out) {
  uint16_t n;
  if (!dec->GetU16(&n)) return false;
  if (n > dec->remaining()) return false;
  out->resize(n);
  for (auto& p : *out) {
    if (!PreparedProof::DecodeFrom(dec, &p)) return false;
  }
  return true;
}
}  // namespace

void ViewChangeMsg::EncodeTo(Encoder* enc) const {
  enc->PutU64(new_view);
  enc->PutU64(last_delivered);
  enc->PutU16(static_cast<uint16_t>(prepared.size()));
  for (const auto& p : prepared) p.EncodeTo(enc);
  sig.EncodeTo(enc);
}

bool ViewChangeMsg::DecodeFrom(Decoder* dec, ViewChangeMsg* out) {
  return dec->GetU64(&out->new_view) && dec->GetU64(&out->last_delivered) &&
         DecodeProofList(dec, &out->prepared) &&
         Signature::DecodeFrom(dec, &out->sig);
}

void NewViewMsg::EncodeTo(Encoder* enc) const {
  enc->PutU64(new_view);
  enc->PutU16(static_cast<uint16_t>(reproposals.size()));
  for (const auto& p : reproposals) p.EncodeTo(enc);
  sig.EncodeTo(enc);
}

bool NewViewMsg::DecodeFrom(Decoder* dec, NewViewMsg* out) {
  return dec->GetU64(&out->new_view) &&
         DecodeProofList(dec, &out->reproposals) &&
         Signature::DecodeFrom(dec, &out->sig);
}

// ------------------------------------------------------- Paxos messages

void PaxosAcceptMsg::EncodeTo(Encoder* enc) const {
  enc->PutU64(ballot);
  enc->PutU64(slot);
  value.EncodeTo(enc);
  EncodeDigestTo(enc, value_digest);
}

bool PaxosAcceptMsg::DecodeFrom(Decoder* dec, PaxosAcceptMsg* out) {
  return dec->GetU64(&out->ballot) && dec->GetU64(&out->slot) &&
         ConsensusValue::DecodeFrom(dec, &out->value) &&
         DecodeDigestFrom(dec, &out->value_digest);
}

void PaxosAcceptedMsg::EncodeTo(Encoder* enc) const {
  enc->PutU64(ballot);
  enc->PutU64(slot);
  EncodeDigestTo(enc, value_digest);
}

bool PaxosAcceptedMsg::DecodeFrom(Decoder* dec, PaxosAcceptedMsg* out) {
  return dec->GetU64(&out->ballot) && dec->GetU64(&out->slot) &&
         DecodeDigestFrom(dec, &out->value_digest);
}

void PaxosLearnMsg::EncodeTo(Encoder* enc) const {
  enc->PutU64(ballot);
  enc->PutU64(slot);
  EncodeDigestTo(enc, value_digest);
}

bool PaxosLearnMsg::DecodeFrom(Decoder* dec, PaxosLearnMsg* out) {
  return dec->GetU64(&out->ballot) && dec->GetU64(&out->slot) &&
         DecodeDigestFrom(dec, &out->value_digest);
}

void PaxosPrepareMsg::EncodeTo(Encoder* enc) const {
  enc->PutU64(ballot);
  enc->PutU64(last_delivered);
}

bool PaxosPrepareMsg::DecodeFrom(Decoder* dec, PaxosPrepareMsg* out) {
  return dec->GetU64(&out->ballot) && dec->GetU64(&out->last_delivered);
}

void PaxosAcceptedSlot::EncodeTo(Encoder* enc) const {
  enc->PutU64(slot);
  enc->PutU64(ballot);
  value.EncodeTo(enc);
  EncodeDigestTo(enc, digest);
}

bool PaxosAcceptedSlot::DecodeFrom(Decoder* dec, PaxosAcceptedSlot* out) {
  return dec->GetU64(&out->slot) && dec->GetU64(&out->ballot) &&
         ConsensusValue::DecodeFrom(dec, &out->value) &&
         DecodeDigestFrom(dec, &out->digest);
}

void PaxosPromiseMsg::EncodeTo(Encoder* enc) const {
  enc->PutU64(ballot);
  enc->PutU32(static_cast<uint32_t>(accepted.size()));
  for (const auto& a : accepted) a.EncodeTo(enc);
  stable.EncodeTo(enc);
}

bool PaxosPromiseMsg::DecodeFrom(Decoder* dec, PaxosPromiseMsg* out) {
  if (!dec->GetU64(&out->ballot)) return false;
  uint32_t n;
  if (!dec->GetU32(&n)) return false;
  if (n > dec->remaining()) return false;
  out->accepted.resize(n);
  for (auto& a : out->accepted) {
    if (!PaxosAcceptedSlot::DecodeFrom(dec, &a)) return false;
  }
  return CheckpointCertificate::DecodeFrom(dec, &out->stable);
}

// ------------------------------------- checkpoints + state transfer

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

void CheckpointCertificate::EncodeTo(Encoder* enc) const {
  enc->PutU64(slot);
  EncodeDigestTo(enc, digest);
  enc->PutU16(static_cast<uint16_t>(sigs.size()));
  for (const auto& s : sigs) s.EncodeTo(enc);
}

bool CheckpointCertificate::DecodeFrom(Decoder* dec,
                                       CheckpointCertificate* out) {
  if (!dec->GetU64(&out->slot) || !DecodeDigestFrom(dec, &out->digest)) {
    return false;
  }
  uint16_t n;
  if (!dec->GetU16(&n)) return false;
  if (n > dec->remaining()) return false;
  out->sigs.resize(n);
  for (auto& s : out->sigs) {
    if (!Signature::DecodeFrom(dec, &s)) return false;
  }
  return true;
}

void CheckpointMsg::EncodeTo(Encoder* enc) const {
  enc->PutU64(slot);
  EncodeDigestTo(enc, digest);
  sig.EncodeTo(enc);
  cert.EncodeTo(enc);
}

bool CheckpointMsg::DecodeFrom(Decoder* dec, CheckpointMsg* out) {
  return dec->GetU64(&out->slot) && DecodeDigestFrom(dec, &out->digest) &&
         Signature::DecodeFrom(dec, &out->sig) &&
         CheckpointCertificate::DecodeFrom(dec, &out->cert);
}

void StateRequestMsg::EncodeTo(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(heads.size()));
  for (const auto& h : heads) {
    h.collection.EncodeTo(enc);
    enc->PutU16(h.shard);
    enc->PutU64(h.head);
  }
  enc->PutU64(frontier);
  enc->PutU32(requester);
}

bool StateRequestMsg::DecodeFrom(Decoder* dec, StateRequestMsg* out) {
  uint32_t n;
  if (!dec->GetU32(&n)) return false;
  if (n > dec->remaining()) return false;
  out->heads.resize(n);
  for (auto& h : out->heads) {
    if (!CollectionId::DecodeFrom(dec, &h.collection) ||
        !dec->GetU16(&h.shard) || !dec->GetU64(&h.head)) {
      return false;
    }
  }
  return dec->GetU64(&out->frontier) && dec->GetU32(&out->requester);
}

void StateReplyMsg::EncodeTo(Encoder* enc) const {
  ckpt.EncodeTo(enc);
  enc->PutU32(static_cast<uint32_t>(entries.size()));
  for (const auto& e : entries) {
    EncodeBlockPtr(enc, e.block);
    e.cert.EncodeTo(enc);
    e.alpha.EncodeTo(enc);
    enc->PutU16(static_cast<uint16_t>(e.gamma.size()));
    for (const auto& g : e.gamma) g.EncodeTo(enc);
  }
  enc->PutU32(requester);
}

bool StateReplyMsg::DecodeFrom(Decoder* dec, StateReplyMsg* out) {
  if (!CheckpointCertificate::DecodeFrom(dec, &out->ckpt)) return false;
  uint32_t n;
  if (!dec->GetU32(&n)) return false;
  if (n > dec->remaining()) return false;
  out->entries.resize(n);
  for (auto& e : out->entries) {
    if (!DecodeBlockPtr(dec, &e.block)) return false;
    if (e.block == nullptr) return false;  // entries always carry a block
    if (!CommitCertificate::DecodeFrom(dec, &e.cert)) return false;
    if (!LocalPart::DecodeFrom(dec, &e.alpha)) return false;
    uint16_t ng;
    if (!dec->GetU16(&ng)) return false;
    if (ng > dec->remaining()) return false;
    e.gamma.resize(ng);
    for (auto& g : e.gamma) {
      if (!GammaEntry::DecodeFrom(dec, &g)) return false;
    }
  }
  return dec->GetU32(&out->requester);
}

void FillRequestMsg::EncodeTo(Encoder* enc) const {
  enc->PutU64(from_slot);
  enc->PutU64(to_slot);
  enc->PutU64(want_view);
}

bool FillRequestMsg::DecodeFrom(Decoder* dec, FillRequestMsg* out) {
  return dec->GetU64(&out->from_slot) && dec->GetU64(&out->to_slot) &&
         dec->GetU64(&out->want_view);
}

void FillReplyMsg::EncodeTo(Encoder* enc) const {
  enc->PutU64(slot);
  enc->PutU64(view);
  value.EncodeTo(enc);
  enc->PutU32(static_cast<uint32_t>(commit_proof.size()));
  for (const auto& s : commit_proof) s.EncodeTo(enc);
}

bool FillReplyMsg::DecodeFrom(Decoder* dec, FillReplyMsg* out) {
  if (!dec->GetU64(&out->slot) || !dec->GetU64(&out->view)) return false;
  if (!ConsensusValue::DecodeFrom(dec, &out->value)) return false;
  uint32_t n;
  if (!dec->GetU32(&n)) return false;
  if (n > dec->remaining()) return false;
  out->commit_proof.resize(n);
  for (auto& s : out->commit_proof) {
    if (!Signature::DecodeFrom(dec, &s)) return false;
  }
  return true;
}

// --------------------------------------------- execution-path messages

void ExecOrderMsg::EncodeTo(Encoder* enc) const {
  EncodeBlockPtr(enc, block);
  cert.EncodeTo(enc);
  alpha_here.EncodeTo(enc);
  enc->PutU16(static_cast<uint16_t>(gamma_here.size()));
  for (const auto& g : gamma_here) g.EncodeTo(enc);
}

bool ExecOrderMsg::DecodeFrom(Decoder* dec, ExecOrderMsg* out) {
  if (!DecodeBlockPtr(dec, &out->block)) return false;
  if (!CommitCertificate::DecodeFrom(dec, &out->cert)) return false;
  if (!LocalPart::DecodeFrom(dec, &out->alpha_here)) return false;
  uint16_t ng;
  if (!dec->GetU16(&ng)) return false;
  if (ng > dec->remaining()) return false;
  out->gamma_here.resize(ng);
  for (auto& g : out->gamma_here) {
    if (!GammaEntry::DecodeFrom(dec, &g)) return false;
  }
  return true;
}

Sha256Digest ExecReplyMsg::Signable(
    const Sha256Digest& block_digest, const Sha256Digest& result_digest,
    const std::vector<std::pair<NodeId, uint64_t>>& clients) {
  Encoder enc;
  EncodeDigestTo(&enc, block_digest);
  EncodeDigestTo(&enc, result_digest);
  EncodeClients(&enc, clients);
  return Sha256::Hash(enc.buffer());
}

void ExecReplyMsg::EncodeTo(Encoder* enc) const {
  EncodeDigestTo(enc, block_digest);
  EncodeDigestTo(enc, result_digest);
  EncodeClients(enc, clients);
  sig.EncodeTo(enc);
}

bool ExecReplyMsg::DecodeFrom(Decoder* dec, ExecReplyMsg* out) {
  return DecodeDigestFrom(dec, &out->block_digest) &&
         DecodeDigestFrom(dec, &out->result_digest) &&
         DecodeClients(dec, &out->clients) &&
         Signature::DecodeFrom(dec, &out->sig);
}

}  // namespace qanaat
