// Certified checkpoints, shared by both internal-consensus engines
// (paper §4.1 runs PBFT or Multi-Paxos inside each cluster; both need
// the classic PBFT-style stable checkpoint to garbage-collect slot state
// and to anchor recovering replicas).
//
// The checkpointed object is the *consensus history*: a digest chained
// over the value digest of every delivered slot. Unlike the application
// state (whose ledger also advances on asynchronous cross-cluster
// commits), the history at slot s is a pure function of slots 1..s, so
// every correct replica produces the same digest at the same boundary
// and matching votes quorum naturally. The ledger itself is transferred
// at the host layer, block by block, each block self-certified by its
// own commit certificate.

#include "consensus/engine.h"

#include "ledger/block.h"

namespace qanaat {

namespace {
constexpr uint64_t kHistorySalt = 0x48495354u;  // "HIST"
}  // namespace

const Sha256Digest& InternalConsensus::CkptSignableFor(
    uint64_t slot, const Sha256Digest& digest) {
  if (!ckpt_signable_valid_ || ckpt_signable_slot_ != slot ||
      !(ckpt_signable_for_ == digest)) {
    ckpt_signable_ = CheckpointSignable(slot, digest);
    ckpt_signable_slot_ = slot;
    ckpt_signable_for_ = digest;
    ckpt_signable_valid_ = true;
  }
  return ckpt_signable_;
}

void InternalConsensus::NoteDelivered(uint64_t slot,
                                      const Sha256Digest& value_digest) {
  ckpt_history_ = DeriveDigest(kHistorySalt, slot, value_digest.Prefix64(),
                               ckpt_history_);
  size_t k = ctx_.checkpoint_interval;
  if (k == 0 || slot % k != 0) return;
  ckpt_own_[slot] = ckpt_history_;
  ctx_.env->metrics.Inc("ckpt.proposed");
  auto m = std::make_shared<CheckpointMsg>();
  m->slot = slot;
  m->digest = ckpt_history_;
  m->sig = ctx_.env->keystore.Sign(ctx_.self,
                                   CkptSignableFor(slot, ckpt_history_));
  m->sig_verify_ops = CheapCheckpointAuth() ? 0 : 1;
  ctx_.broadcast(m);
  RecordCheckpointVote(slot, ckpt_history_, m->sig);
}

void InternalConsensus::HandleCheckpoint(NodeId from, const CheckpointMsg& m) {
  if (!m.cert.empty() && m.cert.slot > stable_.slot) {
    // A carried certificate is self-certifying — no tally needed.
    if (m.cert.Valid(ctx_.env->keystore, Quorum())) {
      ProcessStable(m.cert);
    } else {
      ctx_.env->metrics.Inc("ckpt.bad_cert");
    }
  }
  if (m.slot == 0 || m.slot <= stable_.slot) return;
  // Structural sanity: legitimate votes land only on interval
  // boundaries, so a faulty peer cannot grow the tally map with one
  // entry per arbitrary slot.
  if (ctx_.checkpoint_interval == 0 ||
      m.slot % ctx_.checkpoint_interval != 0) {
    return;
  }
  if (m.sig.signer != from ||
      !ctx_.env->keystore.Verify(m.sig,
                                 CkptSignableFor(m.slot, m.digest))) {
    ctx_.env->metrics.Inc("ckpt.bad_vote");
    return;
  }
  RecordCheckpointVote(m.slot, m.digest, m.sig);
}

void InternalConsensus::RecordCheckpointVote(uint64_t slot,
                                             const Sha256Digest& digest,
                                             const Signature& sig) {
  if (slot <= stable_.slot) return;
  // Bound tally state against a faulty peer spraying votes: at most a
  // few boundary slots tracked at once (honest votes cluster near the
  // live frontier), and at most one tally per possible sender per slot
  // (a correct sender has exactly one digest per boundary).
  size_t k = ctx_.checkpoint_interval > 0 ? ctx_.checkpoint_interval : 1;
  if (slot > LastDelivered() + 16 * k) {
    ctx_.env->metrics.Inc("ckpt.vote_beyond_horizon");
    return;
  }
  std::vector<CkptTally>& tallies = ckpt_votes_[slot];
  CkptTally* tally = nullptr;
  for (auto& t : tallies) {
    if (t.digest == digest) {
      tally = &t;
      break;
    }
  }
  if (tally == nullptr) {
    if (tallies.size() >= ClusterSize()) {
      ctx_.env->metrics.Inc("ckpt.tally_overflow");
      return;
    }
    tallies.push_back(CkptTally{digest, {}});
    tally = &tallies.back();
  }
  tally->votes.Put(sig.signer, sig);
  if (tally->votes.size() < Quorum()) return;
  CheckpointCertificate cert;
  cert.slot = slot;
  cert.digest = digest;
  for (const auto& [node, s] : tally->votes.entries()) cert.sigs.push_back(s);
  ProcessStable(cert);
}

void InternalConsensus::ProcessStable(const CheckpointCertificate& cert) {
  if (cert.slot <= stable_.slot) return;
  if (cert.slot <= LastDelivered()) {
    auto it = ckpt_own_.find(cert.slot);
    if (it != ckpt_own_.end() && !(it->second == cert.digest)) {
      // A quorum certified a history that differs from the one we
      // delivered — a divergence the safety auditor must see, not a
      // checkpoint to adopt.
      ctx_.env->metrics.Inc("ckpt.digest_divergence");
      return;
    }
    AdoptStable(cert);
    return;
  }
  // The cluster's certified frontier is beyond us: per-slot catch-up may
  // be impossible (peers GC'd those slots), so hand over to the host's
  // state-transfer path.
  ctx_.env->metrics.Inc("ckpt.behind_stable");
  if (ctx_.request_state_transfer) ctx_.request_state_transfer(cert);
}

void InternalConsensus::AdoptStable(const CheckpointCertificate& cert) {
  stable_ = cert;
  ckpt_own_.erase(ckpt_own_.begin(), ckpt_own_.upper_bound(cert.slot));
  ckpt_votes_.erase(ckpt_votes_.begin(),
                    ckpt_votes_.upper_bound(cert.slot));
  GarbageCollectBelow(cert.slot);
  gc_floor_ = cert.slot;
  ctx_.env->metrics.Inc("ckpt.stable");
}

bool InternalConsensus::InstallCheckpoint(const CheckpointCertificate& cert) {
  if (!cert.Valid(ctx_.env->keystore, Quorum())) {
    ctx_.env->metrics.Inc("ckpt.invalid_cert");
    return false;
  }
  bool jumped = cert.slot > LastDelivered();
  if (jumped) {
    // The host installed the ledger up to the certified frontier; the
    // skipped slots' history is exactly the certified digest.
    ckpt_history_ = cert.digest;
    AdvanceFrontierTo(cert.slot);
    ctx_.env->metrics.Inc("ckpt.installed_via_transfer");
  }
  if (cert.slot > stable_.slot) AdoptStable(cert);
  if (jumped) ResumeAfterInstall();
  return true;
}

}  // namespace qanaat
