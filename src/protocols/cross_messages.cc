// The state-transfer server both catch-up paths share, and the verifier
// of the entries it serves.

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
          StateReplyMsg::Entry{e.block, e.cert, e.alpha, e.gamma()});
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

}  // namespace qanaat
