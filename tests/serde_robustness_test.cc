// Robustness of the wire decoders: any truncation or bit-flip of a
// serialized structure must be either detected (decode fails) or decode
// into a *different* value — never crash, never silently round-trip to
// the original under a changed byte (which would break digests).

#include <gtest/gtest.h>

#include <map>

#include "collections/tx_id.h"
#include "common/rng.h"
#include "common/serde.h"
#include "crypto/signer.h"
#include "ledger/transaction.h"
#include "protocols/wire.h"
#include "sim/faults.h"

namespace qanaat {
namespace {

TxId SampleTxId() {
  TxId id;
  id.alpha = {CollectionId{EnterpriseSet{0, 1}}, 3, 42};
  id.extra_alphas.push_back({CollectionId{EnterpriseSet{0, 1}}, 1, 17});
  id.gamma.push_back({CollectionId{EnterpriseSet{0, 1, 2}}, 5});
  id.gamma.push_back({CollectionId{EnterpriseSet{0, 1, 2, 3}}, 9});
  return id;
}

Transaction SampleTx() {
  Transaction tx;
  tx.client = 7;
  tx.client_ts = 1234;
  tx.collection = CollectionId{EnterpriseSet{0, 2}};
  tx.shards = {1, 3};
  tx.initiator = 2;
  tx.ops.push_back(TxOp{TxOp::Kind::kAdd, 99, -5, {}});
  tx.ops.push_back(TxOp{TxOp::Kind::kReadDep, 7, 0,
                        CollectionId{EnterpriseSet{0, 1, 2}}});
  KeyStore ks(1);
  tx.client_sig = ks.Sign(7, tx.Digest());
  return tx;
}

TEST(SerdeRobustness, TxIdEveryTruncationDetected) {
  Encoder enc;
  Encode(SampleTxId(), &enc);
  const auto& buf = enc.buffer();
  for (size_t len = 0; len < buf.size(); ++len) {
    Decoder dec(buf.data(), len);
    TxId out;
    EXPECT_FALSE(Decode(&dec, &out)) << "len=" << len;
  }
  // The full buffer round-trips.
  Decoder dec(buf);
  TxId out;
  ASSERT_TRUE(Decode(&dec, &out));
  EXPECT_EQ(out, SampleTxId());
}

TEST(SerdeRobustness, TransactionEveryTruncationDetected) {
  Encoder enc;
  Encode(SampleTx(), &enc);
  const auto& buf = enc.buffer();
  for (size_t len = 0; len < buf.size(); ++len) {
    Decoder dec(buf.data(), len);
    Transaction out;
    EXPECT_FALSE(Decode(&dec, &out)) << "len=" << len;
  }
  Decoder dec(buf);
  Transaction out;
  ASSERT_TRUE(Decode(&dec, &out));
  EXPECT_EQ(out.Digest(), SampleTx().Digest());
}

TEST(SerdeRobustness, BitFlipsNeverPreserveTransactionDigest) {
  Transaction tx = SampleTx();
  Encoder enc;
  Writer w(&enc);
  Transaction::BodyFields(w, tx);
  auto buf = enc.buffer();
  Sha256Digest original = Sha256::Hash(buf);
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = buf;
    size_t pos = rng.Uniform(mutated.size());
    mutated[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    EXPECT_NE(Sha256::Hash(mutated), original);
  }
}

TEST(SerdeRobustness, RandomGarbageNeverCrashesDecoders) {
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    size_t len = rng.Uniform(200);
    std::vector<uint8_t> garbage(len);
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.Next());
    {
      Decoder dec(garbage);
      TxId out;
      (void)Decode(&dec, &out);  // must not crash / overflow
    }
    {
      Decoder dec(garbage);
      Transaction out;
      (void)Decode(&dec, &out);
    }
    {
      Decoder dec(garbage);
      ThresholdCert out;
      (void)Decode(&dec, &out);
    }
  }
}

TEST(SerdeRobustness, ThresholdCertRejectsAbsurdCounts) {
  // A length field claiming 2^31 shares must not allocate gigabytes.
  Encoder enc;
  enc.PutU32(0x7fffffff);
  Decoder dec(enc.buffer());
  ThresholdCert out;
  EXPECT_FALSE(Decode(&dec, &out));
}

// -------------------------------- protocol message envelope round-trips

BlockPtr SampleBlock() {
  auto b = std::make_shared<Block>();
  b->id.alpha = {CollectionId{EnterpriseSet{0, 1}}, 1, 7};
  b->id.gamma.push_back({CollectionId{EnterpriseSet{0, 1, 2}}, 4});
  b->attempt = 2;
  b->txs.push_back(SampleTx());
  b->Seal();
  return b;
}

CommitCertificate SampleCert(const Sha256Digest& d) {
  KeyStore ks(2);
  CommitCertificate cert;
  cert.block_digest = d;
  cert.view = 3;
  cert.slot = 19;
  cert.direct = true;
  for (NodeId n = 0; n < 3; ++n) cert.sigs.push_back(ks.Sign(n, d));
  return cert;
}

/// Every supported message type with representative content.
std::vector<MessageRef> SampleMessages() {
  KeyStore ks(4);
  BlockPtr blk = SampleBlock();
  Sha256Digest d = blk->Digest();
  std::vector<MessageRef> out;

  {
    auto m = std::make_shared<RequestMsg>();
    m->tx = SampleTx();
    m->is_retransmission = true;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<ReplyMsg>();
    m->block_digest = d;
    m->result_digest = Sha256::Hash("result");
    m->clients = {{9, 1}, {10, 7}};
    m->sig = ks.Sign(1, m->result_digest);
    out.push_back(m);
  }
  {
    auto m = std::make_shared<ReplyCertMsg>();
    m->block_digest = d;
    m->result_digest = Sha256::Hash("result");
    m->clients = {{9, 1}};
    m->cert.reply_digest = Sha256::Hash("reply");
    m->cert.sigs.push_back(ks.Sign(2, m->cert.reply_digest));
    out.push_back(m);
  }
  {
    auto m = std::make_shared<PrePrepareMsg>();
    m->view = 1;
    m->slot = 5;
    m->value = ConsensusValue::ForBlock(blk);
    m->value_digest = m->value.Digest();
    m->sig = ks.Sign(0, m->value_digest);
    out.push_back(m);
  }
  {
    auto m = std::make_shared<PrepareMsg>();
    m->view = 1;
    m->slot = 5;
    m->value_digest = Sha256::Hash("v");
    m->sig = ks.Sign(1, m->value_digest);
    out.push_back(m);
  }
  {
    auto m = std::make_shared<CommitMsg>();
    m->view = 2;
    m->slot = 6;
    m->value_digest = Sha256::Hash("w");
    m->sig = ks.Sign(2, m->value_digest);
    out.push_back(m);
  }
  {
    auto m = std::make_shared<ViewChangeMsg>();
    m->new_view = 4;
    m->last_delivered = 17;
    PreparedProof p;
    p.slot = 18;
    p.view = 3;
    p.value = ConsensusValue::ForBlock(blk);
    p.value_digest = p.value.Digest();
    m->prepared.push_back(p);
    m->sig = ks.Sign(3, Sha256::Hash("vc"));
    out.push_back(m);
  }
  {
    auto m = std::make_shared<NewViewMsg>();
    m->new_view = 4;
    m->sig = ks.Sign(0, Sha256::Hash("nv"));
    out.push_back(m);
  }
  {
    auto m = std::make_shared<PaxosAcceptMsg>();
    m->ballot = 2;
    m->slot = 9;
    m->value = ConsensusValue::ForBlock(blk);
    m->value_digest = m->value.Digest();
    out.push_back(m);
  }
  {
    auto m = std::make_shared<PaxosAcceptedMsg>();
    m->ballot = 2;
    m->slot = 9;
    m->value_digest = Sha256::Hash("a");
    out.push_back(m);
  }
  {
    auto m = std::make_shared<PaxosLearnMsg>();
    m->ballot = 2;
    m->slot = 9;
    m->value_digest = Sha256::Hash("l");
    out.push_back(m);
  }
  {
    auto m = std::make_shared<PaxosPrepareMsg>();
    m->ballot = 5;
    m->last_delivered = 8;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<PaxosPromiseMsg>();
    m->ballot = 5;
    PaxosAcceptedSlot a;
    a.slot = 9;
    a.ballot = 2;
    a.value = ConsensusValue::ForBlock(blk);
    a.digest = a.value.Digest();
    m->accepted.push_back(a);
    m->stable.slot = 8;
    m->stable.digest = Sha256::Hash("hist");
    m->stable.sigs.push_back(
        ks.Sign(1, CheckpointSignable(8, m->stable.digest)));
    out.push_back(m);
  }
  {
    auto m = std::make_shared<FillRequestMsg>();
    m->from_slot = 3;
    m->to_slot = 11;
    m->want_view = 2;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<FillReplyMsg>();
    m->slot = 3;
    m->view = 1;
    m->value = ConsensusValue::ForBlock(blk);
    m->commit_proof.push_back(ks.Sign(0, Sha256::Hash("c")));
    m->commit_proof.push_back(ks.Sign(1, Sha256::Hash("c")));
    out.push_back(m);
  }
  {
    auto m = std::make_shared<CheckpointMsg>();
    m->slot = 16;
    m->digest = Sha256::Hash("hist16");
    m->sig = ks.Sign(2, CheckpointSignable(16, m->digest));
    m->cert.slot = 8;
    m->cert.digest = Sha256::Hash("hist8");
    m->cert.sigs.push_back(ks.Sign(0, CheckpointSignable(8, m->cert.digest)));
    m->cert.sigs.push_back(ks.Sign(1, CheckpointSignable(8, m->cert.digest)));
    out.push_back(m);
  }
  {
    auto m = std::make_shared<StateRequestMsg>();
    m->heads.push_back(
        StateRequestMsg::ChainHead{CollectionId{EnterpriseSet{0, 1}}, 1, 7});
    m->heads.push_back(
        StateRequestMsg::ChainHead{CollectionId{EnterpriseSet{0}}, 0, 3});
    m->frontier = 12;
    m->requester = 9;  // firewall-brokered executor pull
    out.push_back(m);
  }
  {
    auto m = std::make_shared<StateReplyMsg>();
    m->ckpt.slot = 8;
    m->ckpt.digest = Sha256::Hash("hist8");
    m->ckpt.sigs.push_back(
        ks.Sign(0, CheckpointSignable(8, m->ckpt.digest)));
    StateReplyMsg::Entry e;
    e.block = blk;
    e.cert = SampleCert(d);
    e.alpha = {CollectionId{EnterpriseSet{0, 1}}, 1, 7};
    e.gamma.push_back({CollectionId{EnterpriseSet{0, 1, 2}}, 4});
    m->entries.push_back(e);
    m->requester = 9;  // echoed so the filter row can route the reply
    out.push_back(m);
  }
  {
    auto m = std::make_shared<XPrepareMsg>();
    m->coord_cluster = 1;
    m->block = blk;
    m->block_digest = d;
    m->coord_cert = SampleCert(d);
    out.push_back(m);
  }
  {
    auto m = std::make_shared<XPreparedMsg>();
    m->from_cluster = 2;
    m->block_digest = d;
    m->has_assignment = true;
    m->assignment.cluster = 2;
    m->assignment.alpha = {CollectionId{EnterpriseSet{0, 1}}, 1, 7};
    m->assignment.gamma.push_back({CollectionId{EnterpriseSet{0, 1, 2}}, 4});
    m->is_cluster_cert = true;
    m->cluster_cert = SampleCert(d);
    m->sig = ks.Sign(5, d);
    m->abort = false;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<XCommitMsg>();
    m->coord_cluster = 1;
    m->block = blk;
    m->block_digest = d;
    m->coord_cert = SampleCert(d);
    m->assignments.push_back(
        ShardAssignment{3, {CollectionId{EnterpriseSet{0, 1}}, 0, 9}, {}});
    m->is_abort = false;
    out.push_back(m);
  }
  {
    // An abort shares the COMMIT layout under its own tag, and may travel
    // without its block.
    auto m = std::make_shared<XCommitMsg>();
    m->type = MsgType::kXAbort;
    m->coord_cluster = 1;
    m->block_digest = d;
    m->coord_cert = SampleCert(d);
    m->assignments.push_back(
        ShardAssignment{2, {CollectionId{EnterpriseSet{0, 1}}, 1, 7}, {}});
    m->is_abort = true;
    out.push_back(m);
  }
  {
    auto m = std::make_shared<FProposeMsg>();
    m->initiator_cluster = 0;
    m->block = blk;
    m->block_digest = d;
    m->sig = ks.Sign(0, d);
    out.push_back(m);
  }
  {
    auto m = std::make_shared<FAcceptMsg>();
    m->from_cluster = 3;
    m->block_digest = d;
    m->has_assignment = true;
    m->assignment =
        ShardAssignment{3, {CollectionId{EnterpriseSet{0, 1}}, 1, 7}, {}};
    m->sig = ks.Sign(7, d);
    out.push_back(m);
  }
  {
    auto m = std::make_shared<FCommitMsg>();
    m->from_cluster = 3;
    m->block_digest = d;
    m->sig = ks.Sign(7, d);
    m->fast_path = true;
    m->assignments.push_back(
        ShardAssignment{3, {CollectionId{EnterpriseSet{0, 1}}, 1, 7}, {}});
    out.push_back(m);
  }
  {
    auto m = std::make_shared<QueryMsg>(MsgType::kCommitQuery);
    m->from_cluster = 2;
    m->block_digest = d;
    m->sig = ks.Sign(4, d);
    out.push_back(m);
  }
  {
    auto m = std::make_shared<QueryMsg>(MsgType::kPreparedQuery);
    m->from_cluster = 2;
    m->block_digest = d;
    m->sig = ks.Sign(4, d);
    out.push_back(m);
  }
  {
    auto m = std::make_shared<ExecOrderMsg>();
    m->block = blk;
    m->cert = SampleCert(d);
    m->alpha_here = {CollectionId{EnterpriseSet{0, 1}}, 1, 7};
    m->gamma_here.push_back({CollectionId{EnterpriseSet{0, 1, 2}}, 4});
    out.push_back(m);
  }
  {
    auto m = std::make_shared<ExecReplyMsg>();
    m->block_digest = d;
    m->result_digest = Sha256::Hash("r");
    m->clients = {{9, 1}};
    m->sig = ks.Sign(6, m->result_digest);
    out.push_back(m);
  }
  return out;
}

TEST(MessageSerde, EncodeDecodeIsIdentityForEveryType) {
  // encode ∘ decode ∘ encode must be byte-identical: the decoded message
  // carries exactly the information of the original.
  for (const MessageRef& m : SampleMessages()) {
    Encoder enc1;
    ASSERT_TRUE(EncodeMessage(*m, &enc1))
        << "type " << MsgTypeName(m->type);
    Decoder dec(enc1.buffer());
    MessageRef back = DecodeMessage(&dec);
    ASSERT_NE(back, nullptr) << "type " << MsgTypeName(m->type);
    EXPECT_EQ(back->type, m->type);
    EXPECT_EQ(back->wire_bytes, m->wire_bytes);
    EXPECT_EQ(back->sig_verify_ops, m->sig_verify_ops);
    Encoder enc2;
    ASSERT_TRUE(EncodeMessage(*back, &enc2));
    EXPECT_EQ(enc1.buffer(), enc2.buffer())
        << "re-encode mismatch for " << MsgTypeName(m->type);
  }
}

TEST(MessageSerde, EveryTruncationDetected) {
  for (const MessageRef& m : SampleMessages()) {
    Encoder enc;
    ASSERT_TRUE(EncodeMessage(*m, &enc));
    const auto& buf = enc.buffer();
    for (size_t len = 0; len < buf.size(); ++len) {
      Decoder dec(buf.data(), len);
      EXPECT_EQ(DecodeMessage(&dec), nullptr)
          << MsgTypeName(m->type) << " len=" << len;
    }
  }
}

TEST(MessageSerde, RandomGarbageNeverCrashesEnvelopeDecode) {
  Rng rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    size_t len = rng.Uniform(300);
    std::vector<uint8_t> garbage(len);
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.Next());
    Decoder dec(garbage);
    (void)DecodeMessage(&dec);  // must not crash, hang, or over-allocate
  }
}

TEST(MessageSerde, BitFlippedEnvelopesNeverCrashDecode) {
  // Mutate valid encodings: decode must either fail or produce a
  // well-formed message — never crash. (A flipped block byte fails the
  // digest cross-check; flipped counts fail the remaining-bytes guard.)
  Rng rng(77);
  for (const MessageRef& m : SampleMessages()) {
    Encoder enc;
    ASSERT_TRUE(EncodeMessage(*m, &enc));
    auto buf = enc.buffer();
    for (int trial = 0; trial < 60; ++trial) {
      auto mutated = buf;
      size_t pos = rng.Uniform(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
      Decoder dec(mutated);
      (void)DecodeMessage(&dec);
    }
  }
}

TEST(MessageSerde, CarriedBlockMustMatchClaimedDigest) {
  // A tampered block travelling under an untouched digest is rejected at
  // decode (the envelope re-seals and cross-checks).
  auto m = std::make_shared<FProposeMsg>();
  m->block = SampleBlock();
  m->block_digest = m->block->Digest();
  m->block_digest.bytes[0] ^= 0x1;  // claim a different digest
  Encoder enc;
  ASSERT_TRUE(EncodeMessage(*m, &enc));
  Decoder dec(enc.buffer());
  EXPECT_EQ(DecodeMessage(&dec), nullptr);
}

// ---------------------------------------------------------- pinned bytes

template <class T>
std::vector<uint8_t> BytesOf(const T& v) {
  Encoder enc;
  Encode(v, &enc);
  return enc.buffer();
}

/// First 8 bytes of a digest, in hex.
std::string Pin(const Sha256Digest& d) { return d.ToHex().substr(0, 16); }
std::string Pin(const std::vector<uint8_t>& bytes) {
  return Pin(Sha256::Hash(bytes));
}

TEST(MessageSerde, EncodingsMatchPinnedBytes) {
  // Every content digest, and through the digests every signature and
  // the §4.3.5 digest-priority arbitration, rests on these encodings. A
  // layout change made on both sides at once passes every round-trip test
  // above; only these pins see it. They move only with a stated reason.
  std::vector<std::pair<std::string, std::string>> got;
  for (const MessageRef& m : SampleMessages()) {
    Encoder enc;
    ASSERT_TRUE(EncodeMessage(*m, &enc)) << MsgTypeName(m->type);
    got.emplace_back(MsgTypeName(m->type), Pin(enc.buffer()));
  }
  got.emplace_back("TxId", Pin(BytesOf(SampleTxId())));
  got.emplace_back("Transaction", Pin(BytesOf(SampleTx())));
  got.emplace_back("Block", Pin(BytesOf(*SampleBlock())));
  got.emplace_back("Transaction::Digest", Pin(SampleTx().Digest()));
  got.emplace_back("Block::Digest", Pin(SampleBlock()->Digest()));
  {
    KeyStore ks(3);
    Sha256Digest d = Sha256::Hash("threshold");
    ThresholdCert cert;
    cert.shares = {ks.SignShare(1, d), ks.SignShare(2, d)};
    got.emplace_back("ThresholdCert", Pin(BytesOf(cert)));
  }
  got.emplace_back("ExecReplyMsg::Signable",
                   Pin(ExecReplyMsg::Signable(Sha256::Hash("block"),
                                              Sha256::Hash("result"),
                                              {{9, 1}, {10, 7}})));
  CrashGroup group;
  group.crashable = {1, 2, 3, 4};
  group.max_faulty = 2;
  AdversaryTargets targets;
  targets.primaries.push_back(1);
  for (AdversaryKind k :
       {AdversaryKind::kNone, AdversaryKind::kGrayFailure,
        AdversaryKind::kEquivocation, AdversaryKind::kSelectiveSilence,
        AdversaryKind::kCrossConflict}) {
    ChaosProfile p;
    p.dup = 0.03;
    p.reorder = 0.05;
    p.loss = 0.02;
    p.adversary = k;
    if (k == AdversaryKind::kSelectiveSilence) {
      p.silence_types = Network::LinkFault::TypeBit(MsgType::kViewChange);
    }
    got.emplace_back(std::string("plan/") + AdversaryName(k),
                     Pin(EncodePlan(MakeRandomPlan(21, {group}, 800000, p,
                                                   targets))));
  }

  const std::map<std::string, std::string> want = {
      {"REQUEST", "e143e6e585bffa60"},
      {"REPLY", "b02ed33f953ad981"},
      {"REPLY_CERT", "5bd426028c1119fb"},
      {"PRE_PREPARE", "065875ea875ec5b6"},
      {"PREPARE", "3a3816d2e87ad239"},
      {"COMMIT", "fe4e8f0378d2a38a"},
      {"VIEW_CHANGE", "49e36c8148c2d808"},
      {"NEW_VIEW", "df6b24f6c406fb2b"},
      {"PAXOS_ACCEPT", "be9f9b8f60032ca7"},
      {"PAXOS_ACCEPTED", "a8fc864f53d1bde5"},
      {"PAXOS_LEARN", "e6171851c53c2f22"},
      {"PAXOS_PREPARE", "8e5f1b949cd84ff6"},
      {"PAXOS_PROMISE", "34815d4989cb96da"},
      {"FILL_REQUEST", "7097c41c6262857b"},
      {"FILL_REPLY", "5e100ee1a06f9bab"},
      {"CHECKPOINT", "e32b14134fa18672"},
      {"STATE_REQUEST", "078cb8dae5c46c96"},
      {"STATE_REPLY", "860328648f782fe5"},
      {"X_PREPARE", "299e8b179c33c095"},
      {"X_PREPARED", "4eb44708a0d6dd7a"},
      {"X_COMMIT", "cabee01f639046e5"},
      {"X_ABORT", "d14e0c05302e9f19"},
      {"F_PROPOSE", "d258b43ccf120179"},
      {"F_ACCEPT", "4eef899e3bda265c"},
      {"F_COMMIT", "349fdc3118650946"},
      {"COMMIT_QUERY", "ea2470f2c937bd79"},
      {"PREPARED_QUERY", "0252815185155eac"},
      {"EXEC_ORDER", "ea8cda2e7ccc0fce"},
      {"EXEC_REPLY", "e79d53e1d2cf9a6b"},
      {"TxId", "f82c29defe995a49"},
      {"Transaction", "250edd47bd0def91"},
      {"Block", "9ec1fe9765f66f25"},
      {"Transaction::Digest", "268edb090d99b473"},
      {"Block::Digest", "afc961ab765ecaa9"},
      {"ThresholdCert", "f23d99add27e92e9"},
      {"ExecReplyMsg::Signable", "26244f6ca9086d1d"},
      {"plan/none", "2668c1b741c77bbb"},
      {"plan/gray", "fc0b1156ee349126"},
      {"plan/equivocation", "2a928fde13d0f877"},
      {"plan/silence", "05d7a6e7b13bbeb0"},
      {"plan/conflict", "4676995b0e8fd13a"},
  };
  EXPECT_EQ(got.size(), want.size());
  for (const auto& [name, pin] : got) {
    auto it = want.find(name);
    if (it == want.end()) {
      ADD_FAILURE() << "no pin for " << name << " (" << pin << ")";
      continue;
    }
    EXPECT_EQ(pin, it->second) << name;
  }
}

}  // namespace
}  // namespace qanaat
