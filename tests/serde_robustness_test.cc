// Robustness of the wire decoders: any truncation or bit-flip of a
// serialized structure must be either detected (decode fails) or decode
// into a *different* value — never crash, never silently round-trip to
// the original under a changed byte (which would break digests).

#include <gtest/gtest.h>

#include <map>

#include "baselines/fabric_messages.h"
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
    m->cert.sigs.push_back(ks.Sign(2, Sha256::Hash("reply")));
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

// --------------------------------------------------------- charged sizes

/// One sample of each Fabric message type, with the length of its body as
/// the Writer encodes its field list (the baseline has no codec).
std::vector<std::pair<MessageRef, size_t>> FabricSamples() {
  KeyStore ks(5);
  EndorsedTx etx;
  etx.tx = SampleTx();
  etx.read_set = {{99, 3}, {7, 1}};
  etx.write_set = {{99, 40}};
  etx.endorsements = {ks.Sign(1, etx.tx.Digest()),
                      ks.Sign(2, etx.tx.Digest())};
  auto txs = std::make_shared<const std::vector<EndorsedTx>>(
      std::vector<EndorsedTx>{etx, etx});
  std::vector<std::pair<MessageRef, size_t>> out;
  auto add = [&out](auto m) {
    Encoder enc;
    Encode(*m, &enc);
    out.emplace_back(std::move(m), enc.size());
  };
  {
    auto m = std::make_shared<EndorseReqMsg>();
    m->tx = etx.tx;
    add(m);
  }
  {
    auto m = std::make_shared<EndorseRespMsg>();
    m->tx_digest = etx.tx.Digest();
    m->client = etx.tx.client;
    m->client_ts = etx.tx.client_ts;
    m->read_set = etx.read_set;
    m->write_set = etx.write_set;
    m->sig = etx.endorsements.front();
    add(m);
  }
  {
    auto m = std::make_shared<OrderSubmitMsg>();
    m->etx = etx;
    add(m);
  }
  {
    auto m = std::make_shared<OrderedBlockMsg>();
    m->block_no = 4;
    m->txs = txs;
    add(m);
  }
  {
    auto m = std::make_shared<RaftAppendMsg>();
    m->term = 1;
    m->index = 4;
    m->txs = txs;
    add(m);
  }
  {
    auto m = std::make_shared<RaftAppendRespMsg>();
    m->term = 1;
    m->index = 4;
    add(m);
  }
  {
    auto m = std::make_shared<BlockFetchReqMsg>();
    m->from_block = 3;
    add(m);
  }
  {
    auto m = std::make_shared<ValidateDoneMsg>();
    m->block_no = 4;
    m->outcomes = {{7, 1234, true}, {8, 5, false}};
    add(m);
  }
  return out;
}

TEST(MessageSerde, NetworkChargesEnvelopePlusBodyPlusStandIn) {
  // Network::Send charges Message::WireBytes(): the envelope header (tag
  // u8, sig_verify_ops u16, body length u32), plus the body the Writer
  // encodes, plus the type's row of the stand-in table (sim/message.h),
  // which the cases below restate. The pinned sizes catch a layout
  // change, the Fabric layouts' included.
  constexpr size_t kHeader = 1 + 2 + 4;
  struct Case {
    std::string name;
    MessageRef msg;
    size_t body;
    int64_t stand_in;
  };
  std::vector<Case> cases;
  // Qanaat types: the body length as the envelope encoding records it.
  auto enveloped = [&cases](std::string name, MessageRef m,
                            int64_t stand_in) {
    Encoder enc;
    ASSERT_TRUE(EncodeMessage(*m, &enc)) << name;
    Decoder dec(enc.buffer());
    uint8_t tag = 0;
    uint16_t sig_ops = 0;
    uint32_t body = 0;
    ASSERT_TRUE(dec.GetU8(&tag) && dec.GetU16(&sig_ops) && dec.GetU32(&body));
    ASSERT_EQ(dec.remaining(), body) << name;
    cases.push_back({std::move(name), std::move(m), body, stand_in});
  };
  for (const MessageRef& m : SampleMessages()) {
    enveloped(MsgTypeName(m->type), m, 0);
  }
  for (const auto& [m, body] : FabricSamples()) {
    cases.push_back({MsgTypeName(m->type), m, body, 0});
  }
  // The stand-in rows.
  for (const MessageRef& m : SampleMessages()) {
    if (m->type == MsgType::kXCommit) {
      // Four §4.3.1 evidence signatures verified beyond the certificate.
      auto cm = std::make_shared<XCommitMsg>(*m->As<XCommitMsg>());
      cm->sig_verify_ops =
          static_cast<uint16_t>(cm->coord_cert.sigs.size() + 4);
      enveloped("X_COMMIT/evidence", cm, 4 * 20);
    } else if (m->type == MsgType::kExecReply) {
      auto er = std::make_shared<ExecReplyMsg>(*m->As<ExecReplyMsg>());
      er->stuffed = true;
      enveloped("EXEC_REPLY/stuffed", er, 512);
    }
  }
  for (const auto& [m, body] : FabricSamples()) {
    if (m->type != MsgType::kOrderSubmit) continue;
    auto os = std::make_shared<OrderSubmitMsg>(*m->As<OrderSubmitMsg>());
    os->hash_only = true;
    Encoder etx;
    Encode(os->etx, &etx);
    // The endorsed transaction is carried, but only its hash is sent.
    cases.push_back({"ORDER_SUBMIT/hash_only", os, body,
                     32 - static_cast<int64_t>(etx.size())});
  }

  std::map<std::string, size_t> got;
  for (const Case& c : cases) {
    EXPECT_EQ(static_cast<int64_t>(c.msg->WireBytes()),
              static_cast<int64_t>(kHeader + c.body) + c.stand_in)
        << c.name;
    EXPECT_TRUE(got.emplace(c.name, c.msg->WireBytes()).second) << c.name;
  }
  const std::map<std::string, size_t> want = {
      {"BLOCK_FETCH_REQ", 15},
      {"CHECKPOINT", 149},
      {"COMMIT", 75},
      {"COMMIT_QUERY", 63},
      {"ENDORSE_REQ", 88},
      {"ENDORSE_RESP", 127},
      {"EXEC_ORDER", 261},
      {"EXEC_REPLY", 107},
      {"EXEC_REPLY/stuffed", 619},
      {"FILL_REPLY", 219},
      {"FILL_REQUEST", 31},
      {"F_ACCEPT", 82},
      {"F_COMMIT", 84},
      {"F_PROPOSE", 179},
      {"NEW_VIEW", 37},
      {"ORDERED_BLOCK", 377},
      {"ORDER_SUBMIT", 187},
      {"ORDER_SUBMIT/hash_only", 40},
      {"PAXOS_ACCEPT", 207},
      {"PAXOS_ACCEPTED", 55},
      {"PAXOS_LEARN", 55},
      {"PAXOS_PREPARE", 23},
      {"PAXOS_PROMISE", 281},
      {"PREPARE", 75},
      {"PREPARED_QUERY", 63},
      {"PRE_PREPARE", 227},
      {"RAFT_APPEND", 385},
      {"RAFT_APPEND_RESP", 24},
      {"REPLY", 119},
      {"REPLY_CERT", 111},
      {"REQUEST", 89},
      {"STATE_REPLY", 331},
      {"STATE_REQUEST", 47},
      {"VALIDATE_DONE", 45},
      {"VIEW_CHANGE", 245},
      {"X_ABORT", 179},
      {"X_COMMIT", 294},
      {"X_COMMIT/evidence", 374},
      {"X_PREPARE", 273},
      {"X_PREPARED", 208},
  };
  EXPECT_EQ(got, want);
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
  // The 29 envelope pins moved when the envelope dropped its u32 size
  // field (the network now charges the encoding itself) and REPLY_CERT's
  // certificate dropped its unread reply digest; nothing else moved.
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
      {"REQUEST", "396e13220fb93c32"},
      {"REPLY", "850ed982d5f3ca7c"},
      {"REPLY_CERT", "683fce519cda696a"},
      {"PRE_PREPARE", "27c43deb5657e1a6"},
      {"PREPARE", "3c406924ba8304ef"},
      {"COMMIT", "371089844d6633df"},
      {"VIEW_CHANGE", "df188efed5e30926"},
      {"NEW_VIEW", "e808080e04abe597"},
      {"PAXOS_ACCEPT", "f65f87d30321716f"},
      {"PAXOS_ACCEPTED", "2a2fc39792a3cadc"},
      {"PAXOS_LEARN", "c1247c9654b95a4c"},
      {"PAXOS_PREPARE", "9f0313687d42e76b"},
      {"PAXOS_PROMISE", "be04317d7cfe0c36"},
      {"FILL_REQUEST", "a01c2c4a4e373433"},
      {"FILL_REPLY", "24a372ca73ba801d"},
      {"CHECKPOINT", "4089c01ecb5ab677"},
      {"STATE_REQUEST", "e63555278825907f"},
      {"STATE_REPLY", "71035eedfdc5db48"},
      {"X_PREPARE", "aa5b383f00754e81"},
      {"X_PREPARED", "2fb6a071cd88a55f"},
      {"X_COMMIT", "685e3476924777ff"},
      {"X_ABORT", "8a3cf93d1435f9bc"},
      {"F_PROPOSE", "13d3123a7ef721d7"},
      {"F_ACCEPT", "c0d6c6be3f1b47ea"},
      {"F_COMMIT", "cf254f552ea4c217"},
      {"COMMIT_QUERY", "f52de950be2c9799"},
      {"PREPARED_QUERY", "110681bd326abd58"},
      {"EXEC_ORDER", "de3e0d86822878eb"},
      {"EXEC_REPLY", "792206fc90103923"},
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
