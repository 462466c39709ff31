#ifndef QANAAT_BASELINES_FABRIC_MESSAGES_H_
#define QANAAT_BASELINES_FABRIC_MESSAGES_H_

#include <vector>

#include "collections/collection_id.h"
#include "crypto/signer.h"
#include "ledger/transaction.h"
#include "sim/message.h"

namespace qanaat {

/// Read-set entry of an endorsed transaction: (key, committed version at
/// endorsement time). Fabric's MVCC validation re-checks these at commit.
struct ReadSetEntry {
  uint64_t key = 0;
  uint64_t version = 0;
};

/// A fully endorsed transaction proposal, as submitted to ordering.
struct EndorsedTx {
  Transaction tx;
  std::vector<ReadSetEntry> read_set;
  std::vector<std::pair<uint64_t, int64_t>> write_set;
  std::vector<Signature> endorsements;
};

/// Client -> endorsing peer.
struct EndorseReqMsg : Message {
  EndorseReqMsg() : Message(MsgType::kEndorseReq) {}
  Transaction tx;
};

/// Endorsing peer -> client: simulated read/write sets + signature.
struct EndorseRespMsg : Message {
  EndorseRespMsg() : Message(MsgType::kEndorseResp) {}
  Sha256Digest tx_digest;
  NodeId client = kInvalidNode;
  uint64_t client_ts = 0;
  std::vector<ReadSetEntry> read_set;
  std::vector<std::pair<uint64_t, int64_t>> write_set;
  Signature sig;
};

/// Client -> ordering service leader.
struct OrderSubmitMsg : Message {
  OrderSubmitMsg() : Message(MsgType::kOrderSubmit) {}
  EndorsedTx etx;
  bool hash_only = false;  // FastFabric: orderers see only the hash
};

/// Ordering service -> peers: one ordered block.
struct OrderedBlockMsg : Message {
  OrderedBlockMsg() : Message(MsgType::kOrderedBlock) {}
  uint64_t block_no = 0;
  std::shared_ptr<const std::vector<EndorsedTx>> txs;
};

/// Raft AppendEntries carrying a block between orderers.
struct RaftAppendMsg : Message {
  RaftAppendMsg() : Message(MsgType::kRaftAppend) { sig_verify_ops = 0; }
  uint64_t term = 0;
  uint64_t index = 0;
  std::shared_ptr<const std::vector<EndorsedTx>> txs;
};

struct RaftAppendRespMsg : Message {
  RaftAppendRespMsg() : Message(MsgType::kRaftAppendResp) {
    sig_verify_ops = 0;
  }
  uint64_t term = 0;
  uint64_t index = 0;
  bool ok = true;
};

/// Peer -> ordering service: block catch-up. A peer that detects a gap
/// in the delivered stream (or polls while idle) asks for every retained
/// block at or above `from_block`; the orderer resends them as ordinary
/// OrderedBlockMsg deliveries and stays silent when it has nothing newer.
struct BlockFetchReqMsg : Message {
  BlockFetchReqMsg() : Message(MsgType::kBlockFetchReq) {
    sig_verify_ops = 0;
    wire_bytes = 48;
  }
  uint64_t from_block = 1;
};

/// Committing peer -> client: per-transaction validation outcome.
struct ValidateDoneMsg : Message {
  ValidateDoneMsg() : Message(MsgType::kValidateDone) {}
  uint64_t block_no = 0;
  // (client machine, client ts, valid?)
  std::vector<std::tuple<NodeId, uint64_t, bool>> outcomes;
};

}  // namespace qanaat

#endif  // QANAAT_BASELINES_FABRIC_MESSAGES_H_
