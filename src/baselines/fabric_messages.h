#ifndef QANAAT_BASELINES_FABRIC_MESSAGES_H_
#define QANAAT_BASELINES_FABRIC_MESSAGES_H_

#include <memory>
#include <utility>
#include <vector>

#include "collections/collection_id.h"
#include "crypto/signer.h"
#include "ledger/transaction.h"
#include "sim/message.h"

namespace qanaat {

// The baseline's messages declare field lists like the Qanaat wire types
// (common/serde.h), so the network sizes them the same way, but they have
// no codec: nothing encodes or decodes them.

/// Read-set entry of an endorsed transaction: (key, committed version at
/// endorsement time). Fabric's MVCC validation re-checks these at commit.
struct ReadSetEntry {
  uint64_t key = 0;
  uint64_t version = 0;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) { return io(m.key) && io(m.version); }
};

/// A fully endorsed transaction proposal, as submitted to ordering.
struct EndorsedTx {
  Transaction tx;
  std::vector<ReadSetEntry> read_set;
  std::vector<std::pair<uint64_t, int64_t>> write_set;
  std::vector<Signature> endorsements;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.tx) && io.List32(m.read_set) && io.List32(m.write_set) &&
           io.List16(m.endorsements);
  }
};

/// Client -> endorsing peer.
struct EndorseReqMsg : WireMessage<EndorseReqMsg> {
  EndorseReqMsg() : WireMessage(MsgType::kEndorseReq) {}
  Transaction tx;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) { return io(m.tx); }
};

/// Endorsing peer -> client: simulated read/write sets + signature.
struct EndorseRespMsg : WireMessage<EndorseRespMsg> {
  EndorseRespMsg() : WireMessage(MsgType::kEndorseResp) {}
  Sha256Digest tx_digest;
  NodeId client = kInvalidNode;
  uint64_t client_ts = 0;
  std::vector<ReadSetEntry> read_set;
  std::vector<std::pair<uint64_t, int64_t>> write_set;
  Signature sig;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.tx_digest) && io(m.client) && io(m.client_ts) &&
           io.List32(m.read_set) && io.List32(m.write_set) && io(m.sig);
  }
};

/// Client -> ordering service leader.
struct OrderSubmitMsg : WireMessage<OrderSubmitMsg> {
  OrderSubmitMsg() : WireMessage(MsgType::kOrderSubmit) {}
  EndorsedTx etx;
  bool hash_only = false;  // FastFabric: orderers see only the hash

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) { return io(m.etx) && io(m.hash_only); }
};

/// Ordering service -> peers: one ordered block.
struct OrderedBlockMsg : WireMessage<OrderedBlockMsg> {
  OrderedBlockMsg() : WireMessage(MsgType::kOrderedBlock) {}
  uint64_t block_no = 0;
  std::shared_ptr<const std::vector<EndorsedTx>> txs;  // never null

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.block_no) && io.List32(*m.txs);
  }
};

/// Raft AppendEntries carrying a block between orderers.
struct RaftAppendMsg : WireMessage<RaftAppendMsg> {
  RaftAppendMsg() : WireMessage(MsgType::kRaftAppend) { sig_verify_ops = 0; }
  uint64_t term = 0;
  uint64_t index = 0;
  std::shared_ptr<const std::vector<EndorsedTx>> txs;  // never null

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.term) && io(m.index) && io.List32(*m.txs);
  }
};

struct RaftAppendRespMsg : WireMessage<RaftAppendRespMsg> {
  RaftAppendRespMsg() : WireMessage(MsgType::kRaftAppendResp) {
    sig_verify_ops = 0;
  }
  uint64_t term = 0;
  uint64_t index = 0;
  bool ok = true;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.term) && io(m.index) && io(m.ok);
  }
};

/// Peer -> ordering service: block catch-up. A peer that detects a gap
/// in the delivered stream (or polls while idle) asks for every retained
/// block at or above `from_block`; the orderer resends them as ordinary
/// OrderedBlockMsg deliveries and stays silent when it has nothing newer.
struct BlockFetchReqMsg : WireMessage<BlockFetchReqMsg> {
  BlockFetchReqMsg() : WireMessage(MsgType::kBlockFetchReq) {
    sig_verify_ops = 0;
  }
  uint64_t from_block = 1;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) { return io(m.from_block); }
};

/// Committing peer -> client: per-transaction validation outcome.
struct ValidateDoneMsg : WireMessage<ValidateDoneMsg> {
  ValidateDoneMsg() : WireMessage(MsgType::kValidateDone) {}
  struct Outcome {
    NodeId client = kInvalidNode;  // client machine
    uint64_t client_ts = 0;
    bool valid = false;

    template <class IO, class Self>
    static bool Fields(IO& io, Self& m) {
      return io(m.client) && io(m.client_ts) && io(m.valid);
    }
  };
  uint64_t block_no = 0;
  std::vector<Outcome> outcomes;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.block_no) && io.List32(m.outcomes);
  }
};

}  // namespace qanaat

#endif  // QANAAT_BASELINES_FABRIC_MESSAGES_H_
