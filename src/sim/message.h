#ifndef QANAAT_SIM_MESSAGE_H_
#define QANAAT_SIM_MESSAGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "common/serde.h"
#include "common/types.h"
#include "crypto/sha256.h"

namespace qanaat {

/// Wire-level message kind. One enum across all subsystems so traces are
/// easy to read and the network can account costs uniformly.
enum class MsgType : uint8_t {
  // Client <-> cluster
  kRequest = 0,
  kReply,
  kReplyCert,
  // Internal consensus (Paxos / PBFT)
  kPrePrepare,
  kPrepare,
  kCommit,
  kCheckpoint,
  kViewChange,
  kNewView,
  kPaxosAccept,
  kPaxosAccepted,
  kPaxosLearn,
  kPaxosPrepare,   // phase-1a: ballot takeover
  kPaxosPromise,   // phase-1b: promise + accepted history
  kFillRequest,    // gap catch-up: ask a peer for decided slots
  kFillReply,      // gap catch-up: decided value + commit proof
  // Checkpointing + state transfer (host level; kCheckpoint above is the
  // engine-level vote)
  kStateRequest,   // recovering replica: chain heads + consensus frontier
  kStateReply,     // checkpoint certificate + missing ledger blocks
  // Cross-cluster coordinator-based (paper Fig 5)
  kXPrepare,
  kXPrepared,
  kXCommit,
  kXAbort,
  // Cross-cluster flattened (paper Fig 6)
  kFPropose,
  kFAccept,
  kFCommit,
  // Failure handling (paper §4.3.4 / §4.4.4)
  kCommitQuery,
  kPreparedQuery,
  // Ordering -> firewall -> execution path (paper §4.2)
  kExecOrder,    // request + commit certificate toward execution nodes
  kExecReply,    // signed reply from execution node toward filters
  // Baselines (Fabric family)
  kEndorseReq,
  kEndorseResp,
  kOrderSubmit,
  kOrderedBlock,
  kValidateDone,
  kRaftAppend,
  kRaftAppendResp,
  kBlockFetchReq,  // peer block catch-up: resend ordered blocks >= from
};

const char* MsgTypeName(MsgType t);

/// The envelope every message travels in: type tag (u8), sig_verify_ops
/// (u16) and body length (u32). See protocols/wire.h.
inline constexpr size_t kEnvelopeBytes = 1 + 2 + 4;

/// Base class for every simulated network message.
///
/// Messages are immutable after construction and shared by pointer between
/// actors (the canonical serialized form is hashed into `digest` where
/// protocols need it). WireBytes() feeds the bandwidth model and
/// `sig_verify_ops` the CPU model: the receiving node is charged
/// per-signature verification time before its handler runs.
struct Message {
  explicit Message(MsgType t) : type(t) {}
  virtual ~Message() = default;

  MsgType type;
  /// Number of signature verifications the receiver performs.
  uint16_t sig_verify_ops = 1;

  /// The bytes the network charges to carry this message. A bare Message
  /// is an empty envelope; WireMessage adds the body.
  virtual size_t WireBytes() const { return kEnvelopeBytes; }

  template <typename T>
  const T* As() const {
    return static_cast<const T*>(this);
  }
};

struct XCommitMsg;
struct ExecReplyMsg;
struct OrderSubmitMsg;

/// The stand-in table: what the network charges a message beyond, or
/// instead of, its encoded body. Each row is a payload the model sends
/// without carrying it, or carries without sending it; every other type
/// is charged its encoding alone. The rows are fixed: changing one moves
/// every trace hash, and README "Substitution argument" lists each.
template <class M>
int64_t StandInBytes([[maybe_unused]] const M& m) {
  if constexpr (std::is_same_v<M, XCommitMsg>) {
    // §4.3.1: a cross-enterprise COMMIT (or ABORT) embeds the PREPARED
    // messages of a local majority of every other involved cluster.
    // Receivers verify them, so sig_verify_ops counts them beyond the
    // coordinator's certificate; the model carries none, and charges
    // each as the 20-byte signature it stands for.
    auto evidence = static_cast<int64_t>(m.sig_verify_ops) -
                    static_cast<int64_t>(m.coord_cert.sigs.size());
    return 20 * std::max<int64_t>(evidence, 0);
  } else if constexpr (std::is_same_v<M, ExecReplyMsg>) {
    // A Byzantine executor stuffs a bogus (potentially confidential)
    // payload into its reply; the model only corrupts the result digest.
    return m.stuffed ? 512 : 0;
  } else if constexpr (std::is_same_v<M, OrderSubmitMsg>) {
    // FastFabric: orderers receive only the transaction's 32-byte hash,
    // but the model hands them the whole endorsed transaction.
    return m.hash_only ? 32 - static_cast<int64_t>(EncodedSize(m.etx)) : 0;
  } else {
    return 0;
  }
}

/// The base of every wire type, `struct FooMsg : WireMessage<FooMsg>`:
/// charges the envelope, the body Derived's field list encodes (counted,
/// not built) and Derived's stand-in row. The dynamic type decides the
/// size, never the tag.
template <class Derived>
struct WireMessage : Message {
  using Message::Message;

  size_t WireBytes() const final {
    const auto& self = static_cast<const Derived&>(*this);
    auto body = static_cast<int64_t>(EncodedSize(self));
    return kEnvelopeBytes + static_cast<size_t>(body + StandInBytes(self));
  }
};

using MessageRef = std::shared_ptr<const Message>;

}  // namespace qanaat

#endif  // QANAAT_SIM_MESSAGE_H_
