#include "protocols/wire.h"

#include <type_traits>
#include <utility>

namespace qanaat {

namespace {

using EncodeFn = void (*)(const Message&, Encoder*);
using DecodeFn = std::shared_ptr<Message> (*)(MsgType, Decoder*);
using Codec = std::pair<EncodeFn, DecodeFn>;

/// Message type T's field list, both ways. A decoded message takes the
/// envelope's tag, so XCommitMsg serves X_ABORT too and QueryMsg both
/// query types.
template <typename T>
Codec CodecOf() {
  return {[](const Message& m, Encoder* enc) {
            Encode(static_cast<const T&>(m), enc);
          },
          [](MsgType type, Decoder* dec) -> std::shared_ptr<Message> {
            std::shared_ptr<T> m;
            if constexpr (std::is_default_constructible_v<T>) {
              m = std::make_shared<T>();
              m->type = type;
            } else {
              m = std::make_shared<T>(type);
            }
            if (!Decode(dec, m.get())) return nullptr;
            return m;
          }};
}

/// The one MsgType -> codec mapping; {nullptr, nullptr} for the Fabric
/// baseline's internal messages.
Codec CodecFor(MsgType type) {
  switch (type) {
    case MsgType::kRequest: return CodecOf<RequestMsg>();
    case MsgType::kReply: return CodecOf<ReplyMsg>();
    case MsgType::kReplyCert: return CodecOf<ReplyCertMsg>();
    case MsgType::kPrePrepare: return CodecOf<PrePrepareMsg>();
    case MsgType::kPrepare: return CodecOf<PrepareMsg>();
    case MsgType::kCommit: return CodecOf<CommitMsg>();
    case MsgType::kCheckpoint: return CodecOf<CheckpointMsg>();
    case MsgType::kViewChange: return CodecOf<ViewChangeMsg>();
    case MsgType::kNewView: return CodecOf<NewViewMsg>();
    case MsgType::kPaxosAccept: return CodecOf<PaxosAcceptMsg>();
    case MsgType::kPaxosAccepted: return CodecOf<PaxosAcceptedMsg>();
    case MsgType::kPaxosLearn: return CodecOf<PaxosLearnMsg>();
    case MsgType::kPaxosPrepare: return CodecOf<PaxosPrepareMsg>();
    case MsgType::kPaxosPromise: return CodecOf<PaxosPromiseMsg>();
    case MsgType::kFillRequest: return CodecOf<FillRequestMsg>();
    case MsgType::kFillReply: return CodecOf<FillReplyMsg>();
    case MsgType::kStateRequest: return CodecOf<StateRequestMsg>();
    case MsgType::kStateReply: return CodecOf<StateReplyMsg>();
    case MsgType::kXPrepare: return CodecOf<XPrepareMsg>();
    case MsgType::kXPrepared: return CodecOf<XPreparedMsg>();
    case MsgType::kXCommit:
    case MsgType::kXAbort: return CodecOf<XCommitMsg>();
    case MsgType::kFPropose: return CodecOf<FProposeMsg>();
    case MsgType::kFAccept: return CodecOf<FAcceptMsg>();
    case MsgType::kFCommit: return CodecOf<FCommitMsg>();
    case MsgType::kCommitQuery:
    case MsgType::kPreparedQuery: return CodecOf<QueryMsg>();
    case MsgType::kExecOrder: return CodecOf<ExecOrderMsg>();
    case MsgType::kExecReply: return CodecOf<ExecReplyMsg>();
    default: return {nullptr, nullptr};
  }
}

}  // namespace

bool EncodeMessage(const Message& m, Encoder* enc) {
  EncodeFn encode = CodecFor(m.type).first;
  if (encode == nullptr) return false;
  Encoder body;
  encode(m, &body);
  enc->PutU8(static_cast<uint8_t>(m.type));
  enc->PutU16(m.sig_verify_ops);
  enc->PutU32(static_cast<uint32_t>(body.size()));
  enc->PutRaw(body.buffer().data(), body.size());
  return true;
}

MessageRef DecodeMessage(Decoder* dec) {
  uint8_t tag = 0;
  uint16_t sig_ops = 0;
  uint32_t body_len = 0;
  if (!dec->GetU8(&tag) || !dec->GetU16(&sig_ops) ||
      !dec->GetU32(&body_len)) {
    return nullptr;
  }
  if (body_len > dec->remaining()) return nullptr;
  DecodeFn decode = CodecFor(static_cast<MsgType>(tag)).second;
  if (decode == nullptr) return nullptr;
  // Decode the body inside its declared frame: the decoder must consume
  // exactly body_len bytes, so a corrupted length field can neither leak
  // into the next frame nor leave trailing garbage undetected.
  Decoder body(dec->cursor(), body_len);
  std::shared_ptr<Message> out = decode(static_cast<MsgType>(tag), &body);
  if (out == nullptr || !body.Done()) return nullptr;
  out->sig_verify_ops = sig_ops;
  dec->Skip(body_len);
  return out;
}

}  // namespace qanaat
