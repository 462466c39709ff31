#ifndef QANAAT_PROTOCOLS_WIRE_H_
#define QANAAT_PROTOCOLS_WIRE_H_

#include "common/serde.h"
#include "consensus/messages.h"
#include "protocols/cross_messages.h"

namespace qanaat {

/// Encodes a protocol message as a self-describing envelope: type tag
/// (u8), sig_verify_ops (u16), body length (u32) — kEnvelopeBytes in all —
/// and the typed body. Message::WireBytes() counts the same bytes without
/// building them. Returns false for message types without a wire codec
/// (the Fabric baseline's internal messages).
bool EncodeMessage(const Message& m, Encoder* enc);

/// Decodes an envelope produced by EncodeMessage. Returns nullptr on any
/// malformation — unknown tag, truncation, count overflow, digest
/// mismatch — and never throws or crashes on arbitrary bytes.
MessageRef DecodeMessage(Decoder* dec);

}  // namespace qanaat

#endif  // QANAAT_PROTOCOLS_WIRE_H_
