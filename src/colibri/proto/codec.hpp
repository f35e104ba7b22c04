// Wire codec for Colibri packets.
//
// Fixed little-endian layout matching Packet::wire_size():
//   u8 type | u8 flags | u8 hop_count (1..kMaxHops) | u8 current_hop |
//   ResInfo (21 B) | [EERInfo (32 B) if flag 0x01] |
//   [TraceContext (33 B) if flag 0x02] | u32 Ts | u32 payload_len |
//   hops (4 B each) | HVFs (4 B each) | payload
//
// The trace-context block is a backward-compatible extension: frames
// without flag 0x02 (everything encoded before the extension existed)
// decode to has_trace == false with a zeroed context, and frames are
// re-encoded canonically either way (decode∘encode is the identity on
// bytes — the fuzz harness asserts this).
#pragma once

#include <optional>

#include "colibri/proto/packet.hpp"

namespace colibri::proto {

Bytes encode_packet(const Packet& pkt);
std::optional<Packet> decode_packet(BytesView wire);

// Reads just the trace context out of an encoded packet without decoding
// the rest — the MessageBus does this on every traced hop delivery, so
// it must stay O(1) in the frame size. Returns a zeroed (absent) context
// when the frame has no trace block or is too short to hold one.
TraceContext peek_trace_context(BytesView wire);

}  // namespace colibri::proto
