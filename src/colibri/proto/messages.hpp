// Control-plane message payloads (paper §4.4).
//
// These ride inside Colibri packets: the initial SegReq over best-effort,
// renewals over the existing SegR, EEReqs over the SegRs they build on.
// The forward pass accumulates per-AS grants; the response travels the
// reverse path collecting tokens (SegR, Eq. 3) or AEAD-sealed hop
// authenticators (EER, Eq. 5). Payload authenticity uses per-AS DRKey MACs
// (§4.5): the source computes MAC_{K_{AS_i→SrcAS}}(payload core) for every
// on-path AS.
#pragma once

#include <optional>
#include <variant>

#include "colibri/common/errors.hpp"
#include "colibri/proto/packet.hpp"
#include "colibri/topology/segment.hpp"

namespace colibri::proto {

using Mac16 = std::array<std::uint8_t, 16>;

// Setup/renewal request for a segment reservation. The same shape serves
// both; the packet type distinguishes them (renewals reuse the ResId in
// the header ResInfo and only re-negotiate Bw/ExpT/Ver).
struct SegRequest {
  topology::SegType seg_type = topology::SegType::kUp;
  BwKbps min_bw_kbps = 0;  // below this the request fails
  BwKbps max_bw_kbps = 0;  // the demand
  std::vector<AsId> ases;  // AS ids along the segment, aligned with path
  // Grants accumulated hop by hop on the forward pass; entry i is what
  // AS i is willing to give.
  std::vector<BwKbps> granted;
};

// End-to-end-reservation setup/renewal request.
struct EerRequest {
  BwKbps min_bw_kbps = 0;
  std::vector<AsId> ases;           // ASes along the full e2e path
  std::vector<topology::Hop> path;  // interfaces along the e2e path
  std::vector<ResKey> segrs;        // underlying SegRs, in traversal order
  std::vector<BwKbps> granted;
};

// Explicit activation of a pending SegR version (paper §4.2).
struct SegActivation {
  ResVer version = 0;
};

// Response for any request, travelling the reverse path. For successful
// SegR requests, `tokens[i]` is AS i's SegR token (Eq. 3). For successful
// EER requests, `sealed_hopauths[i]` is AEAD_{K_{AS_i→AS_0}}(σ_i) (Eq. 5).
struct ControlResponse {
  bool success = false;
  BwKbps final_bw_kbps = 0;
  std::vector<Hvf> tokens;
  std::vector<Bytes> sealed_hopauths;
  Errc fail_code = Errc::kOk;
  std::uint8_t fail_hop = 0;  // index of the bottleneck/refusing AS
};

using ControlMessage =
    std::variant<SegRequest, EerRequest, SegActivation, ControlResponse>;

Bytes encode_message(const ControlMessage& msg);
// Accepts only the canonical encoding (no trailing bytes, `success` 0 or
// 1), so decode and re-encode give back the same bytes.
std::optional<ControlMessage> decode_message(BytesView wire);

// The byte string the DRKey payload MACs cover: everything the initiator
// committed to (requests without the mutable `granted` vector, plus the
// header ResInfo so responses bind to the reservation).
Bytes auth_input(const ControlMessage& msg, const ResInfo& ri);

// Per-AS payload authenticators appended after the message in the packet
// payload: MAC_{K_{AS_i→SrcAS}}(auth_input).
struct AuthedPayload {
  ControlMessage message;
  std::vector<Mac16> macs;  // one per on-path AS
};

Bytes encode_authed(const AuthedPayload& ap);
// Canonical like decode_message: the message fills `message_len` exactly
// and the MACs end the payload.
std::optional<AuthedPayload> decode_authed(BytesView wire);

// --- trace-context block (codec extension, DESIGN.md §4.11) -----------
// Fixed little-endian layout, kTraceContextLen bytes:
//   u64 trace_hi | u64 trace_lo | u64 span_id | u64 parent_span_id |
//   u8 flags
// The context rides in the packet *header*, not inside AuthedPayload:
// the payload is covered by the per-AS DRKey MACs and must stay
// immutable hop to hop, while the context mutates at every forwarding
// AS (each hop re-stamps span_id/parent_span_id).
void put_trace_context(Bytes& out, const TraceContext& tc);
TraceContext get_trace_context(ByteReader& r);

}  // namespace colibri::proto
