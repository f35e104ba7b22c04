#include "colibri/proto/messages.hpp"

namespace colibri::proto {
namespace {

enum class Tag : std::uint8_t {
  kSegRequest = 1,
  kEerRequest = 2,
  kSegActivation = 3,
  kControlResponse = 4,
};

void put_as_vec(Bytes& out, const std::vector<AsId>& v) {
  put_le(out, static_cast<std::uint16_t>(v.size()));
  for (AsId a : v) put_le(out, a.raw());
}

std::vector<AsId> get_as_vec(ByteReader& r) {
  const auto n = r.read<std::uint16_t>();
  std::vector<AsId> v;
  v.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) {
    v.push_back(AsId::from_raw(r.read<std::uint64_t>()));
  }
  return v;
}

void put_bw_vec(Bytes& out, const std::vector<BwKbps>& v) {
  put_le(out, static_cast<std::uint16_t>(v.size()));
  for (BwKbps b : v) put_le(out, b);
}

std::vector<BwKbps> get_bw_vec(ByteReader& r) {
  const auto n = r.read<std::uint16_t>();
  std::vector<BwKbps> v;
  v.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) v.push_back(r.read<std::uint32_t>());
  return v;
}

// Requests end with their `granted` list; auth_input writes an empty one.
void encode_seg_request(Bytes& out, const SegRequest& m,
                        const std::vector<BwKbps>& granted) {
  out.push_back(static_cast<std::uint8_t>(m.seg_type));
  put_le(out, m.min_bw_kbps);
  put_le(out, m.max_bw_kbps);
  put_as_vec(out, m.ases);
  put_bw_vec(out, granted);
}

SegRequest decode_seg_request(ByteReader& r) {
  SegRequest m;
  m.seg_type = static_cast<topology::SegType>(r.read<std::uint8_t>());
  m.min_bw_kbps = r.read<std::uint32_t>();
  m.max_bw_kbps = r.read<std::uint32_t>();
  m.ases = get_as_vec(r);
  m.granted = get_bw_vec(r);
  return m;
}

void encode_eer_request(Bytes& out, const EerRequest& m,
                        const std::vector<BwKbps>& granted) {
  put_le(out, m.min_bw_kbps);
  put_as_vec(out, m.ases);
  topology::put_hops(out, m.path);
  put_le(out, static_cast<std::uint16_t>(m.segrs.size()));
  for (const auto& k : m.segrs) {
    put_le(out, k.src_as.raw());
    put_le(out, k.res_id);
  }
  put_bw_vec(out, granted);
}

EerRequest decode_eer_request(ByteReader& r) {
  EerRequest m;
  m.min_bw_kbps = r.read<std::uint32_t>();
  m.ases = get_as_vec(r);
  m.path = topology::get_hops(r);
  const auto ns = r.read<std::uint16_t>();
  m.segrs.reserve(ns);
  for (std::uint16_t i = 0; i < ns; ++i) {
    ResKey k;
    k.src_as = AsId::from_raw(r.read<std::uint64_t>());
    k.res_id = r.read<std::uint32_t>();
    m.segrs.push_back(k);
  }
  m.granted = get_bw_vec(r);
  return m;
}

void encode_response(Bytes& out, const ControlResponse& m) {
  out.push_back(m.success ? 1 : 0);
  put_le(out, m.final_bw_kbps);
  put_le(out, static_cast<std::uint16_t>(m.tokens.size()));
  for (const auto& t : m.tokens) {
    append_bytes(out, BytesView(t.data(), t.size()));
  }
  put_le(out, static_cast<std::uint16_t>(m.sealed_hopauths.size()));
  for (const auto& b : m.sealed_hopauths) {
    put_le(out, static_cast<std::uint16_t>(b.size()));
    append_bytes(out, b);
  }
  out.push_back(static_cast<std::uint8_t>(m.fail_code));
  out.push_back(m.fail_hop);
}

std::optional<ControlResponse> decode_response(ByteReader& r) {
  ControlResponse m;
  const auto success = r.read<std::uint8_t>();
  if (success > 1) return std::nullopt;  // one encoding per flag
  m.success = success == 1;
  m.final_bw_kbps = r.read<std::uint32_t>();
  const auto nt = r.read<std::uint16_t>();
  m.tokens.resize(nt);
  for (auto& t : m.tokens) r.read_bytes(t.data(), t.size());
  const auto nh = r.read<std::uint16_t>();
  m.sealed_hopauths.reserve(nh);
  for (std::uint16_t i = 0; i < nh; ++i) {
    const auto len = r.read<std::uint16_t>();
    m.sealed_hopauths.push_back(r.read_vec(len));
  }
  m.fail_code = static_cast<Errc>(r.read<std::uint8_t>());
  m.fail_hop = r.read<std::uint8_t>();
  return m;
}

// Writes `msg` with a request's `granted` list left empty when
// `with_granted` is false, so auth_input needs no copy of the message.
Bytes encode(const ControlMessage& msg, bool with_granted) {
  static const std::vector<BwKbps> kNone;
  Bytes out;
  std::visit(
      [&out, with_granted](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, SegRequest>) {
          out.push_back(static_cast<std::uint8_t>(Tag::kSegRequest));
          encode_seg_request(out, m, with_granted ? m.granted : kNone);
        } else if constexpr (std::is_same_v<T, EerRequest>) {
          out.push_back(static_cast<std::uint8_t>(Tag::kEerRequest));
          encode_eer_request(out, m, with_granted ? m.granted : kNone);
        } else if constexpr (std::is_same_v<T, SegActivation>) {
          out.push_back(static_cast<std::uint8_t>(Tag::kSegActivation));
          out.push_back(m.version);
        } else {
          out.push_back(static_cast<std::uint8_t>(Tag::kControlResponse));
          encode_response(out, m);
        }
      },
      msg);
  return out;
}

}  // namespace

Bytes encode_message(const ControlMessage& msg) { return encode(msg, true); }

std::optional<ControlMessage> decode_message(BytesView wire) {
  ByteReader r(wire);
  const auto tag = r.read<std::uint8_t>();
  ControlMessage msg;
  switch (static_cast<Tag>(tag)) {
    case Tag::kSegRequest: msg = decode_seg_request(r); break;
    case Tag::kEerRequest: msg = decode_eer_request(r); break;
    case Tag::kSegActivation: {
      SegActivation a;
      a.version = r.read<std::uint8_t>();
      msg = a;
      break;
    }
    case Tag::kControlResponse: {
      auto resp = decode_response(r);
      if (!resp) return std::nullopt;
      msg = std::move(*resp);
      break;
    }
    default: return std::nullopt;
  }
  // One encoding per message: every hop re-encodes what it decodes.
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return msg;
}

Bytes auth_input(const ControlMessage& msg, const ResInfo& ri) {
  // Without the mutable `granted` list, so all ASes MAC the same bytes
  // the initiator committed to.
  Bytes out = encode(msg, false);
  put_le(out, ri.src_as.raw());
  put_le(out, ri.res_id);
  put_le(out, ri.exp_time);
  out.push_back(ri.version);
  return out;
}

Bytes encode_authed(const AuthedPayload& ap) {
  Bytes msg = encode_message(ap.message);
  Bytes out;
  put_le(out, static_cast<std::uint32_t>(msg.size()));
  append_bytes(out, msg);
  put_le(out, static_cast<std::uint16_t>(ap.macs.size()));
  for (const auto& m : ap.macs) append_bytes(out, BytesView(m.data(), m.size()));
  return out;
}

std::optional<AuthedPayload> decode_authed(BytesView wire) {
  ByteReader r(wire);
  const auto msg_len = r.read<std::uint32_t>();
  if (!r.ok() || msg_len > r.remaining()) return std::nullopt;
  auto msg = decode_message(wire.subspan(sizeof(std::uint32_t), msg_len));
  if (!msg) return std::nullopt;
  ByteReader macs(wire.subspan(sizeof(std::uint32_t) + msg_len));
  const auto nm = macs.read<std::uint16_t>();
  // The MACs end the payload: no trailing bytes.
  if (!macs.ok() || macs.remaining() != nm * sizeof(Mac16)) return std::nullopt;
  AuthedPayload ap;
  ap.message = std::move(*msg);
  ap.macs.resize(nm);
  for (auto& m : ap.macs) macs.read_bytes(m.data(), m.size());
  return ap;
}

void put_trace_context(Bytes& out, const TraceContext& tc) {
  put_le(out, tc.trace_hi);
  put_le(out, tc.trace_lo);
  put_le(out, tc.span_id);
  put_le(out, tc.parent_span_id);
  out.push_back(tc.flags);
}

TraceContext get_trace_context(ByteReader& r) {
  TraceContext tc;
  tc.trace_hi = r.read<std::uint64_t>();
  tc.trace_lo = r.read<std::uint64_t>();
  tc.span_id = r.read<std::uint64_t>();
  tc.parent_span_id = r.read<std::uint64_t>();
  tc.flags = r.read<std::uint8_t>();
  return tc;
}

}  // namespace colibri::proto
