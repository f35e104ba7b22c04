#include "colibri/proto/codec.hpp"

#include "colibri/proto/messages.hpp"

namespace colibri::proto {
namespace {

constexpr std::uint8_t kFlagEer = 0x01;
constexpr std::uint8_t kFlagTrace = 0x02;

}  // namespace

Bytes encode_packet(const Packet& pkt) {
  Bytes out;
  out.reserve(pkt.wire_size());
  out.push_back(static_cast<std::uint8_t>(pkt.type));
  out.push_back(static_cast<std::uint8_t>((pkt.is_eer ? kFlagEer : 0) |
                                          (pkt.has_trace ? kFlagTrace : 0)));
  out.push_back(static_cast<std::uint8_t>(pkt.path.size()));
  out.push_back(pkt.current_hop);

  put_le(out, pkt.resinfo.src_as.raw());
  put_le(out, pkt.resinfo.res_id);
  put_le(out, pkt.resinfo.bw_kbps);
  put_le(out, pkt.resinfo.exp_time);
  out.push_back(pkt.resinfo.version);

  if (pkt.is_eer) {
    append_bytes(out, BytesView(pkt.eerinfo.src_host.bytes, 16));
    append_bytes(out, BytesView(pkt.eerinfo.dst_host.bytes, 16));
  }
  if (pkt.has_trace) put_trace_context(out, pkt.trace);

  put_le(out, pkt.timestamp);
  put_le(out, static_cast<std::uint32_t>(pkt.payload.size()));

  for (const auto& hop : pkt.path) {
    put_le(out, static_cast<std::uint16_t>(hop.ingress));
    put_le(out, static_cast<std::uint16_t>(hop.egress));
  }
  // Exactly one HVF slot per hop; requests that have not been issued
  // HVFs yet (e.g. initial SegReqs over best effort) carry zeros.
  for (size_t i = 0; i < pkt.path.size(); ++i) {
    const Hvf hvf = i < pkt.hvfs.size() ? pkt.hvfs[i] : Hvf{};
    append_bytes(out, BytesView(hvf.data(), hvf.size()));
  }
  append_bytes(out, pkt.payload);
  return out;
}

std::optional<Packet> decode_packet(BytesView wire) {
  ByteReader r(wire);
  Packet pkt;
  const auto type = r.read<std::uint8_t>();
  if (type > static_cast<std::uint8_t>(PacketType::kResponse)) {
    return std::nullopt;
  }
  pkt.type = static_cast<PacketType>(type);
  const auto flags = r.read<std::uint8_t>();
  if ((flags & ~(kFlagEer | kFlagTrace)) != 0) {
    return std::nullopt;  // unknown flag bits
  }
  pkt.is_eer = (flags & kFlagEer) != 0;
  pkt.has_trace = (flags & kFlagTrace) != 0;
  const auto hop_count = r.read<std::uint8_t>();
  if (hop_count == 0 || hop_count > kMaxHops) return std::nullopt;
  pkt.current_hop = r.read<std::uint8_t>();
  if (pkt.current_hop >= hop_count) return std::nullopt;

  pkt.resinfo.src_as = AsId::from_raw(r.read<std::uint64_t>());
  pkt.resinfo.res_id = r.read<std::uint32_t>();
  pkt.resinfo.bw_kbps = r.read<std::uint32_t>();
  pkt.resinfo.exp_time = r.read<std::uint32_t>();
  pkt.resinfo.version = r.read<std::uint8_t>();

  if (pkt.is_eer) {
    r.read_bytes(pkt.eerinfo.src_host.bytes, 16);
    r.read_bytes(pkt.eerinfo.dst_host.bytes, 16);
  }
  if (pkt.has_trace) pkt.trace = get_trace_context(r);

  pkt.timestamp = r.read<std::uint32_t>();
  const auto payload_len = r.read<std::uint32_t>();

  pkt.path.resize(hop_count);
  for (auto& hop : pkt.path) {
    hop.ingress = r.read<std::uint16_t>();
    hop.egress = r.read<std::uint16_t>();
  }
  // AS ids are not carried on the wire (forwarding is interface-based);
  // they stay unset after decode.
  pkt.hvfs.resize(hop_count);
  for (auto& hvf : pkt.hvfs) r.read_bytes(hvf.data(), hvf.size());

  if (!r.ok() || r.remaining() != payload_len) return std::nullopt;
  pkt.payload = r.read_vec(payload_len);
  if (!r.ok()) return std::nullopt;
  return pkt;
}

TraceContext peek_trace_context(BytesView wire) {
  if (wire.size() < 2) return {};
  const std::uint8_t flags = wire[1];
  if ((flags & kFlagTrace) == 0) return {};
  // Skip the fixed prefix: type|flags|hop_count|current_hop + ResInfo,
  // plus the EERInfo block when present.
  const size_t offset = 4 + 21 + ((flags & kFlagEer) != 0 ? 32 : 0);
  if (wire.size() < offset + kTraceContextLen) return {};
  ByteReader r(wire.subspan(offset));
  return get_trace_context(r);
}

}  // namespace colibri::proto
