// Internal wire helpers shared by cserv.cpp and handlers.cpp: bus channel
// framing, registry-advert serialization, key-fetch serialization, and the
// AAD binding for sealed hop authenticators. Not part of the public API.
#pragma once

#include <optional>

#include "colibri/cserv/registry.hpp"
#include "colibri/drkey/keyserver.hpp"
#include "colibri/proto/packet.hpp"

namespace colibri::cserv::wire {

// Bus channel tags (first byte of every bus message).
inline constexpr std::uint8_t kChanPacket = 0;
inline constexpr std::uint8_t kChanRegistryQuery = 1;
inline constexpr std::uint8_t kChanKeyFetch = 2;
inline constexpr std::uint8_t kChanDownSegrRequest = 3;

// Frames a serialized packet for the bus (responses travel back as the
// handler's raw return value and are not framed).
inline Bytes packet_frame(const Bytes& encoded_packet) {
  Bytes out;
  out.reserve(encoded_packet.size() + 1);
  out.push_back(kChanPacket);
  append_bytes(out, encoded_packet);
  return out;
}

// --- SegrAdvert ---------------------------------------------------------

inline void put_advert(Bytes& out, const SegrAdvert& a) {
  put_le(out, a.key.src_as.raw());
  put_le(out, a.key.res_id);
  out.push_back(static_cast<std::uint8_t>(a.seg_type));
  topology::put_hops(out, a.hops);
  put_le(out, a.bw_kbps);
  put_le(out, a.exp_time);
  put_le(out, static_cast<std::uint16_t>(a.whitelist.size()));
  for (AsId w : a.whitelist) put_le(out, w.raw());
}

inline std::optional<SegrAdvert> get_advert(ByteReader& r) {
  SegrAdvert a;
  a.key.src_as = AsId::from_raw(r.read<std::uint64_t>());
  a.key.res_id = r.read<std::uint32_t>();
  a.seg_type = static_cast<topology::SegType>(r.read<std::uint8_t>());
  a.hops = topology::get_hops(r);
  a.bw_kbps = r.read<std::uint32_t>();
  a.exp_time = r.read<std::uint32_t>();
  const auto nw = r.read<std::uint16_t>();
  a.whitelist.reserve(nw);
  for (std::uint16_t i = 0; i < nw; ++i) {
    a.whitelist.push_back(AsId::from_raw(r.read<std::uint64_t>()));
  }
  if (!r.ok() || a.hops.empty()) return std::nullopt;
  return a;
}

// --- registry query -------------------------------------------------------

struct RegistryQuery {
  AsId requester;
  AsId from;
  AsId to;  // 0 = any destination (query_from)
};

inline Bytes encode_registry_query(const RegistryQuery& q) {
  Bytes out;
  out.push_back(kChanRegistryQuery);
  put_le(out, q.requester.raw());
  put_le(out, q.from.raw());
  put_le(out, q.to.raw());
  return out;
}

// --- key fetch --------------------------------------------------------------

inline Bytes encode_key_fetch(AsId requester, UnixSec at) {
  Bytes out;
  out.push_back(kChanKeyFetch);
  put_le(out, requester.raw());
  put_le(out, at);
  return out;
}

inline Bytes encode_key_response(const drkey::KeyResponse& kr) {
  Bytes out;
  append_bytes(out, BytesView(kr.key.bytes.data(), kr.key.bytes.size()));
  put_le(out, kr.epoch.begin);
  put_le(out, kr.epoch.end);
  append_bytes(out, BytesView(kr.signature.data(), kr.signature.size()));
  return out;
}

inline std::optional<drkey::KeyResponse> decode_key_response(BytesView wire) {
  ByteReader r(wire);
  drkey::KeyResponse kr;
  r.read_bytes(kr.key.bytes.data(), kr.key.bytes.size());
  kr.epoch.begin = r.read<std::uint32_t>();
  kr.epoch.end = r.read<std::uint32_t>();
  r.read_bytes(kr.signature.data(), kr.signature.size());
  if (!r.ok()) return std::nullopt;
  return kr;
}

// --- down-SegR request (§3.3) -------------------------------------------------
// "For down-SegRs, the first AS only sets up a SegR upon an explicit
// request by the last AS." The last AS names the segment and the desired
// bandwidth; the core AS initiates the setup and answers with the result.

struct DownSegrRequest {
  AsId requester;
  BwKbps min_bw_kbps = 0;
  BwKbps max_bw_kbps = 0;
  std::vector<topology::Hop> hops;  // the down-segment, first AS = target
};

inline Bytes encode_down_request(const DownSegrRequest& q) {
  Bytes out;
  out.push_back(kChanDownSegrRequest);
  put_le(out, q.requester.raw());
  put_le(out, q.min_bw_kbps);
  put_le(out, q.max_bw_kbps);
  topology::put_hops(out, q.hops);
  return out;
}

inline std::optional<DownSegrRequest> decode_down_request(BytesView body) {
  ByteReader r(body);
  DownSegrRequest q;
  q.requester = AsId::from_raw(r.read<std::uint64_t>());
  q.min_bw_kbps = r.read<std::uint32_t>();
  q.max_bw_kbps = r.read<std::uint32_t>();
  q.hops = topology::get_hops(r);
  if (!r.ok() || q.hops.empty()) return std::nullopt;
  return q;
}

struct DownSegrResponse {
  Errc code = Errc::kInternal;
  ResKey key;
  BwKbps bw_kbps = 0;
  UnixSec exp_time = 0;
};

inline Bytes encode_down_response(const DownSegrResponse& resp) {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(resp.code));
  put_le(out, resp.key.src_as.raw());
  put_le(out, resp.key.res_id);
  put_le(out, resp.bw_kbps);
  put_le(out, resp.exp_time);
  return out;
}

inline std::optional<DownSegrResponse> decode_down_response(BytesView body) {
  ByteReader r(body);
  DownSegrResponse resp;
  resp.code = static_cast<Errc>(r.read<std::uint8_t>());
  resp.key.src_as = AsId::from_raw(r.read<std::uint64_t>());
  resp.key.res_id = r.read<std::uint32_t>();
  resp.bw_kbps = r.read<std::uint32_t>();
  resp.exp_time = r.read<std::uint32_t>();
  if (!r.ok()) return std::nullopt;
  return resp;
}

// --- sealed-HopAuth AAD ------------------------------------------------------
// Binds σ_i to the final reservation parameters and the hop index, so a
// sealed authenticator cannot be replayed for a different reservation,
// version, bandwidth, or position.
inline Bytes hopauth_aad(const proto::ResInfo& final_ri, std::uint8_t hop) {
  Bytes aad;
  put_le(aad, final_ri.src_as.raw());
  put_le(aad, final_ri.res_id);
  put_le(aad, final_ri.bw_kbps);
  put_le(aad, final_ri.exp_time);
  aad.push_back(final_ri.version);
  aad.push_back(hop);
  return aad;
}

}  // namespace colibri::cserv::wire
