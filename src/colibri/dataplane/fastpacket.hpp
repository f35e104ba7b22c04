// Fixed-capacity packet representation for the forwarding fast path.
//
// proto::Packet is the general (heap-backed) form used by the control
// plane; FastPacket is its POD twin for the gateway/router hot loops and
// the batched pipelines: no allocation, contiguous, at most
// proto::kMaxHops hop entries, payload represented by its length only
// (forwarding never touches payload bytes; Appendix E shows processing
// is payload-size independent). Frames enter through the codec
// (batch_ingest, or decode_packet + to_fast); there is no second parser.
#pragma once

#include "colibri/dataplane/restable.hpp"
#include "colibri/proto/codec.hpp"

namespace colibri::dataplane {

struct FastPacket {
  proto::PacketType type = proto::PacketType::kData;
  bool is_eer = true;
  std::uint8_t num_hops = 0;
  std::uint8_t current_hop = 0;
  // The frame carried the 33-byte trace block (flag bit 1). Only its
  // length is kept: PktSize in Eq. 6 counts it, so a data packet that
  // gains one in transit fails the HVF check. The gateway never sets it.
  bool has_trace = false;

  proto::ResInfo resinfo;
  proto::EerInfo eerinfo;
  std::uint32_t timestamp = 0;
  std::uint32_t payload_bytes = 0;

  std::array<IfPair, proto::kMaxHops> ifaces;
  std::array<proto::Hvf, proto::kMaxHops> hvfs;

  // Frame length, equal to proto::Packet::wire_size() of the same packet.
  std::uint32_t wire_size() const {
    std::uint32_t s = 33u + num_hops * 8u + payload_bytes;
    if (is_eer) s += 32u;
    if (has_trace) s += proto::kTraceContextLen;
    return s;
  }

  IfId ingress() const { return ifaces[current_hop].in; }
  IfId egress() const { return ifaces[current_hop].eg; }
  bool at_last_hop() const { return current_hop + 1 >= num_hops; }
};

// Conversions to/from the general representation. to_fast keeps the
// trace flag but not the context; to_packet restores the flag with a
// zeroed context, so the frame keeps its length.
FastPacket to_fast(const proto::Packet& pkt);
proto::Packet to_packet(const FastPacket& fp);

}  // namespace colibri::dataplane
