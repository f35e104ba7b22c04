#include "colibri/dataplane/batch.hpp"

#include "colibri/proto/codec.hpp"

namespace colibri::dataplane {

bool batch_ingest(BytesView frame, PacketBatch& batch) {
  if (batch.full()) return false;
  const auto pkt = proto::decode_packet(frame);
  if (!pkt.has_value()) return false;
  batch.push_slot() = to_fast(*pkt);
  return true;
}

}  // namespace colibri::dataplane
