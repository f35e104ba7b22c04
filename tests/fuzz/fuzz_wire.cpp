// Wire-format fuzz harness.
//
// One entry point, two drivers: under COLIBRI_FUZZING it is a libFuzzer
// target exploring the packet codec coverage-guided; without libFuzzer
// the same function replays the checked-in corpus as a plain ctest case
// (see replay_main.cpp). Either way, every input must uphold the wire
// invariants:
//
//   1. decode -> encode is the byte-identical identity on accepted
//      frames (the codec has one canonical form, no accepted aliases);
//   2. decode(encode(p)) == p;
//   3. batch_ingest accepts exactly the decodable frames (the codec's
//      hop limit is the data plane's, proto::kMaxHops);
//   4. the FastPacket round trip preserves every header field
//      forwarding reads, the trace flag included;
//   5. the scalar and batched router paths return the same verdict and
//      cursor position for the decoded packet — parity must hold for
//      arbitrary adversarial input, not just well-formed streams;
//   6. the trace-context block is control-plane only: stripping it from
//      an accepted frame yields another accepted frame that is exactly
//      kTraceContextLen shorter, the two data-plane (FastPacket) views
//      differ only by the trace flag, and their wire_size() values differ
//      by exactly kTraceContextLen. peek_trace_context agrees with the
//      full decode on every accepted frame;
//   7. FastPacket::wire_size() equals the frame length, so Eq. 6 MACs
//      the real length of every accepted frame;
//   8. no router path finds an accepted frame malformed: the codec and
//      the router agree on which bytes are a packet;
//   9. control payloads are canonical too: when decode_authed accepts an
//      accepted frame's payload, encode_authed gives back the same bytes.
//      Every CServ hop re-encodes the request it decodes, so an accepted
//      alias would change the bytes the next hop sees.
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "colibri/common/clock.hpp"
#include "colibri/dataplane/batch.hpp"
#include "colibri/dataplane/router.hpp"
#include "colibri/proto/codec.hpp"
#include "colibri/proto/messages.hpp"

namespace {

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "wire invariant violated: %s\n", what);
    __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const colibri::BytesView frame(data, size);
  const auto pkt = colibri::proto::decode_packet(frame);

  colibri::dataplane::PacketBatch batch;
  const bool ingested = colibri::dataplane::batch_ingest(frame, batch);

  if (!pkt.has_value()) {
    check(!ingested, "ingest accepted an undecodable frame");
    return 0;
  }

  const colibri::Bytes re = colibri::proto::encode_packet(*pkt);
  check(re.size() == size && std::memcmp(re.data(), data, size) == 0,
        "re-encode of an accepted frame is not byte-identical");
  const auto again = colibri::proto::decode_packet(re);
  check(again.has_value() && *again == *pkt, "decode(encode(p)) != p");

  if (const auto ap = colibri::proto::decode_authed(pkt->payload)) {
    check(colibri::proto::encode_authed(*ap) == pkt->payload,
          "re-encode of an accepted control payload is not byte-identical");
  }

  // Trace-context invariants on every accepted frame. The O(1) peek the
  // bus uses must agree with the full decode, and the stripped twin
  // (same frame, no trace block) must itself be canonical.
  check(colibri::proto::peek_trace_context(frame) ==
            (pkt->has_trace ? pkt->trace : colibri::proto::TraceContext{}),
        "peek_trace_context disagrees with decode");
  colibri::proto::Packet stripped = *pkt;
  stripped.has_trace = false;
  stripped.trace = {};
  const colibri::Bytes swire = colibri::proto::encode_packet(stripped);
  check(swire.size() ==
            size - (pkt->has_trace ? colibri::proto::kTraceContextLen : 0),
        "trace block does not cost exactly its wire bytes");
  const auto spkt = colibri::proto::decode_packet(swire);
  check(spkt.has_value() && *spkt == stripped,
        "stripping the trace block broke the frame");

  check(ingested && batch.size == 1,
        "ingest did not append exactly one decodable frame");

  const colibri::dataplane::FastPacket fp = colibri::dataplane::to_fast(*pkt);
  check(fp.wire_size() == size && batch[0].wire_size() == size,
        "FastPacket wire_size() is not the frame length");
  const colibri::proto::Packet back = colibri::dataplane::to_packet(fp);
  check(back.type == pkt->type && back.is_eer == pkt->is_eer &&
            back.has_trace == pkt->has_trace &&
            back.current_hop == pkt->current_hop &&
            back.resinfo == pkt->resinfo && back.timestamp == pkt->timestamp &&
            back.payload.size() == pkt->payload.size() &&
            back.hvfs == pkt->hvfs,
        "FastPacket round trip lost header state");
  check(!pkt->is_eer || back.eerinfo == pkt->eerinfo,
        "FastPacket round trip lost host addresses");
  for (std::size_t i = 0; i < pkt->path.size(); ++i) {
    check(back.path[i].ingress == pkt->path[i].ingress &&
              back.path[i].egress == pkt->path[i].egress,
          "FastPacket round trip lost interface pairs");
  }

  // The data plane keeps only the trace block's length: the traced frame
  // and its stripped twin differ in the FastPacket view by the flag alone.
  const colibri::dataplane::FastPacket sfp =
      colibri::dataplane::to_fast(*spkt);
  colibri::proto::Packet unflagged = back;
  unflagged.has_trace = false;
  check(!sfp.has_trace && colibri::dataplane::to_packet(sfp) == unflagged,
        "trace block changed the data-plane view beyond its flag");
  check(fp.wire_size() - sfp.wire_size() ==
            (pkt->has_trace ? colibri::proto::kTraceContextLen : 0),
        "trace flag does not cost exactly the block's wire bytes");

  // Verdict parity on adversarial input: hookless twin routers with a
  // frozen clock (persistent across inputs; only their counters grow).
  static colibri::SimClock clock(100 * colibri::kNsPerSec);
  static const colibri::drkey::Key128 key = [] {
    colibri::drkey::Key128 k;
    k.bytes.fill(7);
    return k;
  }();
  static colibri::dataplane::BorderRouter scalar(colibri::AsId{1, 2}, key,
                                                 clock, nullptr);
  static colibri::dataplane::BorderRouter batched(colibri::AsId{1, 2}, key,
                                                  clock, nullptr);

  colibri::dataplane::FastPacket scalar_pkt = fp;
  const auto vs = scalar.process(scalar_pkt);
  colibri::dataplane::BorderRouter::Verdict vb;
  batched.process_batch(batch, &vb);
  check(vs == vb, "scalar/batched router verdict divergence");
  check(scalar_pkt.current_hop == batch[0].current_hop,
        "scalar/batched cursor divergence");
  check(vs != colibri::dataplane::BorderRouter::Verdict::kMalformed,
        "router rejects a frame the codec accepts");
  return 0;
}
