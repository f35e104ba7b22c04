// Colibri packet format (paper §4.3, Eq. 2).
//
//   Packet = (Path || ResInfo || EERInfo || Ts || V_0..V_l || Payload)
//
// One format serves both planes: control-plane requests ride as payloads
// (over best-effort for initial SegR setup, over existing reservations for
// everything else, §4.4), data packets carry application payload. The
// HVF (hop validation field) V_i is a 4-byte truncated MAC per on-path AS.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "colibri/common/bytes.hpp"
#include "colibri/common/clock.hpp"
#include "colibri/common/ids.hpp"
#include "colibri/topology/segment.hpp"

namespace colibri::proto {

// ℓ_hvf in the paper; 4-byte truncated MACs are sufficient given the short
// reservation lifetimes (§4.5).
inline constexpr size_t kHvfLen = 4;
using Hvf = std::array<std::uint8_t, kHvfLen>;

// The one hop limit: the codec rejects a longer path, and the gateway,
// the border router and the CServ initiators size and check against it.
inline constexpr size_t kMaxHops = 16;

enum class PacketType : std::uint8_t {
  kData = 0,          // EER data-plane traffic
  kSegSetup = 1,      // SegReq: initial segment-reservation setup
  kSegRenewal = 2,    // SegR renewal (sent over the existing SegR)
  kSegActivation = 3, // explicit switch to a pending SegR version (§4.2)
  kEerSetup = 4,      // EEReq over existing SegRs
  kEerRenewal = 5,    // EER renewal over the existing EER
  kResponse = 6,      // control-plane response travelling the reverse path
};

bool is_control(PacketType t);

// Distributed-tracing context carried in control packets (wire extension,
// DESIGN.md §4.11): a 128-bit trace id naming the whole multi-AS request,
// the 64-bit span id of the hop that sent this packet, and the span it
// was itself a child of. Every forwarding AS opens a child span of the
// upstream hop, so the per-AS captures stitch into one causal tree.
//
// Ids are generated deterministically (Clock + per-bus sequence, see
// MessageBus::new_root_context) — never from wall-clock randomness — so
// twin-universe differential runs and SimClock scenarios reproduce
// bit-identical traces. A zeroed context means "not traced".
struct TraceContext {
  std::uint64_t trace_hi = 0;        // trace id, high 64 bits
  std::uint64_t trace_lo = 0;        // trace id, low 64 bits
  std::uint64_t span_id = 0;         // id of the sending hop's span
  std::uint64_t parent_span_id = 0;  // 0 = root span of the trace
  std::uint8_t flags = 0;            // bit 0: sampled

  static constexpr std::uint8_t kSampled = 0x01;

  bool sampled() const { return (flags & kSampled) != 0; }
  // True iff this context carries a real trace (all-zero ids = absent).
  bool present() const { return (trace_hi | trace_lo | span_id) != 0; }

  friend constexpr auto operator<=>(const TraceContext&,
                                    const TraceContext&) = default;
};

// Encoded size of the optional trace-context block.
inline constexpr size_t kTraceContextLen = 4 * 8 + 1;

// Reservation metadata carried in every packet (Eq. 2c).
struct ResInfo {
  AsId src_as;
  ResId res_id = 0;
  BwKbps bw_kbps = 0;
  UnixSec exp_time = 0;
  ResVer version = 0;

  ResKey key() const { return ResKey{src_as, res_id}; }

  friend constexpr auto operator<=>(const ResInfo&, const ResInfo&) = default;
};

// End-host addresses, present on EER packets only (Eq. 2d).
struct EerInfo {
  HostAddr src_host;
  HostAddr dst_host;

  friend constexpr auto operator<=>(const EerInfo&, const EerInfo&) = default;
};

struct Packet {
  PacketType type = PacketType::kData;
  bool is_eer = false;  // EERInfo valid; selects Eq. 4/6 vs Eq. 3 validation
  // Trace block present on the wire. Kept distinct from trace.present()
  // so a frame carrying an all-zero context re-encodes canonically
  // (byte-identical), which the fuzz harness asserts.
  bool has_trace = false;
  std::uint8_t current_hop = 0;  // forwarding cursor into `path`

  std::vector<topology::Hop> path;  // Eq. 2b: (In_i, Eg_i) per AS
  ResInfo resinfo;
  EerInfo eerinfo;
  TraceContext trace;  // meaningful only when has_trace
  std::uint32_t timestamp = 0;  // Ts: high-precision, relative to ExpT
  std::vector<Hvf> hvfs;        // one per on-path AS
  Bytes payload;

  size_t num_hops() const { return path.size(); }
  // Total on-the-wire size (what PktSize in Eq. 6 refers to).
  std::uint32_t wire_size() const;

  friend bool operator==(const Packet&, const Packet&) = default;
};

// --- MAC input builders -----------------------------------------------
// Fixed-layout serializations fed to AES-CMAC; shared by the gateway (to
// create HVFs), border routers (to verify), and the CServ (to issue
// tokens), guaranteeing bit-exact agreement.

// Eq. 3 input: ResInfo || (In_i, Eg_i) — SegR token / HVF.
inline constexpr size_t kSegMacInputLen = 21 + 4;
void build_seg_mac_input(const ResInfo& ri, IfId in, IfId eg,
                         std::uint8_t out[kSegMacInputLen]);

// Eq. 4 input: ResInfo || EERInfo || (In_i, Eg_i) — hop authenticator σ_i.
inline constexpr size_t kHopAuthInputLen = 21 + 32 + 4;
void build_hopauth_input(const ResInfo& ri, const EerInfo& ei, IfId in,
                         IfId eg, std::uint8_t out[kHopAuthInputLen]);

// Eq. 6 input: Ts || PktSize — per-packet HVF on an EER.
inline constexpr size_t kDataMacInputLen = 8;
void build_data_mac_input(std::uint32_t ts, std::uint32_t pkt_size,
                          std::uint8_t out[kDataMacInputLen]);

}  // namespace colibri::proto
