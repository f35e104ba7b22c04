// Path segments and end-to-end paths (paper §2.2, §3.3).
//
// SCION decomposes global routing into up-segments (non-core AS → core),
// core-segments (core ↔ core), and down-segments (core → non-core). A full
// end-to-end path combines at most one of each. Hops are represented as
// (AS, ingress interface, egress interface) triples in the direction of
// travel — exactly the representation Colibri's Path header field uses
// (paper Eq. 2b).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "colibri/common/bytes.hpp"
#include "colibri/common/ids.hpp"

namespace colibri::topology {

class Topology;

enum class SegType : std::uint8_t { kUp = 0, kCore = 1, kDown = 2 };

const char* seg_type_name(SegType t);

// One AS's hop entry, in the direction of the segment/path. The first
// hop's ingress and the last hop's egress are kNoInterface.
struct Hop {
  AsId as;
  IfId ingress = kNoInterface;
  IfId egress = kNoInterface;

  friend constexpr auto operator<=>(const Hop&, const Hop&) = default;
};

// The one wire layout of a hop list, shared by the control messages, the
// registry adverts, the down-SegR request and the WAL records:
//   u16 count | (u64 AS, u16 ingress, u16 egress) * count
void put_hops(Bytes& out, const std::vector<Hop>& hops);
// Reads a list written by put_hops; check `r.ok()` afterwards.
std::vector<Hop> get_hops(ByteReader& r);

struct PathSegment {
  SegType type = SegType::kUp;
  std::vector<Hop> hops;

  AsId first_as() const { return hops.front().as; }
  AsId last_as() const { return hops.back().as; }
  size_t length() const { return hops.size(); }

  // A segment traversed in the opposite direction (up <-> down).
  PathSegment reversed() const;

  std::string to_string() const;

  friend bool operator==(const PathSegment&, const PathSegment&) = default;
};

// Full end-to-end AS-level path.
struct Path {
  std::vector<Hop> hops;

  AsId src_as() const { return hops.front().as; }
  AsId dst_as() const { return hops.back().as; }
  size_t length() const { return hops.size(); }
  bool empty() const { return hops.empty(); }

  std::string to_string() const;

  friend bool operator==(const Path&, const Path&) = default;
};

// Combines up to three segments into an end-to-end path. Segments must
// join end-to-start (up.last == core.first, core.last == down.first); the
// joint AS appears once in the result with ingress from the earlier
// segment and egress into the later one (it is the *transfer AS*, §4.1).
// Returns nullopt if the segments do not connect.
std::optional<Path> combine_segments(const PathSegment* up,
                                     const PathSegment* core,
                                     const PathSegment* down);

// Shortcut combination (paper §2.2): if the up- and down-segments cross at
// a common non-core AS, the path can cut over there without transiting the
// core. Returns nullopt if the segments share no AS.
std::optional<Path> combine_with_shortcut(const PathSegment& up,
                                          const PathSegment& down);

// Validates that a path is consistent with the topology: every hop's
// egress interface connects to the next hop's AS and ingress interface.
bool path_valid(const Path& path, const Topology& topo);

}  // namespace colibri::topology
