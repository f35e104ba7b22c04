#include "colibri/topology/segment.hpp"

#include <algorithm>

#include "colibri/topology/topology.hpp"

namespace colibri::topology {

const char* seg_type_name(SegType t) {
  switch (t) {
    case SegType::kUp: return "up";
    case SegType::kCore: return "core";
    case SegType::kDown: return "down";
  }
  return "?";
}

void put_hops(Bytes& out, const std::vector<Hop>& hops) {
  put_le(out, static_cast<std::uint16_t>(hops.size()));
  for (const Hop& h : hops) {
    put_le(out, h.as.raw());
    put_le(out, static_cast<std::uint16_t>(h.ingress));
    put_le(out, static_cast<std::uint16_t>(h.egress));
  }
}

std::vector<Hop> get_hops(ByteReader& r) {
  const auto n = r.read<std::uint16_t>();
  std::vector<Hop> hops;
  hops.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) {
    Hop h;
    h.as = AsId::from_raw(r.read<std::uint64_t>());
    h.ingress = r.read<std::uint16_t>();
    h.egress = r.read<std::uint16_t>();
    hops.push_back(h);
  }
  return hops;
}

PathSegment PathSegment::reversed() const {
  PathSegment r;
  switch (type) {
    case SegType::kUp: r.type = SegType::kDown; break;
    case SegType::kDown: r.type = SegType::kUp; break;
    case SegType::kCore: r.type = SegType::kCore; break;
  }
  r.hops.reserve(hops.size());
  for (auto it = hops.rbegin(); it != hops.rend(); ++it) {
    r.hops.push_back(Hop{it->as, it->egress, it->ingress});
  }
  return r;
}

std::string PathSegment::to_string() const {
  std::string s = seg_type_name(type);
  s += ":";
  for (const auto& h : hops) {
    s += " " + h.as.to_string() + "[" + std::to_string(h.ingress) + "," +
         std::to_string(h.egress) + "]";
  }
  return s;
}

std::string Path::to_string() const {
  std::string s = "path:";
  for (const auto& h : hops) {
    s += " " + h.as.to_string() + "[" + std::to_string(h.ingress) + "," +
         std::to_string(h.egress) + "]";
  }
  return s;
}

namespace {

// Appends `seg` to `out`, merging the joint AS if `out` already ends with
// the segment's first AS. Returns false on a connection mismatch.
bool append_segment(std::vector<Hop>& out, const PathSegment& seg) {
  if (seg.hops.empty()) return false;
  size_t start = 0;
  if (!out.empty()) {
    if (out.back().as != seg.first_as()) return false;
    // Transfer AS: keep its ingress from the earlier segment, take its
    // egress from the later one.
    out.back().egress = seg.hops.front().egress;
    start = 1;
  }
  for (size_t i = start; i < seg.hops.size(); ++i) out.push_back(seg.hops[i]);
  return true;
}

}  // namespace

std::optional<Path> combine_segments(const PathSegment* up,
                                     const PathSegment* core,
                                     const PathSegment* down) {
  Path path;
  for (const PathSegment* seg : {up, core, down}) {
    if (seg == nullptr) continue;
    if (!append_segment(path.hops, *seg)) return std::nullopt;
  }
  if (path.hops.empty()) return std::nullopt;
  return path;
}

std::optional<Path> combine_with_shortcut(const PathSegment& up,
                                          const PathSegment& down) {
  // Cut at the earliest AS on the up-segment that also appears on the
  // down-segment (and at its latest occurrence there), which skips the
  // largest detour through the core.
  for (size_t i = 0; i < up.hops.size(); ++i) {
    const AsId as = up.hops[i].as;
    for (size_t j = down.hops.size(); j-- > 0;) {
      if (down.hops[j].as != as) continue;
      Path path;
      path.hops.assign(up.hops.begin(), up.hops.begin() + i + 1);
      path.hops.back().egress = down.hops[j].egress;
      path.hops.insert(path.hops.end(), down.hops.begin() + j + 1,
                       down.hops.end());
      return path;
    }
  }
  return std::nullopt;
}

bool path_valid(const Path& path, const Topology& topo) {
  if (path.hops.empty()) return false;
  if (path.hops.front().ingress != kNoInterface) return false;
  if (path.hops.back().egress != kNoInterface) return false;
  for (size_t i = 0; i < path.hops.size(); ++i) {
    const Hop& h = path.hops[i];
    if (!topo.has_as(h.as)) return false;
    const auto& node = topo.node(h.as);
    if (i + 1 < path.hops.size()) {
      const Interface* eg = node.find_interface(h.egress);
      if (eg == nullptr) return false;
      if (eg->neighbor != path.hops[i + 1].as) return false;
      if (eg->neighbor_ifid != path.hops[i + 1].ingress) return false;
    }
  }
  return true;
}

}  // namespace colibri::topology
