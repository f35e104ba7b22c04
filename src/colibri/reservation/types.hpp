// Reservation records stored by an AS (paper §3.3, §4.2).
//
// SegRs: intermediate-term AS-to-AS reservations (~5 min validity), one
// active version at a time, renewals produce a *pending* version that must
// be activated explicitly. EERs: short-term host-to-host reservations
// (16 s), where multiple versions may be live simultaneously for seamless
// renewal; the traffic monitor maps all versions to one flow and allows
// the *maximum* bandwidth over live versions (§4.8).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "colibri/common/clock.hpp"
#include "colibri/common/ids.hpp"
#include "colibri/topology/segment.hpp"

namespace colibri::reservation {

// Default validity periods from the paper (§3.3).
inline constexpr std::uint32_t kSegrLifetimeSec = 300;  // ~5 minutes
inline constexpr std::uint32_t kEerLifetimeSec = 16;

struct SegrVersion {
  ResVer version = 0;
  BwKbps bw_kbps = 0;
  UnixSec exp_time = 0;
};

// One AS's view of a segment reservation it participates in.
struct SegrRecord {
  ResKey key;
  topology::SegType seg_type = topology::SegType::kUp;
  // Full segment with AS ids; `local_hop` indexes this AS's hop.
  std::vector<topology::Hop> hops;
  std::uint8_t local_hop = 0;

  SegrVersion active;
  // At most one pending version, awaiting explicit activation (§4.2).
  std::optional<SegrVersion> pending;

  // Sum over EERs of their (max-version) bandwidth currently admitted on
  // this SegR at this AS. Invariant: eer_allocated_kbps <= active.bw_kbps.
  BwKbps eer_allocated_kbps = 0;

  IfId ingress() const { return hops[local_hop].ingress; }
  IfId egress() const { return hops[local_hop].egress; }
  bool expired(UnixSec now) const { return active.exp_time <= now; }
  BwKbps eer_available_kbps() const {
    return active.bw_kbps > eer_allocated_kbps
               ? active.bw_kbps - eer_allocated_kbps
               : 0;
  }
};

struct EerVersion {
  ResVer version = 0;
  BwKbps bw_kbps = 0;
  UnixSec exp_time = 0;
};

// One AS's view of an end-to-end reservation crossing it.
struct EerRecord {
  ResKey key;
  HostAddr src_host;
  HostAddr dst_host;
  std::vector<topology::Hop> path;
  std::uint8_t local_hop = 0;
  std::vector<ResKey> segrs;  // underlying SegRs, traversal order

  std::vector<EerVersion> versions;  // live versions, oldest first

  // Admission/monitoring bandwidth: max over non-expired versions (§4.8).
  BwKbps effective_bw(UnixSec now) const {
    BwKbps bw = 0;
    for (const auto& v : versions) {
      if (v.exp_time > now) bw = std::max(bw, v.bw_kbps);
    }
    return bw;
  }
  UnixSec latest_expiry() const {
    UnixSec e = 0;
    for (const auto& v : versions) e = std::max(e, v.exp_time);
    return e;
  }
  bool expired(UnixSec now) const { return latest_expiry() <= now; }
  // Drops expired versions; returns true if any were removed.
  bool prune(UnixSec now);
};

// The second a store removes a record at (store.hpp): an EER's latest
// version's expiry; a SegR's active expiry, or its pending version's if
// that is later (a live pending version keeps an expired SegR until it is
// activated, §4.2).
inline UnixSec deadline(const EerRecord& r) { return r.latest_expiry(); }
inline UnixSec deadline(const SegrRecord& r) {
  return r.pending ? std::max(r.active.exp_time, r.pending->exp_time)
                   : r.active.exp_time;
}
// Starts loading what deadline() reads beyond the record itself.
inline void prefetch_deadline(const EerRecord& r) {
  __builtin_prefetch(r.versions.data());
}
inline void prefetch_deadline(const SegrRecord&) {}

}  // namespace colibri::reservation
