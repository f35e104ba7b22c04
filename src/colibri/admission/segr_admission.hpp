// Per-AS segment-reservation admission (paper §4.7, Fig. 3).
//
// Wraps the TubeLedger with the bookkeeping of a real CServ: admissions
// record their contribution, renewals swap the old version's contribution
// for the new one, expiries release it. The grant decision itself is O(1)
// in the number of existing SegRs.
//
// Concurrency: SegR admission needs the complete per-egress view (the
// tube shares couple every reservation on an egress), so it runs as a
// single coordinator behind one mutex — the App. D decomposition keeps
// exactly one sub-service for SegReqs for the same reason. The O(1)
// decision keeps the critical section tiny; the striped concurrency
// lives in the EER path, which dominates request volume.
#pragma once

#include <mutex>
#include <unordered_map>

#include "colibri/admission/tube.hpp"
#include "colibri/common/errors.hpp"
#include "colibri/reservation/segr.hpp"

namespace colibri::admission {

struct SegrAdmissionRequest {
  AsId src_as;
  ResKey key;        // reservation being set up or renewed
  IfId ingress = kNoInterface;
  IfId egress = kNoInterface;
  BwKbps min_bw_kbps = 0;
  BwKbps demand_kbps = 0;
  UnixSec now = 0;  // drives the unsatisfied-demand memory
};

class SegrAdmission {
 public:
  // Capacities come from the local traffic matrix: Colibri share of each
  // interface (ingress capacity bounds demand; egress capacity is what the
  // ledger distributes).
  void set_interface_capacity(IfId ifid, BwKbps colibri_capacity_kbps);
  BwKbps interface_capacity(IfId ifid) const;

  // Decides how much bandwidth this AS grants the request and records the
  // allocation. Fails with kBandwidthUnavailable if the grant would fall
  // below min_bw; in that case the *demand* is remembered for one
  // SegR lifetime (kDemandMemorySec), so renewals of competing
  // reservations see the contention, shrink toward their proportional
  // shares, and a retry succeeds — the mechanism behind "a benign AS can
  // always obtain a finite minimum bandwidth" (§5.2) given the short
  // reservation lifetimes. A second admit() for the same key replaces the
  // previous allocation (renewal semantics).
  Result<BwKbps> admit(const SegrAdmissionRequest& req);

  // Releases the allocation of an expired / torn-down / rejected SegR.
  void release(const ResKey& key);

  // Read-side introspection; callers must be quiesced (tests/diagnostics).
  const TubeLedger& ledger() const { return ledger_; }
  size_t tracked() const {
    std::lock_guard lock(mu_);
    return allocations_.size();
  }
  size_t pending_demands() const {
    std::lock_guard lock(mu_);
    return pending_.size();
  }

  // How long an unsatisfied demand keeps shaping the shares.
  static constexpr std::uint32_t kDemandMemorySec = 300;

 private:
  struct Allocation {
    AsId src;
    IfId egress;
    TubeGrant grant;
  };
  struct SrcEgKey {
    std::uint64_t src_raw;
    IfId egress;
    friend bool operator==(const SrcEgKey&, const SrcEgKey&) = default;
  };
  struct SrcEgHash {
    size_t operator()(const SrcEgKey& k) const noexcept {
      return std::hash<std::uint64_t>{}(k.src_raw * 0x9E3779B97F4A7C15ULL ^
                                        k.egress);
    }
  };
  struct PendingDemand {
    TubeGrant demand;  // granted_kbps == 0
    UnixSec expires = 0;
  };

  // Callers hold mu_.
  void purge_pending(UnixSec now);
  BwKbps interface_capacity_locked(IfId ifid) const;

  mutable std::mutex mu_;
  TubeLedger ledger_;
  std::unordered_map<IfId, BwKbps> ingress_caps_;
  std::unordered_map<ResKey, Allocation> allocations_;
  // One remembered unsatisfied demand per (source, egress).
  std::unordered_map<SrcEgKey, PendingDemand, SrcEgHash> pending_;
};

}  // namespace colibri::admission
