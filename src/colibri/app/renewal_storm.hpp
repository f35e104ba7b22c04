// Renewal-storm scenario (paper §3.2 + §9 management scalability).
//
// SegRs set up together expire together: an AS that established its
// segment infrastructure in one batch sees hundreds of thousands of EER
// renewals come due in the same 16-second window. This harness builds
// that workload against a ReservationDb and drains it in one ResId-ordered
// pass straight into the admission ledger — the RenewalManager drain
// shape, amortizing all per-item envelope work across the storm. The
// per-item renewal through the bus is what BM_EerRenewal
// (bench_cserv_throughput) measures.
//
// bench_scale_controlplane sweeps the drain over the reservation count;
// the stress tests race it against a concurrent sweeper.
#pragma once

#include <cstdint>

#include "colibri/admission/eer_admission.hpp"
#include "colibri/reservation/db.hpp"

namespace colibri::app {

struct RenewalStormConfig {
  size_t num_eers = 100'000;
  size_t num_segrs = 64;
  BwKbps segr_bw_kbps = 40'000'000;
  BwKbps eer_bw_kbps = 100;
  // Every EER version minted by populate() expires at exactly this
  // instant — the correlated storm.
  UnixSec setup_time = 1'000;
  std::uint32_t renew_lifetime_sec = reservation::kEerLifetimeSec;
};

struct RenewalStormStats {
  std::uint64_t renewed = 0;
  std::uint64_t failed = 0;
};

class RenewalStorm {
 public:
  explicit RenewalStorm(RenewalStormConfig cfg = {});

  RenewalStorm(const RenewalStorm&) = delete;
  RenewalStorm& operator=(const RenewalStorm&) = delete;

  reservation::ReservationDb& db() { return db_; }
  admission::EerAdmission& admission() { return admission_; }
  const RenewalStormConfig& config() const { return cfg_; }
  UnixSec storm_expiry() const { return cfg_.setup_time + cfg_.renew_lifetime_sec; }

  // Builds the SegRs and admits every EER, all with the same expiry.
  void populate();

  // Renews every live EER once, in ResId order.
  RenewalStormStats drain_batched(UnixSec now);

 private:
  // Renews one EER directly against the admission ledger.
  bool renew_direct(const ResKey& eer_key, UnixSec now);

  RenewalStormConfig cfg_;
  AsId owner_;
  reservation::ReservationDb db_;
  admission::EerAdmission admission_;
};

}  // namespace colibri::app
