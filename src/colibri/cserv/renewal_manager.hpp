// Automatic SegR renewal (paper §3.2).
//
// "The CServ requests and renews SegRs according to expected traffic
// requirements." This manager owns that loop for the SegRs an AS
// initiated: on every tick it renews reservations approaching expiry —
// sized by a per-SegR demand forecaster fed from observed EER
// utilization — and activates the new version, so the AS's segment
// infrastructure stays alive indefinitely without operator involvement
// (the management-scalability story of §9).
//
// Correlated-expiry storms (many SegRs set up together all coming due in
// the same tick) are drained in one pass: one planning scan lists the
// due keys and sorts them by ResId, so the drain runs in a deterministic
// order instead of the hash order of the forecaster map.
#pragma once

#include <unordered_map>
#include <vector>

#include "colibri/cserv/cserv.hpp"
#include "colibri/cserv/forecast.hpp"

namespace colibri::cserv {

struct RenewalManagerConfig {
  // Renew when within this many seconds of the active version's expiry.
  std::uint32_t lead_sec = 60;
  BwKbps min_bw_kbps = 1'000;
  ForecastConfig forecast;
  // Re-publish renewed SegRs with their previous whitelist.
  bool republish = true;
};

// Point-in-time view of the manager's counters (see snapshot()).
struct RenewalStats {
  std::uint64_t renewed = 0;
  std::uint64_t activated = 0;
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;  // ticks that found due work
};

class RenewalManager : public telemetry::MetricsSource {
 public:
  // Exports "cserv.renewal.*" to the owning CServ's metrics registry.
  RenewalManager(CServ& cserv, const RenewalManagerConfig& cfg = {})
      : cserv_(&cserv),
        cfg_(cfg),
        registration_(cserv.metrics_registry(), this) {}
  ~RenewalManager() override = default;

  RenewalManager(const RenewalManager&) = delete;
  RenewalManager& operator=(const RenewalManager&) = delete;

  // Starts managing a SegR this AS initiated.
  void manage(const ResKey& key) { forecasters_.try_emplace(key, cfg_.forecast); }
  size_t managed() const { return forecasters_.size(); }

  // Convenience: manage every SegR currently initiated by this AS.
  size_t manage_all_local();

  // Planning scan: feeds the forecasters from current utilization, drops
  // reservations that vanished, and lists the keys due at `now` in
  // ResId order.
  std::vector<ResKey> plan(UnixSec now);

  // One maintenance pass: plan(), then drain the list — renew + activate
  // whatever is due. Call alongside CServ::tick().
  void tick(UnixSec now);

  // Uniform stats accessors: consistent point-in-time view + reset.
  RenewalStats snapshot() const {
    return {metrics_.renewed.value(), metrics_.activated.value(),
            metrics_.failed.value(), metrics_.batches.value()};
  }
  void reset() {
    metrics_.renewed.reset();
    metrics_.activated.reset();
    metrics_.failed.reset();
    metrics_.batches.reset();
    last_due_ = 0;
  }

  void collect_metrics(telemetry::MetricSink& sink) const override {
    sink.counter("cserv.renewal.renewed", metrics_.renewed.value());
    sink.counter("cserv.renewal.activated", metrics_.activated.value());
    sink.counter("cserv.renewal.failed", metrics_.failed.value());
    sink.counter("cserv.renewal.batches", metrics_.batches.value());
    sink.gauge("cserv.renewal.managed",
               static_cast<std::int64_t>(forecasters_.size()));
    sink.gauge("cserv.renewal.last_batch_max",
               static_cast<std::int64_t>(last_due_));
  }

 private:
  // Renews (or activates a live pending version of) one due SegR.
  void renew_one(const ResKey& key, UnixSec now);

  CServ* cserv_;
  RenewalManagerConfig cfg_;
  std::unordered_map<ResKey, DemandForecaster> forecasters_;
  struct Metrics {
    telemetry::Counter renewed;
    telemetry::Counter activated;
    telemetry::Counter failed;
    telemetry::Counter batches;
  };
  Metrics metrics_;
  size_t last_due_ = 0;  // keys the latest tick drained (last_batch_max)
  telemetry::ScopedSource registration_;
};

}  // namespace colibri::cserv
