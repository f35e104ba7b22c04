// Probabilistic overuse-flow detector (paper §4.8; LOFT [44] style).
//
// Transit and transfer ASes see too many EERs for per-flow state; the OFD
// tracks *normalized* bandwidth usage in a small count-min sketch and
// promotes flows whose estimate exceeds their fair allowance to a
// deterministic watchlist, where a per-flow token bucket decides overuse
// with certainty (the sketch alone may false-positive; the watchlist may
// not). Confirmed overusers are handed to the Blocklist.
//
// Normalization: each packet contributes size_bits / reservation_rate
// (seconds' worth of the reservation), so one sketch monitors flows of
// any bandwidth class, and multiple versions of an EER naturally share
// the allowance of the largest (§4.8).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "colibri/common/clock.hpp"
#include "colibri/common/ids.hpp"
#include "colibri/dataplane/tokenbucket.hpp"
#include "colibri/telemetry/events.hpp"
#include "colibri/telemetry/metrics.hpp"

namespace colibri::dataplane {

struct OfdConfig {
  size_t width = 4096;  // counters per row (rounded up to pow2)
  int depth = 4;        // rows
  TimeNs epoch_ns = kNsPerSec;
  // A flow at exactly its reserved rate accumulates epoch seconds of
  // normalized usage per epoch; flag above this multiple.
  double overuse_factor = 1.10;
  // Watchlist token bucket: seconds of reservation-rate burst allowance.
  double watch_burst_sec = 0.20;
};

// Point-in-time view of the detector's counters (see snapshot()).
struct OfdStats {
  std::uint64_t flagged = 0;
  std::uint64_t confirmed = 0;
  std::uint64_t watchlist = 0;
};

class OverUseFlowDetector : public telemetry::MetricsSource {
 public:
  // Registers with `registry` (nullptr = none); counters export under
  // "ofd.*", aggregated across instances.
  explicit OverUseFlowDetector(const OfdConfig& cfg = {},
                               telemetry::MetricsRegistry* registry =
                                   &telemetry::MetricsRegistry::global());
  ~OverUseFlowDetector() override = default;

  OverUseFlowDetector(const OverUseFlowDetector&) = delete;
  OverUseFlowDetector& operator=(const OverUseFlowDetector&) = delete;

  enum class Verdict : std::uint8_t {
    kOk,          // nothing suspicious
    kSuspicious,  // sketch flagged; flow now deterministically watched
    kWatched,     // on watchlist, within its bucket
    kOveruse,     // on watchlist and exceeding: confirmed with certainty
  };

  // Account one packet of `pkt_bytes` on flow (src, res) with reserved
  // rate `bw_kbps`.
  Verdict update(AsId src, ResId res, std::uint32_t pkt_bytes, BwKbps bw_kbps,
                 TimeNs now);

  // Audit-trail hook (nullable): escalations (sketch flag, first
  // confirmed overuse of a flow) are logged as events; the per-packet
  // kOk/kWatched outcomes never touch the log.
  void set_event_log(telemetry::EventLog* log) { events_ = log; }

  size_t watchlist_size() const { return watchlist_.size(); }
  std::uint64_t confirmed_total() const { return confirmed_.value(); }

  // Uniform stats accessors: consistent point-in-time view + reset.
  OfdStats snapshot() const {
    return {flagged_.value(), confirmed_.value(), watchlist_.size()};
  }
  void reset() {
    flagged_.reset();
    confirmed_.reset();
  }

  void collect_metrics(telemetry::MetricSink& sink) const override {
    sink.counter("ofd.flagged", flagged_.value());
    sink.counter("ofd.confirmed", confirmed_.value());
    sink.gauge("ofd.watchlist", static_cast<std::int64_t>(watchlist_.size()));
  }

  // Estimated normalized usage of a flow in the current epoch (tests).
  double estimate(AsId src, ResId res) const;

 private:
  void maybe_rotate(TimeNs now);
  std::uint64_t flow_hash(AsId src, ResId res) const;

  OfdConfig cfg_;
  size_t width_mask_;
  // depth rows of width counters, normalized seconds.
  std::vector<double> cells_;
  TimeNs epoch_start_ = 0;

  struct Watch {
    TokenBucket bucket;
    std::uint64_t violations = 0;
  };
  std::unordered_map<ResKey, Watch> watchlist_;

  telemetry::Counter flagged_;
  telemetry::Counter confirmed_;
  telemetry::EventLog* events_ = nullptr;
  telemetry::ScopedSource registration_;
};

}  // namespace colibri::dataplane
