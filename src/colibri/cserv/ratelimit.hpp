// Control-plane rate limiting (paper §4.2, §5.3).
//
// Two limiters guard the CServ against DoC-style resource exhaustion:
// a per-source-AS request limiter ("the CServ can very efficiently filter
// unauthentic packets and employ per-AS rate limiting") and a
// per-reservation renewal limiter ("CServs can rate-limit the amount of
// renewal requests for an EER, e.g., to one per second").
#pragma once

#include <unordered_map>

#include "colibri/common/clock.hpp"
#include "colibri/common/ids.hpp"

namespace colibri::cserv {

// Sliding-refill counter per key: allows `rate_per_sec` events per
// second with a burst of `burst`.
template <typename Key>
class RequestLimiter {
 public:
  RequestLimiter(double rate_per_sec, double burst)
      : rate_(rate_per_sec), burst_(burst) {}

  bool allow(const Key& key, TimeNs now) {
    auto [it, inserted] = state_.try_emplace(key, State{burst_, now});
    State& s = it->second;
    if (!inserted && now > s.last) {
      s.tokens += rate_ * static_cast<double>(now - s.last) / kNsPerSec;
      if (s.tokens > burst_) s.tokens = burst_;
      s.last = now;
    }
    if (s.tokens < 1.0) return false;
    s.tokens -= 1.0;
    return true;
  }

  void forget(const Key& key) { state_.erase(key); }
  size_t tracked() const { return state_.size(); }

 private:
  struct State {
    double tokens;
    TimeNs last;
  };
  double rate_;
  double burst_;
  std::unordered_map<Key, State> state_;
};

struct RateLimitConfig {
  double per_as_requests_per_sec = 100.0;
  double per_as_burst = 200.0;
  double renewals_per_reservation_per_sec = 1.0;
  double renewal_burst = 2.0;
};

class ControlRateLimiter {
 public:
  explicit ControlRateLimiter(const RateLimitConfig& cfg = {})
      : cfg_(cfg),
        per_as_(cfg.per_as_requests_per_sec, cfg.per_as_burst),
        per_res_(cfg.renewals_per_reservation_per_sec, cfg.renewal_burst) {}

  bool allow_request(AsId src, TimeNs now) { return per_as_.allow(src, now); }

  // One bucket per reservation this AS stores: ask only for a stored
  // reservation, and forget its bucket when the reservation is swept.
  bool allow_renewal(const ResKey& key, TimeNs now) {
    return per_res_.allow(key, now);
  }
  void forget_reservation(const ResKey& key) { per_res_.forget(key); }
  size_t renewal_buckets() const { return per_res_.tracked(); }

  const RateLimitConfig& config() const { return cfg_; }

 private:
  RateLimitConfig cfg_;
  RequestLimiter<AsId> per_as_;
  RequestLimiter<ResKey> per_res_;
};

}  // namespace colibri::cserv
