// Token-bucket rate limiter (paper §4.8).
//
// The deterministic monitor at the source AS keeps exactly "a time stamp
// and a counter in memory for each flow": tokens refill at the reserved
// rate, short bursts up to the burst allowance pass, sustained overuse is
// dropped.
#pragma once

#include <cstdint>

#include "colibri/common/clock.hpp"
#include "colibri/common/ids.hpp"

namespace colibri::dataplane {

class TokenBucket {
 public:
  TokenBucket() = default;
  // rate in kbps; burst in bytes (how far above the sustained rate a
  // short spike may go).
  TokenBucket(BwKbps rate_kbps, std::uint64_t burst_bytes, TimeNs now)
      : rate_kbps_(rate_kbps),
        burst_bytes_(burst_bytes),
        tokens_mb_(burst_bytes * kScale),
        last_ns_(now) {}

  // True if a packet of `bytes` conforms; consumes tokens if it does.
  bool allow(std::uint64_t bytes, TimeNs now);

  BwKbps rate_kbps() const { return rate_kbps_; }
  std::uint64_t burst_bytes() const { return burst_bytes_; }
  // Currently available tokens in bytes.
  std::uint64_t available_bytes() const { return tokens_mb_ / kScale; }

 private:
  // Tokens are kept in milli-bytes (kScale) so integer arithmetic stays
  // exact at any rate: rate_kbps * ns yields 10^-3 bytes per 8*10^6.
  static constexpr std::uint64_t kScale = 1000;

  BwKbps rate_kbps_ = 0;
  std::uint64_t burst_bytes_ = 0;
  std::uint64_t tokens_mb_ = 0;
  TimeNs last_ns_ = 0;
};

}  // namespace colibri::dataplane
