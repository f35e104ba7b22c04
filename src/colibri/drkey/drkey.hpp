// DRKey: dynamically-recreatable symmetric keys (paper §2.3, Eq. 1).
//
// Every AS A holds a per-epoch secret value K_A. The AS-level key shared
// with AS B is derived on the fly:
//
//     K_{A→B} = PRF_{K_A}(B)
//
// A can recompute this faster than a memory lookup (one AES-CMAC); B must
// fetch it once per epoch from A's key server over a PKI-protected channel
// (see keyserver.hpp). Host-level keys K_{A→B:H} hang off the AS-level key
// so per-host state is never needed either.
//
// What makes A's side one AES-CMAC here: the Engine keeps a CMAC context
// keyed with the current epoch's secret value K_A, so deriving K_{A→B} is
// one single-block CMAC with no key expansion. That is one context per AS
// per epoch, not per peer, so the fast side still holds no per-source
// state (§5.3). B's side keeps one EAX context per fetched key in its
// KeyCache, built once when the key arrives.
#pragma once

#include <array>
#include <compare>
#include <cstdint>

#include "colibri/common/clock.hpp"
#include "colibri/common/ids.hpp"
#include "colibri/crypto/cmac.hpp"

namespace colibri::drkey {

struct Key128 {
  std::array<std::uint8_t, 16> bytes{};

  friend constexpr auto operator<=>(const Key128&, const Key128&) = default;
};

// Validity window of a secret value / derived key. The paper uses
// roughly one day; the value is configurable for tests.
struct Epoch {
  UnixSec begin = 0;
  UnixSec end = 0;

  bool contains(UnixSec t) const { return begin <= t && t < end; }
  friend constexpr auto operator<=>(const Epoch&, const Epoch&) = default;
};

inline constexpr std::uint32_t kDefaultEpochSeconds = 24 * 3600;

// Derives K_{A→B} from A's secret value.
Key128 derive_as_key(const Key128& secret_value, AsId dst);

// Derives the host-level key K_{A→B:H} from the AS-level key. The paper
// footnote 2 mentions protocol- and host-specific keys; we implement the
// host level, keyed by the end-host address.
Key128 derive_host_key(const Key128& as_key, const HostAddr& host);

// Per-AS secret-value schedule: deterministic per-epoch secret values
// derived from a long-term master secret, so any epoch's value can be
// recreated without storing history.
class SecretValueSchedule {
 public:
  SecretValueSchedule(const Key128& master, AsId owner,
                      std::uint32_t epoch_seconds = kDefaultEpochSeconds);

  Epoch epoch_at(UnixSec t) const;
  Key128 secret_value(UnixSec t) const;

  AsId owner() const { return owner_; }
  std::uint32_t epoch_seconds() const { return epoch_seconds_; }

 private:
  Key128 master_;
  AsId owner_;
  std::uint32_t epoch_seconds_;
};

// Fast-side derivation engine for AS A: recreates K_{A→B} (and host keys)
// on the fly for any destination AS and point in time. This is what the
// CServ and border routers use to authenticate incoming control traffic
// without any per-source state (paper §5.3).
class Engine {
 public:
  Engine(const Key128& master, AsId owner,
         std::uint32_t epoch_seconds = kDefaultEpochSeconds)
      : schedule_(master, owner, epoch_seconds) {}

  // Keys the cached secret-value context to the epoch containing `now`;
  // a no-op while `now` stays in the cached epoch. Until the first call
  // nothing is cached.
  void refresh(UnixSec now);

  // K_{owner→dst} at time `at`: one single-block CMAC when `at` falls in
  // the cached epoch, otherwise derived from the secret value from
  // scratch. Both give derive_as_key(schedule().secret_value(at), dst).
  Key128 as_key(AsId dst, UnixSec at) const;
  Key128 host_key(AsId dst, const HostAddr& host, UnixSec at) const {
    return derive_host_key(as_key(dst, at), host);
  }

  AsId owner() const { return schedule_.owner(); }
  const SecretValueSchedule& schedule() const { return schedule_; }

 private:
  SecretValueSchedule schedule_;
  Epoch cached_epoch_;         // empty until the first refresh
  crypto::Cmac cached_secret_;  // keyed with cached_epoch_'s secret value
};

}  // namespace colibri::drkey
