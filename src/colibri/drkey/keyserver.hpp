// DRKey key server and slow-side key cache.
//
// The slow side of the DRKey asymmetry: AS B cannot derive K_{A→B} itself
// and fetches it from A's key server once per epoch, protected by
// public-key cryptography (paper §2.3). SUBSTITUTION (see DESIGN.md §2):
// instead of a full X.509/CP-PKI, we model the authenticity of the fetch
// with a SimulatedPki that signs responses with HMAC-SHA256 under per-AS
// signing secrets held by a trust-root directory. The fetch is off the
// critical path (once per ~day per AS pair); everything performance- or
// security-relevant downstream uses the real symmetric keys.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "colibri/common/bytes.hpp"
#include "colibri/crypto/eax.hpp"
#include "colibri/crypto/sha256.hpp"
#include "colibri/drkey/drkey.hpp"

namespace colibri::drkey {

// Trust-root directory standing in for the PKI: issues per-AS signing
// secrets and verifies response signatures. One instance is shared by all
// ASes in a simulation (analogous to globally distributed trust roots).
class SimulatedPki {
 public:
  // Idempotently registers an AS and returns its signing secret.
  Key128 enroll(AsId as);

  bool verify(AsId signer, BytesView msg, const crypto::Sha256::Digest& sig) const;
  static crypto::Sha256::Digest sign(const Key128& signing_secret, BytesView msg);

 private:
  std::unordered_map<AsId, Key128> signing_secrets_;
  std::uint64_t counter_ = 0;
};

struct KeyResponse {
  Key128 key;
  Epoch epoch;
  crypto::Sha256::Digest signature;
};

// Key server of one AS. Owns (a reference to) the AS's derivation engine
// and answers fetch requests for K_{owner→requester}.
class KeyServer {
 public:
  KeyServer(const Engine& engine, const Key128& signing_secret)
      : engine_(engine), signing_secret_(signing_secret) {}

  KeyResponse fetch(AsId requester, UnixSec at) const;

  static Bytes response_message(AsId owner, AsId requester, const Key128& key,
                                const Epoch& epoch);

 private:
  const Engine& engine_;
  Key128 signing_secret_;
};

// Slow-side cache at AS B holding fetched keys K_{A→B}, keyed by A, with
// at most two epochs per A: the current one and a prefetched next one.
// Verifies signatures on insert; callers prefetch ahead of time (the
// paper: "they can be fetched ahead of time and only need to be
// infrequently renewed"). Each entry carries an EAX context keyed with its
// key, built once at insert, so B MACs and unseals under K_{A→B} without
// re-expanding it. Lookup cost does not grow with the number of ASes.
class KeyCache {
 public:
  static constexpr size_t kEpochsPerRemote = 2;

  KeyCache(AsId owner, const SimulatedPki& pki) : owner_(owner), pki_(&pki) {}

  // Fetch-and-cache from a remote key server. Returns false if the
  // signature fails to verify (the key is then not cached). A third epoch
  // for the same remote replaces the one that ends first.
  bool insert(AsId remote, const KeyResponse& response);

  std::optional<Key128> lookup(AsId remote, UnixSec at) const;
  // The EAX context of the key lookup() would return, or nullptr. Valid
  // until the next insert() for `remote` or expire().
  const crypto::Eax* context(AsId remote, UnixSec at) const;

  // Drops entries whose epoch ended before `now`.
  size_t expire(UnixSec now);

  size_t size() const;
  AsId owner() const { return owner_; }

 private:
  struct Entry {
    Epoch epoch;
    Key128 key;
    crypto::Eax eax;
  };
  struct Slot {
    std::array<Entry, kEpochsPerRemote> entries;
    size_t n = 0;
  };

  const Entry* find(AsId remote, UnixSec at) const;

  AsId owner_;
  const SimulatedPki* pki_;
  std::unordered_map<AsId, Slot> by_remote_;
};

}  // namespace colibri::drkey
