#include "colibri/drkey/keyserver.hpp"

#include <algorithm>

namespace colibri::drkey {

Key128 SimulatedPki::enroll(AsId as) {
  auto it = signing_secrets_.find(as);
  if (it != signing_secrets_.end()) return it->second;
  // Derive a unique signing secret per AS; the directory is the trust root.
  Key128 secret;
  const std::uint64_t seed = as.raw() ^ (++counter_ << 32) ^ 0x5151A151;
  Bytes msg;
  put_le(msg, seed);
  put_le(msg, as.raw());
  const auto digest = crypto::Sha256::hash(msg);
  std::copy(digest.begin(), digest.begin() + 16, secret.bytes.begin());
  signing_secrets_.emplace(as, secret);
  return secret;
}

bool SimulatedPki::verify(AsId signer, BytesView msg,
                          const crypto::Sha256::Digest& sig) const {
  auto it = signing_secrets_.find(signer);
  if (it == signing_secrets_.end()) return false;
  return sign(it->second, msg) == sig;
}

crypto::Sha256::Digest SimulatedPki::sign(const Key128& signing_secret,
                                          BytesView msg) {
  return crypto::hmac_sha256(
      BytesView(signing_secret.bytes.data(), signing_secret.bytes.size()), msg);
}

Bytes KeyServer::response_message(AsId owner, AsId requester, const Key128& key,
                                  const Epoch& epoch) {
  Bytes msg;
  put_le(msg, owner.raw());
  put_le(msg, requester.raw());
  put_le(msg, epoch.begin);
  put_le(msg, epoch.end);
  append_bytes(msg, BytesView(key.bytes.data(), key.bytes.size()));
  return msg;
}

KeyResponse KeyServer::fetch(AsId requester, UnixSec at) const {
  KeyResponse r;
  r.key = engine_.as_key(requester, at);
  r.epoch = engine_.schedule().epoch_at(at);
  const Bytes msg =
      response_message(engine_.owner(), requester, r.key, r.epoch);
  r.signature = SimulatedPki::sign(signing_secret_, msg);
  return r;
}

bool KeyCache::insert(AsId remote, const KeyResponse& response) {
  const Bytes msg = KeyServer::response_message(remote, owner_, response.key,
                                                response.epoch);
  if (!pki_->verify(remote, msg, response.signature)) return false;
  Slot& slot = by_remote_[remote];
  Entry* e = nullptr;
  for (size_t i = 0; i < slot.n && e == nullptr; ++i) {
    if (slot.entries[i].epoch.begin == response.epoch.begin) {
      e = &slot.entries[i];
    }
  }
  if (e == nullptr) {
    // A new epoch takes a free entry, or else the one that ends first.
    e = slot.n < kEpochsPerRemote
            ? &slot.entries[slot.n++]
            : &*std::min_element(slot.entries.begin(), slot.entries.end(),
                                 [](const Entry& a, const Entry& b) {
                                   return a.epoch.end < b.epoch.end;
                                 });
  }
  e->epoch = response.epoch;
  e->key = response.key;
  e->eax.set_key(response.key.bytes.data());
  return true;
}

const KeyCache::Entry* KeyCache::find(AsId remote, UnixSec at) const {
  const auto it = by_remote_.find(remote);
  if (it == by_remote_.end()) return nullptr;
  const Slot& slot = it->second;
  for (size_t i = 0; i < slot.n; ++i) {
    if (slot.entries[i].epoch.contains(at)) return &slot.entries[i];
  }
  return nullptr;
}

std::optional<Key128> KeyCache::lookup(AsId remote, UnixSec at) const {
  const Entry* e = find(remote, at);
  if (e == nullptr) return std::nullopt;
  return e->key;
}

const crypto::Eax* KeyCache::context(AsId remote, UnixSec at) const {
  const Entry* e = find(remote, at);
  return e == nullptr ? nullptr : &e->eax;
}

size_t KeyCache::expire(UnixSec now) {
  size_t removed = 0;
  for (auto it = by_remote_.begin(); it != by_remote_.end();) {
    Slot& slot = it->second;
    size_t kept = 0;
    for (size_t i = 0; i < slot.n; ++i) {
      if (slot.entries[i].epoch.end <= now) continue;
      if (kept != i) slot.entries[kept] = slot.entries[i];
      ++kept;
    }
    removed += slot.n - kept;
    slot.n = kept;
    if (kept == 0) {
      it = by_remote_.erase(it);
    } else {
      ++it;
    }
  }
  return removed;
}

size_t KeyCache::size() const {
  size_t n = 0;
  for (const auto& [remote, slot] : by_remote_) n += slot.n;
  return n;
}

}  // namespace colibri::drkey
