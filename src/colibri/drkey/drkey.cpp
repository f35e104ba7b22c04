#include "colibri/drkey/drkey.hpp"

#include <cstring>

namespace colibri::drkey {
namespace {

Key128 prf(const crypto::Cmac& cmac, const std::uint8_t* msg, size_t len) {
  Key128 out;
  cmac.compute(msg, len, out.bytes.data());
  return out;
}

Key128 prf(const Key128& key, const std::uint8_t* msg, size_t len) {
  return prf(crypto::Cmac(key.bytes.data()), msg, len);
}

// PRF input of K_{A→dst}: one block.
void as_key_input(AsId dst, std::uint8_t msg[16]) {
  std::memset(msg, 0, 16);
  msg[0] = 0x01;  // derivation level: AS
  const std::uint64_t raw = dst.raw();
  for (int i = 0; i < 8; ++i) {
    msg[1 + i] = static_cast<std::uint8_t>(raw >> (8 * i));
  }
}

}  // namespace

Key128 derive_as_key(const Key128& secret_value, AsId dst) {
  std::uint8_t msg[16];
  as_key_input(dst, msg);
  return prf(secret_value, msg, sizeof(msg));
}

Key128 derive_host_key(const Key128& as_key, const HostAddr& host) {
  std::uint8_t msg[17];
  msg[0] = 0x02;  // derivation level: host
  std::memcpy(msg + 1, host.bytes, 16);
  return prf(as_key, msg, sizeof(msg));
}

SecretValueSchedule::SecretValueSchedule(const Key128& master, AsId owner,
                                         std::uint32_t epoch_seconds)
    : master_(master), owner_(owner), epoch_seconds_(epoch_seconds) {}

Epoch SecretValueSchedule::epoch_at(UnixSec t) const {
  const UnixSec begin = t - (t % epoch_seconds_);
  return Epoch{begin, begin + epoch_seconds_};
}

Key128 SecretValueSchedule::secret_value(UnixSec t) const {
  const Epoch e = epoch_at(t);
  std::uint8_t msg[16] = {};
  msg[0] = 0x00;  // derivation level: secret value
  for (int i = 0; i < 4; ++i) {
    msg[1 + i] = static_cast<std::uint8_t>(e.begin >> (8 * i));
  }
  const std::uint64_t raw = owner_.raw();
  for (int i = 0; i < 8; ++i) {
    msg[5 + i] = static_cast<std::uint8_t>(raw >> (8 * i));
  }
  return prf(master_, msg, sizeof(msg));
}

void Engine::refresh(UnixSec now) {
  if (cached_epoch_.contains(now)) return;
  cached_secret_.set_key(schedule_.secret_value(now).bytes.data());
  cached_epoch_ = schedule_.epoch_at(now);
}

Key128 Engine::as_key(AsId dst, UnixSec at) const {
  if (!cached_epoch_.contains(at)) {
    return derive_as_key(schedule_.secret_value(at), dst);
  }
  std::uint8_t msg[16];
  as_key_input(dst, msg);
  return prf(cached_secret_, msg, sizeof(msg));
}

}  // namespace colibri::drkey
