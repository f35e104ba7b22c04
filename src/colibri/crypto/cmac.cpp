#include "colibri/crypto/cmac.hpp"

#include <cstring>

namespace colibri::crypto {
namespace {

// Doubling in GF(2^128) with the CMAC polynomial (RFC 4493 §2.3).
void gf_double(const std::uint8_t in[16], std::uint8_t out[16]) {
  const std::uint8_t carry = static_cast<std::uint8_t>(in[0] >> 7);
  for (int i = 0; i < 15; ++i) {
    out[i] = static_cast<std::uint8_t>((in[i] << 1) | (in[i + 1] >> 7));
  }
  out[15] = static_cast<std::uint8_t>((in[15] << 1) ^ (carry * 0x87));
}

}  // namespace

void Cmac::set_key(const std::uint8_t key[Aes128::kKeySize]) {
  aes_.set_key(key);
  std::uint8_t l[16] = {};
  aes_.encrypt_block(l, l);
  gf_double(l, k1_);
  gf_double(k1_, k2_);
}

void Cmac::compute(const std::uint8_t* msg, size_t len,
                   std::uint8_t tag[kTagSize]) const {
  static constexpr std::uint8_t kNoPrefix[kTagSize] = {};
  compute_after(kNoPrefix, msg, len, tag);
}

void Cmac::compute_after(const std::uint8_t state[kTagSize],
                         const std::uint8_t* msg, size_t len,
                         std::uint8_t tag[kTagSize]) const {
  std::uint8_t x[16];
  std::memcpy(x, state, 16);
  const size_t full_blocks = (len == 0) ? 0 : (len - 1) / 16;

  for (size_t b = 0; b < full_blocks; ++b) {
    for (int i = 0; i < 16; ++i) x[i] ^= msg[16 * b + i];
    aes_.encrypt_block(x, x);
  }

  // Last (possibly partial) block.
  std::uint8_t last[16];
  const size_t tail = len - 16 * full_blocks;
  if (len > 0 && tail == 16) {
    for (int i = 0; i < 16; ++i) {
      last[i] = static_cast<std::uint8_t>(msg[16 * full_blocks + i] ^ k1_[i]);
    }
  } else {
    std::memset(last, 0, 16);
    // msg may be null when len is 0.
    if (tail > 0) std::memcpy(last, msg + 16 * full_blocks, tail);
    last[tail] = 0x80;
    for (int i = 0; i < 16; ++i) last[i] ^= k2_[i];
  }
  for (int i = 0; i < 16; ++i) x[i] ^= last[i];
  aes_.encrypt_block(x, tag);
}

bool Cmac::verify_prefix(const std::uint8_t* expected,
                         const std::uint8_t* actual, size_t n) {
  std::uint8_t diff = 0;
  for (size_t i = 0; i < n; ++i) diff |= expected[i] ^ actual[i];
  return diff == 0;
}

}  // namespace colibri::crypto
