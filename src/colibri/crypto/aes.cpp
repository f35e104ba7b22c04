#include "colibri/crypto/aes.hpp"

#include <atomic>
#include <cstring>

namespace colibri::crypto {
namespace {

// FIPS-197 S-box.
constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

std::atomic<bool> g_force_portable{false};

}  // namespace

void portable::expand_key(const std::uint8_t key[16], std::uint8_t rk[176]) {
  std::memcpy(rk, key, 16);
  for (int r = 1; r <= Aes128::kRounds; ++r) {
    const std::uint8_t* prev = rk + 16 * (r - 1);
    std::uint8_t* cur = rk + 16 * r;
    // First word: RotWord + SubWord + Rcon.
    cur[0] = static_cast<std::uint8_t>(prev[0] ^ kSbox[prev[13]] ^ kRcon[r - 1]);
    cur[1] = static_cast<std::uint8_t>(prev[1] ^ kSbox[prev[14]]);
    cur[2] = static_cast<std::uint8_t>(prev[2] ^ kSbox[prev[15]]);
    cur[3] = static_cast<std::uint8_t>(prev[3] ^ kSbox[prev[12]]);
    for (int i = 4; i < 16; ++i) {
      cur[i] = static_cast<std::uint8_t>(prev[i] ^ cur[i - 4]);
    }
  }
}

void AesSchedule::expand(const std::uint8_t key[16]) {
#if defined(COLIBRI_HAVE_AESNI)
  if (Aes128::has_aesni()) {
    aesni::expand_key(key, rk);
    return;
  }
#endif
  portable::expand_key(key, rk);
}

void Aes128::set_key(const std::uint8_t key[kKeySize]) {
  sched_.expand(key);
  aesni_ = has_aesni();
}

bool Aes128::has_aesni() {
#if defined(COLIBRI_HAVE_AESNI)
  return !g_force_portable.load(std::memory_order_relaxed) &&
         aesni::runtime_supported();
#else
  return false;
#endif
}

void Aes128::set_force_portable(bool force) {
  g_force_portable.store(force, std::memory_order_relaxed);
}

void Aes128::encrypt_block(const std::uint8_t in[kBlockSize],
                           std::uint8_t out[kBlockSize]) const {
#if defined(COLIBRI_HAVE_AESNI)
  if (aesni_) {
    aesni::encrypt_block(sched_.rk, in, out);
    return;
  }
#endif
  portable::encrypt_block(sched_.rk, in, out);
}

void Aes128::encrypt_blocks(const std::uint8_t* in, std::uint8_t* out,
                            std::size_t n_blocks) const {
#if defined(COLIBRI_HAVE_AESNI)
  if (aesni_) {
    aesni::encrypt_blocks(sched_.rk, in, out, n_blocks);
    return;
  }
#endif
  for (std::size_t i = 0; i < n_blocks; ++i) {
    portable::encrypt_block(sched_.rk, in + 16 * i, out + 16 * i);
  }
}

void portable::encrypt_block(const std::uint8_t rk[176],
                             const std::uint8_t in[16], std::uint8_t out[16]) {
  std::uint8_t s[16];
  for (int i = 0; i < 16; ++i) s[i] = static_cast<std::uint8_t>(in[i] ^ rk[i]);

  for (int round = 1; round <= Aes128::kRounds; ++round) {
    // SubBytes.
    for (auto& b : s) b = kSbox[b];
    // ShiftRows. State is column-major: s[4*c + r].
    std::uint8_t t[16];
    for (int c = 0; c < 4; ++c) {
      for (int r = 0; r < 4; ++r) {
        t[4 * c + r] = s[4 * ((c + r) % 4) + r];
      }
    }
    if (round < Aes128::kRounds) {
      // MixColumns.
      for (int c = 0; c < 4; ++c) {
        const std::uint8_t a0 = t[4 * c], a1 = t[4 * c + 1], a2 = t[4 * c + 2],
                           a3 = t[4 * c + 3];
        s[4 * c] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
        s[4 * c + 1] =
            static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
        s[4 * c + 2] =
            static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
        s[4 * c + 3] =
            static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
      }
    } else {
      std::memcpy(s, t, 16);
    }
    // AddRoundKey.
    const std::uint8_t* rkr = rk + 16 * round;
    for (int i = 0; i < 16; ++i) s[i] = static_cast<std::uint8_t>(s[i] ^ rkr[i]);
  }
  std::memcpy(out, s, 16);
}

}  // namespace colibri::crypto
