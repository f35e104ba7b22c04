// AES-NI backend. Compiled with -maes -mssse3 in its own translation
// unit; the portable code dispatches here after a runtime CPUID check.
#include <cpuid.h>
#include <immintrin.h>
#include <wmmintrin.h>

#include <cstdint>

namespace colibri::crypto::aesni {

bool runtime_supported() {
  static const bool supported = [] {
    unsigned eax, ebx, ecx, edx;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
    // expand_key needs SSSE3's PSHUFB besides the AES instructions.
    return (ecx & bit_AES) != 0 && (ecx & bit_SSSE3) != 0;
  }();
  return supported;
}

// Schedule expansion with AESENCLAST instead of AESKEYGENASSIST, whose
// throughput bounds a chain of ten (Gueron, Intel AES-NI white paper).
// PSHUFB broadcasts RotWord(w3) to all four columns, so AESENCLAST's
// ShiftRows is a no-op and it applies SubWord and XORs in the broadcast
// Rcon; the prefix XOR of w0..w3 finishes the round key. Bit-identical
// to the portable expansion (asserted by the crypto tests).
void expand_key(const std::uint8_t key[16], std::uint8_t rk[176]) {
  const __m128i rot_w3 = _mm_set1_epi32(0x0c0f0e0d);
  auto* out = reinterpret_cast<__m128i*>(rk);
  __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key));
  _mm_storeu_si128(out, k);
  const auto round = [&](int r, int rcon) {
    const __m128i t = _mm_aesenclast_si128(_mm_shuffle_epi8(k, rot_w3),
                                           _mm_set1_epi32(rcon));
    k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
    k = _mm_xor_si128(k, _mm_slli_si128(k, 8));
    k = _mm_xor_si128(k, t);
    _mm_storeu_si128(out + r, k);
  };
  round(1, 0x01);
  round(2, 0x02);
  round(3, 0x04);
  round(4, 0x08);
  round(5, 0x10);
  round(6, 0x20);
  round(7, 0x40);
  round(8, 0x80);
  round(9, 0x1b);
  round(10, 0x36);
}

void encrypt_block(const std::uint8_t rk[176], const std::uint8_t in[16],
                   std::uint8_t out[16]) {
  const auto* k = reinterpret_cast<const __m128i*>(rk);
  __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
  b = _mm_xor_si128(b, _mm_loadu_si128(k));
  b = _mm_aesenc_si128(b, _mm_loadu_si128(k + 1));
  b = _mm_aesenc_si128(b, _mm_loadu_si128(k + 2));
  b = _mm_aesenc_si128(b, _mm_loadu_si128(k + 3));
  b = _mm_aesenc_si128(b, _mm_loadu_si128(k + 4));
  b = _mm_aesenc_si128(b, _mm_loadu_si128(k + 5));
  b = _mm_aesenc_si128(b, _mm_loadu_si128(k + 6));
  b = _mm_aesenc_si128(b, _mm_loadu_si128(k + 7));
  b = _mm_aesenc_si128(b, _mm_loadu_si128(k + 8));
  b = _mm_aesenc_si128(b, _mm_loadu_si128(k + 9));
  b = _mm_aesenclast_si128(b, _mm_loadu_si128(k + 10));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), b);
}

// Four blocks under one schedule, states interleaved so the aesenc
// pipeline (latency ~4 cycles, throughput 1-2/cycle) stays full.
static inline void encrypt_blocks4(const __m128i* k, const std::uint8_t* in,
                                   std::uint8_t* out) {
  const auto* pi = reinterpret_cast<const __m128i*>(in);
  __m128i b0 = _mm_loadu_si128(pi + 0);
  __m128i b1 = _mm_loadu_si128(pi + 1);
  __m128i b2 = _mm_loadu_si128(pi + 2);
  __m128i b3 = _mm_loadu_si128(pi + 3);
  const __m128i k0 = _mm_loadu_si128(k);
  b0 = _mm_xor_si128(b0, k0);
  b1 = _mm_xor_si128(b1, k0);
  b2 = _mm_xor_si128(b2, k0);
  b3 = _mm_xor_si128(b3, k0);
  for (int r = 1; r < 10; ++r) {
    const __m128i kr = _mm_loadu_si128(k + r);
    b0 = _mm_aesenc_si128(b0, kr);
    b1 = _mm_aesenc_si128(b1, kr);
    b2 = _mm_aesenc_si128(b2, kr);
    b3 = _mm_aesenc_si128(b3, kr);
  }
  const __m128i kl = _mm_loadu_si128(k + 10);
  b0 = _mm_aesenclast_si128(b0, kl);
  b1 = _mm_aesenclast_si128(b1, kl);
  b2 = _mm_aesenclast_si128(b2, kl);
  b3 = _mm_aesenclast_si128(b3, kl);
  auto* po = reinterpret_cast<__m128i*>(out);
  _mm_storeu_si128(po + 0, b0);
  _mm_storeu_si128(po + 1, b1);
  _mm_storeu_si128(po + 2, b2);
  _mm_storeu_si128(po + 3, b3);
}

void encrypt_blocks(const std::uint8_t rk[176], const std::uint8_t* in,
                    std::uint8_t* out, std::size_t n) {
  const auto* k = reinterpret_cast<const __m128i*>(rk);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) encrypt_blocks4(k, in + 16 * i, out + 16 * i);
  for (; i < n; ++i) encrypt_block(rk, in + 16 * i, out + 16 * i);
}

void encrypt_each(const std::uint8_t* const* rks, const std::uint8_t* in,
                  std::uint8_t* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const auto* pi = reinterpret_cast<const __m128i*>(in + 16 * i);
    const auto* k0 = reinterpret_cast<const __m128i*>(rks[i + 0]);
    const auto* k1 = reinterpret_cast<const __m128i*>(rks[i + 1]);
    const auto* k2 = reinterpret_cast<const __m128i*>(rks[i + 2]);
    const auto* k3 = reinterpret_cast<const __m128i*>(rks[i + 3]);
    __m128i b0 = _mm_xor_si128(_mm_loadu_si128(pi + 0), _mm_loadu_si128(k0));
    __m128i b1 = _mm_xor_si128(_mm_loadu_si128(pi + 1), _mm_loadu_si128(k1));
    __m128i b2 = _mm_xor_si128(_mm_loadu_si128(pi + 2), _mm_loadu_si128(k2));
    __m128i b3 = _mm_xor_si128(_mm_loadu_si128(pi + 3), _mm_loadu_si128(k3));
    for (int r = 1; r < 10; ++r) {
      b0 = _mm_aesenc_si128(b0, _mm_loadu_si128(k0 + r));
      b1 = _mm_aesenc_si128(b1, _mm_loadu_si128(k1 + r));
      b2 = _mm_aesenc_si128(b2, _mm_loadu_si128(k2 + r));
      b3 = _mm_aesenc_si128(b3, _mm_loadu_si128(k3 + r));
    }
    b0 = _mm_aesenclast_si128(b0, _mm_loadu_si128(k0 + 10));
    b1 = _mm_aesenclast_si128(b1, _mm_loadu_si128(k1 + 10));
    b2 = _mm_aesenclast_si128(b2, _mm_loadu_si128(k2 + 10));
    b3 = _mm_aesenclast_si128(b3, _mm_loadu_si128(k3 + 10));
    auto* po = reinterpret_cast<__m128i*>(out + 16 * i);
    _mm_storeu_si128(po + 0, b0);
    _mm_storeu_si128(po + 1, b1);
    _mm_storeu_si128(po + 2, b2);
    _mm_storeu_si128(po + 3, b3);
  }
  for (; i < n; ++i) encrypt_block(rks[i], in + 16 * i, out + 16 * i);
}

}  // namespace colibri::crypto::aesni
