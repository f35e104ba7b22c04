// AES-128 block cipher.
//
// Two backends: a portable table-free byte-oriented implementation and an
// AES-NI path (compiled in a separate -maes translation unit, selected at
// runtime via CPUID). The data plane computes 1-2 AES-CMACs per packet
// (paper §4.5-4.6), so single-block encryption latency dominates the
// forwarding benchmarks (Figs. 5-6).
//
// There is one key-schedule type, AesSchedule, and one expansion entry
// point, AesSchedule::expand. Aes128 wraps one schedule together with the
// backend chosen when its key was set, so block operations never re-check
// the CPU.
#pragma once

#include <cstddef>
#include <cstdint>

namespace colibri::crypto {

// An expanded AES-128 encryption schedule: 11 round keys of 16 bytes.
// expand() uses AESENCLAST when the CPU has AES-NI and SSSE3 and the
// portable expansion otherwise; both produce the same bytes.
//
// No default member initializers: the batched router and gateway declare
// a stack array of schedules per batch and expand each one before use.
struct AesSchedule {
  alignas(16) std::uint8_t rk[176];

  void expand(const std::uint8_t key[16]);
};

class Aes128 {
 public:
  static constexpr size_t kBlockSize = 16;
  static constexpr size_t kKeySize = 16;
  static constexpr int kRounds = 10;

  Aes128() = default;
  explicit Aes128(const std::uint8_t key[kKeySize]) { set_key(key); }

  // Expands the schedule and fixes the backend every block operation
  // under this key uses.
  void set_key(const std::uint8_t key[kKeySize]);

  // Single-block ECB encryption. in and out may alias. Colibri's modes
  // (CMAC, CTR, EAX, the HVF CBC-MAC) only ever encrypt.
  void encrypt_block(const std::uint8_t in[kBlockSize],
                     std::uint8_t out[kBlockSize]) const;

  // Same-key multi-block ECB over `n` independent blocks. On AES-NI the
  // blocks are interleaved four wide so the pipelined aesenc latency is
  // amortized across lanes (the batched data-plane pipeline's workhorse).
  // in and out may alias element-wise.
  void encrypt_blocks(const std::uint8_t* in, std::uint8_t* out,
                      std::size_t n_blocks) const;

  // Expanded encryption round keys, 11 x 16 bytes, little-endian order.
  const std::uint8_t* round_keys() const { return sched_.rk; }

  // True if the AES-NI fast path is compiled in, supported by the CPU and
  // not forced off.
  static bool has_aesni();

  // Force the portable path for keys set and schedules expanded from now
  // on (for tests and the crypto ablation bench). Ciphers keyed earlier
  // keep their backend.
  static void set_force_portable(bool force);

 private:
  AesSchedule sched_{};
  bool aesni_ = false;
};

// Portable reference primitives operating on a raw round-key schedule.
// AesSchedule and Aes128 fall back to these when AES-NI is unavailable;
// the tests use them as the reference for the AES-NI backend.
namespace portable {
void expand_key(const std::uint8_t key[16], std::uint8_t rk[176]);
void encrypt_block(const std::uint8_t rk[176], const std::uint8_t in[16],
                   std::uint8_t out[16]);
}  // namespace portable

// AES-NI backend hooks (defined in aesni.cpp when compiled in).
namespace aesni {
bool runtime_supported();
void expand_key(const std::uint8_t key[16], std::uint8_t rk[176]);
void encrypt_block(const std::uint8_t rk[176], const std::uint8_t in[16],
                   std::uint8_t out[16]);
// Same key, n blocks, interleaved 4-wide.
void encrypt_blocks(const std::uint8_t rk[176], const std::uint8_t* in,
                    std::uint8_t* out, std::size_t n);
// n independent (round-key schedule, block) lanes, interleaved 4-wide.
void encrypt_each(const std::uint8_t* const* rks, const std::uint8_t* in,
                  std::uint8_t* out, std::size_t n);
}  // namespace aesni

}  // namespace colibri::crypto
