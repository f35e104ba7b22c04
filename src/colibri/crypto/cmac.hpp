// AES-CMAC (RFC 4493).
//
// Used as the PRF in DRKey derivation (paper Eq. 1) and as the MAC for
// hop validation fields (Eqs. 3, 4, 6) and control-plane payloads. The
// inputs in the data plane are one or two blocks, so a CMAC costs one or
// two AES block operations plus the XORs — the per-packet budget the
// paper's forwarding numbers are built on.
#pragma once

#include <cstddef>
#include <cstdint>

#include "colibri/common/bytes.hpp"
#include "colibri/crypto/aes.hpp"

namespace colibri::crypto {

class Cmac {
 public:
  static constexpr size_t kTagSize = 16;

  Cmac() = default;
  explicit Cmac(const std::uint8_t key[Aes128::kKeySize]) { set_key(key); }

  void set_key(const std::uint8_t key[Aes128::kKeySize]);

  // One-shot MAC over msg; writes a 16-byte tag.
  void compute(const std::uint8_t* msg, size_t len,
               std::uint8_t tag[kTagSize]) const;
  void compute(BytesView msg, std::uint8_t tag[kTagSize]) const {
    compute(msg.data(), msg.size(), tag);
  }

  // MAC over P || msg, where P is a run of whole blocks already put
  // through the CBC chain and `state` is the chaining value after it (all
  // zero for an empty P). A non-empty P needs a non-empty msg, because the
  // final, subkey-masked block must come from msg.
  void compute_after(const std::uint8_t state[kTagSize],
                     const std::uint8_t* msg, size_t len,
                     std::uint8_t tag[kTagSize]) const;

  // Constant-time comparison of the first `n` tag bytes.
  static bool verify_prefix(const std::uint8_t* expected,
                            const std::uint8_t* actual, size_t n);

  const Aes128& cipher() const { return aes_; }

 private:
  Aes128 aes_;
  std::uint8_t k1_[16] = {};
  std::uint8_t k2_[16] = {};
};

}  // namespace colibri::crypto
