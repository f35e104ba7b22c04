// AES-EAX authenticated encryption with associated data.
//
// Used to return hop authenticators to the source AS over an authentic,
// confidential channel (paper Eq. 5): AS_i -> AS_0 : AEAD_{K_{AS_i->AS_0}}(σ_i).
// EAX composes AES-CTR with three tweaked OMACs (nonce, header, ciphertext)
// and needs only the AES primitive we already have.
//
// All per-key work happens in set_key: the AES schedule, the CMAC subkeys,
// and the chaining value after each OMAC's tweak block. Sealing and
// opening then allocate only the returned buffer, so a context built once
// per key (one per DRKey, see drkey/keyserver.hpp) serves every message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "colibri/common/bytes.hpp"
#include "colibri/crypto/cmac.hpp"

namespace colibri::crypto {

class Eax {
 public:
  static constexpr size_t kTagSize = 16;
  static constexpr size_t kNonceSize = 16;

  Eax() = default;
  explicit Eax(const std::uint8_t key[Aes128::kKeySize]) { set_key(key); }

  void set_key(const std::uint8_t key[Aes128::kKeySize]);

  // Returns nonce || ciphertext || tag.
  Bytes seal(BytesView nonce, BytesView aad, BytesView plaintext) const;

  // Inverse of seal; nullopt if the tag does not verify.
  std::optional<Bytes> open(BytesView aad, BytesView sealed) const;

  // CMAC under the same key, for callers that also MAC with it.
  const Cmac& cmac() const { return cmac_; }

 private:
  // OMAC^t_K(m) = CMAC_K([0]^15 || t || m).
  void omac(std::uint8_t tweak, BytesView msg, std::uint8_t out[16]) const;

  Cmac cmac_;
  // E_K([0]^15 || t) for t = 0, 1, 2: the CBC chaining value after OMAC^t's
  // tweak block.
  std::uint8_t tweak_state_[3][16] = {};
};

}  // namespace colibri::crypto
