#include "colibri/crypto/eax.hpp"

#include <algorithm>

#include "colibri/crypto/ctr.hpp"

namespace colibri::crypto {

void Eax::set_key(const std::uint8_t key[Aes128::kKeySize]) {
  cmac_.set_key(key);
  std::uint8_t tweaks[3][16] = {};
  for (std::uint8_t t = 0; t < 3; ++t) tweaks[t][15] = t;
  cmac_.cipher().encrypt_blocks(tweaks[0], tweak_state_[0], 3);
}

void Eax::omac(std::uint8_t tweak, BytesView msg, std::uint8_t out[16]) const {
  if (msg.empty()) {
    // The tweak block is the whole input, so it is CMAC's final block.
    std::uint8_t block[16] = {};
    block[15] = tweak;
    cmac_.compute(block, sizeof(block), out);
    return;
  }
  cmac_.compute_after(tweak_state_[tweak], msg.data(), msg.size(), out);
}

Bytes Eax::seal(BytesView nonce, BytesView aad, BytesView plaintext) const {
  std::uint8_t n[16], h[16], c[16];
  omac(0, nonce, n);
  omac(1, aad, h);

  Bytes out(nonce.size() + plaintext.size() + kTagSize);
  std::uint8_t* ct = std::copy(nonce.begin(), nonce.end(), out.data());
  std::copy(plaintext.begin(), plaintext.end(), ct);
  ctr_xcrypt(cmac_.cipher(), n, ct, plaintext.size());

  omac(2, BytesView(ct, plaintext.size()), c);
  std::uint8_t* tag = ct + plaintext.size();
  for (int i = 0; i < 16; ++i) tag[i] = n[i] ^ h[i] ^ c[i];
  return out;
}

std::optional<Bytes> Eax::open(BytesView aad, BytesView sealed) const {
  if (sealed.size() < kNonceSize + kTagSize) return std::nullopt;
  const BytesView nonce = sealed.subspan(0, kNonceSize);
  const size_t ct_len = sealed.size() - kNonceSize - kTagSize;
  const BytesView ct = sealed.subspan(kNonceSize, ct_len);
  const BytesView tag = sealed.subspan(kNonceSize + ct_len, kTagSize);

  std::uint8_t n[16], h[16], c[16];
  omac(0, nonce, n);
  omac(1, aad, h);
  omac(2, ct, c);

  std::uint8_t expect[16];
  for (int i = 0; i < 16; ++i) expect[i] = n[i] ^ h[i] ^ c[i];
  if (!Cmac::verify_prefix(expect, tag.data(), kTagSize)) return std::nullopt;

  Bytes pt(ct.begin(), ct.end());
  ctr_xcrypt(cmac_.cipher(), n, pt.data(), pt.size());
  return pt;
}

}  // namespace colibri::crypto
