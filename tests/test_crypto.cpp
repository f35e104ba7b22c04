// Unit tests: AES-128 (FIPS-197 + RFC vectors), CMAC, CTR, EAX,
// SHA-256, plus AES-NI/portable cross-checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "colibri/common/rand.hpp"
#include "colibri/crypto/aes.hpp"
#include "colibri/crypto/cmac_multi.hpp"
#include "colibri/crypto/cmac.hpp"
#include "colibri/crypto/ctr.hpp"
#include "colibri/crypto/eax.hpp"
#include "colibri/crypto/sha256.hpp"

namespace colibri::crypto {
namespace {

Bytes from_hex(const std::string& hex) {
  Bytes out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// FIPS-197 Appendix C.1 AES-128 known-answer test.
TEST(AesTest, Fips197Vector) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  const Bytes expect = from_hex("69c4e0d86a7b0430d8cdb78070b4c55a");
  Aes128 aes(key.data());
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(0, std::memcmp(ct, expect.data(), 16));
}

// FIPS-197 Appendix A.1: the whole AES-128 key expansion, w[0..43], one
// round key (four words) per line, on both schedule backends.
TEST(AesTest, Fips197KeyExpansion) {
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes expect = from_hex(
      "2b7e151628aed2a6abf7158809cf4f3c"
      "a0fafe1788542cb123a339392a6c7605"
      "f2c295f27a96b9435935807a7359f67f"
      "3d80477d4716fe3e1e237e446d7a883b"
      "ef44a541a8525b7fb671253bdb0bad00"
      "d4d1c6f87c839d87caf2b8bc11f915bc"
      "6d88a37a110b3efddbf98641ca0093fd"
      "4e54f70e5f5fc9f384a64fb24ea6dc4f"
      "ead27321b58dbad2312bf5607f8d292f"
      "ac7766f319fadc2128d12941575c006e"
      "d014f9a8c9ee2589e13f0cc8b6630ca6");
  ASSERT_EQ(expect.size(), sizeof(AesSchedule::rk));
  for (const bool portable : {false, true}) {
    Aes128::set_force_portable(portable);
    const bool aesni = Aes128::has_aesni();
    AesSchedule sched;
    sched.expand(key.data());
    Aes128::set_force_portable(false);
    EXPECT_EQ(Bytes(sched.rk, sched.rk + sizeof(sched.rk)), expect)
        << (aesni ? "AES-NI" : "portable");
  }
}

// RFC 4493 test vector key (also the SP 800-38A key).
TEST(AesTest, Sp800_38aVector) {
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  const Bytes expect = from_hex("3ad77bb40d7a3660a89ecaf32466ef97");
  Aes128 aes(key.data());
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(0, std::memcmp(ct, expect.data(), 16));
}

TEST(AesTest, PortableMatchesAesni) {
  if (!Aes128::has_aesni()) GTEST_SKIP() << "AES-NI not available";
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    std::uint8_t key[16], pt[16], fast[16], slow[16];
    rng.fill(key, 16);
    rng.fill(pt, 16);
    // The backend is fixed when the key is set: one cipher per backend.
    const Aes128 fast_aes(key);
    Aes128::set_force_portable(true);
    const Aes128 slow_aes(key);
    Aes128::set_force_portable(false);
    EXPECT_EQ(0, std::memcmp(fast_aes.round_keys(), slow_aes.round_keys(),
                             16 * (Aes128::kRounds + 1)))
        << "iteration " << i;
    fast_aes.encrypt_block(pt, fast);
    slow_aes.encrypt_block(pt, slow);
    EXPECT_EQ(0, std::memcmp(fast, slow, 16)) << "iteration " << i;
  }
}

TEST(AesTest, InPlaceEncryption) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  Bytes block = from_hex("00112233445566778899aabbccddeeff");
  const Bytes expect = from_hex("69c4e0d86a7b0430d8cdb78070b4c55a");
  Aes128 aes(key.data());
  aes.encrypt_block(block.data(), block.data());
  EXPECT_EQ(block, expect);
}

// RFC 4493 §4 test vectors.
class CmacRfc4493 : public ::testing::TestWithParam<
                        std::pair<std::string, std::string>> {};

TEST_P(CmacRfc4493, Vector) {
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes msg = from_hex(GetParam().first);
  const Bytes expect = from_hex(GetParam().second);
  Cmac cmac(key.data());
  std::uint8_t tag[16];
  cmac.compute(msg.data(), msg.size(), tag);
  EXPECT_EQ(0, std::memcmp(tag, expect.data(), 16));
}

INSTANTIATE_TEST_SUITE_P(
    Rfc4493, CmacRfc4493,
    ::testing::Values(
        std::make_pair(std::string(),
                       std::string("bb1d6929e95937287fa37d129b756746")),
        std::make_pair(std::string("6bc1bee22e409f96e93d7e117393172a"),
                       std::string("070a16b46b4d4144f79bdd9dd04a287c")),
        std::make_pair(
            std::string("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c"
                        "9eb76fac45af8e5130c81c46a35ce411"),
            std::string("dfa66747de9ae63030ca32611497c827")),
        std::make_pair(
            std::string("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c"
                        "9eb76fac45af8e5130c81c46a35ce411e5fbc1191a0a52ef"
                        "f69f2445df4f9b17ad2b417be66c3710"),
            std::string("51f0bebf7e3b9d92fc49741779363cfe"))));

TEST(CmacTest, VerifyPrefixConstantTimeSemantics) {
  const std::uint8_t a[4] = {1, 2, 3, 4};
  const std::uint8_t b[4] = {1, 2, 3, 4};
  const std::uint8_t c[4] = {1, 2, 3, 5};
  EXPECT_TRUE(Cmac::verify_prefix(a, b, 4));
  EXPECT_FALSE(Cmac::verify_prefix(a, c, 4));
  EXPECT_TRUE(Cmac::verify_prefix(a, c, 3));  // differing byte not covered
}

// SP 800-38A F.5.1 CTR-AES128 vector.
TEST(CtrTest, Sp800_38aVector) {
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes iv = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  Bytes data = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51");
  const Bytes expect = from_hex(
      "874d6191b620e3261bef6864990db6ce"
      "9806f66b7970fdff8617187bb9fffdff");
  Aes128 aes(key.data());
  ctr_xcrypt(aes, iv.data(), data.data(), data.size());
  EXPECT_EQ(data, expect);
}

TEST(CtrTest, XcryptIsInvolution) {
  Rng rng(5);
  std::uint8_t key[16], iv[16];
  rng.fill(key, 16);
  rng.fill(iv, 16);
  Aes128 aes(key);
  Bytes data(100);
  rng.fill(data.data(), data.size());
  const Bytes original = data;
  ctr_xcrypt(aes, iv, data.data(), data.size());
  EXPECT_NE(data, original);
  ctr_xcrypt(aes, iv, data.data(), data.size());
  EXPECT_EQ(data, original);
}

TEST(CtrTest, CounterCrossesBlockBoundary) {
  // IV ending in 0xFF..FF forces the big-endian carry path.
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes iv(16, 0xFF);
  Aes128 aes(key.data());
  Bytes data(48, 0);
  ctr_xcrypt(aes, iv.data(), data.data(), data.size());
  // Keystream blocks must differ (counter advanced despite wrap).
  EXPECT_NE(0, std::memcmp(data.data(), data.data() + 16, 16));
  EXPECT_NE(0, std::memcmp(data.data() + 16, data.data() + 32, 16));
}

// EAX paper (Bellare, Rogaway, Wagner 2004) vectors. seal returns
// N || C || T; each vector runs on a cipher keyed under each backend.
TEST(EaxTest, KnownAnswerVectorsOnBothBackends) {
  struct Vector {
    const char* key;
    const char* nonce;
    const char* header;
    const char* msg;
    const char* ct_tag;
  };
  const Vector vectors[] = {
      {"233952DEE4D5ED5F9B9C6D6FF80FF478", "62EC67F9C3A4A407FCB2A8C49031A8B3",
       "6BFB914FD07EAE6B", "", "E037830E8389F27B025A2D6527E79D01"},
      {"91945D3F4DCBEE0BF45EF52255F095A4", "BECAF043B0A23D843194BA972C66DEBD",
       "FA3BFD4806EB53FA", "F7FB", "19DD5C4C9331049D0BDAB0277408F67967E5"},
  };
  for (const bool force_portable : {false, true}) {
    for (const Vector& v : vectors) {
      Aes128::set_force_portable(force_portable);
      const Eax eax(from_hex(v.key).data());
      Aes128::set_force_portable(false);
      const Bytes nonce = from_hex(v.nonce);
      const Bytes header = from_hex(v.header);
      const Bytes msg = from_hex(v.msg);
      Bytes expect = nonce;
      append_bytes(expect, from_hex(v.ct_tag));
      const Bytes sealed = eax.seal(nonce, header, msg);
      EXPECT_EQ(to_hex(sealed), to_hex(expect))
          << "key " << v.key << (force_portable ? " portable" : " default");
      const auto opened = eax.open(header, sealed);
      ASSERT_TRUE(opened.has_value()) << "key " << v.key;
      EXPECT_EQ(*opened, msg);
    }
  }
}

// EAX from its definition: OMAC^t(m) = CMAC([0]^15 || t || m) over a
// plain CMAC, CTR under the nonce's OMAC. The cached-tweak OMACs must
// agree for every length, including empty inputs and multi-block ones.
TEST(EaxTest, MatchesDefinitionOverPlainCmac) {
  Rng rng(21);
  for (size_t len = 0; len <= 48; ++len) {
    std::uint8_t key[16];
    rng.fill(key, sizeof(key));
    Bytes nonce(Eax::kNonceSize), aad(len), pt((len * 7) % 41);
    rng.fill(nonce.data(), nonce.size());
    rng.fill(aad.data(), aad.size());
    rng.fill(pt.data(), pt.size());

    const Cmac cmac(key);
    const auto omac = [&](std::uint8_t t, BytesView m, std::uint8_t out[16]) {
      Bytes in(16, 0);
      in[15] = t;
      append_bytes(in, m);
      cmac.compute(in, out);
    };
    std::uint8_t n[16], h[16], c[16];
    omac(0, nonce, n);
    omac(1, aad, h);
    Bytes want = nonce;
    Bytes ct = pt;
    ctr_xcrypt(cmac.cipher(), n, ct.data(), ct.size());
    omac(2, ct, c);
    append_bytes(want, ct);
    for (int i = 0; i < 16; ++i) want.push_back(n[i] ^ h[i] ^ c[i]);

    EXPECT_EQ(Eax(key).seal(nonce, aad, pt), want) << "len " << len;
  }
}

TEST(EaxTest, SealOpenRoundTrip) {
  std::uint8_t key[16] = {7};
  Eax eax(key);
  const Bytes nonce(16, 0xAB);
  const Bytes aad = {1, 2, 3};
  const Bytes pt = {10, 20, 30, 40, 50};
  const Bytes sealed = eax.seal(nonce, aad, pt);
  EXPECT_EQ(sealed.size(), nonce.size() + pt.size() + Eax::kTagSize);
  auto opened = eax.open(aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

TEST(EaxTest, TamperedCiphertextRejected) {
  std::uint8_t key[16] = {7};
  Eax eax(key);
  const Bytes nonce(16, 1);
  const Bytes aad = {9};
  const Bytes pt = {1, 2, 3, 4};
  Bytes sealed = eax.seal(nonce, aad, pt);
  sealed[Eax::kNonceSize] ^= 1;
  EXPECT_FALSE(eax.open(aad, sealed).has_value());
}

TEST(EaxTest, WrongAadRejected) {
  std::uint8_t key[16] = {7};
  Eax eax(key);
  const Bytes nonce(16, 1);
  const Bytes pt = {1, 2, 3, 4};
  const Bytes sealed = eax.seal(nonce, Bytes{1}, pt);
  EXPECT_FALSE(eax.open(Bytes{2}, sealed).has_value());
}

TEST(EaxTest, WrongKeyRejected) {
  std::uint8_t k1[16] = {1};
  std::uint8_t k2[16] = {2};
  const Bytes nonce(16, 1);
  const Bytes pt = {5, 6};
  const Bytes sealed = Eax(k1).seal(nonce, {}, pt);
  EXPECT_FALSE(Eax(k2).open({}, sealed).has_value());
}

TEST(EaxTest, TooShortInputRejected) {
  std::uint8_t key[16] = {};
  Eax eax(key);
  EXPECT_FALSE(eax.open({}, Bytes(10, 0)).has_value());
}

TEST(EaxTest, EmptyPlaintextAuthenticated) {
  std::uint8_t key[16] = {3};
  Eax eax(key);
  const Bytes nonce(16, 2);
  const Bytes sealed = eax.seal(nonce, Bytes{1, 2}, {});
  auto opened = eax.open(Bytes{1, 2}, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

// FIPS 180-4 known-answer tests.
TEST(Sha256Test, EmptyString) {
  const auto d = Sha256::hash({});
  EXPECT_EQ(to_hex(BytesView(d.data(), d.size())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  const Bytes msg = {'a', 'b', 'c'};
  const auto d = Sha256::hash(msg);
  EXPECT_EQ(to_hex(BytesView(d.data(), d.size())),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  const std::string s = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  Bytes msg(s.begin(), s.end());
  const auto d = Sha256::hash(msg);
  EXPECT_EQ(to_hex(BytesView(d.data(), d.size())),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Rng rng(9);
  Bytes msg(1000);
  rng.fill(msg.data(), msg.size());
  Sha256 inc;
  inc.update(BytesView(msg.data(), 100));
  inc.update(BytesView(msg.data() + 100, 463));
  inc.update(BytesView(msg.data() + 563, msg.size() - 563));
  EXPECT_EQ(inc.finish(), Sha256::hash(msg));
}

// --- Multi-lane batch primitives (cmac_multi) -------------------------------
// The batched data-plane pipeline is only allowed to exist because these
// produce byte-identical output to the scalar primitives.

TEST(CmacMultiTest, ScheduleExpansionMatchesPortable) {
  Rng rng(11);
  for (int iter = 0; iter < 50; ++iter) {
    std::uint8_t key[16];
    rng.fill(key, sizeof(key));
    std::uint8_t want[176];
    portable::expand_key(key, want);
    AesSchedule s;
    s.expand(key);  // AESKEYGENASSIST path when the CPU has AES-NI
    EXPECT_EQ(0, std::memcmp(s.rk, want, sizeof(want)));
  }
}

TEST(CmacMultiTest, EncryptBlocksMatchesScalar) {
  Rng rng(12);
  std::uint8_t key[16];
  rng.fill(key, sizeof(key));
  const Aes128 aes(key);
  // Exercise the 4-wide interleave plus every remainder length.
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 31u, 64u}) {
    Bytes in(16 * n), got(16 * n), want(16 * n);
    rng.fill(in.data(), in.size());
    aes.encrypt_blocks(in.data(), got.data(), n);
    for (size_t i = 0; i < n; ++i) {
      aes.encrypt_block(in.data() + 16 * i, want.data() + 16 * i);
    }
    EXPECT_EQ(got, want) << "n=" << n;
  }
}

TEST(CmacMultiTest, EncryptEachMatchesPerLaneCipher) {
  Rng rng(13);
  for (size_t n : {1u, 3u, 4u, 6u, 16u, 33u}) {
    std::vector<AesSchedule> scheds(n);
    std::vector<Aes128> ciphers;
    Bytes in(16 * n), got(16 * n), want(16 * n);
    rng.fill(in.data(), in.size());
    for (size_t i = 0; i < n; ++i) {
      std::uint8_t key[16];
      rng.fill(key, sizeof(key));
      scheds[i].expand(key);
      ciphers.emplace_back(key);
    }
    aes128_encrypt_each(scheds.data(), n, in.data(), got.data());
    for (size_t i = 0; i < n; ++i) {
      ciphers[i].encrypt_block(in.data() + 16 * i, want.data() + 16 * i);
    }
    EXPECT_EQ(got, want) << "n=" << n;
  }
}

TEST(CmacMultiTest, CbcmacFixedMultiMatchesScalarLanes) {
  Rng rng(14);
  std::uint8_t key[16];
  rng.fill(key, sizeof(key));
  const Aes128 aes(key);
  // Message lengths covering exact-block and ragged tails (the data
  // plane uses 25- and 57-byte MAC inputs).
  for (size_t msg_len : {16u, 25u, 32u, 57u, 64u}) {
    const size_t stride = (msg_len + 15) / 16 * 16;
    for (size_t n : {1u, 2u, 5u, 64u}) {
      Bytes msgs(stride * n);
      rng.fill(msgs.data(), msgs.size());
      Bytes got(16 * n);
      cbcmac_fixed_multi(aes, msgs.data(), msg_len, stride, n, got.data());
      for (size_t l = 0; l < n; ++l) {
        // Inline scalar CBC-MAC reference (mirrors dataplane::cbcmac_fixed).
        std::uint8_t x[16] = {};
        size_t off = 0;
        while (off < msg_len) {
          const size_t b = std::min<size_t>(16, msg_len - off);
          for (size_t i = 0; i < b; ++i) x[i] ^= msgs[l * stride + off + i];
          aes.encrypt_block(x, x);
          off += b;
        }
        EXPECT_EQ(0, std::memcmp(got.data() + 16 * l, x, 16))
            << "msg_len=" << msg_len << " lane=" << l << "/" << n;
      }
    }
  }
}

TEST(CmacMultiTest, MultiLanePrimitivesAgreeUnderForcedPortable) {
  // The portable fallback must produce the same bytes as the AES-NI
  // path (when present), because a batch computed on one machine must
  // verify on another.
  Rng rng(15);
  std::uint8_t key[16], block[16];
  rng.fill(key, sizeof(key));
  rng.fill(block, sizeof(block));
  AesSchedule fast;
  fast.expand(key);
  std::uint8_t out_fast[16];
  aes128_encrypt_each(&fast, 1, block, out_fast);

  Aes128::set_force_portable(true);
  AesSchedule slow;
  slow.expand(key);
  std::uint8_t out_slow[16];
  aes128_encrypt_each(&slow, 1, block, out_slow);
  Aes128::set_force_portable(false);

  EXPECT_EQ(0, std::memcmp(fast.rk, slow.rk, sizeof(fast.rk)));
  EXPECT_EQ(0, std::memcmp(out_fast, out_slow, 16));
}

// RFC 4231 test case 2.
TEST(HmacTest, Rfc4231Case2) {
  const Bytes key = {'J', 'e', 'f', 'e'};
  const std::string m = "what do ya want for nothing?";
  const Bytes msg(m.begin(), m.end());
  const auto d = hmac_sha256(key, msg);
  EXPECT_EQ(to_hex(BytesView(d.data(), d.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

}  // namespace
}  // namespace colibri::crypto
