// Ablation: crypto primitive choices behind the data-plane numbers.
//
// (a) AES-NI vs. portable AES, for block encryption and key expansion —
//     quantifies how much of the Mpps headroom comes from hardware AES
//     (the paper's "native hardware-accelerated instructions", §7.1);
// (b) CBC-MAC (paper's choice) vs. CMAC (subkey masking) on the actual
//     HVF input sizes;
// (c) the full per-packet crypto budgets of the gateway (Eq. 6 only,
//     h = 4 hops) and the border router (Eq. 4 + Eq. 6);
// (d) EAX sealing and opening of one hop authenticator (Eq. 5) on a
//     context built once per key vs. one built per message.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "colibri/common/rand.hpp"
#include "colibri/crypto/cmac.hpp"
#include "colibri/crypto/eax.hpp"
#include "colibri/dataplane/hvf.hpp"

namespace {

using namespace colibri;
using crypto::Aes128;

void BM_AesBlock(benchmark::State& state) {
  const bool portable = state.range(0) != 0;
  Aes128::set_force_portable(portable);
  std::uint8_t key[16], block[16];
  Rng rng(1);
  rng.fill(key, 16);
  rng.fill(block, 16);
  Aes128 aes(key);
  for (auto _ : state) {
    aes.encrypt_block(block, block);
    benchmark::DoNotOptimize(block[0]);
  }
  Aes128::set_force_portable(false);
  state.SetLabel(portable ? "portable" : "aesni-if-available");
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_AesBlock)->Arg(0)->Arg(1);

void BM_AesKeyExpansion(benchmark::State& state) {
  // The router/gateway expand σ_i's schedule per packet per hop, and each
  // on-path CServ expands one K_{AS_i->src} per EER request.
  const bool portable = state.range(0) != 0;
  Aes128::set_force_portable(portable);
  std::uint8_t key[16];
  Rng rng(2);
  rng.fill(key, 16);
  Aes128 aes;
  for (auto _ : state) {
    aes.set_key(key);
    benchmark::DoNotOptimize(aes.round_keys()[0]);
    ++key[0];
  }
  Aes128::set_force_portable(false);
  state.SetLabel(portable ? "portable" : "aesni-if-available");
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_AesKeyExpansion)->Arg(0)->Arg(1);

void BM_AesKeyExpansionBatch(benchmark::State& state) {
  // The gateway's and router's pattern: 64 independent keys, each read
  // from memory it was not just written to, expanded into 64 schedules.
  // BM_AesKeyExpansion instead reloads the key right after a 1-byte
  // store to it, so store forwarding fails and each expansion waits for
  // the previous one to retire: it times one expansion's latency.
  constexpr size_t kBatch = 64;
  std::uint8_t keys[kBatch][16];
  Rng rng(2);
  for (auto& k : keys) rng.fill(k, 16);
  crypto::AesSchedule scheds[kBatch];
  for (auto _ : state) {
    for (size_t i = 0; i < kBatch; ++i) scheds[i].expand(keys[i]);
    benchmark::DoNotOptimize(scheds);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}

BENCHMARK(BM_AesKeyExpansionBatch);

template <size_t N>
void mac_input(Rng& rng, std::uint8_t (&buf)[N]) {
  rng.fill(buf, N);
}

void BM_CbcMacHopAuthInput(benchmark::State& state) {
  // Eq. 4 input: 57 bytes -> 4 CBC blocks. The router's main cost.
  std::uint8_t key[16];
  Rng rng(3);
  rng.fill(key, 16);
  Aes128 aes(key);
  std::uint8_t msg[proto::kHopAuthInputLen];
  mac_input(rng, msg);
  std::uint8_t out[16];
  for (auto _ : state) {
    dataplane::cbcmac_fixed(aes, msg, sizeof(msg), out);
    benchmark::DoNotOptimize(out[0]);
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_CbcMacHopAuthInput);

void BM_CmacHopAuthInput(benchmark::State& state) {
  std::uint8_t key[16];
  Rng rng(4);
  rng.fill(key, 16);
  crypto::Cmac cmac(key);
  std::uint8_t msg[proto::kHopAuthInputLen];
  mac_input(rng, msg);
  std::uint8_t out[16];
  for (auto _ : state) {
    cmac.compute(msg, sizeof(msg), out);
    benchmark::DoNotOptimize(out[0]);
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_CmacHopAuthInput);

// Gateway per-packet crypto with h stored hop authenticators: h x
// (key schedule + 1 AES block), Eq. 6.
void BM_GatewayCryptoBudget(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  Rng rng(6);
  std::vector<dataplane::HopAuth> sigmas(static_cast<size_t>(hops));
  for (auto& s : sigmas) rng.fill(s.data(), s.size());
  std::uint32_t ts = 1;
  for (auto _ : state) {
    for (const auto& sigma : sigmas) {
      auto v = dataplane::compute_data_hvf(sigma, ts, 1000);
      benchmark::DoNotOptimize(v);
    }
    ++ts;
  }
  state.counters["hops"] = hops;
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_GatewayCryptoBudget)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Router per-packet crypto: recreate σ_i (Eq. 4, 4 CBC blocks) + derive
// the per-packet HVF (Eq. 6, key schedule + 1 block).
void BM_RouterCryptoBudget(benchmark::State& state) {
  Rng rng(7);
  std::uint8_t key[16];
  rng.fill(key, 16);
  Aes128 hop_cipher(key);
  proto::ResInfo ri;
  ri.src_as = AsId{1, 1};
  ri.res_id = 1;
  proto::EerInfo ei;
  std::uint32_t ts = 1;
  for (auto _ : state) {
    const auto sigma = dataplane::compute_hopauth(hop_cipher, ri, ei, 1, 2);
    auto v = dataplane::compute_data_hvf(sigma, ts, 1000);
    benchmark::DoNotOptimize(v);
    ++ts;
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_RouterCryptoBudget);

// Eq. 5 as the CServ runs it: a 16-byte σ_i under a 16-byte nonce and the
// 22-byte ResInfo AAD. Arg 0 reuses one context per key (the cached
// DRKey contexts); Arg 1 builds one per message.
struct EaxFixture {
  std::uint8_t key[16];
  Bytes nonce = Bytes(16);
  Bytes aad = Bytes(22);
  Bytes sigma = Bytes(16);

  EaxFixture() {
    Rng rng(8);
    rng.fill(key, sizeof(key));
    rng.fill(nonce.data(), nonce.size());
    rng.fill(aad.data(), aad.size());
    rng.fill(sigma.data(), sigma.size());
  }
};

void BM_EaxSeal(benchmark::State& state) {
  const bool rekey = state.range(0) != 0;
  const EaxFixture f;
  const crypto::Eax cached(f.key);
  for (auto _ : state) {
    const Bytes sealed = rekey ? crypto::Eax(f.key).seal(f.nonce, f.aad, f.sigma)
                               : cached.seal(f.nonce, f.aad, f.sigma);
    benchmark::DoNotOptimize(sealed.data());
  }
  state.SetLabel(rekey ? "context-per-message" : "cached-context");
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_EaxSeal)->Arg(0)->Arg(1);

void BM_EaxOpen(benchmark::State& state) {
  const bool rekey = state.range(0) != 0;
  const EaxFixture f;
  const crypto::Eax cached(f.key);
  const Bytes sealed = cached.seal(f.nonce, f.aad, f.sigma);
  for (auto _ : state) {
    const auto opened = rekey ? crypto::Eax(f.key).open(f.aad, sealed)
                              : cached.open(f.aad, sealed);
    benchmark::DoNotOptimize(opened.has_value());
  }
  state.SetLabel(rekey ? "context-per-message" : "cached-context");
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_EaxOpen)->Arg(0)->Arg(1);

}  // namespace

COLIBRI_BENCH_MAIN(bench_ablation_crypto);
