// Unit tests: DRKey derivation, secret-value schedule, key server, cache,
// simulated PKI.
#include <gtest/gtest.h>

#include "colibri/crypto/eax.hpp"
#include "colibri/drkey/drkey.hpp"
#include "colibri/drkey/keyserver.hpp"

namespace colibri::drkey {
namespace {

Key128 master(std::uint8_t seed) {
  Key128 k;
  k.bytes.fill(seed);
  return k;
}

const AsId kAsA{1, 10};
const AsId kAsB{1, 20};
const AsId kAsC{2, 30};

TEST(DeriveTest, DeterministicAndDirectional) {
  const Key128 sv = master(1);
  EXPECT_EQ(derive_as_key(sv, kAsB), derive_as_key(sv, kAsB));
  EXPECT_NE(derive_as_key(sv, kAsB), derive_as_key(sv, kAsC));
}

TEST(DeriveTest, AsymmetricBetweenAses) {
  // K_{A->B} (from A's secret) != K_{B->A} (from B's secret).
  EXPECT_NE(derive_as_key(master(1), kAsB), derive_as_key(master(2), kAsA));
}

TEST(DeriveTest, HostKeysDifferPerHost) {
  const Key128 as_key = derive_as_key(master(1), kAsB);
  const auto h1 = derive_host_key(as_key, HostAddr::from_u64(1));
  const auto h2 = derive_host_key(as_key, HostAddr::from_u64(2));
  EXPECT_NE(h1, h2);
  EXPECT_NE(h1, as_key);
}

TEST(ScheduleTest, EpochAlignment) {
  SecretValueSchedule sched(master(3), kAsA, 3600);
  const Epoch e = sched.epoch_at(7500);
  EXPECT_EQ(e.begin, 7200u);
  EXPECT_EQ(e.end, 10800u);
  EXPECT_TRUE(e.contains(7200));
  EXPECT_TRUE(e.contains(10799));
  EXPECT_FALSE(e.contains(10800));
}

TEST(ScheduleTest, SecretValueStablePerEpochRotatesAcross) {
  SecretValueSchedule sched(master(3), kAsA, 3600);
  EXPECT_EQ(sched.secret_value(7200), sched.secret_value(10799));
  EXPECT_NE(sched.secret_value(7200), sched.secret_value(10800));
}

TEST(ScheduleTest, DifferentOwnersDifferentValues) {
  SecretValueSchedule a(master(3), kAsA, 3600);
  SecretValueSchedule b(master(3), kAsB, 3600);
  EXPECT_NE(a.secret_value(100), b.secret_value(100));
}

TEST(EngineTest, FastSideMatchesSlowSideFetch) {
  SimulatedPki pki;
  Engine engine_a(master(7), kAsA);
  KeyServer server_a(engine_a, pki.enroll(kAsA));

  // B fetches K_{A->B} and must get exactly what A derives on the fly.
  const UnixSec now = 123456;
  const KeyResponse resp = server_a.fetch(kAsB, now);
  EXPECT_EQ(resp.key, engine_a.as_key(kAsB, now));

  KeyCache cache_b(kAsB, pki);
  EXPECT_TRUE(cache_b.insert(kAsA, resp));
  auto cached = cache_b.lookup(kAsA, now);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(*cached, engine_a.as_key(kAsB, now));
}

// The cached secret-value context must never change a derived key: for
// times in the cached epoch, in the next one, and back again, as_key
// equals the uncached formula, across several destinations.
TEST(EngineTest, CachedEpochMatchesUncachedDerivation) {
  Engine engine(master(7), kAsA, 100);
  const AsId dsts[] = {kAsB, kAsA, kAsC, AsId{3, 77}};
  const auto check = [&](UnixSec t) {
    for (const AsId dst : dsts) {
      EXPECT_EQ(engine.as_key(dst, t),
                derive_as_key(engine.schedule().secret_value(t), dst))
          << "t=" << t << " dst=" << dst.to_string();
    }
  };
  check(150);  // nothing cached yet
  engine.refresh(120);  // caches [100, 200)
  for (const UnixSec t : {100u, 150u, 199u, 200u, 250u, 299u, 101u, 150u}) {
    check(t);
  }
  engine.refresh(250);  // caches [200, 300)
  for (const UnixSec t : {250u, 150u, 200u, 120u, 299u, 300u, 199u}) check(t);
  engine.refresh(260);  // same epoch: no change
  check(260);
  check(150);
}

TEST(KeyCacheTest, ContextFollowsInsertAndExpire) {
  SimulatedPki pki;
  Engine engine_a(master(7), kAsA, 100);
  KeyServer server_a(engine_a, pki.enroll(kAsA));
  KeyCache cache_b(kAsB, pki);
  const Bytes nonce(16, 1);
  const Bytes aad = {1, 2};
  const Bytes pt = {3, 4, 5};
  const auto sealed_under = [&](const Key128& k) {
    return crypto::Eax(k.bytes.data()).seal(nonce, aad, pt);
  };

  ASSERT_TRUE(cache_b.insert(kAsA, server_a.fetch(kAsB, 50)));
  const Key128 first = engine_a.as_key(kAsB, 50);
  const crypto::Eax* ctx = cache_b.context(kAsA, 50);
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(ctx->seal(nonce, aad, pt), sealed_under(first));
  EXPECT_EQ(cache_b.context(kAsA, 150), nullptr);  // epoch not cached
  EXPECT_EQ(cache_b.context(kAsC, 50), nullptr);   // remote not cached

  EXPECT_EQ(cache_b.expire(100), 1u);
  EXPECT_EQ(cache_b.context(kAsA, 50), nullptr);
  EXPECT_FALSE(cache_b.lookup(kAsA, 50).has_value());

  ASSERT_TRUE(cache_b.insert(kAsA, server_a.fetch(kAsB, 150)));
  const Key128 second = engine_a.as_key(kAsB, 150);
  ASSERT_NE(first, second);
  const crypto::Eax* next = cache_b.context(kAsA, 150);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->seal(nonce, aad, pt), sealed_under(second));
  EXPECT_NE(next->seal(nonce, aad, pt), sealed_under(first));
}

TEST(KeyCacheTest, HoldsTwoEpochsPerRemote) {
  SimulatedPki pki;
  Engine engine_a(master(7), kAsA, 100);
  Engine engine_c(master(8), kAsC, 100);
  KeyServer server_a(engine_a, pki.enroll(kAsA));
  KeyServer server_c(engine_c, pki.enroll(kAsC));
  KeyCache cache_b(kAsB, pki);
  ASSERT_TRUE(cache_b.insert(kAsA, server_a.fetch(kAsB, 50)));
  ASSERT_TRUE(cache_b.insert(kAsA, server_a.fetch(kAsB, 150)));
  ASSERT_TRUE(cache_b.insert(kAsC, server_c.fetch(kAsB, 50)));
  ASSERT_TRUE(cache_b.insert(kAsA, server_a.fetch(kAsB, 150)));  // refetch
  EXPECT_EQ(cache_b.size(), 3u);

  // A third epoch of A replaces A's epoch that ends first.
  ASSERT_TRUE(cache_b.insert(kAsA, server_a.fetch(kAsB, 250)));
  EXPECT_EQ(cache_b.size(), 3u);
  EXPECT_FALSE(cache_b.lookup(kAsA, 50).has_value());
  EXPECT_EQ(cache_b.lookup(kAsA, 150), engine_a.as_key(kAsB, 150));
  EXPECT_EQ(cache_b.lookup(kAsA, 250), engine_a.as_key(kAsB, 250));
  EXPECT_EQ(cache_b.lookup(kAsC, 50), engine_c.as_key(kAsB, 50));
}

TEST(KeyCacheTest, RejectsForgedResponse) {
  SimulatedPki pki;
  Engine engine_a(master(7), kAsA);
  KeyServer server_a(engine_a, pki.enroll(kAsA));
  KeyResponse resp = server_a.fetch(kAsB, 100);
  resp.key.bytes[0] ^= 1;  // tamper

  KeyCache cache_b(kAsB, pki);
  EXPECT_FALSE(cache_b.insert(kAsA, resp));
  EXPECT_EQ(cache_b.size(), 0u);
}

TEST(KeyCacheTest, RejectsUnknownSigner) {
  SimulatedPki pki;
  Engine engine_a(master(7), kAsA);
  // A was never enrolled in this PKI instance.
  Key128 rogue;
  rogue.bytes.fill(9);
  KeyServer server_a(engine_a, rogue);
  KeyCache cache_b(kAsB, pki);
  EXPECT_FALSE(cache_b.insert(kAsA, server_a.fetch(kAsB, 100)));
}

TEST(KeyCacheTest, MissOutsideEpoch) {
  SimulatedPki pki;
  Engine engine_a(master(7), kAsA);  // default epoch: 1 day
  KeyServer server_a(engine_a, pki.enroll(kAsA));
  KeyCache cache_b(kAsB, pki);
  ASSERT_TRUE(cache_b.insert(kAsA, server_a.fetch(kAsB, 1000)));
  EXPECT_TRUE(cache_b.lookup(kAsA, 1000).has_value());
  EXPECT_FALSE(cache_b.lookup(kAsA, kDefaultEpochSeconds + 5).has_value());
}

TEST(KeyCacheTest, ExpireDropsOldEpochs) {
  SimulatedPki pki;
  Engine engine_a(master(7), kAsA, 100);
  KeyServer server_a(engine_a, pki.enroll(kAsA));
  KeyCache cache_b(kAsB, pki);
  ASSERT_TRUE(cache_b.insert(kAsA, server_a.fetch(kAsB, 50)));
  ASSERT_TRUE(cache_b.insert(kAsA, server_a.fetch(kAsB, 150)));
  EXPECT_EQ(cache_b.size(), 2u);
  EXPECT_EQ(cache_b.expire(120), 1u);
  EXPECT_EQ(cache_b.size(), 1u);
}

TEST(PkiTest, EnrollIsIdempotent) {
  SimulatedPki pki;
  const Key128 k1 = pki.enroll(kAsA);
  const Key128 k2 = pki.enroll(kAsA);
  EXPECT_EQ(k1, k2);
  EXPECT_NE(k1, pki.enroll(kAsB));
}

TEST(PkiTest, SignVerifyRoundTrip) {
  SimulatedPki pki;
  const Key128 secret = pki.enroll(kAsA);
  const Bytes msg = {1, 2, 3};
  const auto sig = SimulatedPki::sign(secret, msg);
  EXPECT_TRUE(pki.verify(kAsA, msg, sig));
  EXPECT_FALSE(pki.verify(kAsB, msg, sig));
  Bytes other = {1, 2, 4};
  EXPECT_FALSE(pki.verify(kAsA, other, sig));
}

// Property: keys for many (owner, peer, epoch) combinations are distinct.
TEST(DeriveTest, NoAccidentalCollisionsAcrossPeers) {
  const Key128 sv = master(5);
  std::set<std::array<std::uint8_t, 16>> seen;
  for (std::uint64_t as = 1; as <= 200; ++as) {
    const auto k = derive_as_key(sv, AsId{1, as});
    EXPECT_TRUE(seen.insert(k.bytes).second) << "collision at " << as;
  }
}

}  // namespace
}  // namespace colibri::drkey
