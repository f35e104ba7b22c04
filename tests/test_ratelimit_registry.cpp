// Direct unit tests for control-plane building blocks: request limiters,
// the SegR registry/whitelists, and the message bus.
#include <gtest/gtest.h>

#include "colibri/cserv/bus.hpp"
#include "colibri/cserv/ratelimit.hpp"
#include "colibri/cserv/registry.hpp"

namespace colibri::cserv {
namespace {

TEST(RequestLimiterTest, AllowsBurstThenThrottles) {
  RequestLimiter<std::uint64_t> limiter(/*rate=*/10.0, /*burst=*/5.0);
  int allowed = 0;
  for (int i = 0; i < 20; ++i) allowed += limiter.allow(1, 0);
  EXPECT_EQ(allowed, 5);  // burst only, no time passed
}

TEST(RequestLimiterTest, RefillsOverTime) {
  RequestLimiter<std::uint64_t> limiter(10.0, 5.0);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(limiter.allow(1, 0));
  ASSERT_FALSE(limiter.allow(1, 0));
  // 0.5 s -> 5 tokens.
  EXPECT_TRUE(limiter.allow(1, kNsPerSec / 2));
}

TEST(RequestLimiterTest, KeysAreIndependent) {
  RequestLimiter<std::uint64_t> limiter(1.0, 1.0);
  EXPECT_TRUE(limiter.allow(1, 0));
  EXPECT_FALSE(limiter.allow(1, 0));
  EXPECT_TRUE(limiter.allow(2, 0));  // other key unaffected
}

TEST(ControlRateLimiterTest, SeparatesRequestAndRenewalBudgets) {
  RateLimitConfig cfg;
  cfg.per_as_requests_per_sec = 100;
  cfg.per_as_burst = 2;
  cfg.renewals_per_reservation_per_sec = 1;
  cfg.renewal_burst = 1;
  ControlRateLimiter limiter(cfg);
  const AsId as{1, 5};
  const ResKey key{as, 7};
  EXPECT_TRUE(limiter.allow_request(as, 0));
  EXPECT_TRUE(limiter.allow_renewal(key, 0));
  EXPECT_FALSE(limiter.allow_renewal(key, 0));  // renewal budget spent
  EXPECT_TRUE(limiter.allow_request(as, 0));    // request budget separate
}

RateLimitConfig one_renewal_per_sec() {
  RateLimitConfig cfg;
  cfg.renewals_per_reservation_per_sec = 1;
  cfg.renewal_burst = 1;
  return cfg;
}

// 196613 = 3 << 16 | 5, so 196613 << 32 flips exactly the ISD bits that
// tell 1-112 from 2-112: both keys fold to one 64-bit id under
// src_as ^ (res_id << 32), though they are two reservations with two
// budgets.
const ResKey kFoldA{AsId{1, 112}, 5};
const ResKey kFoldB{AsId{2, 112}, 196613};

TEST(ControlRateLimiterTest, RenewalBucketsAreKeyedByTheWholeResKey) {
  ControlRateLimiter limiter(one_renewal_per_sec());
  EXPECT_TRUE(limiter.allow_renewal(kFoldA, 0));
  EXPECT_TRUE(limiter.allow_renewal(kFoldB, 0));
  EXPECT_FALSE(limiter.allow_renewal(kFoldA, 0));
  EXPECT_FALSE(limiter.allow_renewal(kFoldB, 0));
}

TEST(ControlRateLimiterTest, ForgetDropsOnlyThatReservationsBucket) {
  ControlRateLimiter limiter(one_renewal_per_sec());
  ASSERT_TRUE(limiter.allow_renewal(kFoldA, 0));
  ASSERT_TRUE(limiter.allow_renewal(kFoldB, 0));
  EXPECT_EQ(limiter.renewal_buckets(), 2u);
  limiter.forget_reservation(kFoldA);
  EXPECT_EQ(limiter.renewal_buckets(), 1u);
  EXPECT_TRUE(limiter.allow_renewal(kFoldA, 0));   // a fresh bucket
  EXPECT_FALSE(limiter.allow_renewal(kFoldB, 0));  // still spent
}

SegrAdvert advert(AsId first, AsId last, ResId id, UnixSec exp = 1000,
                  std::vector<AsId> whitelist = {}) {
  SegrAdvert a;
  a.key = ResKey{first, id};
  a.seg_type = topology::SegType::kUp;
  a.hops = {topology::Hop{first, kNoInterface, 1},
            topology::Hop{last, 2, kNoInterface}};
  a.bw_kbps = 1000;
  a.exp_time = exp;
  a.whitelist = std::move(whitelist);
  return a;
}

TEST(RegistryTest, QueryByEndpoints) {
  SegrRegistry reg;
  const AsId a{1, 1}, b{1, 2}, c{1, 3};
  reg.register_segr(advert(a, b, 1));
  reg.register_segr(advert(a, c, 2));
  EXPECT_EQ(reg.query(a, a, b, 0).size(), 1u);
  EXPECT_EQ(reg.query_from(a, a, 0).size(), 2u);
  EXPECT_EQ(reg.query_to(a, c, 0).size(), 1u);
  EXPECT_TRUE(reg.query(a, b, a, 0).empty());
}

TEST(RegistryTest, ExpiredAdvertsFiltered) {
  SegrRegistry reg;
  const AsId a{1, 1}, b{1, 2};
  reg.register_segr(advert(a, b, 1, /*exp=*/100));
  EXPECT_EQ(reg.query(a, a, b, 99).size(), 1u);
  EXPECT_TRUE(reg.query(a, a, b, 100).empty());
  EXPECT_EQ(reg.expire(100), 1u);
  EXPECT_EQ(reg.size(), 0u);
}

TEST(RegistryTest, WhitelistFiltersQueries) {
  SegrRegistry reg;
  const AsId a{1, 1}, b{1, 2}, friend_as{1, 5}, stranger{1, 6};
  reg.register_segr(advert(a, b, 1, 1000, {friend_as}));
  EXPECT_EQ(reg.query(friend_as, a, b, 0).size(), 1u);
  EXPECT_TRUE(reg.query(stranger, a, b, 0).empty());
  // The initiator itself always passes.
  EXPECT_EQ(reg.query(a, a, b, 0).size(), 1u);
}

TEST(RegistryTest, InvalidateRemovesCachedAdvert) {
  SegrRegistry reg;
  const AsId a{1, 1}, b{1, 2};
  reg.cache_remote(advert(a, b, 1));
  ASSERT_TRUE(reg.find(ResKey{a, 1}).has_value());
  reg.invalidate(ResKey{a, 1});
  EXPECT_FALSE(reg.find(ResKey{a, 1}).has_value());
}

TEST(RegistryTest, ReRegistrationOverwrites) {
  SegrRegistry reg;
  const AsId a{1, 1}, b{1, 2};
  reg.register_segr(advert(a, b, 1, 100));
  auto updated = advert(a, b, 1, 900);
  updated.bw_kbps = 7777;
  reg.register_segr(updated);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.find(ResKey{a, 1})->bw_kbps, 7777u);
}

TEST(MessageBusTest, RoutesToHandler) {
  MessageBus bus;
  const AsId a{1, 1};
  bus.attach(a, [](BytesView req) {
    Bytes resp(req.begin(), req.end());
    resp.push_back(0xFF);
    return resp;
  });
  ASSERT_TRUE(bus.reachable(a));
  const Bytes req = {1, 2, 3};
  const Bytes resp = bus.call(a, req);
  ASSERT_EQ(resp.size(), 4u);
  EXPECT_EQ(resp.back(), 0xFF);
  EXPECT_EQ(bus.snapshot().messages, 1u);
  EXPECT_EQ(bus.snapshot().bytes, 3u);
}

TEST(MessageBusTest, UnreachableReturnsEmpty) {
  MessageBus bus;
  EXPECT_FALSE(bus.reachable(AsId{9, 9}));
  EXPECT_TRUE(bus.call(AsId{9, 9}, Bytes{1}).empty());
  EXPECT_EQ(bus.snapshot().messages, 0u);
}

TEST(MessageBusTest, DetachStopsDelivery) {
  MessageBus bus;
  const AsId a{1, 1};
  bus.attach(a, [](BytesView) { return Bytes{1}; });
  bus.detach(a);
  EXPECT_FALSE(bus.reachable(a));
  EXPECT_TRUE(bus.call(a, {}).empty());
}

}  // namespace
}  // namespace colibri::cserv
