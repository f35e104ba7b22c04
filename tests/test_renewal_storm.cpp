// Tests: renewal-storm scenario — correlated expiry, per-shard batch
// shape, and a drain end state independent of shard and thread count.
#include <gtest/gtest.h>

#include <map>

#include "colibri/app/renewal_storm.hpp"

namespace colibri::app {
namespace {

RenewalStormConfig small_config() {
  RenewalStormConfig cfg;
  cfg.num_eers = 2'000;
  cfg.num_segrs = 16;
  cfg.shards = 8;
  return cfg;
}

// Per-SegR allocation counters, keyed for comparison across storms.
std::map<ResKey, BwKbps> allocations(RenewalStorm& storm) {
  std::map<ResKey, BwKbps> out;
  for (const auto& rec : storm.db().segr_snapshot()) {
    out[rec.key] = rec.eer_allocated_kbps;
  }
  return out;
}

TEST(RenewalStormTest, PopulateBuildsCorrelatedFleet) {
  RenewalStorm storm(small_config());
  storm.populate();
  EXPECT_EQ(storm.db().segr_count(), 16u);
  EXPECT_EQ(storm.db().eer_count(), 2'000u);
  // Every EER expires at the same instant — the storm.
  storm.db().for_each_eer([&](const reservation::EerRecord& rec) {
    ASSERT_EQ(rec.versions.size(), 1u);
    EXPECT_EQ(rec.versions.front().exp_time, storm.storm_expiry());
  });
}

TEST(RenewalStormTest, UnrenewedFleetSweepsOutTogether) {
  RenewalStorm storm(small_config());
  storm.populate();
  size_t removed = 0;
  storm.db().sweep_eers(storm.storm_expiry() + 1,
                        [&](const reservation::EerRecord&) { ++removed; });
  EXPECT_EQ(removed, 2'000u);
  EXPECT_EQ(storm.db().eer_count(), 0u);
}

TEST(RenewalStormTest, BatchedDrainRenewsEverythingBeforeExpiry) {
  RenewalStorm storm(small_config());
  storm.populate();
  const auto st = storm.drain_batched(storm.storm_expiry());
  EXPECT_EQ(st.renewed, 2'000u);
  EXPECT_EQ(st.failed, 0u);
  // One batch per non-empty shard, ResId-ordered inside.
  EXPECT_EQ(st.batches, 8u);
  EXPECT_GE(st.max_batch, 2'000u / 8);
  EXPECT_LT(st.max_batch, 2'000u);

  // The renewed fleet survives the storm instant.
  size_t removed = 0;
  storm.db().sweep_eers(storm.storm_expiry() + 1,
                        [&](const reservation::EerRecord&) { ++removed; });
  EXPECT_EQ(removed, 0u);
  EXPECT_EQ(storm.db().eer_count(), 2'000u);
}

TEST(RenewalStormTest, OneShardAndEightShardDrainsMatch) {
  // The two drains visit the EERs in different orders; the end state must
  // not depend on it.
  RenewalStormConfig cfg = small_config();
  cfg.shards = 1;
  RenewalStorm one(cfg);
  RenewalStorm eight(small_config());
  one.populate();
  eight.populate();

  const UnixSec now = one.storm_expiry();
  const auto ost = one.drain_batched(now);
  const auto est = eight.drain_batched(now);

  EXPECT_EQ(ost.renewed, 2'000u);
  EXPECT_EQ(ost.renewed, est.renewed);
  EXPECT_EQ(ost.failed, est.failed);
  EXPECT_EQ(ost.batches, 1u);
  EXPECT_EQ(est.batches, 8u);

  // Identical reservation state: same records, same versions, same
  // per-SegR allocation counters.
  EXPECT_EQ(one.db().eer_count(), eight.db().eer_count());
  EXPECT_EQ(allocations(one), allocations(eight));
  for (const auto& rec : one.db().eer_snapshot()) {
    const auto other = eight.db().eer_copy(rec.key);
    ASSERT_TRUE(other.has_value());
    ASSERT_EQ(other->versions.size(), rec.versions.size());
    EXPECT_EQ(other->versions.back().version, rec.versions.back().version);
    EXPECT_EQ(other->versions.back().exp_time, rec.versions.back().exp_time);
    EXPECT_EQ(other->versions.back().bw_kbps, rec.versions.back().bw_kbps);
  }
}

TEST(RenewalStormTest, MultiThreadedDrainMatchesSingleThreaded) {
  RenewalStormConfig cfg = small_config();
  RenewalStorm single(cfg);
  cfg.threads = 4;
  RenewalStorm threaded(cfg);
  single.populate();
  threaded.populate();

  const UnixSec now = single.storm_expiry();
  const auto sst = single.drain_batched(now);
  const auto tst = threaded.drain_batched(now);

  EXPECT_EQ(sst.renewed, tst.renewed);
  EXPECT_EQ(sst.failed, tst.failed);
  EXPECT_EQ(sst.batches, tst.batches);
  EXPECT_EQ(allocations(single), allocations(threaded));
}

}  // namespace
}  // namespace colibri::app
