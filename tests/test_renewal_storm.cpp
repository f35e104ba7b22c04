// Tests: renewal-storm scenario — correlated expiry, and a drain that
// renews the whole fleet before it expires.
#include <gtest/gtest.h>

#include "colibri/app/renewal_storm.hpp"

namespace colibri::app {
namespace {

RenewalStormConfig small_config() {
  RenewalStormConfig cfg;
  cfg.num_eers = 2'000;
  cfg.num_segrs = 16;
  return cfg;
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
  // A renewal replaces the EER's allocation rather than adding to it:
  // each SegR still carries its 125 EERs once.
  for (const auto& rec : storm.db().segr_snapshot()) {
    EXPECT_EQ(rec.eer_allocated_kbps, 2'000u / 16 * 100);
  }

  // The renewed fleet survives the storm instant.
  size_t removed = 0;
  storm.db().sweep_eers(storm.storm_expiry() + 1,
                        [&](const reservation::EerRecord&) { ++removed; });
  EXPECT_EQ(removed, 0u);
  EXPECT_EQ(storm.db().eer_count(), 2'000u);
}

}  // namespace
}  // namespace colibri::app
