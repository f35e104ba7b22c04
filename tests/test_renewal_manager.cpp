// Tests: automatic SegR renewal — reservations stay alive indefinitely,
// demands track utilization, whitelists survive version bumps, and live
// EER sessions keep flowing across a 20-minute simulated run.
#include <gtest/gtest.h>

#include <algorithm>

#include "colibri/app/testbed.hpp"
#include "colibri/cserv/renewal_manager.hpp"
#include "colibri/telemetry/alerts.hpp"
#include "colibri/telemetry/timeseries.hpp"

namespace colibri::cserv {
namespace {

class RenewalManagerTest : public ::testing::Test {
 protected:
  RenewalManagerTest()
      : clock_(1000 * kNsPerSec),
        bed_(topology::builders::two_isd_topology(), clock_) {
    bed_.provision_all_segments(1000, 2'000'000);
  }

  SimClock clock_;
  app::Testbed bed_;
};

TEST_F(RenewalManagerTest, ManageAllLocalPicksUpOwnSegrs) {
  const AsId src{1, 110};
  RenewalManager mgr(bed_.cserv(src));
  const size_t n = mgr.manage_all_local();
  EXPECT_GT(n, 0u);
  EXPECT_EQ(mgr.managed(), n);
  // Idempotent.
  EXPECT_EQ(mgr.manage_all_local(), 0u);
}

TEST_F(RenewalManagerTest, RenewsAheadOfExpiryAndActivates) {
  const AsId src{1, 110};
  RenewalManager mgr(bed_.cserv(src));
  mgr.manage_all_local();

  ResKey any_key;
  bed_.cserv(src).db().for_each_segr(
      [&](const reservation::SegrRecord& rec) {
        if (rec.key.src_as == src) any_key = rec.key;
      });
  const auto rec = bed_.cserv(src).db().segr_copy(any_key);
  ASSERT_TRUE(rec.has_value());
  const UnixSec first_expiry = rec->active.exp_time;

  // Within the lead window nothing happens...
  mgr.tick(clock_.now_sec());
  EXPECT_EQ(mgr.snapshot().renewed, 0u);

  // ...but inside it, every managed SegR is renewed and activated.
  clock_.advance(static_cast<TimeNs>(first_expiry - 30 - clock_.now_sec()) *
                 kNsPerSec);
  mgr.tick(clock_.now_sec());
  EXPECT_EQ(mgr.snapshot().renewed, mgr.managed());
  EXPECT_EQ(mgr.snapshot().activated, mgr.managed());

  const auto renewed = bed_.cserv(src).db().segr_copy(any_key);
  ASSERT_TRUE(renewed.has_value());
  EXPECT_GT(renewed->active.exp_time, first_expiry);
  EXPECT_GT(renewed->active.version, 0);
  EXPECT_FALSE(renewed->pending.has_value());
}

TEST_F(RenewalManagerTest, PlanListsDueKeysInResIdOrder) {
  const AsId src{1, 110};
  RenewalManager mgr(bed_.cserv(src));
  const size_t managed = mgr.manage_all_local();
  ASSERT_GT(managed, 0u);

  // Nothing due outside the lead window.
  EXPECT_TRUE(mgr.plan(clock_.now_sec()).empty());

  // Everything was provisioned together, so the whole fleet comes due in
  // the same window — the correlated storm, planned as one list.
  clock_.advance(260 * kNsPerSec);
  const auto due = mgr.plan(clock_.now_sec());
  EXPECT_EQ(due.size(), managed);
  EXPECT_TRUE(std::is_sorted(due.begin(), due.end(),
                             [](const ResKey& a, const ResKey& b) {
                               return a.res_id < b.res_id;
                             }));

  // The tick drains exactly that list: one tick with due work.
  mgr.tick(clock_.now_sec());
  EXPECT_EQ(mgr.snapshot().renewed, managed);
  EXPECT_EQ(mgr.snapshot().batches, 1u);
}

TEST_F(RenewalManagerTest, WhitelistSurvivesVersionBump) {
  const AsId src{1, 110};
  ResKey key;
  bed_.cserv(src).db().for_each_segr(
      [&](const reservation::SegrRecord& rec) {
        if (rec.key.src_as == src) key = rec.key;
      });
  const AsId vip{1, 120};
  ASSERT_TRUE(bed_.cserv(src).publish_segr(key, {vip}));

  RenewalManager mgr(bed_.cserv(src));
  mgr.manage(key);
  clock_.advance(260 * kNsPerSec);  // inside the 60 s lead window
  mgr.tick(clock_.now_sec());
  ASSERT_GE(mgr.snapshot().activated, 1u);

  auto advert = bed_.cserv(src).registry().find(key);
  ASSERT_TRUE(advert.has_value());
  EXPECT_EQ(advert->whitelist, std::vector<AsId>{vip});
  EXPECT_GT(advert->exp_time, 1000u + 300u);  // refreshed expiry
}

TEST_F(RenewalManagerTest, SessionsSurviveTwentyMinutes) {
  // The headline behaviour: with renewal managers running at every AS,
  // SegRs never expire underneath EERs, so a session can renew itself
  // far beyond the 5-minute SegR lifetime.
  std::vector<std::unique_ptr<RenewalManager>> managers;
  for (AsId as : bed_.topology().as_ids()) {
    auto mgr = std::make_unique<RenewalManager>(bed_.cserv(as));
    mgr->manage_all_local();
    managers.push_back(std::move(mgr));
  }

  const AsId src{1, 110}, dst{2, 212};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 5'000);
  ASSERT_TRUE(session.ok());
  const auto rec = bed_.cserv(src).db().eer_copy(session.value().key());
  ASSERT_TRUE(rec.has_value());

  for (int second = 0; second < 1200; ++second) {
    clock_.advance(kNsPerSec);
    if (second % 10 == 0) {
      const UnixSec now = clock_.now_sec();
      for (auto& mgr : managers) mgr->tick(now);
      bed_.tick_all();
    }
    ASSERT_TRUE(session.value().maybe_renew()) << "second " << second;
    if (second % 7 == 0) {
      dataplane::FastPacket pkt;
      ASSERT_EQ(session.value().send(500, pkt),
                dataplane::Gateway::Verdict::kOk)
          << "second " << second;
      for (size_t i = 0; i < rec->path.size(); ++i) {
        const auto v = bed_.router(rec->path[i].as).process(pkt);
        ASSERT_TRUE(v == dataplane::BorderRouter::Verdict::kForward ||
                    v == dataplane::BorderRouter::Verdict::kDeliver)
            << "second " << second << " hop " << i;
      }
    }
  }
  // The SegRs rolled over several versions along the way.
  bool versioned = false;
  bed_.cserv(src).db().for_each_segr(
      [&](const reservation::SegrRecord& r) {
        versioned |= r.active.version >= 3;
      });
  EXPECT_TRUE(versioned);
}

TEST_F(RenewalManagerTest, DemandTracksUtilization) {
  const AsId src{1, 110};
  ResKey key;
  bed_.cserv(src).db().for_each_segr(
      [&](const reservation::SegrRecord& rec) {
        if (rec.key.src_as == src) key = rec.key;
      });
  ASSERT_TRUE(bed_.cserv(src).db().contains_segr(key));

  RenewalManager mgr(bed_.cserv(src));
  mgr.manage(key);
  // Simulate sustained 1.5 Gbps of EER usage being observed.
  bed_.cserv(src).db().with_segr(key, [](reservation::SegrRecord* rec) {
    if (rec != nullptr) rec->eer_allocated_kbps = 1'500'000;
  });
  for (int i = 0; i < 50; ++i) mgr.tick(clock_.now_sec());

  clock_.advance(260 * kNsPerSec);
  mgr.tick(clock_.now_sec());
  const auto renewed = bed_.cserv(src).db().segr_copy(key);
  ASSERT_TRUE(renewed.has_value());
  // Renewed at >= utilization (with forecaster headroom), not at some
  // unrelated static size.
  EXPECT_GE(renewed->active.bw_kbps, 1'500'000u);
}

// --- the control-plane alert pack ------------------------------------------

// The renewal-backlog rule of default_cserv_alert_rules() reads
// cserv.renewal.last_batch_max, the number of SegRs the latest renewal
// tick drained. The two-ISD testbed provisions every SegR at once, so an
// AS's whole fleet comes due in one tick.
class RenewalBacklogAlertTest : public ::testing::Test {
 protected:
  RenewalBacklogAlertTest()
      : clock_(1000 * kNsPerSec),
        bed_(topology::builders::two_isd_topology(), clock_, {},
             app::TestbedOptions{.per_as_metrics = true}) {
    bed_.provision_all_segments(1000, 2'000'000);
    // Watch the AS that initiated the most SegRs.
    for (AsId as : bed_.topology().as_ids()) {
      size_t own = 0;
      bed_.cserv(as).db().for_each_segr(
          [&](const reservation::SegrRecord& rec) {
            own += rec.key.src_as == as ? 1 : 0;
          });
      if (own > fleet_) {
        fleet_ = own;
        as_ = as;
      }
    }
  }

  // Runs one renewal tick over the AS's whole fleet, cuts a sampler
  // window after it, and returns the renewal-backlog rule's status.
  telemetry::AlertStatus backlog_after_storm(std::uint64_t renewal_backlog) {
    telemetry::WindowedSamplerConfig scfg;
    scfg.period_ns = kNsPerSec;
    telemetry::WindowedSampler sampler(*bed_.as_metrics(as_), clock_, scfg);
    telemetry::AlertEngine engine(sampler, clock_);
    engine.add_rules(default_cserv_alert_rules(50'000'000, renewal_backlog));
    RenewalManager mgr(bed_.cserv(as_));
    EXPECT_EQ(mgr.manage_all_local(), fleet_);
    clock_.advance(kNsPerSec);
    EXPECT_FALSE(sampler.poll());  // baseline

    clock_.advance(260 * kNsPerSec);  // the fleet is inside the lead window
    mgr.tick(clock_.now_sec());
    EXPECT_EQ(mgr.snapshot().renewed, fleet_);
    EXPECT_TRUE(sampler.poll());
    engine.evaluate();
    for (const telemetry::AlertStatus& st : engine.status()) {
      if (st.name == "cserv.renewal-backlog") return st;
    }
    ADD_FAILURE() << "no cserv.renewal-backlog rule";
    return {};
  }

  SimClock clock_;
  app::Testbed bed_;
  AsId as_;
  size_t fleet_ = 0;  // SegRs as_ initiated
};

TEST_F(RenewalBacklogAlertTest, FiresWhenOneTickDrainsMoreThanTheBacklog) {
  ASSERT_GT(fleet_, 1u);
  const telemetry::AlertStatus st = backlog_after_storm(fleet_ - 1);
  EXPECT_EQ(st.last_value, static_cast<double>(fleet_));
  EXPECT_EQ(st.state, telemetry::AlertState::kFiring);
}

TEST_F(RenewalBacklogAlertTest, StaysQuietWhenOneTickDrainsTheBacklog) {
  ASSERT_GT(fleet_, 1u);
  const telemetry::AlertStatus st = backlog_after_storm(fleet_);
  EXPECT_EQ(st.last_value, static_cast<double>(fleet_));
  EXPECT_EQ(st.state, telemetry::AlertState::kInactive);
}

}  // namespace
}  // namespace colibri::cserv
