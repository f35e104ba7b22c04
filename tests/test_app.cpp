// Unit tests: end-host stack — daemon, session lifecycle, testbed wiring.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "colibri/app/testbed.hpp"

namespace colibri::app {
namespace {

class AppTest : public ::testing::Test {
 protected:
  AppTest()
      : clock_(1000 * kNsPerSec),
        bed_(topology::builders::two_isd_topology(), clock_) {
    bed_.provision_all_segments(1000, 2'000'000);
  }

  SimClock clock_;
  Testbed bed_;
};

TEST_F(AppTest, TestbedBuildsFullStacks) {
  for (AsId as : bed_.topology().as_ids()) {
    AsStack& s = bed_.stack(as);
    EXPECT_NE(s.cserv, nullptr);
    EXPECT_NE(s.gateway, nullptr);
    EXPECT_NE(s.router, nullptr);
    EXPECT_NE(s.daemon, nullptr);
    EXPECT_EQ(s.cserv->local_as(), as);
    EXPECT_TRUE(bed_.bus().reachable(as));
  }
  EXPECT_THROW(bed_.stack(AsId{9, 9}), std::out_of_range);
}

TEST_F(AppTest, OpenSessionInstallsGatewayState) {
  const AsId src{1, 110}, dst{1, 120};
  const size_t before = bed_.gateway(src).reservation_count();
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 5000);
  ASSERT_TRUE(session.ok()) << errc_name(session.error());
  EXPECT_EQ(bed_.gateway(src).reservation_count(), before + 1);
}

TEST_F(AppTest, SessionSendRespectsReservedRate) {
  const AsId src{1, 110}, dst{1, 120};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 1000);  // 1 Mbps
  ASSERT_TRUE(session.ok());
  // Blast far above 1 Mbps without advancing time: the gateway's token
  // bucket must start limiting.
  int limited = 0;
  for (int i = 0; i < 5000; ++i) {
    dataplane::FastPacket pkt;
    if (session.value().send(1000, pkt) ==
        dataplane::Gateway::Verdict::kRateLimited) {
      ++limited;
    }
  }
  EXPECT_GT(limited, 0);
}

TEST_F(AppTest, PaceIntervalMatchesBandwidth) {
  const AsId src{1, 110}, dst{1, 120};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 8000);  // 8 Mbps
  ASSERT_TRUE(session.ok());
  // 1000 B at 8 Mbps -> 1 ms per packet.
  EXPECT_NEAR(static_cast<double>(session.value().pace_interval_ns(1000)),
              1e6, 1e4);
}

TEST_F(AppTest, MaybeRenewIsNoopWhenNotDue) {
  const AsId src{1, 110}, dst{1, 120};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 1000);
  ASSERT_TRUE(session.ok());
  const ResVer v0 = session.value().version();
  EXPECT_TRUE(session.value().maybe_renew());
  EXPECT_EQ(session.value().version(), v0);  // 16 s away, nothing to do
}

TEST_F(AppTest, ExpiredSessionReportsExpired) {
  const AsId src{1, 110}, dst{1, 120};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 1000);
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(session.value().expired());
  clock_.advance(20 * kNsPerSec);
  EXPECT_TRUE(session.value().expired());
}

// Collects one source's counters and histograms by name.
struct CaptureSink : telemetry::MetricSink {
  void counter(std::string_view name, std::uint64_t v) override {
    counters[std::string(name)] = v;
  }
  void gauge(std::string_view, std::int64_t) override {}
  void histogram(std::string_view name,
                 const telemetry::HistogramSnapshot& h) override {
    hists[std::string(name)] = h;
  }
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, telemetry::HistogramSnapshot> hists;
};

TEST_F(AppTest, ExpiredEerLeavesSourceGatewayOnTick) {
  const AsId src{1, 110}, dst{1, 120};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 1000);
  ASSERT_TRUE(session.ok());
  const size_t installed = bed_.gateway(src).reservation_count();
  dataplane::FastPacket pkt;
  EXPECT_EQ(session.value().send(100, pkt), dataplane::Gateway::Verdict::kOk);

  clock_.advance(20 * kNsPerSec);
  // Past its expiry the gateway refuses it, but still holds the entry
  // until the source CServ's tick expires the EER.
  EXPECT_EQ(session.value().send(100, pkt),
            dataplane::Gateway::Verdict::kExpired);
  EXPECT_EQ(bed_.gateway(src).reservation_count(), installed);
  bed_.tick_all();
  EXPECT_EQ(bed_.gateway(src).reservation_count(), installed - 1);
  EXPECT_EQ(session.value().send(100, pkt),
            dataplane::Gateway::Verdict::kNoReservation);

  // The tick is visible: the EER counted as expired and its index entry
  // as examined; the SegRs it rode are not due yet.
  CaptureSink sink;
  bed_.cserv(src).collect_metrics(sink);
  EXPECT_EQ(sink.counters.at("cserv.expired"), 1u);
  EXPECT_EQ(sink.counters.at("cserv.tick.examined"), 1u);
  ASSERT_EQ(sink.hists.count("cserv.tick_ns"), 1u);
  EXPECT_EQ(sink.hists.at("cserv.tick_ns").count, 1u);
}

TEST_F(AppTest, OpenSessionToUnreachableAsFails) {
  auto session = bed_.daemon(AsId{1, 110}).open_session(
      AsId{7, 777}, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 1000);
  EXPECT_FALSE(session.ok());
}

TEST_F(AppTest, CandidateChainsConnectEndToEnd) {
  const AsId src{1, 112}, dst{2, 221};
  const auto chains = bed_.daemon(src).candidate_chains(dst);
  ASSERT_FALSE(chains.empty());
  for (const auto& chain : chains) {
    EXPECT_EQ(chain.front().first_as(), src);
    EXPECT_EQ(chain.back().last_as(), dst);
  }
}

TEST_F(AppTest, ProvisionAllSegmentsIdempotentKeys) {
  // Provisioning twice creates fresh reservations with distinct ResIds;
  // (SrcAS, ResId) stays globally unique.
  const size_t more = bed_.provision_all_segments(1000, 1'000'000);
  EXPECT_GT(more, 0u);
  for (AsId as : bed_.topology().as_ids()) {
    std::set<ResId> seen;
    bed_.cserv(as).db().for_each_segr(
        [&](const reservation::SegrRecord& rec) {
          if (rec.key.src_as == as) {
            EXPECT_TRUE(seen.insert(rec.key.res_id).second);
          }
        });
  }
}

TEST_F(AppTest, ConcurrentSessionsShareSegr) {
  const AsId src{1, 110}, dst{1, 120};
  std::vector<Result<ReservationSession>> sessions;
  for (int i = 0; i < 5; ++i) {
    sessions.push_back(bed_.daemon(src).open_session(
        dst, HostAddr::from_u64(10 + i), HostAddr::from_u64(2), 100, 1000));
    ASSERT_TRUE(sessions.back().ok()) << i;
  }
  // All sessions produce forwardable packets.
  for (auto& s : sessions) {
    dataplane::FastPacket pkt;
    EXPECT_EQ(s.value().send(100, pkt), dataplane::Gateway::Verdict::kOk);
  }
}

}  // namespace
}  // namespace colibri::app
