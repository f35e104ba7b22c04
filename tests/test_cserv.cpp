// Control-plane tests: SegR setup/renewal/activation across ASes, EER
// setup over 1-3 SegRs, DRKey-authenticated payloads, rate limiting,
// policy, whitelists, dissemination, policing, and the distributed CServ.
#include <gtest/gtest.h>

#include <limits>

#include "colibri/app/testbed.hpp"
#include "colibri/common/faults.hpp"
#include "colibri/crypto/sha256.hpp"

namespace colibri::cserv {
namespace {

using app::Testbed;

class CservTest : public ::testing::Test {
 protected:
  CservTest()
      : clock_(1000 * kNsPerSec),
        bed_(topology::builders::two_isd_topology(), clock_) {}

  // Convenience: one up-segment starting at `src`.
  topology::PathSegment up_segment(AsId src) {
    auto ups = bed_.pathdb().up_segments_from(src);
    EXPECT_FALSE(ups.empty());
    return *ups.front();
  }

  SimClock clock_;
  Testbed bed_;
};

TEST_F(CservTest, SegrSetupGrantsAndStoresEverywhere) {
  const AsId src{1, 112};  // grandchild: 3-hop up-segment
  const auto seg = up_segment(src);
  ASSERT_EQ(seg.hops.size(), 3u);

  auto r = bed_.cserv(src).setup_segr(seg, 1000, 500'000);
  ASSERT_TRUE(r.ok()) << errc_name(r.error());
  EXPECT_EQ(r.value().bw_kbps, 500'000u);
  EXPECT_EQ(r.value().key.src_as, src);

  // Every on-path AS stores the reservation with the final bandwidth.
  for (const auto& hop : seg.hops) {
    const auto rec = bed_.cserv(hop.as).db().segr_copy(r.value().key);
    ASSERT_TRUE(rec.has_value()) << hop.as.to_string();
    EXPECT_EQ(rec->active.bw_kbps, 500'000u);
    EXPECT_EQ(rec->seg_type, topology::SegType::kUp);
  }
  // The initiator received one token per on-path AS.
  const auto* tokens = bed_.cserv(src).segr_tokens(r.value().key);
  ASSERT_NE(tokens, nullptr);
  EXPECT_EQ(tokens->size(), seg.hops.size());
}

TEST_F(CservTest, SegrTokensValidateAtRouters) {
  const AsId src{1, 112};
  const auto seg = up_segment(src);
  auto r = bed_.cserv(src).setup_segr(seg, 1000, 100'000);
  ASSERT_TRUE(r.ok());
  const auto* tokens = bed_.cserv(src).segr_tokens(r.value().key);
  ASSERT_NE(tokens, nullptr);

  // Construct a SegR control packet and verify each hop's token at the
  // corresponding AS's border router (Eq. 3).
  dataplane::FastPacket pkt;
  pkt.type = proto::PacketType::kSegRenewal;
  pkt.is_eer = false;
  pkt.num_hops = static_cast<std::uint8_t>(seg.hops.size());
  pkt.resinfo.src_as = src;
  pkt.resinfo.res_id = r.value().key.res_id;
  pkt.resinfo.bw_kbps = r.value().bw_kbps;
  pkt.resinfo.exp_time = r.value().exp_time;
  pkt.resinfo.version = r.value().version;
  for (size_t i = 0; i < seg.hops.size(); ++i) {
    pkt.ifaces[i] = dataplane::IfPair{seg.hops[i].ingress, seg.hops[i].egress};
    pkt.hvfs[i] = (*tokens)[i];
  }
  for (size_t i = 0; i + 1 < seg.hops.size(); ++i) {
    EXPECT_EQ(bed_.router(seg.hops[i].as).process(pkt),
              dataplane::BorderRouter::Verdict::kForward)
        << "hop " << i;
  }
  EXPECT_EQ(bed_.router(seg.hops.back().as).process(pkt),
            dataplane::BorderRouter::Verdict::kDeliver);
}

TEST_F(CservTest, SegrContentionSharesCapacity) {
  // Link capacity 40 Gbps * 75 % = 30 Gbps Colibri share. Two siblings
  // request 25 Gbps each through the same parent egress; together they
  // must not exceed the share.
  const AsId a{1, 112};
  const auto seg = up_segment(a);
  auto r1 = bed_.cserv(a).setup_segr(seg, 1000, 25'000'000);
  ASSERT_TRUE(r1.ok());
  auto r2 = bed_.cserv(a).setup_segr(seg, 1000, 25'000'000);
  ASSERT_TRUE(r2.ok());
  EXPECT_LE(static_cast<std::uint64_t>(r1.value().bw_kbps) +
                r2.value().bw_kbps,
            30'000'000u);
}

TEST_F(CservTest, SegrBelowMinFails) {
  const AsId a{1, 112};
  const auto seg = up_segment(a);
  // Saturate.
  ASSERT_TRUE(bed_.cserv(a).setup_segr(seg, 1000, 30'000'000).ok());
  // Impossible minimum.
  auto r = bed_.cserv(a).setup_segr(seg, 29'000'000, 30'000'000);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errc::kBandwidthUnavailable);
}

TEST_F(CservTest, SegrLongerThanHopLimitIsMalformed) {
  const AsId src{1, 112};
  auto seg = up_segment(src);
  // Extend the real segment past the one hop limit with made-up ASes.
  for (std::uint64_t n = 0; seg.hops.size() <= proto::kMaxHops; ++n) {
    seg.hops.push_back(topology::Hop{AsId{9, 900 + n}, 1, 2});
  }
  ASSERT_EQ(seg.hops.size(), proto::kMaxHops + 1);
  auto& cserv = bed_.cserv(src);
  const size_t segrs_before = cserv.db().segr_count();
  const size_t allocs_before = cserv.segr_admission().tracked();

  auto r = cserv.setup_segr(seg, 1000, 100'000);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errc::kMalformed);
  EXPECT_EQ(cserv.db().segr_count(), segrs_before);
  EXPECT_EQ(cserv.segr_admission().tracked(), allocs_before);
}

TEST_F(CservTest, SegrRenewalCreatesPendingThenActivates) {
  const AsId src{1, 110};
  const auto seg = up_segment(src);
  auto setup = bed_.cserv(src).setup_segr(seg, 1000, 1'000'000);
  ASSERT_TRUE(setup.ok());
  const ResKey key = setup.value().key;

  clock_.advance(2 * kNsPerSec);  // renewal rate limit: 1/s
  auto renew = bed_.cserv(src).renew_segr(key, 1000, 2'000'000);
  ASSERT_TRUE(renew.ok()) << errc_name(renew.error());
  EXPECT_EQ(renew.value().version, 1);

  // Pending everywhere, active unchanged (§4.2: explicit activation).
  for (const auto& hop : seg.hops) {
    const auto rec = bed_.cserv(hop.as).db().segr_copy(key);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->active.version, 0);
    ASSERT_TRUE(rec->pending.has_value());
    EXPECT_EQ(rec->pending->version, 1);
  }

  auto act = bed_.cserv(src).activate_segr(key, 1);
  ASSERT_TRUE(act.ok()) << errc_name(act.error());
  for (const auto& hop : seg.hops) {
    const auto rec = bed_.cserv(hop.as).db().segr_copy(key);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->active.version, 1);
    EXPECT_EQ(rec->active.bw_kbps, renew.value().bw_kbps);
    EXPECT_FALSE(rec->pending.has_value());
  }
}

TEST_F(CservTest, ActivationOfUnknownVersionFails) {
  const AsId src{1, 110};
  auto setup = bed_.cserv(src).setup_segr(up_segment(src), 1000, 1'000'000);
  ASSERT_TRUE(setup.ok());
  auto act = bed_.cserv(src).activate_segr(setup.value().key, 7);
  EXPECT_FALSE(act.ok());
  EXPECT_EQ(act.error(), Errc::kBadVersion);
}

TEST_F(CservTest, RenewalRateLimited) {
  const AsId src{1, 110};
  auto setup = bed_.cserv(src).setup_segr(up_segment(src), 1000, 1'000'000);
  ASSERT_TRUE(setup.ok());
  clock_.advance(2 * kNsPerSec);
  ASSERT_TRUE(bed_.cserv(src).renew_segr(setup.value().key, 1000, 1'000'000).ok());
  // Immediate second renewal exceeds 1/s + small burst.
  clock_.advance(kNsPerSec / 100);
  ASSERT_TRUE(bed_.cserv(src).renew_segr(setup.value().key, 1000, 1'000'000).ok());
  clock_.advance(kNsPerSec / 100);
  auto third = bed_.cserv(src).renew_segr(setup.value().key, 1000, 1'000'000);
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.error(), Errc::kRateLimited);
}

class EerTest : public CservTest {
 protected:
  EerTest() { bed_.provision_all_segments(1000, 10'000'000); }
};

TEST_F(EerTest, EndToEndReservationAcrossIsds) {
  // Grandchild in ISD 1 to grandchild in ISD 2: up + core + down.
  const AsId src{1, 112}, dst{2, 212};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 50'000);
  ASSERT_TRUE(session.ok()) << errc_name(session.error());
  EXPECT_EQ(session.value().bw_kbps(), 50'000u);

  // The gateway has the reservation installed and produces packets that
  // verify at every on-path router.
  dataplane::FastPacket pkt;
  ASSERT_EQ(session.value().send(800, pkt), dataplane::Gateway::Verdict::kOk);
  const auto rec =
      bed_.cserv(src).db().eer_copy(session.value().key());
  ASSERT_TRUE(rec.has_value());
  for (size_t i = 0; i < rec->path.size(); ++i) {
    const auto verdict = bed_.router(rec->path[i].as).process(pkt);
    if (i + 1 < rec->path.size()) {
      EXPECT_EQ(verdict, dataplane::BorderRouter::Verdict::kForward) << i;
    } else {
      EXPECT_EQ(verdict, dataplane::BorderRouter::Verdict::kDeliver);
    }
  }

  // Every on-path AS stored the EER and accounted it on its SegR.
  for (const auto& hop : rec->path) {
    const auto eer = bed_.cserv(hop.as).db().eer_copy(rec->key);
    ASSERT_TRUE(eer.has_value()) << hop.as.to_string();
    EXPECT_EQ(eer->effective_bw(clock_.now_sec()), 50'000u);
  }
}

TEST_F(EerTest, EerRenewalAddsVersion) {
  const AsId src{1, 110}, dst{1, 120};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 20'000);
  ASSERT_TRUE(session.ok()) << errc_name(session.error());
  const ResKey key = session.value().key();

  clock_.advance(13 * kNsPerSec);  // near the 16 s expiry
  EXPECT_TRUE(session.value().maybe_renew(4));
  EXPECT_EQ(session.value().version(), 1);

  const auto rec = bed_.cserv(src).db().eer_copy(key);
  ASSERT_TRUE(rec.has_value());
  EXPECT_GE(rec->versions.size(), 1u);
  EXPECT_EQ(rec->versions.back().version, 1);
  // New expiry extends beyond the old one.
  EXPECT_GT(session.value().exp_time(), 1000u + 16u);
}

TEST_F(EerTest, EerLimitedBySegrBandwidth) {
  const AsId src{1, 110}, dst{1, 120};
  // SegRs were provisioned at 10 Gbps; an EER demanding 50 Gbps gets
  // clamped to the available SegR bandwidth.
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 50'000'000);
  ASSERT_TRUE(session.ok()) << errc_name(session.error());
  EXPECT_LE(session.value().bw_kbps(), 10'000'000u);
}

TEST_F(EerTest, EerExhaustionRejectsWhenMinUnmet) {
  const AsId src{1, 110}, dst{1, 120};
  // Drain the SegR with large EERs, then ask for more than remains.
  for (int i = 0; i < 2; ++i) {
    auto s = bed_.daemon(src).open_session(dst, HostAddr::from_u64(10 + i),
                                           HostAddr::from_u64(2), 1'000'000,
                                           5'000'000);
    ASSERT_TRUE(s.ok()) << i << ": " << errc_name(s.error());
  }
  auto full = bed_.daemon(src).open_session(dst, HostAddr::from_u64(99),
                                            HostAddr::from_u64(2), 9'000'000,
                                            9'000'000);
  EXPECT_FALSE(full.ok());
}

TEST_F(EerTest, DestinationHostCanReject) {
  const AsId src{1, 110}, dst{1, 120};
  bed_.cserv(dst).set_host_acceptor(
      [](const proto::EerInfo&, BwKbps) { return false; });
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 1000);
  EXPECT_FALSE(session.ok());
  EXPECT_EQ(session.error(), Errc::kPolicyDenied);
}

TEST_F(EerTest, SourcePolicyCapsPerHost) {
  CservConfig cfg;
  cfg.per_host_eer_cap_kbps = 500;
  SimClock clock(1000 * kNsPerSec);
  Testbed bed(topology::builders::two_isd_topology(), clock, cfg);
  bed.provision_all_segments(100, 1'000'000);
  const AsId src{1, 110}, dst{1, 120};
  auto session = bed.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 100'000);
  ASSERT_TRUE(session.ok()) << errc_name(session.error());
  EXPECT_LE(session.value().bw_kbps(), 500u);

  auto denied = bed.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 1000, 100'000);
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.error(), Errc::kPolicyDenied);
}

TEST_F(EerTest, WhitelistEnforced) {
  // Publish the down-segment to {2,210} with a whitelist excluding the
  // requester.
  const AsId src{1, 110}, dst{2, 210};
  // Re-publish all SegRs of dst's down segment initiators with whitelists
  // that exclude src.
  for (AsId core : bed_.topology().core_ases()) {
    auto& cs = bed_.cserv(core);
    std::vector<ResKey> keys;
    cs.db().for_each_segr([&](const reservation::SegrRecord& rec) {
      if (rec.key.src_as == core) keys.push_back(rec.key);
    });
    for (const auto& k : keys) cs.publish_segr(k, {AsId{9, 999}});
  }
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 1000);
  EXPECT_FALSE(session.ok());
}

TEST_F(EerTest, OffenderDeniedFutureReservations) {
  const AsId src{1, 110}, dst{1, 120}, transit{1, 100};
  bed_.cserv(transit).report_offense(
      dataplane::OffenseReport{src, 1, clock_.now_ns(), 1 << 20});
  EXPECT_TRUE(bed_.cserv(transit).reservations_denied_for(src));
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 1000);
  EXPECT_FALSE(session.ok());
  EXPECT_EQ(session.error(), Errc::kBlocked);
}

TEST_F(EerTest, TickExpiresEverything) {
  const AsId src{1, 110}, dst{1, 120};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 1000);
  ASSERT_TRUE(session.ok());
  // Jump past both EER (16 s) and SegR (300 s) lifetimes.
  clock_.advance(400 * kNsPerSec);
  bed_.tick_all();
  EXPECT_EQ(bed_.cserv(src).db().eer_count(), 0u);
  EXPECT_EQ(bed_.cserv(src).db().segr_count(), 0u);
  EXPECT_TRUE(session.value().expired());
}

// A renewal bucket lives exactly as long as the reservation it guards:
// the sweep that removes a SegR or an EER drops its bucket at every AS.
TEST_F(EerTest, SweepLeavesNoRenewalBucketBehind) {
  const AsId src{1, 110}, dst{1, 120};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 1000);
  ASSERT_TRUE(session.ok());
  const auto rec = bed_.cserv(src).db().eer_copy(session.value().key());
  ASSERT_TRUE(rec.has_value());
  clock_.advance(13 * kNsPerSec);
  ASSERT_TRUE(session.value().maybe_renew(4));
  ASSERT_TRUE(
      bed_.cserv(src).renew_segr(rec->segrs.front(), 1000, 10'000'000).ok());
  for (const auto& hop : rec->path) {
    EXPECT_GE(bed_.cserv(hop.as).rate_limiter().renewal_buckets(), 1u)
        << hop.as.to_string();
  }

  clock_.advance(400 * kNsPerSec);  // past every EER and SegR lifetime
  bed_.tick_all();
  for (const AsId as : bed_.topology().as_ids()) {
    EXPECT_EQ(bed_.cserv(as).db().eer_count(), 0u) << as.to_string();
    EXPECT_EQ(bed_.cserv(as).rate_limiter().renewal_buckets(), 0u)
        << as.to_string();
  }
}

// An AS opens no bucket for an EER it does not store: a transit AS that
// lost the record admits the renewal like a setup.
TEST_F(EerTest, RenewalOfUnstoredEerOpensNoBucket) {
  const AsId src{1, 110}, dst{1, 120}, transit{1, 100};
  auto session = bed_.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 1000);
  ASSERT_TRUE(session.ok());
  const ResKey key = session.value().key();
  ASSERT_TRUE(bed_.cserv(transit).db().erase_eer(key));
  clock_.advance(13 * kNsPerSec);
  ASSERT_TRUE(session.value().maybe_renew(4));
  EXPECT_TRUE(bed_.cserv(transit).db().contains_eer(key));
  EXPECT_EQ(bed_.cserv(transit).rate_limiter().renewal_buckets(), 0u);
  EXPECT_EQ(bed_.cserv(src).rate_limiter().renewal_buckets(), 1u);
}

TEST_F(EerTest, LookupChainsFindsMultiSegmentRoutes) {
  const AsId src{1, 112}, dst{2, 212};
  const auto chains = bed_.cserv(src).lookup_chains(dst);
  ASSERT_FALSE(chains.empty());
  bool has_three = false;
  for (const auto& chain : chains) {
    EXPECT_GE(chain.size(), 1u);
    EXPECT_LE(chain.size(), 3u);
    has_three |= chain.size() == 3;
    // Chain connectivity.
    for (size_t i = 1; i < chain.size(); ++i) {
      EXPECT_EQ(chain[i - 1].last_as(), chain[i].first_as());
    }
  }
  EXPECT_TRUE(has_three);
}

TEST_F(EerTest, RemoteAdvertsAreCached) {
  const AsId src{1, 110}, dst{1, 120};
  const std::uint64_t before = bed_.bus().snapshot().messages;
  (void)bed_.cserv(src).lookup_chains(dst);
  const std::uint64_t after_first = bed_.bus().snapshot().messages;
  EXPECT_GT(after_first, before);  // remote queries happened
  (void)bed_.cserv(src).lookup_chains(dst);
  const std::uint64_t after_second = bed_.bus().snapshot().messages;
  // Cached: the repeat lookup needs strictly fewer remote messages (only
  // the never-hit query pairs are retried; positive results are served
  // from the local registry).
  EXPECT_LT(after_second - after_first, after_first - before);
}

TEST_F(CservTest, ForgedRequestRejected) {
  // Craft a SegReq whose MACs are garbage: every on-path AS must refuse.
  const AsId src{1, 110};
  const auto seg = up_segment(src);
  proto::SegRequest msg;
  msg.seg_type = seg.type;
  msg.min_bw_kbps = 1;
  msg.max_bw_kbps = 1000;
  for (const auto& h : seg.hops) msg.ases.push_back(h.as);

  proto::Packet pkt;
  pkt.type = proto::PacketType::kSegSetup;
  pkt.path = seg.hops;
  pkt.resinfo.src_as = src;
  pkt.resinfo.res_id = 777;
  pkt.resinfo.bw_kbps = 1000;
  pkt.resinfo.exp_time = clock_.now_sec() + 300;
  pkt.current_hop = 1;  // deliver straight to the second AS

  proto::AuthedPayload ap;
  ap.message = msg;
  ap.macs.assign(msg.ases.size(), proto::Mac16{0xDE, 0xAD});
  pkt.payload = proto::encode_authed(ap);

  Bytes framed;
  framed.push_back(0);  // packet channel
  append_bytes(framed, proto::encode_packet(pkt));
  const Bytes resp_wire = bed_.bus().call(seg.hops[1].as, framed);
  auto resp_pkt = proto::decode_packet(resp_wire);
  ASSERT_TRUE(resp_pkt.has_value());
  auto resp_ap = proto::decode_authed(resp_pkt->payload);
  ASSERT_TRUE(resp_ap.has_value());
  auto* resp = std::get_if<proto::ControlResponse>(&resp_ap->message);
  ASSERT_NE(resp, nullptr);
  EXPECT_FALSE(resp->success);
  EXPECT_EQ(resp->fail_code, Errc::kAuthFailed);
  EXPECT_EQ(bed_.cserv(seg.hops[1].as).snapshot().auth_failures, 1u);
}

// DRKey epochs roll over under live reservations: a renewal after the
// boundary authenticates with the new epoch's keys at every AS, whether or
// not a tick has refreshed the cached secret values and fetched keys.
void renew_across_drkey_epoch(bool tick_between) {
  // A few seconds before the first epoch ends, so the SegRs stay valid.
  SimClock clock((drkey::kDefaultEpochSeconds - 5) * kNsPerSec);
  Testbed bed(topology::builders::two_isd_topology(), clock);
  ASSERT_GT(bed.provision_all_segments(1000, 10'000'000), 0u);
  const AsId src{1, 112}, dst{2, 212};
  auto session = bed.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 20'000);
  ASSERT_TRUE(session.ok()) << errc_name(session.error());
  const ResKey key = session.value().key();
  const drkey::Epoch first =
      bed.cserv(src).drkey_engine().schedule().epoch_at(clock.now_sec());

  clock.advance(10 * kNsPerSec);
  ASSERT_FALSE(first.contains(clock.now_sec()));
  if (tick_between) bed.tick_all();

  auto renewed = bed.cserv(src).renew_eer(key, 100, 20'000);
  ASSERT_TRUE(renewed.ok()) << errc_name(renewed.error());
  EXPECT_EQ(renewed.value().version, 1);
  auto fresh = bed.daemon(src).open_session(
      dst, HostAddr::from_u64(3), HostAddr::from_u64(4), 100, 20'000);
  ASSERT_TRUE(fresh.ok()) << errc_name(fresh.error());

  const auto rec = bed.cserv(src).db().eer_copy(key);
  ASSERT_TRUE(rec.has_value());
  for (const auto& hop : rec->path) {
    const auto eer = bed.cserv(hop.as).db().eer_copy(key);
    ASSERT_TRUE(eer.has_value()) << hop.as.to_string();
    EXPECT_EQ(eer->versions.back().version, 1) << hop.as.to_string();
    EXPECT_EQ(bed.cserv(hop.as).snapshot().auth_failures, 0u)
        << hop.as.to_string();
  }
}

TEST(DrkeyEpochTest, EerRenewsAcrossEpochWithoutTick) {
  renew_across_drkey_epoch(false);
}

TEST(DrkeyEpochTest, EerRenewsAcrossEpochAfterTick) {
  renew_across_drkey_epoch(true);
}

// Rate limits no digest run reaches.
CservConfig unlimited_config() {
  CservConfig cfg;
  cfg.rate_limits.per_as_requests_per_sec = 1e12;
  cfg.rate_limits.per_as_burst = 1e12;
  cfg.rate_limits.renewals_per_reservation_per_sec = 1e12;
  cfg.rate_limits.renewal_burst = 1e12;
  return cfg;
}

// SHA-256 over every bus delivery of a testbed, request and response,
// each length-prefixed.
class FrameDigest {
 public:
  explicit FrameDigest(Testbed& bed) {
    for (const AsId as : bed.topology().as_ids()) {
      CServ* cs = &bed.cserv(as);
      bed.bus().attach(as, [this, cs](BytesView wire) {
        Bytes out = cs->handle(wire);
        for (const BytesView frame : {wire, BytesView(out)}) {
          Bytes len;
          put_le(len, static_cast<std::uint32_t>(frame.size()));
          sha_.update(len);
          sha_.update(frame);
        }
        ++frames_;
        return out;
      });
    }
  }

  std::size_t frames() const { return frames_; }
  std::string hex() {
    const auto d = sha_.finish();
    return to_hex(BytesView(d.data(), d.size()));
  }

 private:
  crypto::Sha256 sha_;
  std::size_t frames_ = 0;
};

// Pins the control plane's wire bytes: the frames of a fixed SimClock run
// of SegR provisioning, then 32 EER setups and 32 renewals from 1-112 to
// 2-212. Changes that only move work around (caching keys, reusing
// contexts) must leave the digest as it is.
TEST(WireIdentityTest, BusFramesMatchGoldenDigest) {
  SimClock clock(1000 * kNsPerSec);
  Testbed bed(topology::builders::two_isd_topology(), clock,
              unlimited_config());
  FrameDigest digest(bed);
  ASSERT_GT(bed.provision_all_segments(100, 2'000'000), 0u);

  const AsId src{1, 112}, dst{2, 212};
  const auto chains = bed.cserv(src).lookup_chains(dst);
  ASSERT_FALSE(chains.empty());
  std::vector<ResKey> segrs;
  for (const auto& advert : chains.front()) segrs.push_back(advert.key);
  std::vector<ResKey> eers;
  for (std::uint64_t i = 0; i < 32; ++i) {
    auto r = bed.cserv(src).setup_eer(segrs, HostAddr::from_u64(1 + i),
                                      HostAddr::from_u64(1000 + i), 100, 1000);
    ASSERT_TRUE(r.ok()) << "setup " << i << ": " << errc_name(r.error());
    eers.push_back(r.value().key);
  }
  for (const ResKey& k : eers) {
    auto r = bed.cserv(src).renew_eer(k, 100, 1000);
    ASSERT_TRUE(r.ok()) << "renewal: " << errc_name(r.error());
  }
  EXPECT_EQ(digest.hex(),
            "281bb54fdf9035833c37cf35bbc84bcfd609c0b7e43f430163e12971b5eab395")
      << digest.frames() << " bus deliveries";
}

// Pins the frames of the request paths the digest above does not reach:
// SegR renewal and activation, an activation a downstream AS refuses for
// its version, a down-SegR request, an EER the destination host vetoes,
// an EER admission refuses mid-path, a forged-MAC request, and an EER
// whose next hop the bus drops.
TEST(WireIdentityTest, RenewalsAndRefusalsMatchGoldenDigest) {
  SimClock clock(1000 * kNsPerSec);
  Testbed bed(topology::builders::two_isd_topology(), clock,
              unlimited_config());
  FrameDigest digest(bed);
  ASSERT_GT(bed.provision_all_segments(100, 2'000'000), 0u);

  // SegR renewal + activation, then a renewal whose activation the last
  // AS refuses because its pending version differs.
  const AsId leaf{1, 110};
  const topology::PathSegment up = *bed.pathdb().up_segments_from(leaf).front();
  auto seg = bed.cserv(leaf).setup_segr(up, 100, 1000);
  ASSERT_TRUE(seg.ok()) << errc_name(seg.error());
  const ResKey segr = seg.value().key;
  auto renewed = bed.cserv(leaf).renew_segr(segr, 100, 2000);
  ASSERT_TRUE(renewed.ok()) << errc_name(renewed.error());
  ASSERT_TRUE(bed.cserv(leaf).activate_segr(segr, renewed.value().version).ok());
  renewed = bed.cserv(leaf).renew_segr(segr, 100, 3000);
  ASSERT_TRUE(renewed.ok()) << errc_name(renewed.error());
  bed.cserv(up.last_as()).db().with_segr(segr, [](reservation::SegrRecord* r) {
    ASSERT_NE(r, nullptr);
    ASSERT_TRUE(r->pending.has_value());
    r->pending->version = 7;
  });
  auto stale = bed.cserv(leaf).activate_segr(segr, renewed.value().version);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.error(), Errc::kBadVersion);

  // A down-SegR set up by its core AS on the last AS's request (§3.3).
  const AsId src{1, 112}, dst{2, 212};
  const topology::PathSegment down =
      *bed.pathdb().down_segments_to(dst).front();
  auto down_segr = bed.cserv(dst).request_down_segr(down, 100, 1000);
  ASSERT_TRUE(down_segr.ok()) << errc_name(down_segr.error());

  const auto chains = bed.cserv(src).lookup_chains(dst);
  ASSERT_FALSE(chains.empty());
  std::vector<ResKey> segrs;
  for (const auto& advert : chains.front()) segrs.push_back(advert.key);

  // The destination host vetoes the EER.
  bed.cserv(dst).set_host_acceptor(
      [](const proto::EerInfo&, BwKbps) { return false; });
  auto vetoed = bed.cserv(src).setup_eer(segrs, HostAddr::from_u64(1),
                                         HostAddr::from_u64(2), 100, 1000);
  ASSERT_FALSE(vetoed.ok());
  EXPECT_EQ(vetoed.error(), Errc::kPolicyDenied);
  bed.cserv(dst).set_host_acceptor(nullptr);

  // Admission refuses at hop 1: its first SegR has no bandwidth left.
  const AsId mid = chains.front().front().hops[1].as;
  BwKbps saved = 0;
  auto fill = [&](BwKbps v) {
    bed.cserv(mid).db().with_segr(segrs[0], [&](reservation::SegrRecord* r) {
      ASSERT_NE(r, nullptr);
      saved = r->eer_allocated_kbps;
      r->eer_allocated_kbps = v;
    });
  };
  fill(2'000'000);
  const BwKbps before = saved;
  auto refused = bed.cserv(src).setup_eer(segrs, HostAddr::from_u64(3),
                                          HostAddr::from_u64(4), 100, 1000);
  ASSERT_FALSE(refused.ok());
  fill(before);

  // A SegReq whose MACs are garbage, delivered straight to hop 1.
  proto::SegRequest forged;
  forged.seg_type = up.type;
  forged.min_bw_kbps = 1;
  forged.max_bw_kbps = 1000;
  for (const auto& h : up.hops) forged.ases.push_back(h.as);
  proto::Packet pkt;
  pkt.type = proto::PacketType::kSegSetup;
  pkt.path = up.hops;
  pkt.resinfo.src_as = leaf;
  pkt.resinfo.res_id = 777;
  pkt.resinfo.bw_kbps = 1000;
  pkt.resinfo.exp_time = clock.now_sec() + 300;
  pkt.current_hop = 1;
  proto::AuthedPayload ap;
  ap.message = forged;
  ap.macs.assign(forged.ases.size(), proto::Mac16{0xDE, 0xAD});
  pkt.payload = proto::encode_authed(ap);
  Bytes framed{0};
  append_bytes(framed, proto::encode_packet(pkt));
  EXPECT_FALSE(bed.bus().call(up.hops[1].as, framed).empty());

  // The bus drops every delivery to the destination: the hop before it
  // answers kInternal.
  FaultInjector faults(clock, 1);
  faults.add_message_plan({0, std::numeric_limits<TimeNs>::max(), dst.raw(),
                           1.0, 0.0, 0.0});
  bed.bus().attach_fault_injector(&faults);
  auto dropped = bed.cserv(src).setup_eer(segrs, HostAddr::from_u64(5),
                                          HostAddr::from_u64(6), 100, 1000);
  bed.bus().attach_fault_injector(nullptr);
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.error(), Errc::kInternal);

  EXPECT_EQ(digest.hex(),
            "a047e9e03e570d8aee692989c62287e2dace602795e4717aaa03c3646d316247")
      << digest.frames() << " bus deliveries";
}

}  // namespace
}  // namespace colibri::cserv
