// Edge cases in the control-plane request handlers: malformed messages,
// stale references, tampered responses, and state-restoration invariants
// on failed requests.
#include <gtest/gtest.h>

#include <limits>

#include "colibri/app/testbed.hpp"
#include "colibri/common/faults.hpp"

namespace colibri::cserv {
namespace {

using app::Testbed;

class HandlerEdgeTest : public ::testing::Test {
 protected:
  HandlerEdgeTest()
      : clock_(1000 * kNsPerSec),
        bed_(topology::builders::two_isd_topology(), clock_) {
    bed_.provision_all_segments(1000, 2'000'000);
  }

  // Frames a packet for the bus packet channel.
  static Bytes framed(const proto::Packet& pkt) {
    Bytes out;
    out.push_back(0);
    append_bytes(out, proto::encode_packet(pkt));
    return out;
  }

  static proto::ControlResponse response_of(const Bytes& wire) {
    auto pkt = proto::decode_packet(wire);
    EXPECT_TRUE(pkt.has_value());
    auto ap = proto::decode_authed(pkt->payload);
    EXPECT_TRUE(ap.has_value());
    auto* resp = std::get_if<proto::ControlResponse>(&ap->message);
    EXPECT_NE(resp, nullptr);
    return *resp;
  }

  SimClock clock_;
  Testbed bed_;
};

TEST_F(HandlerEdgeTest, GarbagePayloadYieldsMalformed) {
  proto::Packet pkt;
  pkt.type = proto::PacketType::kSegSetup;
  pkt.path = {topology::Hop{AsId{1, 100}, 0, 1},
              topology::Hop{AsId{1, 101}, 1, 0}};
  pkt.resinfo.src_as = AsId{1, 110};
  pkt.resinfo.exp_time = clock_.now_sec() + 300;
  pkt.current_hop = 0;
  pkt.payload = {0xDE, 0xAD, 0xBE, 0xEF};
  const auto resp = response_of(bed_.bus().call(AsId{1, 100}, framed(pkt)));
  EXPECT_FALSE(resp.success);
  EXPECT_EQ(resp.fail_code, Errc::kMalformed);
}

TEST_F(HandlerEdgeTest, PathMessageLengthMismatchRejected) {
  // SegRequest whose AS list disagrees with the header path.
  proto::SegRequest msg;
  msg.seg_type = topology::SegType::kUp;
  msg.max_bw_kbps = 100;
  msg.ases = {AsId{1, 110}};  // one AS...
  proto::Packet pkt;
  pkt.type = proto::PacketType::kSegSetup;
  pkt.path = {topology::Hop{AsId{1, 110}, 0, 1},
              topology::Hop{AsId{1, 100}, 1, 0}};  // ...but two hops
  pkt.resinfo.src_as = AsId{1, 110};
  pkt.resinfo.exp_time = clock_.now_sec() + 300;
  pkt.current_hop = 0;
  proto::AuthedPayload ap;
  ap.message = msg;
  ap.macs.assign(1, proto::Mac16{});
  pkt.payload = proto::encode_authed(ap);
  const auto resp = response_of(bed_.bus().call(AsId{1, 110}, framed(pkt)));
  EXPECT_FALSE(resp.success);
  EXPECT_EQ(resp.fail_code, Errc::kMalformed);
}

TEST_F(HandlerEdgeTest, EerPathMessageLengthMismatchRejected) {
  // EerRequest whose AS list (and its own path) disagrees with the header
  // path: refused as malformed before any MAC check.
  proto::EerRequest msg;
  msg.ases = {AsId{1, 110}};  // one AS...
  msg.path = {topology::Hop{AsId{1, 110}, 0, 1}};
  proto::Packet pkt;
  pkt.type = proto::PacketType::kEerSetup;
  pkt.is_eer = true;
  pkt.path = {topology::Hop{AsId{1, 110}, 0, 1},
              topology::Hop{AsId{1, 100}, 1, 0}};  // ...but two hops
  pkt.resinfo.src_as = AsId{1, 110};
  pkt.resinfo.exp_time = clock_.now_sec() + 300;
  pkt.current_hop = 0;
  proto::AuthedPayload ap;
  ap.message = msg;
  ap.macs.assign(1, proto::Mac16{});
  pkt.payload = proto::encode_authed(ap);
  const auto resp = response_of(bed_.bus().call(AsId{1, 110}, framed(pkt)));
  EXPECT_FALSE(resp.success);
  EXPECT_EQ(resp.fail_code, Errc::kMalformed);
}

TEST_F(HandlerEdgeTest, RenewUnknownSegrFails) {
  auto r = bed_.cserv(AsId{1, 110})
               .renew_segr(ResKey{AsId{1, 110}, 0xDEAD}, 1, 100);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errc::kNoSuchReservation);
}

TEST_F(HandlerEdgeTest, RenewForeignSegrFails) {
  // Only the initiator may renew its reservation through its own CServ.
  const AsId src{1, 110};
  auto setup = bed_.cserv(src).setup_segr(
      *bed_.pathdb().up_segments_from(src).front(), 1, 1000);
  ASSERT_TRUE(setup.ok());
  auto r = bed_.cserv(AsId{1, 111}).renew_segr(setup.value().key, 1, 1000);
  EXPECT_FALSE(r.ok());
}

TEST_F(HandlerEdgeTest, ActivateWithoutPendingFails) {
  const AsId src{1, 110};
  auto setup = bed_.cserv(src).setup_segr(
      *bed_.pathdb().up_segments_from(src).front(), 1, 1000);
  ASSERT_TRUE(setup.ok());
  auto act = bed_.cserv(src).activate_segr(setup.value().key, 1);
  EXPECT_FALSE(act.ok());
  EXPECT_EQ(act.error(), Errc::kBadVersion);
}

TEST_F(HandlerEdgeTest, LostSegrRenewalReplyKeepsActiveAllocation) {
  // The bus drops the renewal at the last AS. The first AS answers
  // kInternal and falls back to the active version's allocation, as it
  // does for a refused renewal: the active SegR stays accounted.
  const AsId src{1, 110};
  const topology::PathSegment seg =
      *bed_.pathdb().up_segments_from(src).front();
  auto setup = bed_.cserv(src).setup_segr(seg, 1, 1000);
  ASSERT_TRUE(setup.ok());
  const admission::SegrAdmission& ledger = bed_.cserv(src).segr_admission();
  const size_t tracked = ledger.tracked();
  const BwKbps granted = ledger.ledger().granted_total(seg.hops[0].egress);

  FaultInjector faults(clock_, 1);
  faults.add_message_plan({0, std::numeric_limits<TimeNs>::max(),
                           seg.last_as().raw(), 1.0, 0.0, 0.0});
  bed_.bus().attach_fault_injector(&faults);
  auto r = bed_.cserv(src).renew_segr(setup.value().key, 1, 2000);
  bed_.bus().attach_fault_injector(nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errc::kInternal);
  EXPECT_EQ(ledger.tracked(), tracked);
  EXPECT_EQ(ledger.ledger().granted_total(seg.hops[0].egress), granted);
}

TEST_F(HandlerEdgeTest, RenewUnknownEerFails) {
  auto r =
      bed_.cserv(AsId{1, 110}).renew_eer(ResKey{AsId{1, 110}, 0xBEEF}, 1, 10);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errc::kNoSuchReservation);
}

TEST_F(HandlerEdgeTest, EerOverUnknownSegrsFails) {
  auto r = bed_.cserv(AsId{1, 110})
               .setup_eer({ResKey{AsId{9, 9}, 1}}, HostAddr::from_u64(1),
                          HostAddr::from_u64(2), 1, 10);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errc::kNoSuchSegment);
}

TEST_F(HandlerEdgeTest, EerOverTooManySegrsRejected) {
  std::vector<ResKey> four(4, ResKey{AsId{1, 110}, 1});
  auto r = bed_.cserv(AsId{1, 110})
               .setup_eer(four, HostAddr::from_u64(1), HostAddr::from_u64(2),
                          1, 10);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errc::kMalformed);
}

TEST_F(HandlerEdgeTest, EerOverExpiredSegrSignalsExpiry) {
  // App. C: the remote CServ indicates expiry so the initiator can retry
  // with the new version.
  const AsId src{1, 110}, dst{1, 120};
  const auto chains = bed_.cserv(src).lookup_chains(dst);
  ASSERT_FALSE(chains.empty());
  std::vector<ResKey> keys;
  for (const auto& a : chains.front()) keys.push_back(a.key);

  // Force-expire one of the underlying SegRs everywhere.
  const ResKey victim = keys.back();
  for (AsId as : bed_.topology().as_ids()) {
    bed_.cserv(as).db().with_segr(victim, [&](reservation::SegrRecord* rec) {
      if (rec != nullptr) rec->active.exp_time = clock_.now_sec();  // expired now
    });
  }
  auto r = bed_.cserv(src).setup_eer(keys, HostAddr::from_u64(1),
                                     HostAddr::from_u64(2), 1, 10);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errc::kExpired);
}

TEST_F(HandlerEdgeTest, FailedEerLeavesNoAllocation) {
  const AsId src{1, 110}, dst{1, 120};
  const auto chains = bed_.cserv(src).lookup_chains(dst);
  ASSERT_FALSE(chains.empty());
  std::vector<ResKey> keys;
  for (const auto& a : chains.front()) keys.push_back(a.key);

  // Record allocation state before a request that the destination vetoes.
  std::vector<BwKbps> before;
  for (const auto& k : keys) {
    for (AsId as : bed_.topology().as_ids()) {
      if (const auto rec = bed_.cserv(as).db().segr_copy(k)) {
        before.push_back(rec->eer_allocated_kbps);
      }
    }
  }
  bed_.cserv(dst).set_host_acceptor(
      [](const proto::EerInfo&, BwKbps) { return false; });
  auto r = bed_.cserv(src).setup_eer(keys, HostAddr::from_u64(1),
                                     HostAddr::from_u64(2), 1, 1000);
  ASSERT_FALSE(r.ok());

  // Unsuccessful request: every on-path AS cleaned up (§3.3).
  std::vector<BwKbps> after;
  for (const auto& k : keys) {
    for (AsId as : bed_.topology().as_ids()) {
      if (const auto rec = bed_.cserv(as).db().segr_copy(k)) {
        after.push_back(rec->eer_allocated_kbps);
      }
    }
  }
  EXPECT_EQ(before, after);
}

TEST_F(HandlerEdgeTest, TamperedSealedHopauthRejectedByInitiator) {
  // A malicious transit AS flips a byte of a sealed σ on the response
  // path; the initiator's AEAD open fails and the setup errors out instead
  // of installing a bogus key.
  const AsId src{1, 110}, dst{1, 120};
  const auto chains = bed_.cserv(src).lookup_chains(dst);
  ASSERT_FALSE(chains.empty());
  std::vector<ResKey> keys;
  for (const auto& a : chains.front()) keys.push_back(a.key);

  // Interpose on the bus at hop 1: its reply frame to the initiator
  // carries hop 1's sealed σ, which the wrapper corrupts.
  const AsId hop1 = chains.front().front().hops[1].as;
  CServ* transit = &bed_.cserv(hop1);
  bed_.bus().attach(hop1, [transit](BytesView wire) {
    Bytes out = transit->handle(wire);
    auto pkt = proto::decode_packet(out);
    if (!pkt || pkt->type != proto::PacketType::kResponse) return out;
    auto ap = proto::decode_authed(pkt->payload);
    auto* resp =
        ap ? std::get_if<proto::ControlResponse>(&ap->message) : nullptr;
    if (resp == nullptr || resp->sealed_hopauths.size() < 2 ||
        resp->sealed_hopauths[1].size() <= 20) {
      return out;
    }
    resp->sealed_hopauths[1][20] ^= 0x01;
    pkt->payload = proto::encode_authed(*ap);
    return proto::encode_packet(*pkt);
  });

  const size_t installed = bed_.gateway(src).reservation_count();
  auto r = bed_.cserv(src).setup_eer(keys, HostAddr::from_u64(1),
                                     HostAddr::from_u64(2), 1, 10);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errc::kAuthFailed);
  EXPECT_EQ(bed_.gateway(src).reservation_count(), installed);
}

TEST_F(HandlerEdgeTest, ResponsePacketAsRequestRejected) {
  proto::Packet pkt;
  pkt.type = proto::PacketType::kResponse;
  pkt.path = {topology::Hop{AsId{1, 100}, 0, 0}};
  pkt.resinfo.src_as = AsId{1, 110};
  proto::AuthedPayload ap;
  ap.message = proto::ControlResponse{};
  pkt.payload = proto::encode_authed(ap);
  const auto resp = response_of(bed_.bus().call(AsId{1, 100}, framed(pkt)));
  EXPECT_FALSE(resp.success);
}

TEST_F(HandlerEdgeTest, UnknownBusChannelIgnored) {
  Bytes junk = {0x7F, 1, 2, 3};
  EXPECT_TRUE(bed_.bus().call(AsId{1, 100}, junk).empty());
}

}  // namespace
}  // namespace colibri::cserv
