// Tests: intra-domain IPv4/UDP + DSCP encapsulation (App. B) and the
// §4.8 policing loop from a border router's monitors to its CServ.
#include <gtest/gtest.h>

#include "colibri/app/testbed.hpp"
#include "colibri/common/rand.hpp"
#include "colibri/proto/codec.hpp"
#include "colibri/proto/encap.hpp"

namespace colibri::proto {
namespace {

Ipv4Encap sample_encap(Dscp dscp = Dscp::kColibriData) {
  Ipv4Encap e;
  e.src_ip = 0x0A000001;  // 10.0.0.1
  e.dst_ip = 0x0A000002;
  e.src_port = 40000;
  e.dst_port = kColibriPort;
  e.dscp = dscp;
  return e;
}

TEST(ChecksumTest, Rfc1071Example) {
  // Classic example: checksum of the header equals the stored complement,
  // so checksumming the full header (with its checksum field) yields 0.
  const Bytes data = {0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40,
                      0x00, 0x40, 0x11, 0xb8, 0x61, 0xc0, 0xa8,
                      0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7};
  EXPECT_EQ(internet_checksum(data), 0);
}

TEST(EncapTest, RoundTrip) {
  const Bytes inner = {1, 2, 3, 4, 5};
  const Bytes frame = encapsulate(sample_encap(), inner);
  EXPECT_EQ(frame.size(), inner.size() + kEncapOverhead);
  auto d = decapsulate(frame);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->inner, inner);
  EXPECT_EQ(d->encap.dscp, Dscp::kColibriData);
  EXPECT_EQ(d->encap.src_ip, 0x0A000001u);
  EXPECT_EQ(d->encap.dst_port, kColibriPort);
}

TEST(EncapTest, ChecksumValidatedOnDecap) {
  Bytes frame = encapsulate(sample_encap(), Bytes{9, 9});
  frame[14] ^= 1;  // corrupt a source-IP byte
  EXPECT_FALSE(decapsulate(frame).has_value());
}

TEST(EncapTest, RejectsWrongPort) {
  Ipv4Encap e = sample_encap();
  e.dst_port = 53;
  EXPECT_FALSE(decapsulate(encapsulate(e, Bytes{1})).has_value());
}

TEST(EncapTest, RejectsLengthMismatch) {
  Bytes frame = encapsulate(sample_encap(), Bytes{1, 2, 3});
  frame.push_back(0);
  EXPECT_FALSE(decapsulate(frame).has_value());
  frame.resize(frame.size() - 2);
  EXPECT_FALSE(decapsulate(frame).has_value());
}

TEST(EncapTest, RejectsNonIpv4) {
  Bytes frame = encapsulate(sample_encap(), Bytes{1});
  frame[0] = 0x60;  // IPv6 version nibble
  EXPECT_FALSE(decapsulate(frame).has_value());
}

TEST(EncapTest, DscpSurvivesAllClasses) {
  for (Dscp d : {Dscp::kBestEffort, Dscp::kColibriControl,
                 Dscp::kColibriData}) {
    auto dec = decapsulate(encapsulate(sample_encap(d), Bytes{7}));
    ASSERT_TRUE(dec.has_value()) << dscp_name(d);
    EXPECT_EQ(dec->encap.dscp, d);
  }
}

TEST(EncapTest, GatewayClassification) {
  // Hosts cannot pick their own DSCP; the gateway stamps by role.
  EXPECT_EQ(classify_for_dscp(true, false), Dscp::kColibriData);
  EXPECT_EQ(classify_for_dscp(false, true), Dscp::kColibriControl);
  EXPECT_EQ(classify_for_dscp(false, false), Dscp::kBestEffort);
}

TEST(EncapTest, CarriesFullColibriPacket) {
  // A real Colibri packet survives encapsulation bit-exactly and still
  // decodes.
  Packet p;
  p.type = PacketType::kData;
  p.is_eer = true;
  p.path = {topology::Hop{AsId{1, 1}, 0, 1}, topology::Hop{AsId{1, 2}, 2, 0}};
  p.hvfs.resize(2);
  p.resinfo = ResInfo{AsId{1, 1}, 3, 1000, 99, 0};
  p.payload = {0xAA, 0xBB};
  const Bytes wire = encode_packet(p);
  auto d = decapsulate(encapsulate(sample_encap(), wire));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->inner, wire);
  EXPECT_TRUE(decode_packet(d->inner).has_value());
}

TEST(EncapTest, FuzzDecapNeverCrashes) {
  Rng rng(31);
  for (int i = 0; i < 3000; ++i) {
    Bytes junk(rng.below(120));
    rng.fill(junk.data(), junk.size());
    (void)decapsulate(junk);
  }
}

}  // namespace
}  // namespace colibri::proto

namespace colibri::dataplane {
namespace {

TEST(PolicingTest, EndToEndPolicingLoop) {
  // OFD, dupsup and blocklist on a router, reporting to its CServ:
  // overuse is confirmed, reported, and future reservations from the
  // offender are denied.
  SimClock clock(1000 * kNsPerSec);
  app::Testbed bed(topology::builders::two_isd_topology(), clock);
  bed.provision_all_segments(1000, 2'000'000);
  const AsId src{1, 110}, dst{1, 120}, transit{1, 100};

  auto session = bed.daemon(src).open_session(
      dst, HostAddr::from_u64(1), HostAddr::from_u64(2), 100, 1000);
  ASSERT_TRUE(session.ok());
  const auto rec = bed.cserv(src).db().eer_copy(session.value().key());

  OverUseFlowDetector ofd;
  DuplicateSuppression dupsup;
  Blocklist blocklist;
  bed.router(transit).attach_ofd(&ofd);
  bed.router(transit).attach_dupsup(&dupsup);
  bed.router(transit).attach_blocklist(&blocklist);

  // Overuse: craft valid packets at far above 1 Mbps, replayed into the
  // transit hop (a malicious gateway that skips monitoring).
  const auto transit_rec = bed.cserv(transit).db().eer_copy(rec->key);
  ASSERT_TRUE(transit_rec.has_value());
  const std::uint8_t hop = transit_rec->local_hop;
  proto::ResInfo ri;
  ri.src_as = src;
  ri.res_id = rec->key.res_id;
  ri.bw_kbps = session.value().bw_kbps();
  ri.exp_time = session.value().exp_time();
  ri.version = session.value().version();
  proto::EerInfo ei{rec->src_host, rec->dst_host};
  crypto::Aes128 cipher(bed.cserv(transit).hop_key().bytes.data());
  const HopAuth sigma = compute_hopauth(cipher, ri, ei, rec->path[hop].ingress,
                                        rec->path[hop].egress);
  bool blocked = false;
  for (int i = 0; i < 200'000 && !blocked; ++i) {
    FastPacket pkt;
    pkt.is_eer = true;
    pkt.num_hops = static_cast<std::uint8_t>(rec->path.size());
    pkt.current_hop = hop;
    pkt.resinfo = ri;
    pkt.eerinfo = ei;
    pkt.payload_bytes = 1000;
    for (size_t h = 0; h < rec->path.size(); ++h) {
      pkt.ifaces[h] = IfPair{rec->path[h].ingress, rec->path[h].egress};
    }
    pkt.timestamp = PacketTimestamp::encode(clock.now_ns(), ri.exp_time);
    pkt.hvfs[hop] = compute_data_hvf(sigma, pkt.timestamp, pkt.wire_size());
    blocked = bed.router(transit).process(pkt) ==
              BorderRouter::Verdict::kBlocked;
    clock.advance(10'000);
  }
  EXPECT_TRUE(blocked);

  // Close the loop: the router's reports go to the local CServ.
  const auto reports = blocklist.drain_reports();
  EXPECT_GE(reports.size(), 1u);
  for (const auto& r : reports) bed.cserv(transit).report_offense(r);
  EXPECT_TRUE(bed.cserv(transit).reservations_denied_for(src));
}

}  // namespace
}  // namespace colibri::dataplane

namespace colibri::dataplane {
namespace {

TEST(GatewayEncapTest, EmitsDscpStampedFrame) {
  SimClock clock(100 * kNsPerSec);
  Gateway gw(AsId{1, 1}, clock);
  proto::ResInfo ri{AsId{1, 1}, 4, 1'000'000, 1000, 0};
  proto::EerInfo ei{HostAddr::from_u64(1), HostAddr::from_u64(2)};
  std::vector<topology::Hop> path = {topology::Hop{AsId{1, 1}, 0, 1},
                                     topology::Hop{AsId{1, 2}, 2, 0}};
  std::vector<HopAuth> sigmas(2);
  ASSERT_TRUE(gw.install(ri, ei, path, sigmas));

  proto::Ipv4Encap intra;
  intra.src_ip = 0x0A000001;
  intra.dst_ip = 0x0A0000FE;  // egress border router
  intra.src_port = 40000;
  intra.dst_port = proto::kColibriPort;
  intra.dscp = proto::Dscp::kBestEffort;  // host-chosen value: overridden

  Bytes frame;
  ASSERT_EQ(gw.process_encapsulated(4, 500, intra, frame),
            Gateway::Verdict::kOk);
  auto d = proto::decapsulate(frame);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->encap.dscp, proto::Dscp::kColibriData);  // gateway stamped
  auto inner = proto::decode_packet(d->inner);
  ASSERT_TRUE(inner.has_value());
  EXPECT_EQ(inner->resinfo.res_id, 4u);
  EXPECT_EQ(inner->payload.size(), 500u);
}

}  // namespace
}  // namespace colibri::dataplane
