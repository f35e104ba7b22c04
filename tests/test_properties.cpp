// Parameterized property suites (TEST_P sweeps) on system invariants:
//  - gateway/router HVF agreement for every path length and payload size,
//  - codec round-trip stability under random packets,
//  - admission no-over-allocation under randomized churn for many seeds,
//  - token-bucket long-run rate conformance across rates,
//  - duplicate suppression completeness across window and filter sizes.
#include <gtest/gtest.h>

#include "colibri/common/rand.hpp"
#include "colibri/dataplane/gateway.hpp"
#include "colibri/dataplane/router.hpp"
#include "colibri/admission/segr_admission.hpp"
#include "colibri/dataplane/dupsup.hpp"
#include "colibri/dataplane/tokenbucket.hpp"
#include "colibri/proto/codec.hpp"

namespace colibri {
namespace {

// --- HVF agreement across path lengths and payloads ---------------------------

class HvfAgreement
    : public ::testing::TestWithParam<std::tuple<int, std::uint32_t>> {};

TEST_P(HvfAgreement, GatewayPacketsVerifyAtEveryHop) {
  const int hops = std::get<0>(GetParam());
  const std::uint32_t payload = std::get<1>(GetParam());

  SimClock clock(500 * kNsPerSec);
  dataplane::Gateway gw(AsId{1, 1}, clock);

  std::vector<topology::Hop> path;
  std::vector<drkey::Key128> keys;
  std::vector<dataplane::HopAuth> sigmas;
  proto::ResInfo ri{AsId{1, 1}, 9, 1'000'000, 1000, 0};
  proto::EerInfo ei{HostAddr::from_u64(1), HostAddr::from_u64(2)};
  Rng rng(static_cast<std::uint64_t>(hops) * 31 + payload);
  for (int i = 0; i < hops; ++i) {
    path.push_back(topology::Hop{AsId{1, static_cast<std::uint64_t>(10 + i)},
                                 static_cast<IfId>(i == 0 ? 0 : 7),
                                 static_cast<IfId>(i + 1 == hops ? 0 : 8)});
    drkey::Key128 k;
    rng.fill(k.bytes.data(), k.bytes.size());
    keys.push_back(k);
    crypto::Aes128 cipher(k.bytes.data());
    sigmas.push_back(dataplane::compute_hopauth(cipher, ri, ei,
                                                path[static_cast<size_t>(i)].ingress,
                                                path[static_cast<size_t>(i)].egress));
  }
  ASSERT_TRUE(gw.install(ri, ei, path, sigmas));

  dataplane::FastPacket pkt;
  ASSERT_EQ(gw.process(9, payload, pkt), dataplane::Gateway::Verdict::kOk);
  for (int i = 0; i < hops; ++i) {
    dataplane::BorderRouter router(path[static_cast<size_t>(i)].as,
                                   keys[static_cast<size_t>(i)], clock);
    const auto verdict = router.process(pkt);
    if (i + 1 < hops) {
      ASSERT_EQ(verdict, dataplane::BorderRouter::Verdict::kForward)
          << "hop " << i;
    } else {
      ASSERT_EQ(verdict, dataplane::BorderRouter::Verdict::kDeliver);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PathAndPayloadSweep, HvfAgreement,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8, 12, 16),
                       ::testing::Values(0u, 1u, 100u, 1000u, 9000u)));

// --- codec round-trip under random packets -------------------------------------

class CodecRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecRoundTrip, EncodeDecodeEncodeIsStable) {
  Rng rng(GetParam());
  for (int n = 0; n < 200; ++n) {
    proto::Packet p;
    p.type = static_cast<proto::PacketType>(rng.below(7));
    p.is_eer = rng.below(2) == 1;
    const size_t hops = 1 + rng.below(16);
    p.current_hop = static_cast<std::uint8_t>(rng.below(hops));
    p.path.resize(hops);
    p.hvfs.resize(hops);
    for (size_t i = 0; i < hops; ++i) {
      p.path[i].ingress = static_cast<IfId>(rng.below(1 << 16));
      p.path[i].egress = static_cast<IfId>(rng.below(1 << 16));
      rng.fill(p.hvfs[i].data(), p.hvfs[i].size());
    }
    p.resinfo.src_as = AsId::from_raw(rng.next());
    p.resinfo.res_id = static_cast<ResId>(rng.next());
    p.resinfo.bw_kbps = static_cast<BwKbps>(rng.next());
    p.resinfo.exp_time = static_cast<UnixSec>(rng.next());
    p.resinfo.version = static_cast<ResVer>(rng.next());
    rng.fill(p.eerinfo.src_host.bytes, 16);
    rng.fill(p.eerinfo.dst_host.bytes, 16);
    p.timestamp = static_cast<std::uint32_t>(rng.next());
    p.payload.resize(rng.below(300));
    rng.fill(p.payload.data(), p.payload.size());

    const Bytes wire = proto::encode_packet(p);
    ASSERT_EQ(wire.size(), p.wire_size());
    auto decoded = proto::decode_packet(wire);
    ASSERT_TRUE(decoded.has_value()) << "case " << n;
    ASSERT_EQ(proto::encode_packet(*decoded), wire) << "case " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- admission invariant across seeds -------------------------------------------

class AdmissionChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdmissionChurn, NeverOverAllocatesAndUnwindsToZero) {
  Rng rng(GetParam());
  admission::SegrAdmission adm;
  constexpr BwKbps kCap = 25'000;
  adm.set_interface_capacity(1, 1'000'000);
  adm.set_interface_capacity(2, kCap);

  std::vector<ResKey> live;
  for (int i = 0; i < 3000; ++i) {
    const int action = static_cast<int>(rng.below(10));
    if (live.empty() || action < 6) {
      admission::SegrAdmissionRequest req;
      req.src_as = AsId{1, 1 + rng.below(30)};
      req.key = ResKey{req.src_as, static_cast<ResId>(i + 1)};
      req.ingress = 1;
      req.egress = 2;
      req.demand_kbps = static_cast<BwKbps>(1 + rng.below(8000));
      req.min_bw_kbps = static_cast<BwKbps>(rng.below(50));
      if (adm.admit(req).ok()) live.push_back(req.key);
    } else if (action < 9) {
      const size_t idx = rng.below(live.size());
      adm.release(live[idx]);
      live.erase(live.begin() + static_cast<long>(idx));
    } else {
      // Renewal of a random live reservation at a new demand.
      const size_t idx = rng.below(live.size());
      admission::SegrAdmissionRequest req;
      req.src_as = live[idx].src_as;
      req.key = live[idx];
      req.ingress = 1;
      req.egress = 2;
      req.demand_kbps = static_cast<BwKbps>(1 + rng.below(8000));
      (void)adm.admit(req);
    }
    ASSERT_LE(adm.ledger().granted_total(2), kCap) << "step " << i;
  }
  for (const auto& key : live) adm.release(key);
  EXPECT_EQ(adm.ledger().granted_total(2), 0u);

  // Rejected requests left demand memory behind (by design — it shapes
  // the next renewal round); it expires after kDemandMemorySec, after
  // which the ledger drains fully.
  admission::SegrAdmissionRequest flush;
  flush.now = admission::SegrAdmission::kDemandMemorySec + 10;
  flush.src_as = AsId{1, 1};
  flush.key = ResKey{flush.src_as, 0x7FFFFFFF};
  flush.ingress = 1;
  flush.egress = 2;
  flush.demand_kbps = 1;
  (void)adm.admit(flush);
  adm.release(flush.key);
  EXPECT_EQ(adm.pending_demands(), 0u);
  EXPECT_EQ(adm.ledger().granted_total(2), 0u);
  EXPECT_NEAR(adm.ledger().total_adjusted_demand(2), 0.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdmissionChurn,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// --- token-bucket rate conformance across rates -----------------------------------

class BucketRates : public ::testing::TestWithParam<BwKbps> {};

TEST_P(BucketRates, LongRunThroughputMatchesRate) {
  const BwKbps rate = GetParam();
  // ~10 ms of burst, but never below one packet — a bucket whose burst is
  // smaller than the MTU can pass nothing at all.
  const std::uint64_t burst = std::max<std::uint64_t>(rate * 125 / 100, 600);
  dataplane::TokenBucket tb(rate, burst, 0);
  // Offer 4x the rate for 10 simulated seconds with 500 B packets.
  const double offered_bps = static_cast<double>(rate) * 1000.0 * 4;
  const TimeNs interval =
      static_cast<TimeNs>(500.0 * 8.0 / offered_bps * kNsPerSec);
  std::uint64_t passed_bytes = 0;
  TimeNs t = 0;
  while (t < 10 * kNsPerSec) {
    t += interval;
    if (tb.allow(500, t)) passed_bytes += 500;
  }
  const double passed_kbps = static_cast<double>(passed_bytes) * 8.0 / 10.0 / 1000.0;
  EXPECT_NEAR(passed_kbps, static_cast<double>(rate),
              static_cast<double>(rate) * 0.05 + 10.0);
}

INSTANTIATE_TEST_SUITE_P(Rates, BucketRates,
                         ::testing::Values(64u, 1'000u, 100'000u, 1'000'000u,
                                           400'000'000u));

// --- duplicate suppression completeness across window sizes ------------------------

// A window, and the filter size and hash count it runs at.
struct DupSupCase {
  TimeNs window_ns;
  size_t bits = dataplane::DupSupConfig{}.bits_per_filter;
  int hashes = dataplane::DupSupConfig{}.hashes;
};

// Names the case by its window alone at the default filter size.
void PrintTo(const DupSupCase& c, std::ostream* os) {
  *os << c.window_ns;
  if (c.bits != dataplane::DupSupConfig{}.bits_per_filter ||
      c.hashes != dataplane::DupSupConfig{}.hashes) {
    *os << "_" << (c.bits >> 20) << "Mbit_k" << c.hashes;
  }
}

class DupSupWindows : public ::testing::TestWithParam<DupSupCase> {};

TEST_P(DupSupWindows, AllReplaysWithinHistoryAreCaught) {
  dataplane::DupSupConfig cfg;
  cfg.window_ns = GetParam().window_ns;
  cfg.bits_per_filter = GetParam().bits;
  cfg.hashes = GetParam().hashes;
  dataplane::DuplicateSuppression ds(cfg);
  const AsId src{1, 3};
  // Each check is preceded by its prefetch, as in the router's batch.
  const auto check = [&](std::uint32_t ts, TimeNs t) {
    ds.prefetch(src, 1, ts);
    return ds.check(src, 1, ts, t, t);
  };
  // Fresh inserts with strictly increasing timestamps.
  std::vector<std::uint32_t> seen;
  TimeNs t = 10 * kNsPerSec;
  for (std::uint32_t ts = 1; ts <= 500; ++ts) {
    ASSERT_EQ(check(ts, t), dataplane::DuplicateSuppression::Verdict::kFresh);
    seen.push_back(ts);
    t += cfg.window_ns / 1000;
  }
  // Replays of identifiers still within the filters' history: zero false
  // negatives (Bloom filters have no false negatives by construction).
  int caught = 0;
  for (std::uint32_t ts : seen) {
    caught += check(ts, t) != dataplane::DuplicateSuppression::Verdict::kFresh;
  }
  EXPECT_EQ(caught, 500);
}

// The last case is dp_forward's filter (64 Mbit, 10 hashes): 8 MiB, so
// its words sit on huge pages where the host grants them.
INSTANTIATE_TEST_SUITE_P(
    Windows, DupSupWindows,
    ::testing::Values(DupSupCase{kNsPerSec / 10}, DupSupCase{kNsPerSec},
                      DupSupCase{5 * kNsPerSec},
                      DupSupCase{2 * kNsPerSec, size_t{1} << 26, 10}));

}  // namespace
}  // namespace colibri
