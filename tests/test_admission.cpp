// Unit + property tests for the admission algorithms (paper §4.7):
// bounded tube fairness, botnet-size independence, no-over-allocation,
// EER counter checks, and transfer-AS proportional splitting.
#include <gtest/gtest.h>

#include "colibri/admission/eer_admission.hpp"
#include "colibri/admission/segr_admission.hpp"
#include "colibri/common/rand.hpp"

namespace colibri::admission {
namespace {

const AsId kSrcA{1, 1};
const AsId kSrcB{1, 2};
const AsId kSrcC{1, 3};

ResKey key(AsId src, ResId id) { return ResKey{src, id}; }

TEST(TubeLedgerTest, UncontendedGrantsFullDemand) {
  TubeLedger ledger;
  ledger.set_egress_capacity(2, 1000);
  const TubeGrant g = ledger.evaluate(kSrcA, 1000, 2, 300);
  EXPECT_EQ(g.adjusted_demand_kbps, 300u);
  EXPECT_EQ(g.granted_kbps, 300u);
}

TEST(TubeLedgerTest, DemandCappedByIngressAndEgress) {
  TubeLedger ledger;
  ledger.set_egress_capacity(2, 1000);
  EXPECT_EQ(ledger.evaluate(kSrcA, 100, 2, 500).adjusted_demand_kbps, 100u);
  EXPECT_EQ(ledger.evaluate(kSrcA, 5000, 2, 5000).adjusted_demand_kbps, 1000u);
}

TEST(TubeLedgerTest, UnknownEgressGrantsNothing) {
  TubeLedger ledger;
  EXPECT_EQ(ledger.evaluate(kSrcA, 100, 9, 100).granted_kbps, 0u);
}

TEST(TubeLedgerTest, ContendedGrantCappedByResidualCapacity) {
  TubeLedger ledger;
  ledger.set_egress_capacity(2, 1000);
  // A records 800 demand (granted in full, uncontended); B then asks 800:
  // total 1600 > 1000. B's proportional share would be 500, but only 200
  // remain un-granted — the hard no-over-allocation bound wins until
  // renewals rebalance.
  TubeGrant ga = ledger.evaluate(kSrcA, 10000, 2, 800);
  ledger.record(kSrcA, 2, ga);
  EXPECT_EQ(ga.granted_kbps, 800u);
  const TubeGrant gb = ledger.evaluate(kSrcB, 10000, 2, 800);
  EXPECT_EQ(gb.granted_kbps, 200u);
}

TEST(SegrAdmissionTest, RenewalsConvergeTowardFairShares) {
  // After the contended situation above, the paper's short SegR lifetimes
  // let renewals rebalance: when A renews, its allocation shrinks to its
  // proportional share, freeing bandwidth for B's renewal.
  SegrAdmission adm;
  adm.set_interface_capacity(1, 100'000);
  adm.set_interface_capacity(2, 1000);
  SegrAdmissionRequest a;
  a.src_as = kSrcA;
  a.key = key(kSrcA, 1);
  a.ingress = 1;
  a.egress = 2;
  a.demand_kbps = 800;
  SegrAdmissionRequest b = a;
  b.src_as = kSrcB;
  b.key = key(kSrcB, 1);

  ASSERT_EQ(adm.admit(a).value(), 800u);
  ASSERT_EQ(adm.admit(b).value(), 200u);
  // Renewal round: both re-ask at 800 under full contention.
  const BwKbps a2 = adm.admit(a).value();
  const BwKbps b2 = adm.admit(b).value();
  // A's share shrank from 800, B's grew from 200.
  EXPECT_LT(a2, 800u);
  EXPECT_GT(b2, 200u);
  // Total never exceeds capacity.
  EXPECT_LE(adm.ledger().granted_total(2), 1000u);
  // Another round converges further toward 500/500.
  const BwKbps a3 = adm.admit(a).value();
  const BwKbps b3 = adm.admit(b).value();
  EXPECT_NEAR(static_cast<double>(a3), 500.0, 120.0);
  EXPECT_NEAR(static_cast<double>(b3), 500.0, 120.0);
}

TEST(TubeLedgerTest, GrantsNeverExceedCapacity) {
  // Hard invariant from §5.1 regardless of arrival order.
  Rng rng(21);
  TubeLedger ledger;
  ledger.set_egress_capacity(1, 10'000);
  std::uint64_t total_granted = 0;
  for (int i = 0; i < 500; ++i) {
    const AsId src{1, 1 + rng.below(20)};
    const BwKbps demand = static_cast<BwKbps>(1 + rng.below(3000));
    const TubeGrant g = ledger.evaluate(src, 1'000'000, 1, demand);
    ledger.record(src, 1, g);
    total_granted += g.granted_kbps;
    ASSERT_LE(ledger.granted_total(1), 10'000u) << "iteration " << i;
  }
  EXPECT_LE(total_granted, 10'000u);
}

TEST(TubeLedgerTest, BotnetSizeIndependence) {
  // One source splitting demand across many reservations gains no more
  // than a source asking once: its contribution to the denominator is
  // capped at the egress capacity (step 3 of §4.7).
  TubeLedger greedy;
  greedy.set_egress_capacity(1, 1000);
  // Attacker floods 50 reservations of 1000 each.
  for (int i = 0; i < 50; ++i) {
    const TubeGrant g = greedy.evaluate(kSrcA, 1'000'000, 1, 1000);
    greedy.record(kSrcA, 1, g);
  }
  // A benign source's share denominator saw the attacker capped at 1000,
  // not at 50*1000.
  const TubeGrant benign = greedy.evaluate(kSrcB, 1'000'000, 1, 1000);
  // With cap: total = 1000 (attacker, capped) + 1000 (benign) = 2000
  // => share = 1000 * 1000/2000 = 500 MINUS whatever is already granted.
  // The proportional share computation must see 500, i.e. the attacker
  // cannot push the benign ideal share toward zero.
  const double total = greedy.total_adjusted_demand(1);
  EXPECT_LE(total, 2001.0);
  EXPECT_GE(1000.0 * 1000.0 / (total + 1000.0), 333.0);
  (void)benign;
}

TEST(TubeLedgerTest, ReleaseRestoresState) {
  TubeLedger ledger;
  ledger.set_egress_capacity(1, 1000);
  const TubeGrant g = ledger.evaluate(kSrcA, 10000, 1, 600);
  ledger.record(kSrcA, 1, g);
  EXPECT_GT(ledger.total_adjusted_demand(1), 0.0);
  ledger.release(kSrcA, 1, g);
  EXPECT_DOUBLE_EQ(ledger.total_adjusted_demand(1), 0.0);
  EXPECT_EQ(ledger.granted_total(1), 0u);
  // After release, a fresh request gets the full uncontended grant again.
  EXPECT_EQ(ledger.evaluate(kSrcB, 10000, 1, 600).granted_kbps, 600u);
}

TEST(TubeLedgerTest, RecordReleaseSymmetryRandomized) {
  Rng rng(31);
  TubeLedger ledger;
  ledger.set_egress_capacity(1, 50'000);
  std::vector<std::tuple<AsId, TubeGrant>> live;
  for (int i = 0; i < 1000; ++i) {
    if (live.empty() || rng.below(2) == 0) {
      const AsId src{1, 1 + rng.below(10)};
      const TubeGrant g =
          ledger.evaluate(src, 100'000, 1, static_cast<BwKbps>(1 + rng.below(5000)));
      ledger.record(src, 1, g);
      live.emplace_back(src, g);
    } else {
      const size_t idx = rng.below(live.size());
      ledger.release(std::get<0>(live[idx]), 1, std::get<1>(live[idx]));
      live.erase(live.begin() + static_cast<long>(idx));
    }
  }
  for (const auto& [src, g] : live) ledger.release(src, 1, g);
  EXPECT_NEAR(ledger.total_adjusted_demand(1), 0.0, 1e-6);
  EXPECT_EQ(ledger.granted_total(1), 0u);
}

TEST(SegrAdmissionTest, AdmitRecordsAndReleases) {
  SegrAdmission adm;
  adm.set_interface_capacity(1, 10'000);
  adm.set_interface_capacity(2, 10'000);
  SegrAdmissionRequest req;
  req.src_as = kSrcA;
  req.key = key(kSrcA, 1);
  req.ingress = 1;
  req.egress = 2;
  req.min_bw_kbps = 100;
  req.demand_kbps = 1000;
  auto r = adm.admit(req);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 1000u);
  EXPECT_EQ(adm.tracked(), 1u);
  adm.release(req.key);
  EXPECT_EQ(adm.tracked(), 0u);
  EXPECT_EQ(adm.ledger().granted_total(2), 0u);
}

TEST(SegrAdmissionTest, BelowMinRejectsAndRollsBack) {
  SegrAdmission adm;
  adm.set_interface_capacity(1, 1000);
  adm.set_interface_capacity(2, 1000);
  // Fill the egress.
  SegrAdmissionRequest fill;
  fill.src_as = kSrcA;
  fill.key = key(kSrcA, 1);
  fill.ingress = 1;
  fill.egress = 2;
  fill.demand_kbps = 1000;
  ASSERT_TRUE(adm.admit(fill).ok());
  // B needs at least 900 — impossible now.
  SegrAdmissionRequest req = fill;
  req.src_as = kSrcB;
  req.key = key(kSrcB, 1);
  req.min_bw_kbps = 900;
  auto r = adm.admit(req);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errc::kBandwidthUnavailable);
  EXPECT_EQ(adm.tracked(), 1u);  // nothing recorded for B
}

TEST(SegrAdmissionTest, RenewalReplacesNotAdds) {
  SegrAdmission adm;
  adm.set_interface_capacity(1, 1000);
  adm.set_interface_capacity(2, 1000);
  SegrAdmissionRequest req;
  req.src_as = kSrcA;
  req.key = key(kSrcA, 1);
  req.ingress = 1;
  req.egress = 2;
  req.demand_kbps = 600;
  ASSERT_EQ(adm.admit(req).value(), 600u);
  // Renewal at the same demand must not be treated as 1200 total.
  auto r2 = adm.admit(req);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value(), 600u);
  EXPECT_EQ(adm.ledger().granted_total(2), 600u);
  EXPECT_EQ(adm.tracked(), 1u);
}

TEST(SegrAdmissionTest, FailedRenewalKeepsOldAllocation) {
  SegrAdmission adm;
  adm.set_interface_capacity(1, 1000);
  adm.set_interface_capacity(2, 1000);
  SegrAdmissionRequest req;
  req.src_as = kSrcA;
  req.key = key(kSrcA, 1);
  req.ingress = 1;
  req.egress = 2;
  req.demand_kbps = 400;
  ASSERT_TRUE(adm.admit(req).ok());
  // Competitor takes the rest.
  SegrAdmissionRequest other = req;
  other.src_as = kSrcB;
  other.key = key(kSrcB, 1);
  other.demand_kbps = 600;
  ASSERT_TRUE(adm.admit(other).ok());
  // A now asks to renew at min 900 — must fail but keep A's 400 recorded.
  req.min_bw_kbps = 900;
  req.demand_kbps = 900;
  EXPECT_FALSE(adm.admit(req).ok());
  EXPECT_EQ(adm.tracked(), 2u);
  EXPECT_EQ(adm.ledger().granted_total(2), 1000u);
}

TEST(SegrAdmissionTest, FirstAsHasNoIngressCap) {
  SegrAdmission adm;
  adm.set_interface_capacity(2, 1000);
  SegrAdmissionRequest req;
  req.src_as = kSrcA;
  req.key = key(kSrcA, 1);
  req.ingress = kNoInterface;  // source AS of the segment
  req.egress = 2;
  req.demand_kbps = 800;
  EXPECT_EQ(adm.admit(req).value(), 800u);
}

// --- EER admission ---------------------------------------------------------

reservation::SegrRecord make_segr(AsId src, ResId id, BwKbps bw,
                                  topology::SegType type) {
  reservation::SegrRecord r;
  r.key = ResKey{src, id};
  r.seg_type = type;
  r.hops = {topology::Hop{src, kNoInterface, 1},
            topology::Hop{AsId{1, 99}, 1, kNoInterface}};
  r.local_hop = 1;
  r.active = reservation::SegrVersion{0, bw, 10'000};
  return r;
}

BwKbps eer_allocated(const reservation::ReservationDb& db, const ResKey& k) {
  const auto rec = db.segr_copy(k);
  return rec ? rec->eer_allocated_kbps : 0;
}

TEST(EerAdmissionTest, TransitGrantsWithinSegr) {
  reservation::ReservationDb db(kSrcA);
  const auto segr_key = key(kSrcA, 1);
  db.upsert_segr(make_segr(kSrcA, 1, 1000, topology::SegType::kUp));
  EerAdmission adm;
  EerAdmission::Request req;
  req.eer_key = key(kSrcA, 100);
  req.demand_kbps = 400;
  req.segr_in = segr_key;
  EXPECT_EQ(adm.admit(db, req, 0).value(), 400u);
  EXPECT_EQ(eer_allocated(db, segr_key), 400u);

  // Second EER takes what remains.
  req.eer_key = key(kSrcA, 101);
  req.demand_kbps = 800;
  EXPECT_EQ(adm.admit(db, req, 0).value(), 600u);
  EXPECT_EQ(eer_allocated(db, segr_key), 1000u);

  // Third gets nothing.
  req.eer_key = key(kSrcA, 102);
  req.min_bw_kbps = 1;
  EXPECT_FALSE(adm.admit(db, req, 0).ok());
}

TEST(EerAdmissionTest, ReleaseReturnsBandwidth) {
  reservation::ReservationDb db(kSrcA);
  const auto segr_key = key(kSrcA, 1);
  db.upsert_segr(make_segr(kSrcA, 1, 1000, topology::SegType::kUp));
  EerAdmission adm;
  EerAdmission::Request req;
  req.eer_key = key(kSrcA, 100);
  req.demand_kbps = 700;
  req.segr_in = segr_key;
  ASSERT_TRUE(adm.admit(db, req, 0).ok());
  adm.release(db, req.eer_key);
  EXPECT_EQ(eer_allocated(db, segr_key), 0u);
  EXPECT_EQ(adm.tracked(), 0u);
}

TEST(EerAdmissionTest, RenewalAdjustsAllocation) {
  reservation::ReservationDb db(kSrcA);
  const auto segr_key = key(kSrcA, 1);
  db.upsert_segr(make_segr(kSrcA, 1, 1000, topology::SegType::kUp));
  EerAdmission adm;
  EerAdmission::Request req;
  req.eer_key = key(kSrcA, 100);
  req.demand_kbps = 700;
  req.segr_in = segr_key;
  ASSERT_EQ(adm.admit(db, req, 0).value(), 700u);
  // Renewal down to 300 frees 400.
  req.demand_kbps = 300;
  ASSERT_EQ(adm.admit(db, req, 0).value(), 300u);
  EXPECT_EQ(eer_allocated(db, segr_key), 300u);
  // Renewal up to 900 succeeds because only the delta competes.
  req.demand_kbps = 900;
  ASSERT_EQ(adm.admit(db, req, 0).value(), 900u);
  EXPECT_EQ(eer_allocated(db, segr_key), 900u);
}

TEST(EerAdmissionTest, RenewingAFleetAtSameDemandLeavesSegrTotals) {
  // Many EERs over several SegRs, all renewed once at the demand they
  // hold: each renewal replaces its EER's allocation, so no SegR total
  // moves and every renewal is granted in full.
  constexpr ResId kSegrs = 4;
  constexpr ResId kEers = 64;
  reservation::ReservationDb db(kSrcA);
  for (ResId s = 1; s <= kSegrs; ++s) {
    db.upsert_segr(make_segr(kSrcA, s, 1000, topology::SegType::kUp));
  }
  EerAdmission adm;
  auto request = [](ResId e) {
    EerAdmission::Request req;
    req.eer_key = key(kSrcA, 100 + e);
    req.demand_kbps = 50;
    req.segr_in = key(kSrcA, 1 + e % kSegrs);
    return req;
  };
  for (ResId e = 0; e < kEers; ++e) {
    ASSERT_EQ(adm.admit(db, request(e), 0).value(), 50u);
  }
  for (ResId e = 0; e < kEers; ++e) {
    EXPECT_EQ(adm.admit(db, request(e), 16).value(), 50u);
  }
  EXPECT_EQ(adm.tracked(), kEers);
  for (ResId s = 1; s <= kSegrs; ++s) {
    EXPECT_EQ(eer_allocated(db, key(kSrcA, s)), kEers / kSegrs * 50);
  }
}

TEST(EerAdmissionTest, TransferChecksBothSegrs) {
  reservation::ReservationDb db(kSrcA);
  const auto up_key = key(kSrcA, 1);
  const auto core_key = key(AsId{1, 99}, 2);
  db.upsert_segr(make_segr(kSrcA, 1, 1000, topology::SegType::kUp));
  db.upsert_segr(make_segr(AsId{1, 99}, 2, 300, topology::SegType::kCore));
  EerAdmission adm;
  EerAdmission::Request req;
  req.eer_key = key(kSrcA, 100);
  req.demand_kbps = 800;
  req.segr_in = up_key;
  req.segr_out = core_key;
  // Grant limited by the core SegR's 300.
  EXPECT_EQ(adm.admit(db, req, 0).value(), 300u);
  EXPECT_EQ(eer_allocated(db, up_key), 300u);
  EXPECT_EQ(eer_allocated(db, core_key), 300u);
}

TEST(TransferLedgerTest, UncontendedPassesThrough) {
  TransferLedger ledger;
  const ResKey up = key(kSrcA, 1), core = key(kSrcB, 2);
  EXPECT_EQ(ledger.evaluate(up, 1000, core, 1000, 200), 200u);
}

TEST(TransferLedgerTest, ContendedSplitsProportionally) {
  TransferLedger ledger;
  const ResKey up1 = key(kSrcA, 1), up2 = key(kSrcB, 1);
  const ResKey core = key(AsId{1, 99}, 2);
  // up1 demands 900 (capped by up bw 600 -> 600), up2 demands 300.
  ledger.record(up1, 600, core, 900, 0);
  ledger.record(up2, 600, core, 300, 0);
  EXPECT_DOUBLE_EQ(ledger.total_capped_demand(core), 900.0);
  // Core EER capacity 450: up2's share = 450 * 300/900 = 150 for a
  // fresh request of 300 via up2... demand grows to 600 -> capped 600;
  // total 1200; share = 450*600/1200 = 225.
  EXPECT_NEAR(ledger.evaluate(up2, 600, core, 450, 300), 225u, 1);
}

TEST(TransferLedgerTest, ReleaseUnwinds) {
  TransferLedger ledger;
  const ResKey up = key(kSrcA, 1), core = key(kSrcB, 2);
  ledger.record(up, 500, core, 400, 100);
  ledger.release(up, 500, core, 400, 100);
  EXPECT_DOUBLE_EQ(ledger.total_capped_demand(core), 0.0);
}

TEST(EerAdmissionTest, NoSegrRejected) {
  reservation::ReservationDb db(kSrcA);
  EerAdmission adm;
  EerAdmission::Request req;
  req.eer_key = key(kSrcA, 100);
  req.demand_kbps = 10;
  auto r = adm.admit(db, req, 0);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errc::kNoSuchSegment);
}

// Property: under random admissions/releases, a SegR's EER allocation
// never exceeds its bandwidth and never goes negative.
TEST(EerAdmissionTest, AllocationInvariantRandomized) {
  Rng rng(77);
  reservation::ReservationDb db(kSrcA);
  const auto segr_key = key(kSrcA, 1);
  db.upsert_segr(make_segr(kSrcA, 1, 10'000, topology::SegType::kUp));
  EerAdmission adm(4);
  std::vector<ResKey> live;
  for (int i = 0; i < 2000; ++i) {
    if (live.empty() || rng.below(3) != 0) {
      EerAdmission::Request req;
      req.eer_key = key(kSrcA, static_cast<ResId>(1000 + i));
      req.demand_kbps = static_cast<BwKbps>(1 + rng.below(2000));
      req.segr_in = segr_key;
      if (adm.admit(db, req, 0).ok()) live.push_back(req.eer_key);
    } else {
      const size_t idx = rng.below(live.size());
      adm.release(db, live[idx]);
      live.erase(live.begin() + static_cast<long>(idx));
    }
    ASSERT_LE(eer_allocated(db, segr_key), 10'000u);
  }
  for (const auto& k : live) adm.release(db, k);
  EXPECT_EQ(eer_allocated(db, segr_key), 0u);
}

}  // namespace
}  // namespace colibri::admission
