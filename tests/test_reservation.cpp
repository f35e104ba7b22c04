// Unit tests: reservation records, versioning semantics, stores, sweeps.
#include <gtest/gtest.h>

#include "colibri/reservation/db.hpp"

namespace colibri::reservation {
namespace {

SegrRecord make_segr(ResId id, BwKbps bw, UnixSec exp, IfId in = 1,
                     IfId eg = 2) {
  SegrRecord r;
  r.key = ResKey{AsId{1, 10}, id};
  r.seg_type = topology::SegType::kUp;
  r.hops = {topology::Hop{AsId{1, 10}, kNoInterface, 3},
            topology::Hop{AsId{1, 20}, in, eg},
            topology::Hop{AsId{1, 100}, 4, kNoInterface}};
  r.local_hop = 1;
  r.active = SegrVersion{0, bw, exp};
  return r;
}

EerRecord make_eer(ResId id, BwKbps bw, UnixSec exp) {
  EerRecord r;
  r.key = ResKey{AsId{1, 10}, id};
  r.src_host = HostAddr::from_u64(1);
  r.dst_host = HostAddr::from_u64(2);
  r.path = {topology::Hop{AsId{1, 10}, 0, 1}, topology::Hop{AsId{1, 20}, 2, 0}};
  r.local_hop = 0;
  r.segrs = {ResKey{AsId{1, 10}, 900}};
  r.versions = {EerVersion{0, bw, exp}};
  return r;
}

TEST(SegrRecordTest, InterfaceAccessors) {
  const SegrRecord r = make_segr(1, 100, 50);
  EXPECT_EQ(r.ingress(), 1);
  EXPECT_EQ(r.egress(), 2);
}

TEST(SegrRecordTest, EerAvailability) {
  SegrRecord r = make_segr(1, 100, 50);
  EXPECT_EQ(r.eer_available_kbps(), 100u);
  r.eer_allocated_kbps = 30;
  EXPECT_EQ(r.eer_available_kbps(), 70u);
  r.eer_allocated_kbps = 150;  // defensive: never negative
  EXPECT_EQ(r.eer_available_kbps(), 0u);
}

TEST(SegrRecordTest, Expiry) {
  const SegrRecord r = make_segr(1, 100, 50);
  EXPECT_FALSE(r.expired(49));
  EXPECT_TRUE(r.expired(50));
}

TEST(EerRecordTest, EffectiveBwIsMaxOverLiveVersions) {
  EerRecord r = make_eer(1, 100, 50);
  r.versions.push_back(EerVersion{1, 80, 60});
  r.versions.push_back(EerVersion{2, 120, 40});
  // At t=30 all live: max = 120.
  EXPECT_EQ(r.effective_bw(30), 120u);
  // At t=45 version 2 expired: max(100, 80) = 100.
  EXPECT_EQ(r.effective_bw(45), 100u);
  // At t=55 only version 1 lives.
  EXPECT_EQ(r.effective_bw(55), 80u);
  EXPECT_EQ(r.effective_bw(60), 0u);
}

TEST(EerRecordTest, PruneDropsExpiredVersions) {
  EerRecord r = make_eer(1, 100, 50);
  r.versions.push_back(EerVersion{1, 80, 60});
  EXPECT_TRUE(r.prune(55));
  ASSERT_EQ(r.versions.size(), 1u);
  EXPECT_EQ(r.versions[0].version, 1);
  EXPECT_FALSE(r.prune(55));
}

TEST(EerRecordTest, LatestExpiry) {
  EerRecord r = make_eer(1, 100, 50);
  r.versions.push_back(EerVersion{1, 80, 70});
  EXPECT_EQ(r.latest_expiry(), 70u);
  EXPECT_FALSE(r.expired(69));
  EXPECT_TRUE(r.expired(70));
}

TEST(SegrStoreTest, UpsertFindErase) {
  SegrStore store;
  SegrRecord* p = store.upsert(make_segr(1, 100, 50));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.find(p->key), p);
  EXPECT_TRUE(store.erase(p->key));
  EXPECT_EQ(store.find(ResKey{AsId{1, 10}, 1}), nullptr);
  EXPECT_FALSE(store.erase(ResKey{AsId{1, 10}, 1}));
}

TEST(SegrStoreTest, UpsertReplacesAndReindexes) {
  SegrStore store;
  store.upsert(make_segr(1, 100, 50, 1, 2));
  // Replace with different interfaces.
  store.upsert(make_segr(1, 200, 60, 5, 6));
  EXPECT_EQ(store.size(), 1u);
  const SegrRecord* rec = store.find(ResKey{AsId{1, 10}, 1});
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->active.bw_kbps, 200u);
  EXPECT_EQ(rec->ingress(), 5);
  // A replacement with an earlier deadline is re-filed in the expiry
  // index, so the next sweep past it removes the record.
  store.upsert(make_segr(1, 200, 20, 5, 6));
  EXPECT_EQ(store.sweep(30, nullptr), 1u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(SegrStoreTest, PointersStableAcrossInserts) {
  SegrStore store;
  SegrRecord* first = store.upsert(make_segr(1, 100, 50));
  for (ResId i = 2; i <= 200; ++i) store.upsert(make_segr(i, 10, 50));
  EXPECT_EQ(store.find(ResKey{AsId{1, 10}, 1}), first);
  EXPECT_EQ(first->active.bw_kbps, 100u);
}

TEST(SegrStoreTest, SweepRemovesExpiredOnly) {
  SegrStore store;
  store.upsert(make_segr(1, 100, 50));
  store.upsert(make_segr(2, 100, 150));
  std::vector<ResId> removed;
  const size_t n = store.sweep(
      100, [&](const SegrRecord& r) { removed.push_back(r.key.res_id); });
  EXPECT_EQ(n, 1u);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0], 1u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(SegrStoreTest, SweepKeepsExpiredActiveWithLivePending) {
  SegrStore store;
  SegrRecord r = make_segr(1, 100, 50);
  r.pending = SegrVersion{1, 100, 200};
  store.upsert(std::move(r));
  EXPECT_EQ(store.sweep(100, nullptr), 0u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(EerStoreTest, SweepReleasesExpired) {
  EerStore store;
  store.upsert(make_eer(1, 10, 50));
  EerRecord multi = make_eer(2, 10, 50);
  multi.versions.push_back(EerVersion{1, 10, 500});
  store.upsert(multi);
  size_t removed = store.sweep(100, nullptr);
  EXPECT_EQ(removed, 1u);  // EER 2 still has a live version
  EXPECT_EQ(store.size(), 1u);
  EXPECT_NE(store.find(ResKey{AsId{1, 10}, 2}), nullptr);
}

TEST(ReservationDbTest, ResIdsMonotonic) {
  ReservationDb db(AsId{1, 10});
  const ResId a = db.next_res_id();
  const ResId b = db.next_res_id();
  EXPECT_LT(a, b);
  EXPECT_GT(a, 0u);  // 0 is reserved (gateway table sentinel)
}

}  // namespace
}  // namespace colibri::reservation
