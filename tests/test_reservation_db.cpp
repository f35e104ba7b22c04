// Tests: ReservationDb — scoped access, pair access, atomic id
// allocation, snapshots, two-phase sweeps.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "colibri/reservation/db.hpp"

namespace colibri::reservation {
namespace {

const AsId kOwner{1, 10};

SegrRecord make_segr(ResId id, BwKbps bw = 10'000, UnixSec exp = 1'000) {
  SegrRecord rec;
  rec.key = ResKey{kOwner, id};
  rec.seg_type = topology::SegType::kUp;
  rec.hops = {topology::Hop{kOwner, kNoInterface, kNoInterface}};
  rec.local_hop = 0;
  rec.active = SegrVersion{0, bw, exp};
  return rec;
}

EerRecord make_eer(ResId id, UnixSec exp = 1'000) {
  EerRecord rec;
  rec.key = ResKey{kOwner, id};
  rec.src_host = HostAddr::from_u64(1);
  rec.dst_host = HostAddr::from_u64(2);
  rec.path = {topology::Hop{kOwner, kNoInterface, kNoInterface}};
  rec.local_hop = 0;
  rec.versions = {EerVersion{0, 100, exp}};
  return rec;
}

TEST(ReservationDbTest, WithSegrSeesStoredRecordAndAbsence) {
  ReservationDb db(kOwner);
  db.upsert_segr(make_segr(5, 7'777));
  const BwKbps bw = db.with_segr(ResKey{kOwner, 5}, [](SegrRecord* rec) {
    return rec == nullptr ? 0u : rec->active.bw_kbps;
  });
  EXPECT_EQ(bw, 7'777u);
  const bool absent = db.with_segr(ResKey{kOwner, 6}, [](SegrRecord* rec) {
    return rec == nullptr;
  });
  EXPECT_TRUE(absent);
}

TEST(ReservationDbTest, WithSegrMutatesInPlace) {
  ReservationDb db(kOwner);
  db.upsert_segr(make_segr(5));
  db.with_segr(ResKey{kOwner, 5}, [](SegrRecord* rec) {
    ASSERT_NE(rec, nullptr);
    rec->eer_allocated_kbps = 42;
  });
  EXPECT_EQ(db.segr_copy(ResKey{kOwner, 5})->eer_allocated_kbps, 42u);
}

TEST(ReservationDbTest, WithSegrPairLocksBothOrEither) {
  ReservationDb db(kOwner);
  const ResId a = 1, b = 2, missing = 3;
  db.upsert_segr(make_segr(a));
  db.upsert_segr(make_segr(b));

  // Both present.
  db.with_segr_pair(ResKey{kOwner, a}, ResKey{kOwner, b},
                    [](SegrRecord* ra, SegrRecord* rb) {
                      ASSERT_NE(ra, nullptr);
                      ASSERT_NE(rb, nullptr);
                      ra->eer_allocated_kbps = 1;
                      rb->eer_allocated_kbps = 2;
                    });
  // The same key twice (must not deadlock on a double lock).
  db.with_segr_pair(ResKey{kOwner, a}, ResKey{kOwner, a},
                    [](SegrRecord* ra, SegrRecord* ra2) {
                      ASSERT_NE(ra, nullptr);
                      EXPECT_EQ(ra, ra2);
                    });
  // A second key that names no record.
  db.with_segr_pair(ResKey{kOwner, a}, ResKey{kOwner, missing},
                    [](SegrRecord* ra, SegrRecord* rm) {
                      ASSERT_NE(ra, nullptr);
                      EXPECT_EQ(rm, nullptr);
                    });
  // No second key.
  db.with_segr_pair(ResKey{kOwner, a}, std::nullopt,
                    [](SegrRecord* ra, SegrRecord* rb) {
                      ASSERT_NE(ra, nullptr);
                      EXPECT_EQ(rb, nullptr);
                    });
  EXPECT_EQ(db.segr_copy(ResKey{kOwner, a})->eer_allocated_kbps, 1u);
  EXPECT_EQ(db.segr_copy(ResKey{kOwner, b})->eer_allocated_kbps, 2u);
}

TEST(ReservationDbTest, CountsAndSnapshotsSpanAllShards) {
  ReservationDb db(kOwner);
  for (ResId id = 1; id <= 100; ++id) db.upsert_segr(make_segr(id));
  for (ResId id = 200; id < 250; ++id) db.upsert_eer(make_eer(id));
  EXPECT_EQ(db.segr_count(), 100u);
  EXPECT_EQ(db.eer_count(), 50u);

  std::set<ResId> seen;
  for (const auto& rec : db.segr_snapshot()) seen.insert(rec.key.res_id);
  EXPECT_EQ(seen.size(), 100u);
  size_t eers = 0;
  db.for_each_eer([&](const EerRecord&) { ++eers; });
  EXPECT_EQ(eers, 50u);
}

TEST(ReservationDbTest, TwoPhaseSweepRunsCallbacksOnCopies) {
  ReservationDb db(kOwner);
  for (ResId id = 1; id <= 20; ++id) db.upsert_segr(make_segr(id, 10'000, 100));
  db.upsert_segr(make_segr(21, 10'000, 9'999));  // survives

  std::vector<ResKey> removed;
  const size_t n = db.sweep_segrs(500, [&](const SegrRecord& rec) {
    removed.push_back(rec.key);
    // Callback may re-enter the db: the lock is already dropped.
    EXPECT_FALSE(db.contains_segr(rec.key));
  });
  EXPECT_EQ(n, 20u);
  EXPECT_EQ(removed.size(), 20u);
  EXPECT_EQ(db.segr_count(), 1u);
}

TEST(ReservationDbTest, SweepEersDropsExpiredVersionsOnly) {
  ReservationDb db(kOwner);
  db.upsert_eer(make_eer(1, 100));
  auto live = make_eer(2, 100);
  live.versions.push_back(EerVersion{1, 100, 900});  // renewed
  db.upsert_eer(std::move(live));

  size_t removed = 0;
  db.sweep_eers(500, [&](const EerRecord&) { ++removed; });
  EXPECT_EQ(removed, 1u);
  EXPECT_FALSE(db.contains_eer(ResKey{kOwner, 1}));
  EXPECT_TRUE(db.contains_eer(ResKey{kOwner, 2}));
}

TEST(ReservationDbTest, NextResIdIsUniqueAcrossThreads) {
  ReservationDb db(kOwner);
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 20'000;
  std::vector<std::vector<ResId>> minted(kThreads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&db, &minted, t] {
      minted[t].reserve(kPerThread);
      for (size_t i = 0; i < kPerThread; ++i) {
        minted[t].push_back(db.next_res_id());
      }
    });
  }
  for (auto& w : workers) w.join();

  std::set<ResId> unique;
  for (const auto& ids : minted) {
    for (ResId id : ids) {
      EXPECT_GT(id, 0u);
      EXPECT_TRUE(unique.insert(id).second) << "duplicate id " << id;
    }
  }
  EXPECT_EQ(unique.size(), kThreads * kPerThread);
  EXPECT_EQ(db.last_res_id(), kThreads * kPerThread);
}

TEST(ReservationDbTest, ReserveIdsThroughNeverLowersTheFloor) {
  ReservationDb db(kOwner);
  db.reserve_ids_through(100);
  EXPECT_EQ(db.next_res_id(), 101u);
  db.reserve_ids_through(50);  // lower floor: no-op
  EXPECT_EQ(db.next_res_id(), 102u);
}

}  // namespace
}  // namespace colibri::reservation
