// Stress tests: the control plane's locked reservation db and striped
// EER admission under concurrency. Built to run in the CI race lane
// (TSan) — the assertions are deliberately about invariants that hold
// under any interleaving, and the value of the suite is the
// interleavings themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "colibri/admission/eer_admission.hpp"
#include "colibri/reservation/db.hpp"

namespace colibri {
namespace {

const AsId kOwner{1, 10};

reservation::SegrRecord make_segr(ResId id, BwKbps bw) {
  reservation::SegrRecord rec;
  rec.key = ResKey{kOwner, id};
  rec.seg_type = topology::SegType::kUp;
  rec.hops = {topology::Hop{kOwner, kNoInterface, kNoInterface}};
  rec.local_hop = 0;
  rec.active = reservation::SegrVersion{0, bw, 1 << 30};
  return rec;
}

TEST(ControlPlaneStressTest, ConcurrentAdmitReleaseKeepsLedgerConsistent) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 1'000;
  constexpr BwKbps kDemand = 100;

  reservation::ReservationDb db(kOwner);
  admission::EerAdmission adm(8);
  std::vector<ResKey> segr_keys;
  for (ResId id = 1; id <= 16; ++id) {
    // Ample capacity: every admit must succeed.
    db.upsert_segr(make_segr(id, kThreads * kPerThread * kDemand));
    segr_keys.push_back(ResKey{kOwner, id});
  }

  std::atomic<size_t> live{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        admission::EerAdmission::Request req;
        req.eer_key = ResKey{kOwner, db.next_res_id()};
        req.demand_kbps = kDemand;
        req.segr_in = segr_keys[(t * kPerThread + i) % segr_keys.size()];
        auto granted = adm.admit(db, req, 0);
        ASSERT_TRUE(granted.ok());
        // Half the admissions release immediately (churn).
        if (i % 2 == 0) {
          adm.release(db, req.eer_key);
        } else {
          live.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(adm.tracked(), live.load());
  BwKbps allocated = 0;
  db.for_each_segr([&](const reservation::SegrRecord& rec) {
    allocated += rec.eer_allocated_kbps;
  });
  EXPECT_EQ(allocated, live.load() * kDemand);
}

TEST(ControlPlaneStressTest, SnapshotReadersRaceWriters) {
  reservation::ReservationDb db(kOwner);
  constexpr size_t kRecords = 4'000;
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    for (ResId id = 1; id <= kRecords; ++id) {
      db.upsert_segr(make_segr(id, 1'000));
      db.with_segr(ResKey{kOwner, id}, [](reservation::SegrRecord* rec) {
        if (rec != nullptr) rec->eer_allocated_kbps = 7;
      });
    }
    stop.store(true);
  });

  size_t max_seen = 0;
  std::vector<std::thread> readers;
  std::mutex max_mu;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const auto snap = db.segr_snapshot();
        EXPECT_EQ(db.eer_snapshot().size(), 0u);  // no EERs in this test
        std::lock_guard lock(max_mu);
        max_seen = std::max(max_seen, snap.size());
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(db.segr_count(), kRecords);
  EXPECT_LE(max_seen, kRecords);
}

TEST(ControlPlaneStressTest, SweeperRacesInPlaceRenewals) {
  constexpr ResId kEers = 4'000;
  constexpr UnixSec kStart = 1'000;
  constexpr UnixSec kSpread = 8;  // deadlines kStart .. kStart + 7
  constexpr UnixSec kRenewedExp = kStart + 100;
  reservation::ReservationDb db(kOwner);
  for (ResId id = 1; id <= kEers; ++id) {
    reservation::EerRecord rec;
    rec.key = ResKey{kOwner, id};
    rec.path = {topology::Hop{kOwner, kNoInterface, kNoInterface}};
    rec.versions = {reservation::EerVersion{0, 10, kStart + id % kSpread}};
    db.upsert_eer(std::move(rec));
  }

  // The sweeper walks `now` across the deadlines while two threads renew
  // every EER in place; each renewal and each sweep hold the db lock, so
  // an EER is either renewed before its sweep (and is re-filed, not
  // swept) or swept before its renewal (which then finds nothing).
  std::vector<ResKey> swept;
  std::thread sweeper([&] {
    for (UnixSec now = kStart; now < kStart + kSpread; ++now) {
      db.sweep_eers(now, [&](const reservation::EerRecord& rec) {
        swept.push_back(rec.key);
      });
    }
  });
  std::vector<std::vector<ResKey>> renewed(2);
  std::vector<std::thread> renewers;
  for (size_t t = 0; t < renewed.size(); ++t) {
    renewers.emplace_back([&, t] {
      for (ResId id = 1 + static_cast<ResId>(t); id <= kEers; id += 2) {
        const ResKey key{kOwner, id};
        const bool ok = db.with_eer(key, [](reservation::EerRecord* rec) {
          if (rec == nullptr) return false;
          rec->versions.push_back(reservation::EerVersion{1, 10, kRenewedExp});
          return true;
        });
        if (ok) renewed[t].push_back(key);
      }
    });
  }
  sweeper.join();
  for (auto& r : renewers) r.join();

  std::vector<ResKey> all = swept;
  for (const auto& r : renewed) all.insert(all.end(), r.begin(), r.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_EQ(all.size(), kEers);
  EXPECT_EQ(db.eer_count(), kEers - swept.size());

  // The survivors are exactly the renewed EERs, filed at their renewed
  // deadline: nothing more is due before it, and all of them are at it.
  size_t examined = 0;
  EXPECT_EQ(db.sweep_eers(kRenewedExp - 1, nullptr, &examined), 0u);
  EXPECT_EQ(examined, 0u);
  EXPECT_EQ(db.sweep_eers(kRenewedExp, nullptr, &examined),
            kEers - swept.size());
  EXPECT_EQ(examined, kEers - swept.size());
  EXPECT_EQ(db.eer_count(), 0u);
}

TEST(ControlPlaneStressTest, ConcurrentIdAllocationNeverCollides) {
  reservation::ReservationDb db(kOwner);
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 5'000;
  std::vector<std::vector<ResId>> minted(kThreads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&db, &minted, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        minted[t].push_back(db.next_res_id());
      }
    });
  }
  for (auto& w : workers) w.join();
  std::vector<ResId> all;
  for (auto& ids : minted) all.insert(all.end(), ids.begin(), ids.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_EQ(all.size(), kThreads * kPerThread);
}

}  // namespace
}  // namespace colibri
