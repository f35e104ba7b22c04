// Expiry index tests: ReservationDb's indexed sweeps against a
// brute-force reference, and the count of index entries a sweep examines.
//
// The differential workload is seeded (COLIBRI_TEST_SEED overrides it)
// and carries the `chaos` label. It upserts, renews and shortens records
// in place through with_eer / with_segr / with_segr_pair, sets and
// activates pending SegR versions, erases, checkpoints the WAL and
// recovers into a fresh db, and ticks at random times. Before each tick
// the reference scans eer_snapshot() / segr_snapshot() with the expiry
// rules written out below, orders what is due shard by shard in
// (deadline, src_as, res_id) order, and each sweep's callbacks must equal
// that list.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "colibri/common/rand.hpp"
#include "colibri/reservation/db.hpp"
#include "colibri/reservation/persist.hpp"
#include "seed_util.hpp"

namespace colibri::reservation {
namespace {

const AsId kOwner{1, 10};
const AsId kSources[] = {AsId{1, 10}, AsId{1, 20}, AsId{2, 30}};
constexpr ResId kMaxId = 300;  // small id space: replacements collide

struct Due {
  UnixSec deadline = 0;
  ResKey key;
  friend bool operator==(const Due&, const Due&) = default;
};

std::ostream& operator<<(std::ostream& os, const Due& d) {
  return os << "{" << d.deadline << ", " << d.key.src_as.to_string() << ", "
            << d.key.res_id << "}";
}

// --- reference rules ----------------------------------------------------------
// An EER is removed once every version has expired; a SegR once its active
// version has expired and no pending version is still live.
bool eer_due(const EerRecord& r, UnixSec now) {
  return std::all_of(r.versions.begin(), r.versions.end(),
                     [now](const EerVersion& v) { return v.exp_time <= now; });
}
UnixSec eer_order_time(const EerRecord& r) {
  UnixSec t = 0;
  for (const EerVersion& v : r.versions) t = std::max(t, v.exp_time);
  return t;
}
bool segr_due(const SegrRecord& r, UnixSec now) {
  return r.active.exp_time <= now && !(r.pending && r.pending->exp_time > now);
}
UnixSec segr_order_time(const SegrRecord& r) {
  return std::max(r.active.exp_time, r.pending ? r.pending->exp_time : 0);
}

template <typename Rec, typename DueFn, typename TimeFn>
std::vector<Due> reference(const std::vector<Rec>& snapshot, UnixSec now,
                           size_t shards, DueFn due, TimeFn order_time) {
  std::vector<std::vector<Due>> per_shard(shards);
  for (const Rec& r : snapshot) {
    if (!due(r, now)) continue;
    per_shard[ReservationDb::shard_of(r.key.res_id, shards)].push_back(
        Due{order_time(r), r.key});
  }
  std::vector<Due> out;
  for (auto& list : per_shard) {
    std::sort(list.begin(), list.end(), [](const Due& a, const Due& b) {
      return a.deadline != b.deadline ? a.deadline < b.deadline
                                      : a.key < b.key;
    });
    out.insert(out.end(), list.begin(), list.end());
  }
  return out;
}

// --- the workload -------------------------------------------------------------

class ExpiryWorkload {
 public:
  explicit ExpiryWorkload(std::uint64_t seed)
      : rng_(seed),
        shards_(1 + rng_.below(8)),
        db_(std::make_unique<ReservationDb>(kOwner, shards_)) {}

  void step() {
    switch (rng_.below(12)) {
      case 0:
      case 1: db_->upsert_eer(random_eer()); break;
      case 2: renew_eer(); break;
      case 3: shorten_eer(); break;
      case 4: db_->upsert_segr(random_segr()); break;
      case 5: set_pending(); break;
      case 6: activate(); break;
      case 7: pair_update(); break;
      case 8:
        if (rng_.below(2) == 0) {
          db_->erase_eer(random_key());
        } else {
          db_->erase_segr(random_key());
        }
        break;
      case 9:
        if (rng_.below(8) == 0) checkpoint_and_recover();
        break;
      default: tick(); break;
    }
  }

  void tick() {
    now_ += static_cast<UnixSec>(rng_.below(6));
    const auto eers = reference(db_->eer_snapshot(), now_, shards_, eer_due,
                                eer_order_time);
    const auto segrs = reference(db_->segr_snapshot(), now_, shards_,
                                 segr_due, segr_order_time);
    std::vector<Due> got_eers;
    std::vector<Due> got_segrs;
    size_t examined = 0;
    const size_t n_eers = db_->sweep_eers(
        now_,
        [&](const EerRecord& r) {
          got_eers.push_back(Due{eer_order_time(r), r.key});
        },
        &examined);
    const size_t n_segrs = db_->sweep_segrs(
        now_,
        [&](const SegrRecord& r) {
          got_segrs.push_back(Due{segr_order_time(r), r.key});
        },
        &examined);
    ASSERT_EQ(got_eers, eers) << "EER sweep at " << now_;
    ASSERT_EQ(got_segrs, segrs) << "SegR sweep at " << now_;
    EXPECT_EQ(n_eers, eers.size());
    EXPECT_EQ(n_segrs, segrs.size());
    EXPECT_GE(examined, n_eers + n_segrs);
    expired_ += n_eers + n_segrs;
    ++ticks_;
  }

  size_t expired() const { return expired_; }
  size_t ticks() const { return ticks_; }
  size_t recoveries() const { return recoveries_; }

 private:
  ResKey random_key() {
    return ResKey{kSources[rng_.below(3)],
                  static_cast<ResId>(1 + rng_.below(kMaxId))};
  }
  // An expiry around now: sometimes already past, mostly ahead.
  UnixSec random_exp() {
    return now_ + static_cast<UnixSec>(rng_.below(40)) - 3;
  }

  EerRecord random_eer() {
    EerRecord r;
    r.key = random_key();
    r.src_host = HostAddr::from_u64(rng_.next());
    r.dst_host = HostAddr::from_u64(rng_.next());
    r.path = {topology::Hop{r.key.src_as, kNoInterface, 1},
              topology::Hop{kOwner, 2, kNoInterface}};
    r.local_hop = 1;
    r.segrs = {random_key()};
    const size_t versions = rng_.below(3) + (rng_.below(16) == 0 ? 0 : 1);
    for (size_t v = 0; v < versions; ++v) {
      r.versions.push_back(EerVersion{static_cast<ResVer>(v), 10,
                                      random_exp()});
    }
    return r;
  }

  SegrRecord random_segr() {
    SegrRecord r;
    r.key = random_key();
    r.seg_type = topology::SegType::kUp;
    r.hops = {topology::Hop{r.key.src_as, kNoInterface, 3},
              topology::Hop{kOwner, 4, kNoInterface}};
    r.local_hop = 1;
    r.active = SegrVersion{0, 1'000, random_exp()};
    if (rng_.below(3) == 0) r.pending = SegrVersion{1, 2'000, random_exp()};
    return r;
  }

  // In-place renewal: prune, then add a version (usually extends).
  void renew_eer() {
    const UnixSec exp = random_exp();
    const UnixSec now = now_;
    db_->with_eer(random_key(), [&](EerRecord* r) {
      if (r == nullptr) return;
      r->prune(now);
      r->versions.push_back(EerVersion{9, 10, exp});
    });
  }

  // In-place shortening: caps every version, or drops the newest.
  void shorten_eer() {
    const UnixSec cap = now_ + static_cast<UnixSec>(rng_.below(5));
    const bool drop = rng_.below(2) == 0;
    db_->with_eer(random_key(), [&](EerRecord* r) {
      if (r == nullptr) return;
      if (drop && !r->versions.empty()) {
        r->versions.pop_back();
        return;
      }
      for (EerVersion& v : r->versions) v.exp_time = std::min(v.exp_time, cap);
    });
  }

  void set_pending() {
    const UnixSec exp = random_exp();
    db_->with_segr(random_key(), [&](SegrRecord* r) {
      if (r != nullptr) r->pending = SegrVersion{2, 3'000, exp};
    });
  }

  // Activation switches the pending version live: the deadline may move
  // either way (a pending version can expire before the active one).
  void activate() {
    db_->with_segr(random_key(), [](SegrRecord* r) {
      if (r == nullptr || !r->pending) return;
      r->active = *r->pending;
      r->pending.reset();
    });
  }

  // Two SegRs under one (or two) shard locks: shorten one, extend the
  // other's pending version.
  void pair_update() {
    const ResKey a = random_key();
    const std::optional<ResKey> b =
        rng_.below(4) == 0 ? std::nullopt : std::optional(random_key());
    const UnixSec cap = now_ + static_cast<UnixSec>(rng_.below(4));
    const UnixSec ext = now_ + 20 + static_cast<UnixSec>(rng_.below(20));
    db_->with_segr_pair(a, b, [&](SegrRecord* ra, SegrRecord* rb) {
      if (ra != nullptr) {
        ra->active.exp_time = std::min(ra->active.exp_time, cap);
        ra->pending.reset();
      }
      if (rb != nullptr) rb->pending = SegrVersion{3, 500, ext};
    });
  }

  void checkpoint_and_recover() {
    MemoryStorage storage;
    ReservationWal wal(storage);
    wal.checkpoint(*db_);
    auto fresh = std::make_unique<ReservationDb>(kOwner, shards_);
    wal.recover(*fresh);
    ASSERT_EQ(fresh->eer_count(), db_->eer_count());
    ASSERT_EQ(fresh->segr_count(), db_->segr_count());
    db_ = std::move(fresh);
    ++recoveries_;
  }

  Rng rng_;
  size_t shards_;
  std::unique_ptr<ReservationDb> db_;
  UnixSec now_ = 1'000;
  size_t expired_ = 0;
  size_t ticks_ = 0;
  size_t recoveries_ = 0;
};

TEST(ExpiryDifferentialTest, IndexedSweepsMatchBruteForceReference) {
  const std::uint64_t seed = colibri::testing::test_seed(0xE71E5EEDULL);
  COLIBRI_SEED_TRACE(seed);
  for (std::uint64_t round = 0; round < 8; ++round) {
    ExpiryWorkload w(seed + round);
    for (int i = 0; i < 6'000; ++i) {
      w.step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (int i = 0; i < 20; ++i) w.tick();
    EXPECT_GT(w.ticks(), 100u);
    EXPECT_GT(w.expired(), 100u);
    EXPECT_GT(w.recoveries(), 0u);
  }
}

// --- examined counts ------------------------------------------------------------

EerRecord make_eer(ResId id, UnixSec exp) {
  EerRecord r;
  r.key = ResKey{kOwner, id};
  r.versions = {EerVersion{0, 10, exp}};
  return r;
}

TEST(ExpiryDifferentialTest, SweepExaminesOnlyDueEntries) {
  constexpr ResId kLive = 100'000;
  constexpr size_t kDue = 37;
  constexpr size_t kRenewed = 500;
  ReservationDb db(kOwner, 8);
  for (ResId id = 1; id <= kLive; ++id) db.upsert_eer(make_eer(id, 1'000));

  // None due: the sweep touches no entry at all.
  size_t examined = 0;
  EXPECT_EQ(db.sweep_eers(999, nullptr, &examined), 0u);
  EXPECT_EQ(examined, 0u);

  // k shortened in place: exactly those k are examined (and expire).
  for (ResId id = 1; id <= kDue; ++id) {
    db.with_eer(ResKey{kOwner, id},
                [](EerRecord* r) { r->versions[0].exp_time = 500; });
  }
  EXPECT_EQ(db.sweep_eers(999, nullptr, &examined), kDue);
  EXPECT_EQ(examined, kDue);

  // Renewed in place: still filed at 1000, so the sweep at 1000 examines
  // every remaining entry, expires the rest and re-files the renewed ones
  // at 2000, where they are examined once more.
  for (ResId id = kDue + 1; id <= kDue + kRenewed; ++id) {
    db.with_eer(ResKey{kOwner, id}, [](EerRecord* r) {
      r->versions.push_back(EerVersion{1, 10, 2'000});
    });
  }
  examined = 0;
  EXPECT_EQ(db.sweep_eers(1'000, nullptr, &examined),
            kLive - kDue - kRenewed);
  EXPECT_EQ(examined, kLive - kDue);
  examined = 0;
  EXPECT_EQ(db.sweep_eers(1'999, nullptr, &examined), 0u);
  EXPECT_EQ(examined, 0u);
  EXPECT_EQ(db.sweep_eers(2'000, nullptr, &examined), kRenewed);
  EXPECT_EQ(examined, kRenewed);
  EXPECT_EQ(db.eer_count(), 0u);
}

}  // namespace
}  // namespace colibri::reservation
