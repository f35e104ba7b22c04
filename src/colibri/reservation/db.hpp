// Per-AS reservation database, sharded for a concurrent control plane.
//
// State (SegR store, EER store) is partitioned into N shards keyed by a
// splitmix64 hash of the ResId — the same stable id-routing the data
// plane's ShardedGateway uses — with one mutex per shard and no global
// lock. The ResId allocator is atomic (paper §4.3: "the CServ increases
// the ResId for every new SegR or EER", making (SrcAS, ResId) globally
// unique), so concurrent setup requests never mint duplicate ids.
//
// API contract (the old raw segrs()/eers() store accessors are gone):
//  * with_segr / with_eer run a callback on the record pointer (nullptr
//    when absent) under the owning shard's lock. Callbacks must be short
//    and must not re-enter the database or call out to the bus. The
//    mutating overloads keep the expiry index exact (store.hpp): a
//    callback that moves a deadline earlier re-files the record.
//  * with_segr_pair locks the two owning shards in ascending shard-index
//    order (one lock when they coincide), so multi-record admission
//    updates are deadlock-free by construction.
//  * for_each_* iterate shard by shard under that shard's lock;
//    segr_snapshot / eer_snapshot copy records out for lock-free scans.
//  * sweep_segrs / sweep_eers are two-phase: expired records are removed
//    under the shard lock, but the on_remove callbacks run on the removed
//    records *after* the lock is dropped, so they may re-enter the
//    database or release admission state without lock-order hazards.
//    Each pops only the index entries due by `now`; callbacks run shard
//    by shard in (deadline, src_as, res_id) order.
#pragma once

#include <atomic>
#include <mutex>
#include <optional>
#include <vector>

#include "colibri/reservation/eer.hpp"
#include "colibri/reservation/segr.hpp"

namespace colibri::reservation {

class ReservationDb {
 public:
  explicit ReservationDb(AsId owner, size_t num_shards = 1)
      : owner_(owner), shards_(num_shards == 0 ? 1 : num_shards) {}

  ReservationDb(const ReservationDb&) = delete;
  ReservationDb& operator=(const ReservationDb&) = delete;

  AsId owner() const { return owner_; }
  size_t num_shards() const { return shards_.size(); }

  // Stable shard routing: splitmix64 finalizer over the ResId, matching
  // ShardedGateway::shard_of — placement depends only on (id, count).
  static size_t shard_of(ResId id, size_t num_shards) {
    std::uint64_t h = id;
    h *= 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 32;
    return static_cast<size_t>(h % num_shards);
  }
  size_t shard_of(ResId id) const { return shard_of(id, shards_.size()); }

  // Allocates the next reservation id for reservations initiated here.
  // Lock-free; safe under concurrent allocation.
  ResId next_res_id() { return last_res_id_.fetch_add(1) + 1; }

  // Recovery support: ensures future next_res_id() calls return ids
  // strictly greater than `floor` (WAL replay restores the allocator so a
  // restarted CServ cannot re-mint a live reservation's id).
  void reserve_ids_through(ResId floor) {
    ResId cur = last_res_id_.load();
    while (cur < floor && !last_res_id_.compare_exchange_weak(cur, floor)) {
    }
  }
  ResId last_res_id() const { return last_res_id_.load(); }

  // --- scoped record access ----------------------------------------------
  template <typename Fn>
  decltype(auto) with_segr(const ResKey& key, Fn&& fn) {
    Shard& s = shard(key);
    std::lock_guard lock(s.mu);
    const auto rec = s.segrs.edit(key);
    return fn(rec.get());
  }
  template <typename Fn>
  decltype(auto) with_segr(const ResKey& key, Fn&& fn) const {
    const Shard& s = shard(key);
    std::lock_guard lock(s.mu);
    return fn(s.segrs.find(key));
  }
  template <typename Fn>
  decltype(auto) with_eer(const ResKey& key, Fn&& fn) {
    Shard& s = shard(key);
    std::lock_guard lock(s.mu);
    const auto rec = s.eers.edit(key);
    return fn(rec.get());
  }
  template <typename Fn>
  decltype(auto) with_eer(const ResKey& key, Fn&& fn) const {
    const Shard& s = shard(key);
    std::lock_guard lock(s.mu);
    return fn(s.eers.find(key));
  }

  // Locks the shards owning `a` and `b` in ascending shard-index order
  // and runs fn(SegrRecord* a, SegrRecord* b). `b` may be invalid
  // (res_id 0 never names a reservation) — fn then gets nullptr for it.
  template <typename Fn>
  decltype(auto) with_segr_pair(const ResKey& a, const std::optional<ResKey>& b,
                                Fn&& fn) {
    Shard& sa = shard(a);
    if (!b) {
      std::lock_guard lock(sa.mu);
      const auto ra = sa.segrs.edit(a);
      return fn(ra.get(), static_cast<SegrRecord*>(nullptr));
    }
    Shard& sb = shard(*b);
    if (&sa == &sb) {
      std::lock_guard lock(sa.mu);
      const auto ra = sa.segrs.edit(a);
      const auto rb = sb.segrs.edit(*b);
      return fn(ra.get(), rb.get());
    }
    Shard& first = shard_index(a) < shard_index(*b) ? sa : sb;
    Shard& second = &first == &sa ? sb : sa;
    std::scoped_lock lock(first.mu, second.mu);
    const auto ra = sa.segrs.edit(a);
    const auto rb = sb.segrs.edit(*b);
    return fn(ra.get(), rb.get());
  }

  // --- mutation ------------------------------------------------------------
  // Inserts or replaces; `under_lock` (if provided) runs on the stored
  // record while the shard lock is still held — the WAL mirrors mutations
  // from there so log order matches apply order per shard.
  void upsert_segr(SegrRecord rec) {
    upsert_segr(std::move(rec), [](const SegrRecord&) {});
  }
  template <typename Fn>
  void upsert_segr(SegrRecord rec, Fn&& under_lock) {
    Shard& s = shard(rec.key);
    std::lock_guard lock(s.mu);
    under_lock(*s.segrs.upsert(std::move(rec)));
  }
  void upsert_eer(EerRecord rec) {
    upsert_eer(std::move(rec), [](const EerRecord&) {});
  }
  template <typename Fn>
  void upsert_eer(EerRecord rec, Fn&& under_lock) {
    Shard& s = shard(rec.key);
    std::lock_guard lock(s.mu);
    under_lock(*s.eers.upsert(std::move(rec)));
  }

  bool erase_segr(const ResKey& key) {
    Shard& s = shard(key);
    std::lock_guard lock(s.mu);
    return s.segrs.erase(key);
  }
  bool erase_eer(const ResKey& key) {
    Shard& s = shard(key);
    std::lock_guard lock(s.mu);
    return s.eers.erase(key);
  }

  // --- reads ---------------------------------------------------------------
  bool contains_segr(const ResKey& key) const {
    return with_segr(key, [](const SegrRecord* r) { return r != nullptr; });
  }
  bool contains_eer(const ResKey& key) const {
    return with_eer(key, [](const EerRecord* r) { return r != nullptr; });
  }
  std::optional<SegrRecord> segr_copy(const ResKey& key) const {
    return with_segr(key, [](const SegrRecord* r) {
      return r == nullptr ? std::nullopt : std::optional<SegrRecord>(*r);
    });
  }
  std::optional<EerRecord> eer_copy(const ResKey& key) const {
    return with_eer(key, [](const EerRecord* r) {
      return r == nullptr ? std::nullopt : std::optional<EerRecord>(*r);
    });
  }

  size_t segr_count() const {
    size_t n = 0;
    for (const auto& s : shards_) {
      std::lock_guard lock(s.mu);
      n += s.segrs.size();
    }
    return n;
  }
  size_t eer_count() const {
    size_t n = 0;
    for (const auto& s : shards_) {
      std::lock_guard lock(s.mu);
      n += s.eers.size();
    }
    return n;
  }

  // --- iteration -----------------------------------------------------------
  // Shard-by-shard scan under each shard's lock; fn must not re-enter the
  // database. For scans that need to call back into the db (or run long),
  // use the snapshot variants.
  template <typename Fn>
  void for_each_segr(Fn&& fn) const {
    for (const auto& s : shards_) {
      std::lock_guard lock(s.mu);
      s.segrs.for_each(fn);
    }
  }
  template <typename Fn>
  void for_each_eer(Fn&& fn) const {
    for (const auto& s : shards_) {
      std::lock_guard lock(s.mu);
      s.eers.for_each(fn);
    }
  }
  std::vector<SegrRecord> segr_snapshot() const;
  std::vector<EerRecord> eer_snapshot() const;

  // Keys of the live EERs owned by shard `shard_idx`, ResId-ordered —
  // the unit of batched renewal processing (one batch per shard).
  std::vector<ResKey> eer_keys_of_shard(size_t shard_idx) const;

  // --- expiry --------------------------------------------------------------
  // Two-phase sweeps: removal happens under the shard lock, the callbacks
  // run on the removed records after it is released (safe to re-enter the
  // db / release admission state from them), shard by shard in
  // (deadline, src_as, res_id) order. Return the number removed and add
  // the number of index entries popped (expired plus re-filed) to
  // `*examined`.
  size_t sweep_segrs(UnixSec now,
                     const std::function<void(const SegrRecord&)>& on_remove,
                     size_t* examined = nullptr);
  size_t sweep_eers(UnixSec now,
                    const std::function<void(const EerRecord&)>& on_remove,
                    size_t* examined = nullptr);

 private:
  struct Shard {
    mutable std::mutex mu;
    SegrStore segrs;
    EerStore eers;
  };

  template <typename Rec>
  size_t sweep(UnixSec now, RecordStore<Rec> Shard::*store,
               const std::function<void(const Rec&)>& on_remove,
               size_t* examined);

  size_t shard_index(const ResKey& key) const {
    return shard_of(key.res_id, shards_.size());
  }
  Shard& shard(const ResKey& key) { return shards_[shard_index(key)]; }
  const Shard& shard(const ResKey& key) const {
    return shards_[shard_index(key)];
  }

  AsId owner_;
  std::atomic<ResId> last_res_id_{0};
  std::vector<Shard> shards_;
};

}  // namespace colibri::reservation
