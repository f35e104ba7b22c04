// Per-AS reservation database: the AS's SegR store and EER store
// behind one mutex.
//
// The CServ runs single-threaded (the bus delivers synchronously), so
// the lock is never contended there; it keeps the database safe to
// share, and the control-plane stress tests race it under TSan. The
// ResId allocator is atomic (paper §4.3: "the CServ increases the ResId
// for every new SegR or EER", making (SrcAS, ResId) globally unique), so
// concurrent setup requests never mint duplicate ids.
//
// API contract:
//  * with_segr / with_eer run a callback on the record pointer (nullptr
//    when absent) under the lock. Callbacks must be short and must not
//    re-enter the database or call out to the bus. The mutating
//    overloads keep the expiry index exact (store.hpp): a callback that
//    moves a deadline earlier re-files the record.
//  * with_segr_pair runs one callback on two SegRs under the lock, so a
//    multi-record admission update is atomic.
//  * for_each_* run fn on every record under the lock, so fn must not
//    re-enter the database either; segr_snapshot / eer_snapshot copy the
//    records out for scans that do.
//  * sweep_segrs / sweep_eers are two-phase: expired records are removed
//    under the lock, but the on_remove callbacks run on the removed
//    records *after* the lock is dropped, so they may re-enter the
//    database or release admission state. Each pops only the index
//    entries due by `now`; callbacks run in (deadline, src_as, res_id)
//    order.
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
  explicit ReservationDb(AsId owner) : owner_(owner) {}

  ReservationDb(const ReservationDb&) = delete;
  ReservationDb& operator=(const ReservationDb&) = delete;

  AsId owner() const { return owner_; }

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
    std::lock_guard lock(mu_);
    const auto rec = segrs_.edit(key);
    return fn(rec.get());
  }
  template <typename Fn>
  decltype(auto) with_segr(const ResKey& key, Fn&& fn) const {
    std::lock_guard lock(mu_);
    return fn(segrs_.find(key));
  }
  template <typename Fn>
  decltype(auto) with_eer(const ResKey& key, Fn&& fn) {
    std::lock_guard lock(mu_);
    const auto rec = eers_.edit(key);
    return fn(rec.get());
  }
  template <typename Fn>
  decltype(auto) with_eer(const ResKey& key, Fn&& fn) const {
    std::lock_guard lock(mu_);
    return fn(eers_.find(key));
  }

  // Runs fn(SegrRecord* a, SegrRecord* b) under the lock. `b` may be
  // absent (res_id 0 never names a reservation) — fn then gets nullptr
  // for it.
  template <typename Fn>
  decltype(auto) with_segr_pair(const ResKey& a, const std::optional<ResKey>& b,
                                Fn&& fn) {
    std::lock_guard lock(mu_);
    const auto ra = segrs_.edit(a);
    if (!b) return fn(ra.get(), static_cast<SegrRecord*>(nullptr));
    const auto rb = segrs_.edit(*b);
    return fn(ra.get(), rb.get());
  }

  // --- mutation ------------------------------------------------------------
  // Inserts or replaces; `under_lock` (if provided) runs on the stored
  // record while the lock is still held — the WAL mirrors mutations from
  // there so log order matches apply order.
  void upsert_segr(SegrRecord rec) {
    upsert_segr(std::move(rec), [](const SegrRecord&) {});
  }
  template <typename Fn>
  void upsert_segr(SegrRecord rec, Fn&& under_lock) {
    std::lock_guard lock(mu_);
    under_lock(*segrs_.upsert(std::move(rec)));
  }
  void upsert_eer(EerRecord rec) {
    upsert_eer(std::move(rec), [](const EerRecord&) {});
  }
  template <typename Fn>
  void upsert_eer(EerRecord rec, Fn&& under_lock) {
    std::lock_guard lock(mu_);
    under_lock(*eers_.upsert(std::move(rec)));
  }

  bool erase_segr(const ResKey& key) {
    std::lock_guard lock(mu_);
    return segrs_.erase(key);
  }
  bool erase_eer(const ResKey& key) {
    std::lock_guard lock(mu_);
    return eers_.erase(key);
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
    std::lock_guard lock(mu_);
    return segrs_.size();
  }
  size_t eer_count() const {
    std::lock_guard lock(mu_);
    return eers_.size();
  }

  // --- iteration -----------------------------------------------------------
  // Scan under the lock; fn must not re-enter the database. For scans
  // that need to call back into the db (or run long), use the snapshots.
  template <typename Fn>
  void for_each_segr(Fn&& fn) const {
    std::lock_guard lock(mu_);
    segrs_.for_each(fn);
  }
  template <typename Fn>
  void for_each_eer(Fn&& fn) const {
    std::lock_guard lock(mu_);
    eers_.for_each(fn);
  }
  std::vector<SegrRecord> segr_snapshot() const;
  std::vector<EerRecord> eer_snapshot() const;

  // --- expiry --------------------------------------------------------------
  // Two-phase sweeps: removal happens under the lock, the callbacks run
  // on the removed records after it is released (safe to re-enter the
  // db / release admission state from them), in (deadline, src_as,
  // res_id) order. Return the number removed and add the number of index
  // entries popped (expired plus re-filed) to `*examined`.
  size_t sweep_segrs(UnixSec now,
                     const std::function<void(const SegrRecord&)>& on_remove,
                     size_t* examined = nullptr);
  size_t sweep_eers(UnixSec now,
                    const std::function<void(const EerRecord&)>& on_remove,
                    size_t* examined = nullptr);

 private:
  template <typename Rec>
  size_t sweep(UnixSec now, RecordStore<Rec>& store,
               const std::function<void(const Rec&)>& on_remove,
               size_t* examined);

  AsId owner_;
  std::atomic<ResId> last_res_id_{0};
  mutable std::mutex mu_;
  SegrStore segrs_;
  EerStore eers_;
};

}  // namespace colibri::reservation
