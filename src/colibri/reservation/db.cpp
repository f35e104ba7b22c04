#include "colibri/reservation/db.hpp"

namespace colibri::reservation {

std::vector<SegrRecord> ReservationDb::segr_snapshot() const {
  std::vector<SegrRecord> out;
  std::lock_guard lock(mu_);
  out.reserve(segrs_.size());
  segrs_.for_each([&](const SegrRecord& rec) { out.push_back(rec); });
  return out;
}

std::vector<EerRecord> ReservationDb::eer_snapshot() const {
  std::vector<EerRecord> out;
  std::lock_guard lock(mu_);
  out.reserve(eers_.size());
  eers_.for_each([&](const EerRecord& rec) { out.push_back(rec); });
  return out;
}

template <typename Rec>
size_t ReservationDb::sweep(UnixSec now, RecordStore<Rec>& store,
                            const std::function<void(const Rec&)>& on_remove,
                            size_t* examined) {
  std::vector<Rec> swept;
  size_t removed = 0;
  {
    std::lock_guard lock(mu_);
    removed = store.sweep(
        now, [&](Rec&& rec) { swept.push_back(std::move(rec)); }, examined);
  }
  // Callbacks outside the lock: they may release admission state or log
  // to the WAL without holding the db lock.
  if (on_remove) {
    for (const Rec& rec : swept) on_remove(rec);
  }
  return removed;
}

size_t ReservationDb::sweep_segrs(
    UnixSec now, const std::function<void(const SegrRecord&)>& on_remove,
    size_t* examined) {
  return sweep(now, segrs_, on_remove, examined);
}

size_t ReservationDb::sweep_eers(
    UnixSec now, const std::function<void(const EerRecord&)>& on_remove,
    size_t* examined) {
  return sweep(now, eers_, on_remove, examined);
}

}  // namespace colibri::reservation
