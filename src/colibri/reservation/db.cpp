#include "colibri/reservation/db.hpp"

#include <algorithm>

namespace colibri::reservation {

std::vector<SegrRecord> ReservationDb::segr_snapshot() const {
  std::vector<SegrRecord> out;
  out.reserve(segr_count());
  for_each_segr([&](const SegrRecord& rec) { out.push_back(rec); });
  return out;
}

std::vector<EerRecord> ReservationDb::eer_snapshot() const {
  std::vector<EerRecord> out;
  out.reserve(eer_count());
  for_each_eer([&](const EerRecord& rec) { out.push_back(rec); });
  return out;
}

std::vector<ResKey> ReservationDb::eer_keys_of_shard(size_t shard_idx) const {
  std::vector<ResKey> keys;
  if (shard_idx >= shards_.size()) return keys;
  const Shard& s = shards_[shard_idx];
  {
    std::lock_guard lock(s.mu);
    keys.reserve(s.eers.size());
    s.eers.for_each([&](const EerRecord& rec) { keys.push_back(rec.key); });
  }
  std::sort(keys.begin(), keys.end(), [](const ResKey& a, const ResKey& b) {
    return a.res_id != b.res_id ? a.res_id < b.res_id
                                : a.src_as.raw() < b.src_as.raw();
  });
  return keys;
}

template <typename Rec>
size_t ReservationDb::sweep(UnixSec now, RecordStore<Rec> Shard::*store,
                            const std::function<void(const Rec&)>& on_remove,
                            size_t* examined) {
  size_t removed = 0;
  std::vector<Rec> swept;
  for (auto& s : shards_) {
    {
      std::lock_guard lock(s.mu);
      removed += (s.*store).sweep(
          now, [&](Rec&& rec) { swept.push_back(std::move(rec)); }, examined);
    }
    // Callbacks outside the shard lock: they may release admission state
    // or log to the WAL without holding any db lock.
    if (on_remove) {
      for (const Rec& rec : swept) on_remove(rec);
    }
    swept.clear();
  }
  return removed;
}

size_t ReservationDb::sweep_segrs(
    UnixSec now, const std::function<void(const SegrRecord&)>& on_remove,
    size_t* examined) {
  return sweep(now, &Shard::segrs, on_remove, examined);
}

size_t ReservationDb::sweep_eers(
    UnixSec now, const std::function<void(const EerRecord&)>& on_remove,
    size_t* examined) {
  return sweep(now, &Shard::eers, on_remove, examined);
}

}  // namespace colibri::reservation
