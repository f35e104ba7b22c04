#include "colibri/dataplane/restable.hpp"

namespace colibri::dataplane {
namespace {

size_t round_up_pow2(size_t n) {
  size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

ResTable::ResTable(size_t expected_entries)
    : keys_(round_up_pow2(expected_entries * 2), kEmpty),
      slots_(keys_.size()) {}

bool ResTable::insert(ResId id, GatewayEntry entry) {
  if (id == kEmpty || id == kTombstone) return false;
  if ((used_ + 1) * 10 > keys_.size() * 7) grow();
  size_t i = probe(id);
  size_t first_tomb = keys_.size();
  while (true) {
    const ResId k = keys_[i];
    if (k == id) {
      slots_[i] = std::move(entry);
      return true;
    }
    if (k == kTombstone && first_tomb == keys_.size()) first_tomb = i;
    if (k == kEmpty) {
      const size_t target = (first_tomb != keys_.size()) ? first_tomb : i;
      if (keys_[target] == kEmpty) ++used_;
      keys_[target] = id;
      slots_[target] = std::move(entry);
      ++size_;
      return true;
    }
    i = (i + 1) & (keys_.size() - 1);
  }
}

GatewayEntry* ResTable::find(ResId id) {
  size_t i = probe(id);
  while (true) {
    const ResId k = keys_[i];
    if (k == id) return &slots_[i];
    if (k == kEmpty) return nullptr;
    i = (i + 1) & (keys_.size() - 1);
  }
}

const GatewayEntry* ResTable::find(ResId id) const {
  return const_cast<ResTable*>(this)->find(id);
}

bool ResTable::erase(ResId id) {
  size_t i = probe(id);
  while (true) {
    const ResId k = keys_[i];
    if (k == id) {
      keys_[i] = kTombstone;
      slots_[i] = GatewayEntry{};
      --size_;
      return true;
    }
    if (k == kEmpty) return false;
    i = (i + 1) & (keys_.size() - 1);
  }
}

void ResTable::grow() {
  // Tombstones count toward the load limit. When live entries fill at
  // most half the table, they are what pushed it past the limit: rebuild
  // at the same capacity (freeing at least a fifth of the slots), so an
  // insert/erase churn at constant size never grows the table.
  const bool live_full = (size_ + 1) * 2 > keys_.size();
  std::vector<ResId> old_keys = std::move(keys_);
  std::vector<GatewayEntry> old_slots = std::move(slots_);
  keys_.assign(live_full ? old_keys.size() * 2 : old_keys.size(), kEmpty);
  slots_.assign(keys_.size(), GatewayEntry{});
  size_ = 0;
  used_ = 0;
  for (size_t i = 0; i < old_keys.size(); ++i) {
    if (old_keys[i] != kEmpty && old_keys[i] != kTombstone) {
      insert(old_keys[i], std::move(old_slots[i]));
    }
  }
}

}  // namespace colibri::dataplane
