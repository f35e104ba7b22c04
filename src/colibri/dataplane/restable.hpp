// Gateway reservation table: ResId -> reservation state.
//
// Open-addressing hash table with linear probing, modelled after the
// DPDK rte_hash setup the paper's gateway uses (§7.1): flat storage, one
// cache-line-friendly probe sequence, no per-lookup allocation. The
// gateway serves only reservations originating in its own AS, so the
// 32-bit ResId is the complete key. Entries are large (hop authenticators
// for up to proto::kMaxHops ASes), so the table stores them out-of-line
// in a parallel slot array.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "colibri/dataplane/hvf.hpp"
#include "colibri/dataplane/tokenbucket.hpp"
#include "colibri/proto/packet.hpp"

namespace colibri::dataplane {

struct IfPair {
  std::uint16_t in = 0;
  std::uint16_t eg = 0;
};

// Everything the gateway must remember per EER (paper §4.6): header
// contents to fill in, hop authenticators to key the per-packet MACs, and
// the token bucket for deterministic monitoring.
struct GatewayEntry {
  proto::ResInfo resinfo;
  proto::EerInfo eerinfo;
  std::uint8_t num_hops = 0;
  std::array<IfPair, proto::kMaxHops> ifaces;
  std::array<HopAuth, proto::kMaxHops> sigmas;
  TokenBucket bucket;
};

class ResTable {
 public:
  // Capacity is rounded up to a power of two; the table rebuilds itself
  // when live entries plus tombstones exceed ~70 % of it, doubling only
  // when live entries fill more than half.
  explicit ResTable(size_t expected_entries = 1024);

  // Inserts or overwrites. ResId 0 is reserved and rejected.
  bool insert(ResId id, GatewayEntry entry);
  GatewayEntry* find(ResId id);
  const GatewayEntry* find(ResId id) const;
  bool erase(ResId id);

  // Software-prefetch the probe start for `id` (key word and slot). The
  // batched pipeline issues these for the whole batch before the lookup
  // stage so DRAM latency overlaps across packets.
  void prefetch(ResId id) const {
    const size_t i = probe(id);
    __builtin_prefetch(&keys_[i], 0, 3);
    __builtin_prefetch(&slots_[i], 0, 1);
  }

  // Visits every live entry as fn(ResId, const GatewayEntry&). Iteration
  // order is unspecified (hash order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmpty && keys_[i] != kTombstone) fn(keys_[i], slots_[i]);
    }
  }

  size_t size() const { return size_; }
  size_t capacity() const { return keys_.size(); }

 private:
  static constexpr ResId kEmpty = 0;
  static constexpr ResId kTombstone = 0xFFFF'FFFF;

  static std::uint64_t mix(ResId id) {
    std::uint64_t h = id;
    h *= 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 32;
    return h;
  }

  size_t probe(ResId id) const { return mix(id) & (keys_.size() - 1); }
  void grow();

  std::vector<ResId> keys_;
  std::vector<GatewayEntry> slots_;
  size_t size_ = 0;
  size_t used_ = 0;  // live + tombstones
};

}  // namespace colibri::dataplane
