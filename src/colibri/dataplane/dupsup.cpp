#include "colibri/dataplane/dupsup.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <new>

#include "colibri/dataplane/prefetch.hpp"

namespace colibri::dataplane {
namespace {

constexpr size_t kPageBytes = 4096;
constexpr size_t kHugePageBytes = size_t{2} << 20;

size_t round_up_pow2(size_t n) {
  size_t p = 64;
  while (p < n) p <<= 1;
  return p;
}

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

// The double-hashing pair (h1, h2) of one packet identifier; h2 is odd so
// the k probes of a power-of-two filter are distinct.
struct IdHash {
  std::uint64_t h1;
  std::uint64_t h2;
};

inline IdHash hash_id(AsId src, ResId res, std::uint32_t ts) {
  const std::uint64_t h1 =
      mix64(src.raw() ^ (static_cast<std::uint64_t>(res) << 32) ^ ts);
  return {h1, mix64(h1 ^ 0x6A09E667F3BCC909ULL) | 1};
}

// A filter of `bits` occupies whole pages.
size_t mapped_bytes(size_t bits) {
  return (round_up_pow2(bits) / 8 + kPageBytes - 1) & ~(kPageBytes - 1);
}

// Maps `bytes` (a multiple of the page size) of zeroed memory at a 2 MiB
// boundary: over-map by 2 MiB and unmap the unaligned head and the tail.
std::uint64_t* map_words(size_t bytes) {
  const size_t span = bytes + kHugePageBytes;
  void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t start =
      (base + kHugePageBytes - 1) & ~(std::uintptr_t{kHugePageBytes} - 1);
  if (start != base) munmap(raw, start - base);
  const std::uintptr_t end = start + bytes;
  if (end != base + span) {
    munmap(reinterpret_cast<void*>(end), base + span - end);
  }
  auto* words = reinterpret_cast<std::uint64_t*>(start);
#if defined(MADV_HUGEPAGE)
  madvise(words, bytes, MADV_HUGEPAGE);
#endif
  // Fault every page in now, so the packet path takes no page fault.
  auto* touch = static_cast<volatile std::uint64_t*>(words);
  for (size_t i = 0; i < bytes / 8; i += kPageBytes / 8) touch[i] = 0;
  return words;
}

}  // namespace

void BloomFilter::Unmap::operator()(std::uint64_t* words) const {
  munmap(words, bytes);
}

BloomFilter::BloomFilter(size_t bits, int k)
    : words_(map_words(mapped_bytes(bits)), Unmap{mapped_bytes(bits)}),
      mask_(round_up_pow2(bits) - 1),
      k_(k) {}

bool BloomFilter::test_and_set(std::uint64_t h1, std::uint64_t h2) {
  bool present = true;
  for (int i = 0; i < k_; ++i) {
    const std::uint64_t bit = (h1 + static_cast<std::uint64_t>(i) * h2) & mask_;
    std::uint64_t& word = words_[bit >> 6];
    const std::uint64_t m = 1ULL << (bit & 63);
    if ((word & m) == 0) {
      present = false;
      word |= m;
    }
  }
  return present;
}

bool BloomFilter::test(std::uint64_t h1, std::uint64_t h2) const {
  for (int i = 0; i < k_; ++i) {
    const std::uint64_t bit = (h1 + static_cast<std::uint64_t>(i) * h2) & mask_;
    if ((words_[bit >> 6] & (1ULL << (bit & 63))) == 0) return false;
  }
  return true;
}

void BloomFilter::prefetch(std::uint64_t h1, std::uint64_t h2) const {
  for (int i = 0; i < k_; ++i) {
    const std::uint64_t bit = (h1 + static_cast<std::uint64_t>(i) * h2) & mask_;
    prefetch_t2(&words_[bit >> 6]);
  }
}

void BloomFilter::prefetch_first(std::uint64_t h1) const {
  prefetch_t2(&words_[(h1 & mask_) >> 6]);
}

void BloomFilter::clear() {
  std::fill(words_.get(), words_.get() + (mask_ >> 6) + 1, 0);
}

double BloomFilter::predicted_fpr(size_t bits, int k, size_t n) {
  const double exponent = -static_cast<double>(k) * static_cast<double>(n) /
                          static_cast<double>(bits);
  return std::pow(1.0 - std::exp(exponent), k);
}

DuplicateSuppression::DuplicateSuppression(const DupSupConfig& cfg,
                                           telemetry::MetricsRegistry* registry)
    : cfg_(cfg),
      current_(cfg.bits_per_filter, cfg.hashes),
      previous_(cfg.bits_per_filter, cfg.hashes),
      registration_(registry, this) {}

void DuplicateSuppression::maybe_rotate(TimeNs now) {
  if (now - window_start_ < cfg_.window_ns) return;
  std::swap(current_, previous_);
  current_.clear();
  window_start_ = now;
}

void DuplicateSuppression::prefetch(AsId src, ResId res,
                                    std::uint32_t ts) const {
  // Prefetching all 2k probes measured slower than these 1 + k: more
  // lines in flight than a core keeps, for words check() never reads.
  const IdHash h = hash_id(src, res, ts);
  previous_.prefetch_first(h.h1);
  current_.prefetch(h.h1, h.h2);
}

DuplicateSuppression::Verdict DuplicateSuppression::check(AsId src, ResId res,
                                                          std::uint32_t ts,
                                                          TimeNs ts_ns,
                                                          TimeNs now) {
  maybe_rotate(now);
  // Packets older than the combined history of both filters can no longer
  // be checked for duplication and must be dropped as stale.
  if (ts_ns + 2 * cfg_.window_ns < now) {
    stale_.bump();
    return Verdict::kStale;
  }
  const IdHash h = hash_id(src, res, ts);
  if (previous_.test(h.h1, h.h2) || current_.test_and_set(h.h1, h.h2)) {
    duplicates_.bump();
    return Verdict::kDuplicate;
  }
  return Verdict::kFresh;
}

}  // namespace colibri::dataplane
