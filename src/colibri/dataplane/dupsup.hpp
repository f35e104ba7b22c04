// In-network duplicate suppression (paper §2.3, §5.1; Lee et al. [32]).
//
// Replayed Colibri packets would let an on-path adversary both congest
// links and frame the honest source. Each packet is uniquely identified
// by (SrcAS, ResId, Ver, Ts); the detector remembers recently seen
// identifiers in two alternating Bloom filters covering consecutive time
// windows, so memory stays bounded while the effective history spans at
// least one full window (≥ max clock skew + max propagation delay).
// Packets older than the history horizon are rejected as stale.
#pragma once

#include <cstdint>
#include <memory>

#include "colibri/common/clock.hpp"
#include "colibri/common/ids.hpp"
#include "colibri/telemetry/metrics.hpp"

namespace colibri::dataplane {

// The words live in one anonymous mapping, 2 MiB-aligned and advised for
// transparent huge pages, so a filter of 2 MiB or more costs one TLB
// entry per 2 MiB instead of one per 4 KiB; smaller filters get none.
// Every page is faulted in by the constructor, not on the packet path.
// Move-only: the mapping has one owner.
class BloomFilter {
 public:
  // `bits` rounded up to a power of two; k hash probes per element.
  BloomFilter(size_t bits, int k);

  // Inserts the element; returns true if it was (probably) already there.
  bool test_and_set(std::uint64_t h1, std::uint64_t h2);
  bool test(std::uint64_t h1, std::uint64_t h2) const;
  // Prefetch the words the k probes of (h1, h2) touch (test_and_set's).
  void prefetch(std::uint64_t h1, std::uint64_t h2) const;
  // Prefetch probe 0's word only: test() stops at the first clear bit,
  // which in a sparsely filled filter is almost always probe 0.
  void prefetch_first(std::uint64_t h1) const;
  void clear();

  // Predicted false-positive rate after n insertions.
  static double predicted_fpr(size_t bits, int k, size_t n);

 private:
  struct Unmap {
    size_t bytes;
    void operator()(std::uint64_t* words) const;
  };

  std::unique_ptr<std::uint64_t[], Unmap> words_;
  std::uint64_t mask_;
  int k_;
};

struct DupSupConfig {
  size_t bits_per_filter = 1 << 22;  // 4 Mbit = 512 KiB per filter
  int hashes = 4;
  TimeNs window_ns = 2 * kNsPerSec;  // covers ±0.1 s skew + propagation
};

// Point-in-time view of the detector's counters (see snapshot()).
struct DupSupStats {
  std::uint64_t duplicates = 0;
  std::uint64_t stale = 0;
};

class DuplicateSuppression : public telemetry::MetricsSource {
 public:
  // Registers with `registry` (nullptr = none); counters export under
  // "dupsup.*", aggregated across instances.
  explicit DuplicateSuppression(const DupSupConfig& cfg = {},
                                telemetry::MetricsRegistry* registry =
                                    &telemetry::MetricsRegistry::global());
  ~DuplicateSuppression() override = default;

  DuplicateSuppression(const DuplicateSuppression&) = delete;
  DuplicateSuppression& operator=(const DuplicateSuppression&) = delete;

  enum class Verdict : std::uint8_t { kFresh, kDuplicate, kStale };

  // `ts_ns` is the packet timestamp decoded to absolute time; `now` is
  // local time. Inserts fresh identifiers.
  Verdict check(AsId src, ResId res, std::uint32_t ts, TimeNs ts_ns,
                TimeNs now);

  // Prefetch the Bloom-filter words check() reads for a fresh identifier:
  // probe 0 of the older filter and all k probes of the current one
  // (1 + k lines). Purely a cache hint; no state changes.
  void prefetch(AsId src, ResId res, std::uint32_t ts) const;

  std::uint64_t duplicates_seen() const { return duplicates_.value(); }
  std::uint64_t stale_seen() const { return stale_.value(); }

  // Uniform stats accessors: consistent point-in-time view + reset.
  DupSupStats snapshot() const {
    return {duplicates_.value(), stale_.value()};
  }
  void reset() {
    duplicates_.reset();
    stale_.reset();
  }

  void collect_metrics(telemetry::MetricSink& sink) const override {
    sink.counter("dupsup.duplicates", duplicates_.value());
    sink.counter("dupsup.stale", stale_.value());
  }

 private:
  void maybe_rotate(TimeNs now);

  DupSupConfig cfg_;
  BloomFilter current_;
  BloomFilter previous_;
  TimeNs window_start_ = 0;
  telemetry::Counter duplicates_;
  telemetry::Counter stale_;
  telemetry::ScopedSource registration_;
};

}  // namespace colibri::dataplane
