// Ablation: duplicate-suppression Bloom-filter sizing (§2.3, §5.1).
//
// Sweeps bits-per-filter and hash count, reporting per-packet check cost
// and the measured false-positive rate (an FP drops a *legitimate* fresh
// packet, so the deployment question is how much memory buys how many
// nines), against the analytic prediction. BM_DupSupBatch times the
// router's prefetch-then-check batch at the default size and at
// dp_forward's.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_json.hpp"

#include "colibri/common/rand.hpp"
#include "colibri/dataplane/dupsup.hpp"

namespace {

using namespace colibri;
using dataplane::BloomFilter;
using dataplane::DupSupConfig;
using dataplane::DuplicateSuppression;

void BM_DupSupCheck(benchmark::State& state) {
  DupSupConfig cfg;
  cfg.bits_per_filter = static_cast<size_t>(state.range(0));
  cfg.hashes = static_cast<int>(state.range(1));
  DuplicateSuppression ds(cfg);
  const AsId src{1, 7};
  TimeNs t = kNsPerSec;
  std::uint32_t ts = 1;
  for (auto _ : state) {
    t += 100;
    benchmark::DoNotOptimize(ds.check(src, ts & 0xFFF, ts, t, t));
    ++ts;
  }
  state.counters["Mbits"] =
      static_cast<double>(cfg.bits_per_filter) / (1 << 20);
  state.counters["hashes"] = cfg.hashes;
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_DupSupCheck)
    ->ArgsProduct({{1 << 18, 1 << 20, 1 << 22, 1 << 24}, {2, 4, 8}});

void BM_DupSupBatch(benchmark::State& state) {
  // The router's pattern: 64 random identifiers per batch, all prefetched
  // (DuplicateSuppression::prefetch), then all checked in order. Time
  // advances so a window holds bits / (16 k) identifiers, which fills a
  // filter to about 6% before it rotates, as in dp_forward.
  constexpr size_t kBatch = 64;
  DupSupConfig cfg;
  cfg.bits_per_filter = static_cast<size_t>(state.range(0));
  cfg.hashes = static_cast<int>(state.range(1));
  DuplicateSuppression ds(cfg);
  const auto per_window = static_cast<TimeNs>(
      cfg.bits_per_filter / (16 * static_cast<size_t>(cfg.hashes)));
  const TimeNs step = cfg.window_ns / per_window;
  std::vector<ResId> ids(1 << 16);
  Rng rng(11);
  for (ResId& id : ids) id = static_cast<ResId>(rng.next());
  const AsId src{1, 7};
  TimeNs t = kNsPerSec;
  std::uint32_t ts = 1;
  size_t at = 0;
  for (auto _ : state) {
    const ResId* batch = &ids[at];
    for (size_t i = 0; i < kBatch; ++i) {
      ds.prefetch(src, batch[i], ts + static_cast<std::uint32_t>(i));
    }
    for (size_t i = 0; i < kBatch; ++i) {
      t += step;
      benchmark::DoNotOptimize(
          ds.check(src, batch[i], ts + static_cast<std::uint32_t>(i), t, t));
    }
    ts += kBatch;
    at = (at + kBatch) % ids.size();
  }
  state.counters["Mbits"] =
      static_cast<double>(cfg.bits_per_filter) / (1 << 20);
  state.counters["hashes"] = cfg.hashes;
  state.counters["duplicates"] = static_cast<double>(ds.duplicates_seen());
  state.SetItemsProcessed(state.iterations() * kBatch);
}

// The default filter, and dp_forward's (64 Mbit = 8 MiB, 10 hashes).
BENCHMARK(BM_DupSupBatch)->Args({1 << 22, 4})->Args({1 << 26, 10});

void BM_BloomFalsePositiveRate(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const size_t inserts = static_cast<size_t>(state.range(2));

  std::uint64_t fp = 0;
  std::uint64_t probes = 0;
  for (auto _ : state) {
    BloomFilter f(bits, k);
    Rng rng(17);
    for (size_t i = 0; i < inserts; ++i) {
      f.test_and_set(rng.next(), rng.next() | 1);
    }
    for (int i = 0; i < 100'000; ++i) {
      fp += f.test(rng.next(), rng.next() | 1);
      ++probes;
    }
  }
  state.counters["measured_fpr"] =
      static_cast<double>(fp) / static_cast<double>(probes);
  state.counters["predicted_fpr"] = BloomFilter::predicted_fpr(bits, k, inserts);
  state.counters["KiB"] = static_cast<double>(bits) / 8 / 1024;
}

BENCHMARK(BM_BloomFalsePositiveRate)
    ->ArgsProduct({{1 << 18, 1 << 20, 1 << 22}, {4}, {1 << 14, 1 << 16, 1 << 18}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace

COLIBRI_BENCH_MAIN(bench_ablation_dupsup);
