// Control-plane scalability on generated topologies (§6.2's claim that
// the control plane "will be able to scale to large, highly-
// interconnected networks like today's Internet").
//
// Sweeps the topology size and reports: beacon-discovered segments, full
// SegR provisioning time and per-request latency, bus message counts
// (communication overhead), and the time to establish an EER across the
// network. The scaling claim holds if per-request latency stays flat as
// the network grows.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <chrono>
#include <memory>

#include "colibri/app/testbed.hpp"
#include "colibri/reservation/db.hpp"
#include "colibri/topology/generator.hpp"

namespace {

using namespace colibri;

topology::GeneratorConfig config_for(int scale) {
  topology::GeneratorConfig cfg;
  cfg.isds = 2;
  cfg.cores_per_isd = 2;
  cfg.fanout = scale;
  cfg.depth = 2;
  cfg.multihome_prob = 0.2;
  cfg.seed = 12;
  return cfg;
}

void BM_ProvisionGeneratedTopology(benchmark::State& state) {
  const auto cfg = config_for(static_cast<int>(state.range(0)));
  std::uint64_t total_segments = 0;
  std::uint64_t total_messages = 0;
  size_t ases = 0;
  for (auto _ : state) {
    SimClock clock(1000 * kNsPerSec);
    app::Testbed bed(topology::generate_topology(cfg), clock);
    ases = bed.topology().as_count();
    const std::uint64_t before = bed.bus().snapshot().messages;
    const size_t provisioned = bed.provision_all_segments(100, 500'000);
    total_segments += provisioned;
    total_messages += bed.bus().snapshot().messages - before;
  }
  state.counters["ASes"] = static_cast<double>(ases);
  state.counters["segments_provisioned"] =
      static_cast<double>(total_segments) /
      static_cast<double>(state.iterations());
  state.counters["bus_msgs_per_segment"] =
      static_cast<double>(total_messages) /
      std::max<double>(1.0, static_cast<double>(total_segments));
}

BENCHMARK(BM_ProvisionGeneratedTopology)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

void BM_EerAcrossGeneratedTopology(benchmark::State& state) {
  const auto cfg = config_for(static_cast<int>(state.range(0)));
  SimClock clock(1000 * kNsPerSec);
  app::Testbed bed(topology::generate_topology(cfg), clock);
  bed.provision_all_segments(100, 500'000);

  AsId src, dst;
  for (AsId id : bed.topology().as_ids()) {
    if (bed.topology().node(id).core) continue;
    if (id.isd() == 1) src = id;
    if (id.isd() == 2) dst = id;
  }

  std::uint64_t ok = 0;
  std::uint64_t host = 1;
  for (auto _ : state) {
    auto r = bed.daemon(src).open_session(dst, HostAddr::from_u64(host++),
                                          HostAddr::from_u64(2), 1, 10);
    benchmark::DoNotOptimize(r);
    ok += r.ok();
    clock.advance(20'000'000);
    if ((host & 0x3F) == 0) bed.tick_all();
  }
  state.counters["ASes"] = static_cast<double>(bed.topology().as_count());
  state.SetItemsProcessed(static_cast<std::int64_t>(ok));
  if (ok == 0) state.SkipWithError("no EER succeeded");
}

BENCHMARK(BM_EerAcrossGeneratedTopology)
    ->Arg(2)
    ->Arg(4)
    ->Arg(5)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(2000);

// --- expiry tick: cost follows what is due, not what is live ------------
//
// One ReservationDb::sweep_eers over a db holding N live EERs, 0% or 1%
// of them due. With the expiry index the 0%-due sweep costs the same at
// every N, and the 1%-due sweep grows with the number due (it used to
// scan all N records every tick). Five repetitions per row; the JSON p50
// is their median, p99 their spread.

reservation::EerRecord sweep_eer(ResId id, UnixSec exp) {
  reservation::EerRecord rec;
  rec.key = ResKey{AsId{1, 10}, id};
  rec.versions = {reservation::EerVersion{0, 10, exp}};
  return rec;
}

void BM_ExpirySweep(benchmark::State& state) {
  constexpr UnixSec kNow = 1'000;
  const auto live = static_cast<ResId>(state.range(0));
  const auto due = static_cast<ResId>(live * state.range(1) / 100);
  reservation::ReservationDb db(AsId{1, 10});
  for (ResId id = 1; id <= live - due; ++id) {
    db.upsert_eer(sweep_eer(id, kNow + reservation::kEerLifetimeSec));
  }
  ResId next = live - due;
  size_t removed = 0;
  size_t examined = 0;
  for (auto _ : state) {
    if (due != 0) {
      state.PauseTiming();
      for (ResId i = 0; i < due; ++i) db.upsert_eer(sweep_eer(++next, kNow));
      state.ResumeTiming();
    }
    removed += db.sweep_eers(kNow, nullptr, &examined);
  }
  if (removed != static_cast<size_t>(due) * state.iterations()) {
    state.SkipWithError("sweep removed the wrong number of EERs");
  }
  state.counters["live_eers"] = live;
  state.counters["examined_per_sweep"] =
      static_cast<double>(examined) / static_cast<double>(state.iterations());
}

BENCHMARK(BM_ExpirySweep)
    ->ArgNames({"live", "due_pct"})
    ->ArgsProduct({{10'000, 100'000, 1'000'000}, {0, 1}})
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(100)
    ->Repetitions(5);

}  // namespace

COLIBRI_BENCH_MAIN(bench_scale_controlplane);
